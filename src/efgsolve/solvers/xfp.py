"""Extensive-form fictitious play.

Iteration t computes exact best responses to the current average
profile for both players and mixes each into the average with weight
1/(t+1), realization-equivalently: at every infostate the mix is
weighted by the player's own sequence probability of reaching it under
the average and under the best response, which is what makes behavioral
mixing equal to the normal-form average.
"""

from __future__ import annotations

import numpy as np

from ..evaluate import best_response
from ..tree import NodeCounter, TreeIndex


class Xfp:
    def __init__(self, tree: TreeIndex, counter: NodeCounter | None = None):
        self.tree = tree
        self.counter = counter
        self.t = 0
        self.sigma = tree.uniform.copy()

    def _own_reach(self, player: int, sigma: np.ndarray) -> np.ndarray:
        """Sequence probability of each of the player's infostates (in
        infostate order) under the flat profile ``sigma``: the product
        of the player's own column weights on the way there, one depth
        at a time."""
        x = np.ones(self.tree.own_columns(player).isids.size)
        for g in self.tree.own_levels(player).values():
            x[g.linked] = x[g.parent_slots] * sigma[g.parent_cols]
        return x

    def iterate(self, n: int = 1) -> None:
        tree = self.tree
        for _ in range(n):
            self.t += 1
            alpha = 1.0 / (self.t + 1.0)
            brs = [best_response(tree, self.sigma, p, self.counter)
                   for p in (0, 1)]
            for p, br in zip((0, 1), brs):
                onehot = np.zeros(tree.n_cols)
                onehot[br.choice] = 1.0
                x_avg = self._own_reach(p, self.sigma)
                x_br = self._own_reach(p, onehot)
                # Per column of the player's infostates, in order.
                plan = tree.own_columns(p)
                nact, cols = plan.nact, plan.mask
                denom = np.repeat((1 - alpha) * x_avg + alpha * x_br, nact)
                row = (np.repeat((1 - alpha) * x_avg, nact) * self.sigma[cols]
                       + np.repeat(alpha * x_br, nact) * onehot[cols])
                # Infostates neither the average nor the response reaches
                # keep their rows.
                self.sigma[cols] = np.divide(row, denom,
                                             out=self.sigma[cols],
                                             where=denom > 0.0)

    def average_flat(self) -> np.ndarray:
        return self.sigma.copy()
