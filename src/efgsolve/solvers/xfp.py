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
        self.sigma = np.zeros(tree.n_cols)
        for isid in range(tree.n_infosets):
            sl = tree.col_slice(isid)
            self.sigma[sl] = 1.0 / tree.is_nact[isid]

    def _own_reach(self, player: int, pure=None) -> np.ndarray:
        """Sequence probability of each of the player's infostates under
        the average policy, or 0/1 consistency under a pure policy."""
        tree = self.tree
        x = np.zeros(tree.n_infosets)
        for isid in tree.infosets_of(player):
            p_isid = tree.is_parent[isid]
            if p_isid < 0:
                base = 1.0
            else:
                slot = int(tree.is_parent_slot[isid])
                if pure is None:
                    off = int(tree.is_off[p_isid])
                    base = x[p_isid] * self.sigma[off + slot]
                else:
                    key = tree.keys[p_isid]
                    acts = tree.is_actions[p_isid]
                    base = x[p_isid] if pure.act(key, acts) == acts[slot] else 0.0
            x[isid] = base
        return x

    def iterate(self, n: int = 1) -> None:
        tree = self.tree
        for _ in range(n):
            self.t += 1
            alpha = 1.0 / (self.t + 1.0)
            brs = [best_response(tree, self.sigma, p, self.counter)
                   for p in (0, 1)]
            for p, br in zip((0, 1), brs):
                x_avg = self._own_reach(p)
                x_br = self._own_reach(p, pure=br.policy)
                for isid in tree.infosets_of(p):
                    denom = (1 - alpha) * x_avg[isid] + alpha * x_br[isid]
                    if denom <= 0.0:
                        continue
                    sl = tree.col_slice(int(isid))
                    row = (1 - alpha) * x_avg[isid] * self.sigma[sl]
                    if x_br[isid] > 0.0:
                        acts = tree.is_actions[isid]
                        a = br.policy.act(tree.keys[isid], acts)
                        onehot = np.zeros(len(acts))
                        onehot[acts.index(a)] = 1.0
                        row = row + alpha * x_br[isid] * onehot
                    self.sigma[sl] = row / denom

    def average_flat(self) -> np.ndarray:
        return self.sigma.copy()
