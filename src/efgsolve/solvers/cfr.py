"""Counterfactual regret minimization over a TreeIndex.

Each iteration is one sweep of the full tree with simultaneous regret
updates for both players (one history visit per node per iteration).
A sweep gathers the current profile onto the edges once
(``TreeIndex.edge_sigma``); each player's own-reach weights and the
value weights are selections from that gather and ``in_prob``.  Two
``TreeIndex.reach`` passes give each player's own reach, one
``TreeIndex.values`` pass the player-0 values, and the chance reach, a
constant of the tree, is computed once.  ``plus=True`` gives CFR+:
regrets are clamped at zero after every update, the average strategy
is weighted linearly by iteration number, and updates alternate
between players with values recomputed in between (two sweeps per
iteration, each updating one player), which is what makes CFR+ fast;
pass ``alternating`` explicitly to override.
"""

from __future__ import annotations

import numpy as np

from ..tree import NodeCounter, TreeIndex


def normalise_rows(tree: TreeIndex, x: np.ndarray,
                   uniform: np.ndarray) -> np.ndarray:
    """Divide each infostate's columns of ``x`` by their sum; a row that
    sums to zero takes its entries from ``uniform``."""
    norm = np.repeat(np.add.reduceat(x, tree.is_off), tree.is_nact)
    return np.where(norm > 0.0, x / np.where(norm > 0.0, norm, 1.0), uniform)


class Cfr:
    def __init__(self, tree: TreeIndex, plus: bool = False,
                 alternating: bool | None = None,
                 counter: NodeCounter | None = None):
        self.tree = tree
        self.plus = plus
        self.alternating = plus if alternating is None else alternating
        self.counter = counter
        self.t = 0
        self.regret = np.zeros(tree.n_cols)
        self.ssum = np.zeros(tree.n_cols)

        self._col_player = tree.is_player[tree.col_isid]
        self._uniform = 1.0 / tree.is_nact[tree.col_isid]
        self._dec_nodes = [
            np.flatnonzero(tree.decision_mask & (tree.player == p))
            for p in (0, 1)
        ]
        self._pcols = [np.flatnonzero(self._col_player == p) for p in (0, 1)]
        self._own = [tree.in_player == p for p in (0, 1)]
        self._kids = [np.flatnonzero(own) for own in self._own]
        self._kid_cols = [tree.in_col[kids] for kids in self._kids]
        self._rc = tree.reach(tree.in_prob)

    def current(self) -> np.ndarray:
        return normalise_rows(self.tree, np.maximum(self.regret, 0.0),
                              self._uniform)

    def _update(self, sigma, reach, v, player):
        tree = self.tree
        kids, kid_cols = self._kids[player], self._kid_cols[player]
        par = tree.parent[kids]
        vp = v[kids] if player == 0 else -v[kids]
        q = np.zeros(tree.n_cols)
        np.add.at(q, kid_cols, self._rc[par] * reach[1 - player][par] * vp)
        node_val = np.add.reduceat(sigma * q, tree.is_off)
        cols = self._pcols[player]
        self.regret[cols] += q[cols] - node_val[tree.col_isid[cols]]
        if self.plus:
            np.maximum(self.regret, 0.0, out=self.regret,
                       where=self._col_player == player)

        dec = self._dec_nodes[player]
        ow = np.zeros(tree.n_infosets)
        np.add.at(ow, tree.infoset[dec], reach[player][dec])
        w = float(self.t) if self.plus else 1.0
        self.ssum[cols] += w * ow[tree.col_isid[cols]] * sigma[cols]

    def _sweep(self, players) -> None:
        """One sweep under the current profile: each player's own reach
        and the player-0 values, then the updates of ``players``."""
        tree = self.tree
        sigma = self.current()
        g = tree.edge_sigma(sigma)
        reach = [tree.reach(np.where(own, g, 1.0)) for own in self._own]
        v = tree.values(tree.in_prob * g)
        for p in players:
            self._update(sigma, reach, v, p)
        if self.counter is not None:
            self.counter.add(tree.n_nodes)

    def iterate(self, n: int = 1) -> None:
        sweeps = ((0,), (1,)) if self.alternating else ((0, 1),)
        for _ in range(n):
            self.t += 1
            for players in sweeps:
                self._sweep(players)

    def average_flat(self) -> np.ndarray:
        return normalise_rows(self.tree, self.ssum, self._uniform)
