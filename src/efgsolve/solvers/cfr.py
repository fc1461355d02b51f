"""Counterfactual regret minimization over a TreeIndex.

Each iteration is one sweep of the full tree with simultaneous regret
updates for both players (one history visit per node per iteration).
A sweep gathers the current profile onto the edges once
(``TreeIndex.edge_sigma``); each player's own-reach weights and the
value weights are selections from that gather and ``in_prob``.  One
``TreeIndex.values`` pass gives the player-0 values, and the chance
reach, a constant of the tree, is computed once.  Each player's own
reach is kept between sweeps and recomputed, by one ``TreeIndex.reach``
pass, only after an update of that player's regrets: two passes per
simultaneous sweep, one per alternating sweep.  The updates add to
every column at once; the other player's columns receive exactly +0.0.
``plus=True`` gives CFR+:
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

        # Gathers that depend only on the tree, per player: the edges
        # the player owns, their columns, their parents and the chance
        # reach there; the player's decision nodes and their infostates.
        self._col_isid = tree.col_isid.astype(np.int64)
        self._uniform = 1.0 / tree.is_nact[self._col_isid]
        self._own = [tree.in_player == p for p in (0, 1)]
        self._kids = [np.flatnonzero(own) for own in self._own]
        self._kid_cols = [tree.in_col[kids] for kids in self._kids]
        self._par = [tree.parent[kids] for kids in self._kids]
        rc = tree.reach(tree.in_prob)
        self._rc_par = [rc[par] for par in self._par]
        self._dec_nodes = [
            np.flatnonzero(tree.decision_mask & (tree.player == p))
            for p in (0, 1)
        ]
        self._dec_isid = [tree.infoset[dec] for dec in self._dec_nodes]
        # Each player's own reach under the current profile.  An update
        # changes only its player's regrets, so only that player's reach
        # goes stale: ``_stale`` lists the players to recompute.
        self._reach: list[np.ndarray | None] = [None, None]
        self._stale: tuple[int, ...] = (0, 1)

    def current(self) -> np.ndarray:
        return normalise_rows(self.tree, np.maximum(self.regret, 0.0),
                              self._uniform)

    def _update(self, sigma, v, player):
        """Player ``player``'s regret and strategy-sum update.  Every
        other column receives exactly +0.0 and so keeps its value:
        regrets and sums start at +0.0 and are never -0.0."""
        tree = self.tree
        reach = self._reach
        kids = self._kids[player]
        vp = v[kids] if player == 0 else -v[kids]
        q = np.bincount(
            self._kid_cols[player],
            self._rc_par[player] * reach[1 - player][self._par[player]] * vp,
            minlength=tree.n_cols)
        node_val = np.add.reduceat(sigma * q, tree.is_off)
        self.regret += q - node_val[self._col_isid]
        if self.plus:
            np.maximum(self.regret, 0.0, out=self.regret)

        ow = np.bincount(self._dec_isid[player],
                         reach[player][self._dec_nodes[player]],
                         minlength=tree.n_infosets)
        w = float(self.t) if self.plus else 1.0
        self.ssum += w * ow[self._col_isid] * sigma

    def _sweep(self, players) -> None:
        """One sweep under the current profile: the stale own reach and
        the player-0 values, then the updates of ``players``."""
        tree = self.tree
        sigma = self.current()
        g = tree.edge_sigma(sigma)
        for p in self._stale:
            self._reach[p] = tree.reach(np.where(self._own[p], g, 1.0))
        v = tree.values(tree.in_prob * g)
        for p in players:
            self._update(sigma, v, p)
        self._stale = players
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
