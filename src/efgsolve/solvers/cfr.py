"""Counterfactual regret minimization over a TreeIndex.

Each iteration is one sweep of the full tree with simultaneous regret
updates for both players (one history visit per node per iteration).
``Cfr`` keeps regrets, strategy sums and the current profile in a
player-major column order, fixed by one permutation of the tree's
columns: player 0's columns, then player 1's, each in tree order, so
each player's columns are one block and each of its rows is a run
inside it.  An update changes only its player's block, so it makes
only that player's rows and own reach stale.  The next sweep, or a
``current()`` read, renormalises those rows and recomputes that reach
with one ``TreeIndex.reach`` pass: one player per alternating sweep,
both per simultaneous sweep.  An update's sums, clamp and accumulation
run over its own block.  The profile buffer is followed by the
probabilities of the edges no player owns, the root's 1.0 first, so
one ``take`` gathers the value weights onto the edges, and one more
per player gathers its own-reach weights, 1.0 on every edge it does
not own.  One ``TreeIndex.values`` pass gives the player-0 values, and
the chance reach, a constant of the tree, is computed once.
``regret``, ``ssum``, ``current()`` and ``average_flat()`` read in tree
order.  Every float equals a whole-tree update: each row's and
column's sums keep their order, and player 1's sign rides on its
chance reach.  ``plus=True`` gives CFR+: regrets are clamped at zero
after every update, the average strategy is weighted linearly by
iteration number, and updates alternate between players with values
recomputed in between (two sweeps per iteration, each updating one
player), which is what makes CFR+ fast; pass ``alternating``
explicitly to override.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..tree import NodeCounter, TreeIndex


def _normalise(x: np.ndarray, off: np.ndarray, nact: np.ndarray,
               uniform: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row of ``x`` (runs of ``nact`` columns starting at ``off``)
    divided by its sum, into ``out``; a row that sums to zero takes its
    entries from ``uniform``."""
    norm = np.repeat(np.add.reduceat(x, off), nact)
    np.copyto(out, uniform)
    return np.divide(x, norm, out=out, where=norm > 0.0)


def normalise_rows(tree: TreeIndex, x: np.ndarray) -> np.ndarray:
    """Divide each infostate's columns of ``x`` by their sum; a row that
    sums to zero becomes uniform."""
    return _normalise(x, tree.is_off, tree.is_nact, tree.uniform,
                      np.empty_like(x))


class _Block(NamedTuple):
    """One player's columns in ``Cfr``'s player-major order and the
    gathers over them that depend only on the tree.  Rows, row starts
    and columns count from the block's start."""
    cols: slice          # the block in the player-major order
    off: np.ndarray      # row starts
    nact: np.ndarray     # row lengths
    row: np.ndarray      # each column's row
    uniform: np.ndarray  # each column's uniform probability
    own_at: np.ndarray   # per node, where its own-reach weight is
    kids: np.ndarray     # nodes entered by the player's edges
    kid_cols: np.ndarray  # their columns
    par: np.ndarray      # their parents
    rc_par: np.ndarray   # chance reach at the parents, negated for player 1
    dec: np.ndarray      # the player's decision nodes
    dec_rows: np.ndarray  # their rows


class Cfr:
    def __init__(self, tree: TreeIndex, plus: bool = False,
                 alternating: bool | None = None,
                 counter: NodeCounter | None = None):
        self.tree = tree
        self.plus = plus
        self.alternating = plus if alternating is None else alternating
        self.counter = counter
        self.t = 0
        n = tree.n_cols
        self._regret = np.zeros(n)
        self._ssum = np.zeros(n)

        # ``_pos`` maps a tree column to its player-major column; the
        # stable sort keeps each player's columns in tree order.
        order = np.argsort(tree.is_player[tree.col_isid], kind="stable")
        self._pos = np.empty(n, dtype=np.int64)
        self._pos[order] = np.arange(n)
        # ``_w`` holds the current profile in that order, followed by
        # ``in_prob`` of the nodes entered by no decision edge, the
        # root's 1.0 first.  ``_w_at`` points each node at its edge's
        # weight there, so one ``take`` gives the value weights:
        # ``in_prob`` is exactly 1.0 on decision edges.
        free = np.flatnonzero(tree.in_col < 0)
        self._w = np.concatenate((np.zeros(n), tree.in_prob[free]))
        edge_col = np.append(self._pos, n)[tree.in_col]
        self._w_at = edge_col.copy()
        self._w_at[free] = n + np.arange(free.size)
        rc = tree.reach(tree.in_prob)
        uniform = tree.uniform[order]
        self._blocks = []
        lo = 0
        for p in (0, 1):
            isids = tree.infosets_of(p)
            nact = tree.is_nact[isids]
            width = int(nact.sum())
            rows = np.repeat(np.arange(isids.size), nact)
            own = tree.in_player == p
            kids = np.flatnonzero(own)
            par = tree.parent[kids]
            dec = np.flatnonzero(tree.player == p)
            self._blocks.append(_Block(
                slice(lo, lo + width), np.cumsum(nact) - nact, nact, rows,
                uniform[lo:lo + width], np.where(own, edge_col, n), kids,
                edge_col[kids] - lo, par, rc[par] if p == 0 else -rc[par],
                dec, (np.cumsum(tree.is_player == p) - 1)[tree.infoset[dec]]))
            lo += width
        # Each player's own reach under the current profile.  An update
        # changes only its player's regrets, so only that player's rows
        # and reach go stale: ``_stale`` lists the players to recompute.
        self._reach: list[np.ndarray | None] = [None, None]
        self._stale: tuple[int, ...] = (0, 1)

    @property
    def regret(self) -> np.ndarray:
        return self._regret[self._pos]

    @property
    def ssum(self) -> np.ndarray:
        return self._ssum[self._pos]

    def _refresh(self) -> None:
        """Renormalise the rows of the players updated since the last
        refresh and recompute their own reach, one ``reach`` pass each.
        CFR+ regrets are clamped already."""
        for p in self._stale:
            b = self._blocks[p]
            x = self._regret[b.cols]
            if not self.plus:
                x = np.maximum(x, 0.0)
            _normalise(x, b.off, b.nact, b.uniform, self._w[b.cols])
            self._reach[p] = self.tree.reach(self._w.take(b.own_at))
        self._stale = ()

    def current(self) -> np.ndarray:
        self._refresh()
        return self._w[self._pos]

    def _update(self, v, player):
        """Player ``player``'s regret and strategy-sum update, over its
        block."""
        b = self._blocks[player]
        reach = self._reach
        sigma = self._w[b.cols]
        q = np.bincount(
            b.kid_cols, b.rc_par * reach[1 - player][b.par] * v[b.kids],
            minlength=sigma.size)
        node_val = np.add.reduceat(sigma * q, b.off)
        regret = self._regret[b.cols]
        regret += q - node_val[b.row]
        if self.plus:
            np.maximum(regret, 0.0, out=regret)

        ow = np.bincount(b.dec_rows, reach[player][b.dec],
                         minlength=b.off.size)
        w = float(self.t) if self.plus else 1.0
        self._ssum[b.cols] += w * ow[b.row] * sigma

    def _sweep(self, players) -> None:
        """One sweep under the current profile: the stale rows and own
        reach and the player-0 values, then the updates of ``players``."""
        tree = self.tree
        self._refresh()
        v = tree.values(self._w.take(self._w_at))
        for p in players:
            self._update(v, p)
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
        return normalise_rows(self.tree, self.ssum)
