"""Counterfactual regret minimization over a TreeIndex.

Each iteration is one sweep of the full tree with simultaneous regret
updates for both players (one history visit per node per iteration).
``Cfr`` keeps regrets, strategy sums and the current profile in a
player-major column order, fixed by one permutation of the tree's
columns: player 0's columns, then player 1's, each block sorted by
infostate depth, stably, so each depth of a player is one slice of its
block and each row a run inside it, its columns in tree order.  An update
changes only its player's block, so it makes only that player's rows
and realization plan stale.  The next sweep, or a ``current()`` read,
renormalises those rows and recomputes that plan: one player per
alternating sweep, both per simultaneous sweep.  The plan of a column
is the product of the player's probabilities along its sequence
(Koller, Megiddo & von Stengel, GEB 1996), filled depth by depth over
the player's columns, each from the plan at the column its player took
last before the column's infostate, or from 1.0 where it took none.
Under perfect recall, a player's own reach at a node is its plan at
the last column it took on the node's path (``TreeIndex.last_cols``),
so an update gathers the opponent's reach at the parents of its edges
and its own reach at its decision nodes from the plans, and a sweep
makes no ``TreeIndex.reach`` pass.  These are the floats a reach pass
gives: it multiplies 1.0, exactly, on every edge the player does not
own, and on its own edges the same factors from the root in the same
order, and a float product does not depend on the order of its two
operands.  An update's sums, clamp and accumulation run over its own
block.  The profile buffer is followed by the probabilities of the
edges no player owns, the root's 1.0 first, so one ``take`` gathers
the value weights onto the edges, and one ``TreeIndex.values`` pass
gives the player-0 values; the chance reach, a constant of the tree,
is computed once.  ``regret``, ``ssum``, ``current()`` and
``average_flat()`` read in tree order.  Every float equals a
whole-tree update: each row's and column's sums keep their order, as
the permutation keeps every row whole and in order, and player 1's
sign rides on its chance reach.  ``plus=True`` gives CFR+: regrets are
clamped at zero after every update, the average strategy is weighted
linearly by iteration number, and updates alternate between players
with values recomputed in between (two sweeps per iteration, each
updating one player), which is what makes CFR+ fast; pass
``alternating`` explicitly to override.
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
    depths: list         # its infostate depths, as slices of that order
    off: np.ndarray      # row starts
    nact: np.ndarray     # row lengths
    row: np.ndarray      # each column's row
    uniform: np.ndarray  # each column's uniform probability
    kids: np.ndarray     # nodes entered by the player's edges
    kid_cols: np.ndarray  # their columns
    opp_at: np.ndarray   # the opponent's plan entry at their parents
    rc_par: np.ndarray   # chance reach at the parents, negated for player 1
    dec_at: np.ndarray   # the player's plan entry at its decision nodes
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

        # Infostates by player, then by depth, in tree order within a
        # depth, and ``order`` their columns laid end to end: the
        # player-major order.  ``_pos`` maps a tree column there.
        by_depth = np.lexsort((tree.is_depth, tree.is_player))
        nact = tree.is_nact[by_depth]
        starts = np.cumsum(nact) - nact
        order = np.repeat(tree.is_off[by_depth] - starts, nact) + np.arange(n)
        self._pos = np.empty(n, dtype=np.int64)
        self._pos[order] = np.arange(n)
        pos_of = np.append(self._pos, n)
        # Each position's parent column (``is_parent_col`` of its
        # infostate) at its position; ``n``, the plan's 1.0, where the
        # player has taken none.
        self._parent_pos = np.repeat(pos_of[tree.is_parent_col[by_depth]],
                                     nact)
        self._x = np.ones(n + 1)
        # ``_w`` holds the current profile in that order, followed by
        # ``in_prob`` of the nodes entered by no decision edge, the
        # root's 1.0 first.  ``_w_at`` points each node at its edge's
        # weight there, so one ``take`` gives the value weights:
        # ``in_prob`` is exactly 1.0 on decision edges.
        free = np.flatnonzero(tree.in_col < 0)
        self._w = np.concatenate((np.zeros(n), tree.in_prob[free]))
        self._w_at = pos_of[tree.in_col]
        self._w_at[free] = n + np.arange(free.size)
        rc = tree.reach(tree.in_prob)
        last = tree.last_cols()
        uniform = tree.uniform[order]
        row_of = np.empty(tree.n_infosets, dtype=np.int64)
        self._blocks = []
        k = lo = 0
        for p in (0, 1):
            # The player's rows are ``by_depth[k:end]``.
            end = k + int((tree.is_player == p).sum())
            row_of[by_depth[k:end]] = np.arange(end - k)
            b_nact = nact[k:end]
            off = starts[k:end] - lo
            width = int(b_nact.sum())
            # A new depth starts a slice.
            cuts = [lo, *(lo + off[1 + np.flatnonzero(np.diff(
                tree.is_depth[by_depth[k:end]]))]).tolist(), lo + width]
            kids = np.flatnonzero(tree.in_player == p)
            par = tree.parent[kids]
            dec = np.flatnonzero(tree.player == p)
            self._blocks.append(_Block(
                slice(lo, lo + width),
                [slice(a, b) for a, b in zip(cuts, cuts[1:])],
                off, b_nact, np.repeat(np.arange(end - k), b_nact),
                uniform[lo:lo + width], kids, self._w_at[kids] - lo,
                pos_of[last[1 - p, par]], rc[par] if p == 0 else -rc[par],
                pos_of[last[p, dec]], row_of[tree.infoset[dec]]))
            k, lo = end, lo + width
        # An update changes only its player's regrets, so only that
        # player's rows and plan go stale: ``_stale`` lists the players
        # to recompute.
        self._stale: tuple[int, ...] = (0, 1)

    @property
    def regret(self) -> np.ndarray:
        return self._regret[self._pos]

    @property
    def ssum(self) -> np.ndarray:
        return self._ssum[self._pos]

    def _refresh(self) -> None:
        """Renormalise the rows of the players updated since the last
        refresh and recompute their plans.  CFR+ regrets are clamped
        already."""
        for p in self._stale:
            self._refresh_player(p)
        self._stale = ()

    def _refresh_player(self, p: int) -> None:
        """Player ``p``'s rows renormalised into ``_w`` and its
        realization plan into ``_x``, one depth slice at a time, each
        parent's slice before its children's."""
        b = self._blocks[p]
        x = self._regret[b.cols]
        if not self.plus:
            x = np.maximum(x, 0.0)
        _normalise(x, b.off, b.nact, b.uniform, self._w[b.cols])
        plan, parent_pos, w = self._x, self._parent_pos, self._w
        for sl in b.depths:
            np.multiply(w[sl], plan.take(parent_pos[sl]), out=plan[sl])

    def current(self) -> np.ndarray:
        self._refresh()
        return self._w[self._pos]

    def _update(self, v, player):
        """Player ``player``'s regret and strategy-sum update, over its
        block."""
        b = self._blocks[player]
        plan = self._x
        sigma = self._w[b.cols]
        q = np.bincount(
            b.kid_cols, b.rc_par * plan.take(b.opp_at) * v[b.kids],
            minlength=sigma.size)
        node_val = np.add.reduceat(sigma * q, b.off)
        regret = self._regret[b.cols]
        regret += q - node_val[b.row]
        if self.plus:
            np.maximum(regret, 0.0, out=regret)

        ow = np.bincount(b.dec_rows, plan.take(b.dec_at),
                         minlength=b.off.size)
        w = float(self.t) if self.plus else 1.0
        self._ssum[b.cols] += w * ow[b.row] * sigma

    def _sweep(self, players) -> None:
        """One sweep under the current profile: the stale rows and plans
        and the player-0 values, then the updates of ``players``."""
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
