"""Flat array index over a game tree, plus node-visit accounting.

Every solver and evaluator in this package works on a ``TreeIndex``: a
one-time depth-first enumeration of all histories into numpy arrays,
numbered level by level, so each depth level is one contiguous slice of
node ids and a full-width pass is one vectorized step per level.  The
index holds the general sweeps: ``reach``, the forward product of edge
weights from the root, and ``values``, the backward sum of weighted
child values; both take one weight per node.  Every weight array a
caller needs is a selection from ``in_prob`` and one gather of a flat
profile, ``edge_sigma``.  The best response runs the only other sweep.
The walk that builds it is the only walk of a game a run makes, so it
also enforces the run's cap on the number of histories: it raises
``EnumerationOverflow`` as soon as it is about to index one history
more than the cap.  The cap bounds histories, not memory.

Node accounting contract: one full-width pass over a tree (a solver
iteration, a best-response computation, a counted expected-value call)
costs one visit per history swept; sampled traversals cost one visit
per history actually touched.  Enumerating the tree itself is free:
budgets meter solving and the best-response checks decisions rest on,
not indexing.  Reporting-only evaluations pass ``counter=None`` and
cost nothing.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .game import CHANCE

DECISION = 0
CHANCE_NODE = 1
TERMINAL = 2


class EnumerationOverflow(RuntimeError):
    """More histories or strategies than an enumeration cap allows."""


class NodeCounter:
    """Visit counter shared across a run, with an optional budget and an
    optional ``perf_counter`` deadline; solvers that poll ``exhausted``
    honor both."""

    __slots__ = ("count", "budget", "deadline")

    def __init__(self, budget: int | None = None,
                 deadline: float | None = None):
        self.count = 0
        self.budget = budget
        self.deadline = deadline

    def add(self, n: int) -> None:
        self.count += int(n)

    @property
    def exhausted(self) -> bool:
        if self.budget is not None and self.count >= self.budget:
            return True
        return self.deadline is not None and perf_counter() >= self.deadline


# Node and infostate arrays of a TreeIndex with their dtypes, in the
# order of a walked node's or infostate's row; a node's row starts with
# its parent's rank in the walk.  ``depth`` and ``preorder`` come from
# the walk order.
_ROW_ARRAYS = (("parent", np.int64), ("kind", np.int8),
               ("player", np.int8), ("infoset", np.int64),
               ("payoff1", np.float64), ("in_prob", np.float64),
               ("in_col", np.int64), ("in_player", np.int8))
_NODE_ARRAYS = _ROW_ARRAYS + (("depth", np.int64), ("preorder", np.int64))
_INFOSTATE_ARRAYS = (("is_player", np.int8), ("is_parent", np.int64),
                     ("is_parent_slot", np.int64))


class OwnLevel(NamedTuple):
    """One player's infostates at one depth, in ascending id order: their
    slots in the player's choice arrays; the player's edges leaving
    their decision nodes (a slice of ascending node ids); their action
    counts and their columns laid end to end (``cols``, segments
    starting at ``starts``); and for the slots ``linked`` to a parent
    infostate, the parent's slot and the parent column leading there."""
    slots: np.ndarray
    kids: np.ndarray
    nact: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    linked: np.ndarray
    parent_slots: np.ndarray
    parent_cols: np.ndarray


def _relabel(ids: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """``ids`` (values in ``range(n)`` or -1) renumbered by position in
    ``kept``; -1, and any value not kept, become -1."""
    new = np.full(n + 1, -1, dtype=np.int64)  # new[-1] maps -1 to -1
    new[kept] = np.arange(kept.size)
    return new[ids]


class TreeIndex:
    """Arrays describing one game's full tree.

    Node arrays (length ``n_nodes``), numbered level by level: the root
    is 0, each depth's nodes follow those of the depth above, and within
    a depth they keep the order of the depth-first walk.  ``levels``
    lists the depths as contiguous slices of node ids, and the children
    of a node are a contiguous id range (``children``), in action or
    outcome order.
      parent, depth, kind, player (acting player at decision nodes),
      infoset (decision nodes only), payoff1 (terminals), in_prob
      (chance probability of the incoming edge, 1.0 elsewhere), in_col
      (flat policy column of the incoming edge when the parent is a
      decision node, else -1), in_player (owner of that column),
      preorder (the node's rank in the depth-first walk).

    Infostate arrays (length ``n_infosets``), numbered by first visit in
    the walk: is_player, is_actions (ordered action ids), is_nact,
    is_off (start of the infostate's contiguous column range),
    is_parent / is_parent_slot (the player's previous decision infostate
    and the row position taken there, -1 at the top), is_depth (the one
    depth of all its decision nodes; the build raises ``ValueError`` if
    they lie at several).

    A pure strategy is a *choice array*: the column each of the
    player's infostates plays, slot ``i`` for ``infosets_of(player)[i]``;
    ``own_levels`` groups the slots by depth.

    A policy profile is a single float array over ``n_cols`` columns;
    each infostate owns the slice ``is_off[s] : is_off[s] + is_nact[s]``.
    ``col_isid`` and ``col_action`` map a column back to its infostate
    and action id; they are built on first use, so indexing a tree
    costs only its enumeration.  ``edge_sigma`` gathers a profile onto
    the edges: ``in_prob`` is exactly 1.0 on decision edges, so
    ``in_prob * edge_sigma(sigma)`` weighs every edge by its chance or
    policy probability, and a mask over ``in_player`` picks one
    player's edges out of it.  An index derived by ``restrict`` also
    holds ``base_col``, the column of the parent index behind each
    column.

    ``max_histories`` caps the walk: reaching history number
    ``max_histories + 1`` raises ``EnumerationOverflow`` from inside the
    walk.  None or a cap <= 0 means no cap.
    """

    def __init__(self, game, *, max_histories: int | None = None):
        self.game = game
        cap = max_histories if max_histories and max_histories > 0 \
            else sys.maxsize
        levels: list[list[tuple]] = [[]]  # per depth, one row per node
        walk_depth: list[int] = []  # each node's depth, in walk order
        infos: list[tuple] = []  # one _INFOSTATE_ARRAYS row per infostate
        keys: list[tuple] = []
        is_actions: list[tuple] = []
        is_off: list[int] = []
        key_to_isid: dict[tuple, int] = {}
        ncols = 0

        def intern_infoset(key, actions, last):
            isid = key_to_isid.get(key)
            if isid is not None:
                if is_actions[isid] != actions:
                    raise ValueError(
                        f"legal actions differ within infostate {key!r}")
                return isid
            nonlocal ncols
            isid = len(keys)
            key_to_isid[key] = isid
            keys.append(key)
            is_actions.append(actions)
            is_off.append(ncols)
            ncols += len(actions)
            infos.append((key[0],) + last)
            return isid

        def visit(state, par, dep, iprob, icol, iply, last0, last1):
            u = len(walk_depth)  # this node's rank in the walk
            if u >= cap:
                raise EnumerationOverflow(
                    f"{game.name} exceeds {cap} histories")
            walk_depth.append(dep)
            level = levels[dep]
            if state.is_terminal():
                level.append((par, TERMINAL, -1, -1, state.returns()[0],
                              iprob, icol, iply))
                return
            if dep + 1 == len(levels):
                levels.append([])
            if state.is_chance():
                level.append((par, CHANCE_NODE, CHANCE, -1, 0.0,
                              iprob, icol, iply))
                outcomes = state.chance_outcomes()
                total = sum(p for _, p in outcomes)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"chance outcomes sum to {total} in {self.game.name}")
                for a, p in outcomes:
                    visit(state.apply(a), u, dep + 1, p, -1, -1,
                          last0, last1)
                return
            p = state.current_player()
            actions = tuple(state.legal_actions())
            if not actions:
                raise ValueError("decision node with no legal actions")
            key = state.infostate_key(p)
            last = last0 if p == 0 else last1
            isid = intern_infoset(key, actions, last)
            level.append((par, DECISION, p, isid, 0.0, iprob, icol, iply))
            off = is_off[isid]
            for slot, a in enumerate(actions):
                nxt = (isid, slot)
                visit(state.apply(a), u, dep + 1, 1.0, off + slot, p,
                      nxt if p == 0 else last0,
                      nxt if p == 1 else last1)

        visit(game.root(), -1, 0, 1.0, -1, -1, (-1, -1), (-1, -1))

        for fields, rows in ((_ROW_ARRAYS, chain.from_iterable(levels)),
                             (_INFOSTATE_ARRAYS, infos)):
            columns = list(zip(*rows)) or [()] * len(fields)
            for (name, dtype), column in zip(fields, columns):
                setattr(self, name, np.asarray(column, dtype=dtype))
        # The rows were laid out by depth, in walk order within a depth,
        # which is the stable sort of the walk's depths.
        walk_depth = np.array(walk_depth, dtype=np.int64)
        self.preorder = np.argsort(walk_depth, kind="stable")
        self.depth = walk_depth[self.preorder]
        self.parent = _relabel(self.parent, self.preorder, self.preorder.size)
        self.keys = keys
        self.key_to_isid = key_to_isid
        self.is_actions = is_actions
        self._finish()

    def _finish(self) -> None:
        """Sizes, column ranges, child ranges, depth levels and kind
        masks, derived from the node arrays and ``is_actions``.  Nodes
        are sorted by depth and by parent, so each level and each
        node's children are a run of consecutive ids."""
        self.n_nodes = len(self.parent)
        self.n_infosets = len(self.keys)
        self.is_nact = np.fromiter(map(len, self.is_actions), dtype=np.int64,
                                   count=self.n_infosets)
        self.is_off = np.cumsum(self.is_nact) - self.is_nact
        self.n_cols = int(self.is_nact.sum())

        self.child_off = np.searchsorted(self.parent,
                                         np.arange(self.n_nodes + 1))
        bounds = np.searchsorted(
            self.depth, np.arange(int(self.depth[-1]) + 2)).tolist()
        self.levels = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

        self.decision_mask = self.kind == DECISION
        self.terminal_mask = self.kind == TERMINAL
        dec_is = self.infoset[self.decision_mask]
        dec_depth = self.depth[self.decision_mask]
        self.is_depth = np.zeros(self.n_infosets, dtype=np.int64)
        self.is_depth[dec_is] = dec_depth
        split = dec_is[self.is_depth[dec_is] != dec_depth]
        if split.size:
            raise ValueError(f"infostate {self.keys[split[0]]!r} has decision"
                             " nodes at several depths")
        self._col_isid = self._col_action = None
        self._own_levels = {}

    def restrict(self, cols: np.ndarray, game) -> TreeIndex:
        """Index of the subgame that allows only the columns in the bool
        mask ``cols``, derived from this index without walking ``game``.

        It equals a walk of the perfect-recall game whose legal lists are
        the allowed actions in this tree's order: kept nodes keep this
        tree's order, and infostates are numbered by their first kept
        decision node in walk order.  ``base_col`` maps restricted
        columns to columns here; ``preorder`` keeps this tree's ranks.
        """
        nodes = np.flatnonzero(self.reach(self.edge_sigma(cols)))

        dec = nodes[self.decision_mask[nodes]]
        base_is = self.infoset[dec[np.argsort(self.preorder[dec])]]
        if not np.isin(base_is, self.col_isid[cols]).all():
            raise ValueError("decision node with no legal actions")
        base_is = base_is[np.sort(np.unique(base_is, return_index=True)[1])]
        col_isid = _relabel(self.col_isid, base_is, self.n_infosets)
        base_col = np.flatnonzero(cols & (col_isid >= 0))
        base_col = base_col[np.argsort(col_isid[base_col], kind="stable")]

        out = object.__new__(TreeIndex)
        out.game = game
        out.base_col = base_col
        for name, _ in _NODE_ARRAYS:
            setattr(out, name, getattr(self, name)[nodes])
        out.parent = _relabel(out.parent, nodes, self.n_nodes)
        out.infoset = _relabel(out.infoset, base_is, self.n_infosets)
        out.in_col = _relabel(out.in_col, base_col, self.n_cols)
        out.keys = [self.keys[b] for b in base_is.tolist()]
        out.key_to_isid = dict(zip(out.keys, range(base_is.size)))
        acts = iter(self.col_action[base_col].tolist())
        out.is_actions = [tuple(islice(acts, n)) for n in np.bincount(
            col_isid[base_col], minlength=base_is.size).tolist()]
        for name, _ in _INFOSTATE_ARRAYS:
            setattr(out, name, getattr(self, name)[base_is])
        # A parent's restricted slot counts the allowed columns before
        # the taken one in its row.
        par = out.is_parent
        allowed_before = np.concatenate(([0], np.cumsum(cols)))
        row = self.is_off[par]
        out.is_parent_slot = np.where(
            par < 0, -1, allowed_before[row + out.is_parent_slot]
            - allowed_before[row])
        out.is_parent = _relabel(par, base_is, self.n_infosets)
        out._finish()
        return out

    def edge_sigma(self, sigma: np.ndarray) -> np.ndarray:
        """``sigma`` on every node's incoming decision edge, and 1.0 on
        chance edges and at the root (``in_col`` -1)."""
        return np.concatenate((sigma, [1.0]))[self.in_col]

    def reach(self, weights: np.ndarray) -> np.ndarray:
        """Forward pass: the product of the incoming edge ``weights``
        along the path from the root to every node (the root's reach is
        1 and its weight is never read)."""
        r = np.ones(self.n_nodes)
        for sl in self.levels[1:]:
            r[sl] = r[self.parent[sl]] * weights[sl]
        return r

    def values(self, weights: np.ndarray) -> np.ndarray:
        """Backward pass, deepest level first: every node's player-0
        value, its terminal payoff or the ``weights``-weighted sum of
        its children's values."""
        v = self.payoff1.copy()
        for sl in reversed(self.levels[1:]):
            np.add.at(v, self.parent[sl], weights[sl] * v[sl])
        return v

    # Plain properties over attributes set in __init__: caching into the
    # instance dict (functools.cached_property) slows every later
    # attribute read on the tree, which the sampled walks do per node.
    @property
    def col_isid(self) -> np.ndarray:
        """Owning infostate of every column."""
        if self._col_isid is None:
            self._col_isid = np.repeat(
                np.arange(self.n_infosets, dtype=np.int32), self.is_nact)
        return self._col_isid

    @property
    def col_action(self) -> np.ndarray:
        """Action id of every column."""
        if self._col_action is None:
            self._col_action = np.fromiter(
                chain.from_iterable(self.is_actions), dtype=np.int32,
                count=self.n_cols)
        return self._col_action

    def children(self, u: int) -> np.ndarray:
        return np.arange(self.child_off[u], self.child_off[u + 1])

    def infosets_of(self, player: int) -> np.ndarray:
        return np.flatnonzero(self.is_player == player)

    def col_slice(self, isid: int) -> slice:
        off = int(self.is_off[isid])
        return slice(off, off + int(self.is_nact[isid]))

    def own_levels(self, player: int) -> dict[int, OwnLevel]:
        """The player's infostates grouped by depth, keyed by it in
        ascending order, so a parent's group comes before its
        children's."""
        groups = self._own_levels.get(player)
        if groups is None:
            own = self.infosets_of(player)
            kids = np.flatnonzero(self.in_player == player)
            kid_at = np.searchsorted(kids, [sl.start for sl in self.levels]
                                     + [self.n_nodes]).tolist()
            depth = self.is_depth[own]
            groups = {}
            for d in np.flatnonzero(np.bincount(depth)).tolist():
                slots = np.flatnonzero(depth == d)
                isids = own[slots]
                nact = self.is_nact[isids]
                starts = np.cumsum(nact) - nact
                linked = self.is_parent[isids] >= 0
                par = self.is_parent[isids[linked]]
                groups[d] = OwnLevel(
                    slots, kids[kid_at[d + 1]:kid_at[d + 2]], nact,
                    np.repeat(self.is_off[isids] - starts, nact)
                    + np.arange(int(nact.sum())), starts, slots[linked],
                    np.searchsorted(own, par), self.is_off[par]
                    + self.is_parent_slot[isids[linked]])
            self._own_levels[player] = groups
        return groups
