"""Flat array index over a game tree, plus node-visit accounting.

Every solver and evaluator in this package works on a ``TreeIndex``: a
one-time depth-first enumeration of all histories into numpy arrays, so
full-width passes become a handful of vectorized sweeps per depth level.

Node accounting contract: one full-width pass over a tree (a solver
iteration, a best-response computation, a counted expected-value call)
costs one visit per history swept; sampled traversals cost one visit
per history actually touched.  Enumerating the tree itself is free:
budgets meter solving and the best-response checks decisions rest on,
not indexing.  Reporting-only evaluations pass ``counter=None`` and
cost nothing.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .game import CHANCE

DECISION = 0
CHANCE_NODE = 1
TERMINAL = 2


class EnumerationOverflow(RuntimeError):
    """More histories or strategies than an enumeration cap allows."""


class NodeCounter:
    """Visit counter with an optional budget, shared across a run."""

    __slots__ = ("count", "budget")

    def __init__(self, budget: int | None = None):
        self.count = 0
        self.budget = budget

    def add(self, n: int) -> None:
        self.count += int(n)

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.count >= self.budget


# Node and infostate arrays of a TreeIndex with their dtypes, in the
# order of a walked node's or infostate's row.
_NODE_ARRAYS = (("parent", np.int64), ("depth", np.int64),
                ("kind", np.int8), ("player", np.int8),
                ("infoset", np.int64), ("payoff1", np.float64),
                ("in_prob", np.float64), ("in_col", np.int64),
                ("in_player", np.int8))
_INFOSTATE_ARRAYS = (("is_player", np.int8), ("is_parent", np.int64),
                     ("is_parent_slot", np.int64),
                     ("is_own_depth", np.int64))


class OwnStage(NamedTuple):
    """One player's infostates at one own depth, in ascending id order:
    their ids and slots in the player's choice arrays; the slot of each
    one's parent infostate and the parent column that leads to it (both
    -1 at depth 0); the player's decision nodes in them and the edges
    leaving those nodes; their action counts, and their columns laid
    end to end (``cols``, segments starting at ``starts``) and, per
    action count n, as ``(slots, columns)`` with columns a (k, n)
    block."""
    isids: np.ndarray
    slots: np.ndarray
    parent_slots: np.ndarray
    parent_cols: np.ndarray
    nodes: np.ndarray
    kids: np.ndarray
    nact: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    blocks: list


def _relabel(ids: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """``ids`` (values in ``range(n)`` or -1) renumbered by position in
    ``kept``; -1, and any value not kept, become -1."""
    new = np.full(n + 1, -1, dtype=np.int64)  # new[-1] maps -1 to -1
    new[kept] = np.arange(kept.size)
    return new[ids]


class TreeIndex:
    """Arrays describing one game's full tree.

    Node arrays (length ``n_nodes``, depth-first preorder, root first):
      parent, depth, kind, player (acting player at decision nodes),
      infoset (decision nodes only), payoff1 (terminals), in_prob
      (chance probability of the incoming edge, 1.0 elsewhere), in_col
      (flat policy column of the incoming edge when the parent is a
      decision node, else -1), in_player (owner of that column).

    Infostate arrays (length ``n_infosets``): is_player, is_actions
    (ordered action ids), is_nact, is_off (start of the infostate's
    contiguous column range), is_parent / is_parent_slot (the player's
    previous decision infostate and the row position taken there, -1 at
    the top), is_own_depth.

    A pure strategy is a *choice array*: the column each of the
    player's infostates plays, slot ``i`` for ``infosets_of(player)[i]``;
    ``own_stages`` groups the slots by own depth.

    A policy profile is a single float array over ``n_cols`` columns;
    each infostate owns the slice ``is_off[s] : is_off[s] + is_nact[s]``.
    ``col_isid`` and ``col_action`` map a column back to its infostate
    and action id; they are built on first use, so indexing a tree costs
    only its enumeration.  An index derived by ``restrict`` also holds
    ``base_col``, the column of the parent index behind each column.
    """

    def __init__(self, game):
        self.game = game
        nodes: list[tuple] = []  # one _NODE_ARRAYS row per node
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
            pisid, pslot = last
            infos.append((key[0], pisid, pslot,
                          0 if pisid < 0 else infos[pisid][3] + 1))
            return isid

        def visit(state, par, dep, iprob, icol, iply, last0, last1):
            u = len(nodes)
            if state.is_terminal():
                nodes.append((par, dep, TERMINAL, -1, -1, state.returns()[0],
                              iprob, icol, iply))
                return
            if state.is_chance():
                nodes.append((par, dep, CHANCE_NODE, CHANCE, -1, 0.0,
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
            nodes.append((par, dep, DECISION, p, isid, 0.0, iprob, icol, iply))
            off = is_off[isid]
            for slot, a in enumerate(actions):
                nxt = (isid, slot)
                visit(state.apply(a), u, dep + 1, 1.0, off + slot, p,
                      nxt if p == 0 else last0,
                      nxt if p == 1 else last1)

        visit(game.root(), -1, 0, 1.0, -1, -1, (-1, -1), (-1, -1))

        for fields, rows in ((_NODE_ARRAYS, nodes),
                             (_INFOSTATE_ARRAYS, infos)):
            columns = zip(*rows) if rows else [()] * len(fields)
            for (name, dtype), column in zip(fields, columns):
                setattr(self, name, np.asarray(column, dtype=dtype))
        self.keys = keys
        self.key_to_isid = key_to_isid
        self.is_actions = is_actions
        self._finish()

    def _finish(self) -> None:
        """Sizes, column ranges, child lists, depth levels and kind masks,
        derived from the node arrays and ``is_actions``.  The children of
        a preorder node are the nodes naming it as parent, ascending."""
        self.n_nodes = len(self.parent)
        self.n_infosets = len(self.keys)
        self.is_nact = np.fromiter(map(len, self.is_actions), dtype=np.int64,
                                   count=self.n_infosets)
        self.is_off = np.cumsum(self.is_nact) - self.is_nact
        self.n_cols = int(self.is_nact.sum())

        kids = self.parent[1:]
        self.child_off = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(kids, minlength=self.n_nodes),
                  out=self.child_off[1:])
        self.child_flat = np.argsort(kids, kind="stable") + 1

        max_depth = int(self.depth.max(initial=0))
        order = np.argsort(self.depth, kind="stable")
        bounds = np.searchsorted(self.depth[order], np.arange(max_depth + 2))
        self.levels = [order[bounds[d]:bounds[d + 1]]
                       for d in range(max_depth + 1)]

        self.decision_mask = self.kind == DECISION
        self.terminal_mask = self.kind == TERMINAL
        self._col_isid = self._col_action = None
        self._own_stages = {}

    def restrict(self, cols: np.ndarray, game) -> TreeIndex:
        """Index of the subgame that allows only the columns in the bool
        mask ``cols``, derived from this index without walking ``game``.

        It equals a walk of the perfect-recall game whose legal lists are
        the allowed actions in this tree's order: kept nodes keep this
        tree's preorder, and infostates are numbered by their first kept
        decision node.  ``base_col`` maps restricted columns to columns
        here.
        """
        edge_ok = np.append(cols, True)[self.in_col]  # in_col -1: no column
        kept = np.zeros(self.n_nodes, dtype=bool)
        kept[0] = True
        for level in self.levels[1:]:
            kept[level] = kept[self.parent[level]] & edge_ok[level]
        nodes = np.flatnonzero(kept)

        base_is = self.infoset[nodes[self.decision_mask[nodes]]]
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
        return self.child_flat[self.child_off[u]:self.child_off[u + 1]]

    def infosets_of(self, player: int) -> np.ndarray:
        return np.flatnonzero(self.is_player == player)

    def col_slice(self, isid: int) -> slice:
        off = int(self.is_off[isid])
        return slice(off, off + int(self.is_nact[isid]))

    def own_stages(self, player: int) -> list[OwnStage]:
        """The player's infostates grouped by own depth, shallowest
        first; a parent always sits one stage above its children."""
        stages = self._own_stages.get(player)
        if stages is None:
            own = self.infosets_of(player)
            depth = self.is_own_depth[own]
            slot_of = np.full(self.n_infosets + 1, -1, dtype=np.int64)
            slot_of[own] = np.arange(own.size)
            nodes = np.flatnonzero(self.decision_mask
                                   & (self.player == player))
            kids = np.flatnonzero(self.in_player == player)
            node_depth = self.is_own_depth[self.infoset[nodes]]
            kid_depth = self.is_own_depth[self.infoset[self.parent[kids]]]
            stages = []
            for d in range(int(depth.max(initial=-1)) + 1):
                slots = np.flatnonzero(depth == d)
                isids = own[slots]
                par = self.is_parent[isids]
                nact = self.is_nact[isids]
                starts = np.cumsum(nact) - nact
                blocks = [(slots[nact == n], self.is_off[isids[nact == n],
                                                        None] + np.arange(n))
                          for n in np.unique(nact).tolist()]
                stages.append(OwnStage(
                    isids, slots, slot_of[par],
                    np.where(par < 0, -1, self.is_off[par]
                             + self.is_parent_slot[isids]),
                    nodes[node_depth == d], kids[kid_depth == d], nact,
                    np.repeat(self.is_off[isids] - starts, nact)
                    + np.arange(int(nact.sum())), starts, blocks))
            self._own_stages[player] = stages
        return stages
