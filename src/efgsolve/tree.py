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

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .game import CHANCE

DECISION = 0
CHANCE_NODE = 1
TERMINAL = 2


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

    A policy profile is a single float array over ``n_cols`` columns;
    each infostate owns the slice ``is_off[s] : is_off[s] + is_nact[s]``.
    ``col_isid`` and ``col_action`` map a column back to its infostate
    and action id; they are built on first use, so indexing a tree costs
    only its enumeration.
    """

    def __init__(self, game):
        self.game = game
        parent, depth, kind, player = [], [], [], []
        infoset, payoff1, in_prob, in_col, in_player = [], [], [], [], []

        keys: list[tuple] = []
        is_player, is_actions, is_nact = [], [], []
        is_off, is_parent, is_parent_slot, is_own_depth = [], [], [], []
        key_to_isid: dict[tuple, int] = {}
        ncols = 0

        children: list[list[int]] = []

        def new_node(par, dep, knd, ply, iset, pay, iprob, icol, iply):
            parent.append(par)
            depth.append(dep)
            kind.append(knd)
            player.append(ply)
            infoset.append(iset)
            payoff1.append(pay)
            in_prob.append(iprob)
            in_col.append(icol)
            in_player.append(iply)
            children.append([])
            return len(parent) - 1

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
            is_player.append(key[0])
            is_actions.append(actions)
            is_nact.append(len(actions))
            is_off.append(ncols)
            ncols += len(actions)
            pisid, pslot = last
            is_parent.append(pisid)
            is_parent_slot.append(pslot)
            is_own_depth.append(0 if pisid < 0 else is_own_depth[pisid] + 1)
            return isid

        def visit(state, par, dep, iprob, icol, iply, last0, last1):
            if state.is_terminal():
                r = state.returns()
                new_node(par, dep, TERMINAL, -1, -1, r[0], iprob, icol, iply)
                return
            if state.is_chance():
                u = new_node(par, dep, CHANCE_NODE, CHANCE, -1, 0.0,
                             iprob, icol, iply)
                outcomes = state.chance_outcomes()
                total = sum(p for _, p in outcomes)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"chance outcomes sum to {total} in {self.game.name}")
                for a, p in outcomes:
                    c = len(parent)
                    children[u].append(c)
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
            u = new_node(par, dep, DECISION, p, isid, 0.0, iprob, icol, iply)
            off = is_off[isid]
            for slot, a in enumerate(actions):
                c = len(parent)
                children[u].append(c)
                nxt = (isid, slot)
                visit(state.apply(a), u, dep + 1, 1.0, off + slot, p,
                      nxt if p == 0 else last0,
                      nxt if p == 1 else last1)

        visit(game.root(), -1, 0, 1.0, -1, -1, (-1, -1), (-1, -1))

        self.n_nodes = len(parent)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.player = np.asarray(player, dtype=np.int8)
        self.infoset = np.asarray(infoset, dtype=np.int64)
        self.payoff1 = np.asarray(payoff1, dtype=np.float64)
        self.in_prob = np.asarray(in_prob, dtype=np.float64)
        self.in_col = np.asarray(in_col, dtype=np.int64)
        self.in_player = np.asarray(in_player, dtype=np.int8)

        counts = np.fromiter((len(c) for c in children), dtype=np.int64,
                             count=self.n_nodes)
        self.child_off = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.child_off[1:])
        self.child_flat = np.fromiter(
            (c for cs in children for c in cs), dtype=np.int64,
            count=int(self.child_off[-1]))

        self.n_infosets = len(keys)
        self.keys = keys
        self.key_to_isid = key_to_isid
        self.is_player = np.asarray(is_player, dtype=np.int8)
        self.is_actions = is_actions
        self.is_nact = np.asarray(is_nact, dtype=np.int64)
        self.is_off = np.asarray(is_off, dtype=np.int64)
        self.is_parent = np.asarray(is_parent, dtype=np.int64)
        self.is_parent_slot = np.asarray(is_parent_slot, dtype=np.int64)
        self.is_own_depth = np.asarray(is_own_depth, dtype=np.int64)
        self.n_cols = ncols

        max_depth = int(self.depth.max(initial=0))
        order = np.argsort(self.depth, kind="stable")
        bounds = np.searchsorted(self.depth[order], np.arange(max_depth + 2))
        self.levels = [order[bounds[d]:bounds[d + 1]]
                       for d in range(max_depth + 1)]

        self.decision_mask = self.kind == DECISION
        self.terminal_mask = self.kind == TERMINAL
        self._col_isid = self._col_action = None

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


@dataclass(frozen=True)
class StateCounts:
    histories: int
    terminals: int
    decision_infostates: tuple[int, int]
    all_infostates: tuple[int, int]


def count_states(game) -> StateCounts:
    """Exhaustive tally of histories and per-player infostates.

    ``all_infostates`` counts every distinct observation sequence a
    player holds anywhere in the tree (root, opponent moves, chance and
    terminals included), which is the count the double-oracle iteration
    bounds are stated against.
    """
    histories = terminals = 0
    decision: tuple[set, set] = (set(), set())
    every: tuple[set, set] = (set(), set())

    def visit(state):
        nonlocal histories, terminals
        histories += 1
        for p in (0, 1):
            every[p].add(state.infostate_key(p))
        if state.is_terminal():
            terminals += 1
            return
        if state.is_chance():
            for a, _ in state.chance_outcomes():
                visit(state.apply(a))
            return
        p = state.current_player()
        decision[p].add(state.infostate_key(p))
        for a in state.legal_actions():
            visit(state.apply(a))

    visit(game.root())
    return StateCounts(
        histories=histories,
        terminals=terminals,
        decision_infostates=(len(decision[0]), len(decision[1])),
        all_infostates=(len(every[0]), len(every[1])),
    )


def infostate_predecessors(game) -> tuple[dict, dict]:
    """Map every infostate key to (preceding decision key, action id).

    The preceding action of a key is the owner's most recent own action
    before that key first exists; keys reached before the owner ever
    acted map to ``None``.  Used for the covered-infostate tally.
    """
    preds: tuple[dict, dict] = ({}, {})

    def visit(state, last0, last1):
        for p, last in ((0, last0), (1, last1)):
            k = state.infostate_key(p)
            if k not in preds[p]:
                preds[p][k] = last
        if state.is_terminal():
            return
        if state.is_chance():
            for a, _ in state.chance_outcomes():
                visit(state.apply(a), last0, last1)
            return
        p = state.current_player()
        key = state.infostate_key(p)
        for a in state.legal_actions():
            nxt = (key, a)
            visit(state.apply(a),
                  nxt if p == 0 else last0,
                  nxt if p == 1 else last1)

    visit(game.root(), None, None)
    return preds
