"""Exact oracles and conversions used only by the tests.

Exhaustive game walks (state counts and own-action predecessors), the
covering tally behind the double-oracle iteration bound, and helpers
that turn choice arrays (see ``TreeIndex``) into dict-keyed or tabular
forms for assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from efgsolve.policy import PurePolicy, canonical_pure, policy_from_flat
from efgsolve.psro import reduced_canonical


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


def covered_infostate_count(game, populations) -> int:
    """How many infostates have their preceding own action chosen by
    some population member (the covering quantity behind the iteration
    bound; infostates with no preceding own action are not counted)."""
    preds = infostate_predecessors(game)
    covered = 0
    for player in (0, 1):
        pop = populations[player]
        tree = pop.tree
        slot_of = {int(isid): slot for slot, isid
                   in enumerate(tree.infosets_of(player))}
        for pred in preds[player].values():
            if pred is None:
                continue
            pkey, act = pred
            isid = tree.key_to_isid[pkey]
            col = int(tree.is_off[isid]) + tree.is_actions[isid].index(act)
            if (pop.choices[:, slot_of[isid]] == col).any():
                covered += 1
    return covered


def reduced_strategies_expanded(tree, pop) -> int:
    """Distinct reduced pure strategies in a population, the sense in
    which a player can 'expand all' strategies of a game."""
    return len({reduced_canonical(tree, row, pop.player)
                for row in pop.choices})


def default_choice(tree, player: int) -> np.ndarray:
    """Choice array of the first action everywhere."""
    return tree.is_off[tree.infosets_of(player)]


def choice_of(tree, player: int, table: dict) -> np.ndarray:
    """Choice array of a key -> action id table (first action where
    the table is silent)."""
    return canonical_pure(tree, PurePolicy(player, table))


def actions_of(tree, player: int, choice) -> dict:
    """Key -> action id table of a choice array."""
    return {tree.keys[isid]: int(tree.col_action[col]) for isid, col
            in zip(tree.infosets_of(player).tolist(), choice)}


def as_policy(tree, choice, player: int):
    """Tabular one-hot policy of a choice array."""
    onehot = np.zeros(tree.n_cols)
    onehot[choice] = 1.0
    return policy_from_flat(tree, onehot, player)
