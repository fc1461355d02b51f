"""Structural invariants every shipped game must satisfy, checked by
exhaustive enumeration: zero-sum payoffs, proper chance distributions,
infostates that pin down the acting player and legal actions, and
perfect recall (a player's key determines their own last decision)."""

from time import perf_counter

import numpy as np
import pytest

from efgsolve import CHANCE, TreeIndex, make_game
from efgsolve.bench import guard_enumerable
from efgsolve.tree import EnumerationOverflow, NodeCounter

from oracles import count_states, infostate_predecessors

INVARIANT_GAMES = [
    "kuhn", "leduc", "rps_choice", "oshi_zumo_4_3_6",
    "kgmp_1_2", "kgmp_2_3", "kgmp_3_4", "clone_gmp_2_4_3",
]


def walk(game):
    stack = [game.root()]
    while stack:
        s = stack.pop()
        yield s
        if s.is_terminal():
            continue
        if s.is_chance():
            stack.extend(s.apply(a) for a, _ in s.chance_outcomes())
        else:
            stack.extend(s.apply(a) for a in s.legal_actions())


@pytest.mark.parametrize("name", INVARIANT_GAMES)
def test_zero_sum_at_every_terminal(name):
    for s in walk(make_game(name)):
        if s.is_terminal():
            r = s.returns()
            assert r[0] + r[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", INVARIANT_GAMES)
def test_chance_outcomes_form_a_distribution(name):
    for s in walk(make_game(name)):
        if not s.is_terminal() and s.is_chance():
            assert s.current_player() == CHANCE
            probs = [p for _, p in s.chance_outcomes()]
            assert all(p > 0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", INVARIANT_GAMES)
def test_infostate_pins_player_and_actions(name):
    seen = {}
    for s in walk(make_game(name)):
        if s.is_terminal() or s.is_chance():
            continue
        p = s.current_player()
        key = s.infostate_key(p)
        assert key[0] == p, "keys start with the owning player"
        sig = (p, tuple(s.legal_actions()))
        assert seen.setdefault(key, sig) == sig
    assert seen, "game has decision nodes"


@pytest.mark.parametrize("name", INVARIANT_GAMES)
def test_perfect_recall_keys(name):
    # Keys grow monotonically along play for both players, and every
    # decision infostate has a unique (previous own infostate, action)
    # predecessor across all histories that reach it.
    game = make_game(name)
    preds = {}

    def down(state, last_key, last_dec):
        for p in (0, 1):
            key = state.infostate_key(p)
            assert key[:len(last_key[p])] == last_key[p]
        if state.is_terminal():
            return
        nxt_key = tuple(state.infostate_key(p) for p in (0, 1))
        if state.is_chance():
            for a, _ in state.chance_outcomes():
                down(state.apply(a), nxt_key, last_dec)
            return
        p = state.current_player()
        key = state.infostate_key(p)
        assert preds.setdefault(key, last_dec[p]) == last_dec[p]
        for a in state.legal_actions():
            nd = list(last_dec)
            nd[p] = (key, a)
            down(state.apply(a), nxt_key, tuple(nd))

    down(game.root(), ((), ()), (None, None))
    assert preds


def test_state_counts_frozen_values():
    c = count_states(make_game("kuhn"))
    assert (c.histories, c.terminals) == (55, 30)
    assert c.decision_infostates == (6, 6)
    assert c.all_infostates == (28, 28)

    c = count_states(make_game("leduc"))
    assert (c.histories, c.terminals) == (9451, 5520)
    assert c.decision_infostates == (468, 468)

    c = count_states(make_game("rps_choice"))
    assert (c.histories, c.terminals) == (27, 18)
    assert c.decision_infostates == (3, 2)

    c = count_states(make_game("oshi_zumo_4_3_6"))
    assert c.histories == 60553
    assert c.decision_infostates == (10434, 10434)


def test_tree_index_agrees_with_exhaustive_count():
    for name in ("kuhn", "rps_choice", "kgmp_2_3", "clone_gmp_2_4_3"):
        game = make_game(name)
        tree = TreeIndex(game)
        c = count_states(game)
        assert tree.n_nodes == c.histories
        assert int(tree.terminal_mask.sum()) == c.terminals
        assert tree.n_infosets == sum(c.decision_infostates)


def test_tree_index_structure(kuhn_tree):
    t = kuhn_tree
    assert t.parent[0] == -1 and t.depth[0] == 0
    # Levels partition the nodes by depth.
    assert sorted(i for lvl in t.levels
                  for i in range(t.n_nodes)[lvl]) == list(range(t.n_nodes))
    for d, lvl in enumerate(t.levels):
        assert (t.depth[lvl] == d).all()
    # Every child points back at its parent.
    for u in range(t.n_nodes):
        for c in t.children(u):
            assert t.parent[c] == u
    # Column ranges tile [0, n_cols).
    slices = sorted((int(t.is_off[i]), int(t.is_nact[i]))
                    for i in range(t.n_infosets))
    end = 0
    for off, n in slices:
        assert off == end
        end = off + n
    assert end == t.n_cols


def test_tree_enumeration_is_not_counted():
    # Budgets meter solving, not indexing: enumeration takes no counter.
    tree = TreeIndex(make_game("kuhn"))
    assert tree.n_nodes == 55
    with pytest.raises(TypeError):
        TreeIndex(make_game("kuhn"), NodeCounter())


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b or a == b


def test_tree_history_cap():
    # The cap is the enumeration guard's: Kuhn's 55 histories fit a cap
    # of 55 and overflow 54, with the guard's message; None and caps
    # <= 0 mean no cap.
    game = make_game("kuhn")
    free = TreeIndex(game)
    for cap in (55, None, 0, -1):
        capped = TreeIndex(game, max_histories=cap)
        assert vars(capped).keys() == vars(free).keys()
        for name, value in vars(free).items():
            assert _same(value, getattr(capped, name)), name
    with pytest.raises(EnumerationOverflow) as err:
        TreeIndex(game, max_histories=54)
    assert str(err.value) == "kuhn exceeds 54 histories"
    with pytest.raises(EnumerationOverflow) as guard_err:
        guard_enumerable(game, 54)
    assert str(guard_err.value) == str(err.value)


def test_node_counter_budget():
    c = NodeCounter(100)
    assert not c.exhausted
    c.add(99)
    assert not c.exhausted
    c.add(1)
    assert c.exhausted
    assert NodeCounter().exhausted is False


def test_node_counter_deadline():
    now = perf_counter()
    assert NodeCounter(deadline=now - 1.0).exhausted
    assert not NodeCounter(deadline=now + 3600.0).exhausted
    # With a future deadline the budget alone ends the run.
    late = NodeCounter(10, deadline=now + 3600.0)
    late.add(10)
    assert late.exhausted


def test_infostate_predecessors_match_tree(kuhn_tree):
    preds = infostate_predecessors(make_game("kuhn"))
    # First-move infostates have no own predecessor; responses to a bet
    # point back at the first move with the checking action.
    assert preds[0][(0, 0)] is None
    assert preds[0][(0, 0, 10, 11)] == ((0, 0), 0)
    assert preds[1][(1, 2, 11)] is None


def test_make_game_rejects_bad_names():
    with pytest.raises(ValueError):
        make_game("nonsense")
    with pytest.raises(ValueError):
        make_game("kgmp_2")  # missing a parameter
    with pytest.raises(ValueError):
        make_game("kuhn_3")  # kuhn takes no parameters


class _SplitDepthState:
    """Player 0 picks 0 or 1; after 0 player 1 moves at once, after 1 a
    coin is flipped first.  Player 1 observes neither, so their one
    infostate has decision nodes at depths 1 and 2."""

    def __init__(self, seq=()):
        self.seq = seq

    def is_chance(self):
        return self.seq == (1,)

    def current_player(self):
        return 0 if not self.seq else CHANCE if self.is_chance() else 1

    def is_terminal(self):
        return len(self.seq) == 2 + self.seq[:1].count(1)

    def legal_actions(self):
        return (0, 1)

    def chance_outcomes(self):
        return ((0, 0.5), (1, 0.5))

    def apply(self, action):
        return _SplitDepthState(self.seq + (action,))

    def returns(self):
        return (float(self.seq[-1]), -float(self.seq[-1]))

    def infostate_key(self, player):
        return (player,)


class _SplitDepthGame:
    name = "split_depth"

    def root(self):
        return _SplitDepthState()


def test_tree_rejects_an_infostate_at_several_depths():
    game = _SplitDepthGame()
    assert {s.seq for s in walk(game) if not s.is_terminal()
            and s.current_player() == 1} == {(0,), (1, 0), (1, 1)}
    with pytest.raises(ValueError) as err:
        TreeIndex(game)
    assert str(err.value) == \
        "infostate (1,) has decision nodes at several depths"
