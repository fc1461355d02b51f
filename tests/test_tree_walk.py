"""The walk that builds ``TreeIndex`` against the walk it replaced.

``oracles.reference_tree`` writes every row to float64 ``array``
buffers; ``TreeIndex`` packs each value at its own array's type.  The
two must build equal trees, array for array and dtype for dtype, on
the golden games and on seeds and sizes their digests do not cover,
and payoffs or chance probabilities given as ``int``, ``Fraction`` or
``np.float64`` must build what their ``float`` values build, as they
did in the float64 buffers.  The reference walk carries each player's
last own column down the tree, so the infostates' players and parent
columns that ``TreeIndex`` derives from its node arrays are checked
against a walk.  Infostates with equal legal lists share one tuple.  A
game without perfect recall builds, but reading its parent columns,
or building ``Cfr`` on it, raises ``ValueError``.
"""

from fractions import Fraction

import numpy as np
import pytest

from efgsolve import CHANCE, TreeIndex, make_game
from efgsolve.solvers import Cfr

from oracles import reference_tree
from test_tree_golden import GOLDEN

WALKED = [(name, 0) for name in GOLDEN] + [
    ("perturbed_kgmp_2_3", seed) for seed in range(1, 5)] + [
    ("oshi_zumo_2_1_2", 0), ("kgmp_3_4", 0)]


def assert_same_tree(got: TreeIndex, want: TreeIndex) -> None:
    # ``is_parent_col`` is cached on first read; ``reference_tree`` sets it.
    got.is_parent_col, want.is_parent_col
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            other = getattr(got, name)
            assert other.dtype == value.dtype, name
            assert other.shape == value.shape, name
            assert other.tobytes() == value.tobytes(), name
    for name in ("keys", "is_actions", "levels", "key_to_isid"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("name, seed", WALKED)
def test_walk_matches_the_float64_reference(name, seed):
    game = make_game(name, seed)
    assert_same_tree(TreeIndex(game), reference_tree(game))


class _TypedState:
    """A coin with chance probabilities ``probs``, then player 0 picks
    one of two actions at an infostate per coin side, then player 1 one
    of three at one infostate; the terminal payoffs are ``payoffs`` in
    walk order, as given."""

    def __init__(self, game, seq=()):
        self.game = game
        self.seq = seq

    def is_chance(self):
        return not self.seq

    def is_terminal(self):
        return len(self.seq) == 3

    def current_player(self):
        return CHANCE if not self.seq else len(self.seq) - 1

    def legal_actions(self):
        # A fresh tuple per call, so any sharing is the index's.
        return tuple(range(2 if len(self.seq) == 1 else 3))

    def chance_outcomes(self):
        return tuple(enumerate(self.game.probs))

    def apply(self, action):
        return _TypedState(self.game, self.seq + (action,))

    def returns(self):
        c, a, b = self.seq
        v = self.game.payoffs[(c * 2 + a) * 3 + b]
        return (v, -v)

    def infostate_key(self, player):
        return (player, self.seq[0]) if player == 0 else (player,)


class _TypedGame:
    name = "typed"

    def __init__(self, probs, payoffs):
        self.probs = probs
        self.payoffs = payoffs

    def root(self):
        return _TypedState(self)


def test_values_of_any_real_type_build_their_float_values():
    probs = (Fraction(1, 3), Fraction(2, 3))
    payoffs = [2, Fraction(-3, 4), np.float64(0.1), -1, Fraction(1, 7),
               np.float64(-2.5)] * 2
    typed = TreeIndex(_TypedGame(probs, payoffs))
    twin = TreeIndex(_TypedGame(tuple(map(float, probs)),
                                [float(v) for v in payoffs]))
    assert_same_tree(typed, twin)
    assert_same_tree(typed, reference_tree(_TypedGame(probs, payoffs)))
    assert typed.payoff1[typed.terminal_mask].tolist() == \
        [float(v) for v in payoffs]
    assert typed.in_prob[1:3].tolist() == [1 / 3, 2 / 3]


def test_equal_legal_lists_share_one_tuple():
    tree = TreeIndex(_TypedGame((0.5, 0.5), [0.0] * 12))
    assert tree.is_actions == [(0, 1), (0, 1, 2), (0, 1)]
    assert tree.is_actions[0] is tree.is_actions[2]
    assert tree.is_actions[0] is not tree.is_actions[1]


class _ForgetfulState:
    """Player 0 picks one of two actions, player 1 one of two, then
    player 0 one of two at one infostate whatever it picked first: it
    forgets its own move.  Payoff: +1 to player 0 when its two picks
    match."""

    def __init__(self, seq=()):
        self.seq = seq

    def is_chance(self):
        return False

    def is_terminal(self):
        return len(self.seq) == 3

    def current_player(self):
        return len(self.seq) % 2

    def legal_actions(self):
        return (0, 1)

    def apply(self, action):
        return _ForgetfulState(self.seq + (action,))

    def returns(self):
        v = 1.0 if self.seq[0] == self.seq[2] else -1.0
        return (v, -v)

    def infostate_key(self, player):
        return (player, len(self.seq))


class _ForgetfulGame:
    name = "forgetful"

    def root(self):
        return _ForgetfulState()


def test_a_game_without_perfect_recall_is_refused():
    tree = TreeIndex(_ForgetfulGame())
    assert tree.n_infosets == 3
    # The reference walk keeps the first parent it meets.
    assert reference_tree(_ForgetfulGame()).is_parent_col.tolist() \
        == [-1, -1, 0]
    for read in (lambda: tree.is_parent_col, lambda: Cfr(tree)):
        with pytest.raises(ValueError, match=r"infostate \(0, 2\) follows"
                           " several own sequences: no perfect recall"):
            read()
