"""Game-specific behavior: payoff spot checks, clone structure, the
uniform-equilibrium property of the matching-pennies family, and the
bidding rules of the coin game."""

import numpy as np
import pytest

from efgsolve import TreeIndex, make_game, profile_array, uniform_policy
from efgsolve.evaluate import exploitability, expected_value
from efgsolve.games import clone_gmp, gmp_matrix, kgmp, perturbed_kgmp
from efgsolve.games.kuhn import BET, PASS
from efgsolve.games.leduc import CALL, FOLD, RAISE


def play(game, actions):
    s = game.root()
    for a in actions:
        s = s.apply(a)
    return s


def test_kuhn_payoff_lines():
    game = make_game("kuhn")
    # Deal 5 is (K, Q): chance outcome index into ordered distinct pairs.
    kq = play(game, [5, PASS, PASS])
    assert kq.is_terminal() and kq.returns() == (1.0, -1.0)
    kq_bet = play(game, [5, BET, BET])
    assert kq_bet.returns() == (2.0, -2.0)
    fold1 = play(game, [5, PASS, BET, PASS])
    assert fold1.returns() == (-1.0, 1.0)
    fold2 = play(game, [0, BET, PASS])  # (J, Q), player 2 folds
    assert fold2.returns() == (1.0, -1.0)


def test_kuhn_bet_is_hidden_until_observed():
    game = make_game("kuhn")
    s = play(game, [5, BET])
    # Player 2 has seen the bet, player 1's key records their own action.
    assert s.infostate_key(1) == (1, 1, 11)
    assert s.infostate_key(0) == (0, 2, 11)


def test_leduc_fold_only_facing_raise():
    game = make_game("leduc")
    s = play(game, [0])  # deal (card 0, card 1)
    assert FOLD not in s.legal_actions()
    s2 = s.apply(RAISE)
    assert FOLD in s2.legal_actions()
    folded = s2.apply(FOLD)
    assert folded.is_terminal()
    # Player 2 forfeits only the ante.
    assert folded.returns() == (1.0, -1.0)


def test_leduc_showdown_pair_beats_higher_rank():
    game = make_game("leduc")
    # Cards 0,1 are both rank J (two suits); public card 2 has rank Q.
    deal = next(i for i, (a, b) in enumerate(
        ((a, b) for a in range(6) for b in range(6) if a != b))
        if (a, b) == (2, 0))
    s = play(game, [deal, CALL, CALL])      # round 1 check-check
    assert s.is_chance()
    s = s.apply(3)                          # public card 3, rank Q
    s = play_from(s, [CALL, CALL])
    assert s.is_terminal()
    # Player 1 paired the public Q; player 2 holds a J.
    assert s.returns()[0] > 0


def play_from(s, actions):
    for a in actions:
        s = s.apply(a)
    return s


def test_clone_leduc_multiplies_actions():
    base = make_game("leduc").root().apply(0)
    cloned = make_game("clone_leduc_2").root().apply(0)
    assert len(cloned.legal_actions()) == 2 * len(base.legal_actions())
    # Clone pairs act identically: calling via either clone reaches
    # payoff-identical terminals.
    a = cloned.apply(0).apply(0)
    b = cloned.apply(1).apply(1)
    assert not a.is_terminal() and not b.is_terminal()


def test_gmp_matrix_values():
    m = gmp_matrix(3)
    assert m.shape == (3, 3)
    assert (np.diag(m) == 2.0).all()
    assert (m[~np.eye(3, dtype=bool)] == -1.0).all()


def test_clone_gmp_matrix_classes():
    g = clone_gmp(1, 2, 3)
    m = g.matrices[0]
    assert m.shape == (6, 6)
    # Slots 0,1 are clones of class 0.
    assert m[0, 1] == 2.0 and m[1, 0] == 2.0
    assert m[0, 2] == -1.0


def test_uniform_is_equilibrium_of_gmp_family():
    for name in ("kgmp_1_2", "kgmp_1_3", "kgmp_2_3", "kgmp_3_4",
                 "clone_gmp_2_4_3"):
        tree = TreeIndex(make_game(name))
        sigma = profile_array(tree, uniform_policy(tree, 0),
                              uniform_policy(tree, 1))
        assert exploitability(tree, sigma) <= 1e-9, name
        assert expected_value(tree, sigma) == pytest.approx(0.0)


def test_perturbed_kgmp_is_seeded_and_nonuniform():
    g0 = perturbed_kgmp(2, 3, seed=0)
    g0b = perturbed_kgmp(2, 3, seed=0)
    g1 = perturbed_kgmp(2, 3, seed=1)
    assert all((a == b).all() for a, b in zip(g0.matrices, g0b.matrices))
    assert any((a != b).any() for a, b in zip(g0.matrices, g1.matrices))
    tree = TreeIndex(g0)
    e = exploitability(tree, profile_array(tree, uniform_policy(tree, 0),
                                           uniform_policy(tree, 1)))
    assert e > 1e-3, "perturbation should break the uniform equilibrium"


def test_make_game_seed_reaches_perturbed_games():
    a = make_game("perturbed_kgmp_2_3", seed=7)
    b = make_game("perturbed_kgmp_2_3", seed=7)
    assert all((x == y).all() for x, y in zip(a.matrices, b.matrices))


def test_rps_choice_shape():
    game = make_game("rps_choice")
    root = game.root()
    assert not root.is_chance()
    assert root.current_player() == 0
    assert root.legal_actions() == (0, 1)
    s = root.apply(1)
    assert s.legal_actions() == (0, 1, 2)
    # The game choice is public: player 2's key sees it.
    t = s.apply(0)
    assert t.infostate_key(1) == (1, 11)
    # (Rock, Paper) loses for player 1.
    assert t.apply(1).returns() == (-1.0, 1.0)


def test_oshi_zumo_bidding_rules():
    game = make_game("oshi_zumo_4_3_6")
    root = game.root()
    assert root.legal_actions() == (0, 1, 2, 3, 4)
    # Both bid 2: token stays, coins drop.
    s = root.apply(2).apply(2)
    assert s.coins == (2, 2)
    assert s.pos == 1
    # Player 1 outbids: token moves toward player 2's edge.
    s2 = root.apply(3).apply(1)
    assert s2.pos == 2
    assert not s2.is_terminal()
    s3 = s2.apply(1).apply(0)
    assert s3.pos == 3 and s3.is_terminal()
    assert s3.returns() == (1.0, -1.0)


def test_oshi_zumo_broke_players_and_draws():
    game = make_game("oshi_zumo_4_3_6")
    s = game.root().apply(4).apply(4)     # both spend everything
    assert s.coins == (0, 0) and s.is_terminal()
    assert s.returns() == (0.0, 0.0)      # token in the middle


def test_oshi_zumo_horizon_ends_game():
    game = make_game("oshi_zumo_4_3_6")
    s = game.root()
    for _ in range(6):
        assert not s.is_terminal()
        s = s.apply(0).apply(0)
    assert s.is_terminal()


def test_oshi_zumo_pending_bid_is_hidden():
    game = make_game("oshi_zumo_4_3_6")
    s = game.root().apply(3)
    assert s.current_player() == 1
    assert s.infostate_key(1) == (1,), "bid not yet revealed"
    resolved = s.apply(1)
    k1 = resolved.infostate_key(1)
    assert k1[-1] == 200 + (3 << 8) + 1, "both bids revealed after the round"
