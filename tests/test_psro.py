"""Normal-form double oracle over pure-strategy populations.

The meta-game claims are verified against independently rebuilt payoff
matrices, and the sampling variant is held to the same determinism bar
as the exact one: a seed pins the whole trajectory.
"""

import numpy as np
import pytest

from efgsolve import NodeCounter, TreeIndex, expected_value, make_game
from efgsolve.policy import (pure_profile, random_pure_policy,
                             realize_mixture, sample_index)
from efgsolve.psro import (PsroConfig, _sampled_payoff, psro_histogram,
                           psro_solve, reduced_canonical)
from efgsolve.tree import CHANCE_NODE, TERMINAL, walk_table
from efgsolve.xdo import Population

from oracles import choice_of, reduced_strategies_expanded


def test_exact_lp_terminates_on_gmp(kgmp13_tree):
    res = psro_solve(kgmp13_tree, PsroConfig(max_iters=60))
    assert res.terminated
    # Stop rule is per player, so the summed exploitability is at worst
    # twice the tolerance (here it is exactly zero).
    assert res.exploitability <= 2e-3
    # Matching pennies needs its full support: all 3 actions per player.
    assert [len(p) for p in res.populations] == [3, 3]
    assert res.iters <= 10


def test_exact_lp_terminates_on_kuhn(kuhn_tree):
    res = psro_solve(kuhn_tree, PsroConfig(max_iters=60))
    assert res.terminated
    assert res.exploitability <= 2e-3
    assert res.iters <= 20
    assert all(len(p) <= res.iters for p in res.populations)


@pytest.mark.parametrize("max_iters, terminated", [(60, True), (3, False)])
def test_result_profile_is_the_realized_meta_mixture(kuhn_tree, max_iters,
                                                     terminated):
    res = psro_solve(kuhn_tree, PsroConfig(max_iters=max_iters))
    assert res.terminated == terminated
    pops = res.populations
    want = (realize_mixture(kuhn_tree, pops[0].choices, res.meta[0], 0)
            + realize_mixture(kuhn_tree, pops[1].choices, res.meta[1], 1))
    assert res.sigma.tobytes() == want.tobytes()


def test_meta_mixture_solves_the_rebuilt_empirical_game(kuhn_tree):
    res = psro_solve(kuhn_tree, PsroConfig(max_iters=60))
    pop0, pop1 = res.populations
    m = np.array([[expected_value(kuhn_tree, pure_profile(kuhn_tree, pi, pj))
                   for pj in pop1.choices] for pi in pop0.choices])
    row, col = res.meta
    value = row @ m @ col
    assert (row @ m).min() >= value - 1e-9
    assert (m @ col).max() <= value + 1e-9


def test_trace_has_one_row_per_iteration(kuhn_tree):
    res = psro_solve(kuhn_tree, PsroConfig(max_iters=60))
    assert [t["iter"] for t in res.trace] == list(range(1, res.iters + 1))
    nodes = [t["nodes"] for t in res.trace]
    assert nodes == sorted(nodes)
    for t in res.trace:
        assert set(t) == {"iter", "nodes", "exploitability", "pop0", "pop1",
                          "wall_ms"}
        assert t["pop0"] <= t["iter"] and t["pop1"] <= t["iter"]


def test_node_budget_stops_the_run(kuhn_tree):
    counter = NodeCounter(200)
    res = psro_solve(kuhn_tree, PsroConfig(), counter)
    assert not res.terminated
    assert res.nodes >= 200


def test_approximate_meta_stops_when_nothing_new_arrives(kgmp13_tree):
    # Fictitious play leaves residual error, so the stop test never
    # fires; when both oracles return known members the loop ends
    # instead of spinning.
    res = psro_solve(kgmp13_tree,
                     PsroConfig(meta_solver="fp", fp_iters=4000,
                                max_iters=30))
    assert not res.terminated
    assert res.iters < 30
    assert res.exploitability > 0


def test_sampled_payoffs_are_seed_deterministic():
    cfg = dict(payoffs="sampled", games_per_pair=50, max_iters=10, seed=2)
    a = psro_solve(TreeIndex(make_game("rps_choice")), PsroConfig(**cfg))
    b = psro_solve(TreeIndex(make_game("rps_choice")), PsroConfig(**cfg))
    assert a.exploitability == b.exploitability
    assert a.nodes == b.nodes
    assert [t["exploitability"] for t in a.trace] \
        == [t["exploitability"] for t in b.trace]


def test_sampled_payoffs_count_their_playout_visits(kuhn_tree):
    counter = NodeCounter()
    psro_solve(kuhn_tree,
               PsroConfig(payoffs="sampled", games_per_pair=20, max_iters=2),
               counter)
    assert counter.count > 0


def reference_sampled_payoff(tree, sigma, games, seed_seq, counter):
    """The per-node playout walk over the tree's arrays that
    ``_sampled_payoff`` replaced, kept as its bit-for-bit reference."""
    rng = np.random.default_rng(seed_seq)
    total = 0.0
    visits = 0
    for _ in range(games):
        u = 0
        while True:
            visits += 1
            kind = tree.kind[u]
            if kind == TERMINAL:
                total += tree.payoff1[u]
                break
            kids = tree.children(u)
            if kind == CHANCE_NODE:
                u = int(kids[sample_index(tree.in_prob[kids], rng.random())])
            else:
                cols = tree.in_col[kids]
                u = int(kids[int(np.argmax(sigma[cols]))])
    counter.add(visits)
    return total / games


@pytest.mark.parametrize("name", ["kuhn", "leduc", "rps_choice",
                                  "perturbed_kgmp_8_4"])
def test_sampled_payoff_matches_the_per_node_walk(name):
    # rps_choice has no chance node; the others draw chance at the root.
    tree = TreeIndex(make_game(name, seed=3))
    root = walk_table(tree)
    rng = np.random.default_rng(11)
    for k in range(8):
        sigma = pure_profile(tree, random_pure_policy(tree, 0, rng),
                             random_pure_policy(tree, 1, rng))
        seed, key = k % 3, (k, 7 - k)
        got, want = NodeCounter(), NodeCounter()
        value = _sampled_payoff(root, sigma, 40 + k, np.random.SeedSequence(
            seed, spawn_key=key), got)
        expected = reference_sampled_payoff(
            tree, sigma, 40 + k, np.random.SeedSequence(seed, spawn_key=key),
            want)
        assert value == expected
        assert got.count == want.count


def test_random_init_is_seeded():
    cfg = dict(init="random", seed=5, max_iters=10)
    a = psro_solve(TreeIndex(make_game("rps_choice")), PsroConfig(**cfg))
    b = psro_solve(TreeIndex(make_game("rps_choice")), PsroConfig(**cfg))
    assert a.exploitability == b.exploitability
    assert a.iters == b.iters


def _unreachable_sibling_pair(tree):
    """Two pure strategies differing only at an infostate the player
    cannot reach under their own earlier action."""
    child = next(int(i) for i in tree.infosets_of(0)
                 if int(tree.is_parent_col[int(i)]) >= 0)
    p_col = int(tree.is_parent_col[child])
    parent = int(tree.col_isid[p_col])
    slot = p_col - int(tree.is_off[parent])
    pacts = tree.is_actions[parent]
    away = next(a for i, a in enumerate(pacts) if i != slot)

    table = {tree.keys[int(i)]: tree.is_actions[int(i)][0]
             for i in tree.infosets_of(0)}
    table[tree.keys[parent]] = away
    other = dict(table)
    other[tree.keys[child]] = tree.is_actions[child][-1]
    return choice_of(tree, 0, table), choice_of(tree, 0, other)


def test_reduced_canonical_ignores_unreachable_infostates(kuhn_tree):
    a, b = _unreachable_sibling_pair(kuhn_tree)
    assert not np.array_equal(a, b)
    assert reduced_canonical(kuhn_tree, a, 0) \
        == reduced_canonical(kuhn_tree, b, 0)


def test_reduced_strategies_expanded_collapses_duplicates(kuhn_tree):
    a, b = _unreachable_sibling_pair(kuhn_tree)
    pop = Population(kuhn_tree, 0, [a, b])
    assert len(pop) == 2
    assert reduced_strategies_expanded(kuhn_tree, pop) == 1


def test_histogram_records_and_determinism(rps_tree):
    recs = psro_histogram(rps_tree, trials=3, seed0=10, horizon=30,
                          eps=1e-3)
    assert [r["seed"] for r in recs] == [10, 11, 12]
    for r in recs:
        assert set(r) == {"seed", "expanded1", "expanded2", "eps_pass_iter",
                          "iters", "exploitability"}
        assert 1 <= r["expanded1"] <= 6
        assert 1 <= r["expanded2"] <= 9
        assert r["iters"] == 30
    assert recs == psro_histogram(rps_tree, trials=3, seed0=10, horizon=30,
                                  eps=1e-3)
