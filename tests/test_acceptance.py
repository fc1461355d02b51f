"""End-to-end acceptance checks, one test per numbered criterion.

Each test is a single pass/fail line under ``pytest -v``.  Heavy runs
are shared through module fixtures, and every benchmark configuration
used by the ordering and size criteria is executed twice so the final
determinism criterion can diff the bytes of the very files the other
criteria measured.

Criteria 9 and 10 (exploitability orderings at a fixed ten-million-node
budget) do not hold for this implementation under its counting contract
and are expected to fail; they are asserted exactly as stated, with the
measured values in the assertion message, rather than being loosened.
The double-oracle runs burn most of such a budget growing and
re-solving restricted games, so at the cutoff their extended profiles
still trail CFR+ on clone Leduc and on Oshi-Zumo, and CFR+ overtakes
external-sampling MCCFR on clone Leduc only a little past the cutoff.
"""

import numpy as np
import pytest

from efgsolve import (TabularPolicy, TreeIndex, best_response,
                      exploitability, expected_value, make_game,
                      profile_array, uniform_policy)
from efgsolve.bench import ExperimentConfig, run_experiment, run_seed
from efgsolve.metrics import read_rows_csv
from efgsolve.policy import pure_profile
from efgsolve.psro import psro_histogram
from efgsolve.solvers import Cfr, solve_matrix_lp
from efgsolve.xdo import (XdoConfig, enumerate_reduced_pure, eq1_allowed,
                          xdo_solve)

from oracles import as_policy, count_states

pytestmark = pytest.mark.slow

NODE_BUDGET = 10_000_000
LEDUC_HISTORIES = 9_451          # enforced in test_game_core
CLONE_LEDUC_HISTORIES = 468_511

KGMP_CASES = [(k, n) for k in (1, 2, 3) for n in (2, 3, 4)]
EXACT_GAMES = (["kuhn", "rps_choice", "clone_gmp_2_4_3"]
               + [f"kgmp_{k}_{n}" for k, n in KGMP_CASES])

# tag -> were the repeated runs byte-identical; filled by _run_twice and
# judged by the final criterion.
IDENTICAL: dict[str, bool] = {}


def _run_twice(root, tag, **kw):
    """Run one experiment config twice, record whether the CSVs match
    byte for byte, and hand back the first run's rows and summary."""
    summaries = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(out_dir=str(root / tag / sub), **kw)
        summaries.append(run_experiment(cfg))
    names = summaries[0]["csv_files"]
    IDENTICAL[tag] = all(
        (root / tag / "a" / n).read_bytes()
        == (root / tag / "b" / n).read_bytes() for n in names)
    rows = read_rows_csv(root / tag / "a" / names[0])
    return rows, summaries[0]


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def exact_xdo_runs():
    """Exact-inner double-oracle runs on every small game, used by the
    termination, iteration-bound, and clone criteria."""
    return {name: xdo_solve(make_game(name), XdoConfig(inner="lp"))
            for name in EXACT_GAMES}


@pytest.fixture(scope="module")
def small_bench(bench_root):
    out = {}
    for game in ("kuhn", "rps_choice", "kgmp_2_3", "clone_gmp_2_4_3"):
        out[game] = _run_twice(bench_root, f"xdo_{game}", game=game,
                               algo="xdo", seeds=(0,), max_iters=60,
                               params={"inner": "lp"})
    return out


@pytest.fixture(scope="module")
def leduc_bench(bench_root):
    return dict(
        xdo=_run_twice(bench_root, "xdo_leduc", game="leduc", algo="xdo",
                       seeds=(0,), max_iters=15),
        psro=_run_twice(bench_root, "psro_leduc", game="leduc", algo="psro",
                        seeds=(0,), max_iters=50),
        xfp=_run_twice(bench_root, "xfp_leduc", game="leduc", algo="xfp",
                       seeds=(0,), max_iters=50),
    )


@pytest.fixture(scope="module")
def clone_bench(bench_root):
    return {algo: _run_twice(bench_root, f"{algo}_clone",
                             game="clone_leduc_2", algo=algo, seeds=(0,),
                             node_budget=NODE_BUDGET)
            for algo in ("xdo", "cfr_plus", "mccfr_es")}


@pytest.fixture(scope="module")
def oshi_bench(bench_root):
    return {algo: _run_twice(bench_root, f"{algo}_oshi",
                             game="oshi_zumo_4_3_6", algo=algo, seeds=(0,),
                             node_budget=NODE_BUDGET)
            for algo in ("xdo", "cfr_plus")}


def _final(bench_entry):
    rows, summary = bench_entry
    return summary["final_exploitability"]["0"]


def _check_invariants(game):
    """One exhaustive pass: zero-sum terminals, proper chance
    distributions, infostate keys that pin player and actions, key
    prefixes monotone along play, and unique own-action predecessors."""
    seen: dict = {}
    preds: dict = {}
    decisions = 0

    def down(state, last_key, last_dec):
        nonlocal decisions
        for p in (0, 1):
            key = state.infostate_key(p)
            assert key[:len(last_key[p])] == last_key[p]
        if state.is_terminal():
            r = state.returns()
            assert r[0] + r[1] == pytest.approx(0.0, abs=1e-12)
            return
        nxt = tuple(state.infostate_key(p) for p in (0, 1))
        if state.is_chance():
            probs = [q for _, q in state.chance_outcomes()]
            assert all(q > 0 for q in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            for a, _ in state.chance_outcomes():
                down(state.apply(a), nxt, last_dec)
            return
        decisions += 1
        p = state.current_player()
        key = state.infostate_key(p)
        assert key[0] == p
        sig = (p, tuple(state.legal_actions()))
        assert seen.setdefault(key, sig) == sig
        assert preds.setdefault(key, last_dec[p]) == last_dec[p]
        for a in state.legal_actions():
            nd = list(last_dec)
            nd[p] = (key, a)
            down(state.apply(a), nxt, tuple(nd))

    down(game.root(), ((), ()), (None, None))
    assert decisions > 0


def test_c01a_structural_invariants_by_exhaustive_enumeration():
    games = (["kuhn", "leduc", "rps_choice", "oshi_zumo_4_3_6"]
             + [f"kgmp_{k}_{n}" for k, n in KGMP_CASES])
    for name in games:
        _check_invariants(make_game(name))


def test_c01b_best_response_equals_brute_force():
    for name in ("kuhn", "kgmp_1_3"):
        tree = TreeIndex(make_game(name))
        rng = np.random.default_rng(9)
        for player in (0, 1):
            opponents = [uniform_policy(tree, 1 - player)]
            for _ in range(2):
                pol = TabularPolicy(1 - player)
                for isid in tree.infosets_of(1 - player):
                    row = rng.random(int(tree.is_nact[isid])) + 1e-3
                    pol.set_row(tree.keys[isid], row / row.sum())
                opponents.append(pol)
            for opp in opponents:
                best = -np.inf
                for choice in enumerate_reduced_pure(tree, player):
                    pure = as_policy(tree, choice, player)
                    pair = (pure, opp) if player == 0 else (opp, pure)
                    v = expected_value(tree, profile_array(tree, *pair))
                    best = max(best, v if player == 0 else -v)
                sides = (None, opp) if player == 0 else (opp, None)
                br = best_response(tree, profile_array(tree, *sides), player)
                assert br.value == pytest.approx(best, abs=1e-12)


def test_c01c_uniform_profile_is_exact_on_matching_pennies_family():
    games = ([f"kgmp_{k}_{n}" for k, n in KGMP_CASES]
             + ["clone_gmp_2_4_3", "clone_gmp_1_2_3", "clone_gmp_3_2_2"])
    for name in games:
        tree = TreeIndex(make_game(name))
        e = exploitability(tree, profile_array(tree, uniform_policy(tree, 0),
                                               uniform_policy(tree, 1)))
        assert e <= 1e-9, name


def test_c02_cfr_plus_matches_the_normal_form_lp_value():
    tree = TreeIndex(make_game("kuhn"))
    solver = Cfr(tree, plus=True)
    solver.iterate(10_000)
    flat = solver.average_flat()
    assert exploitability(tree, flat, None) < 1e-3

    pures = [enumerate_reduced_pure(tree, p) for p in (0, 1)]
    matrix = np.array([[expected_value(tree, pure_profile(tree, a, b))
                        for b in pures[1]] for a in pures[0]])
    oracle = solve_matrix_lp(matrix).value
    assert oracle == pytest.approx(-1.0 / 18.0, abs=1e-9)
    assert expected_value(tree, flat) == pytest.approx(oracle, abs=1e-3)


def test_c03_terminated_runs_meet_their_tolerance(exact_xdo_runs,
                                                  small_bench):
    for name, res in exact_xdo_runs.items():
        assert res.terminated, name
        assert res.exploitability <= res.eps_final + 1e-6, name
    for game, (rows, summary) in small_bench.items():
        seed = summary["seeds"]["0"]
        assert seed["terminated"], game
        assert seed["final_exploitability"] <= seed["eps_final"] + 1e-6, game


def test_c04_outer_iterations_bounded_by_total_infostates(exact_xdo_runs):
    for name in ("kuhn", "rps_choice", "kgmp_2_3"):
        bound = sum(count_states(make_game(name)).all_infostates)
        assert exact_xdo_runs[name].outer_iters <= bound, name


def test_c05_matching_pennies_terminates_within_two_n(exact_xdo_runs):
    for k, n in KGMP_CASES:
        res = exact_xdo_runs[f"kgmp_{k}_{n}"]
        assert res.terminated, (k, n)
        assert res.outer_iters <= 2 * n, (k, n)


def test_c06_clone_actions_stay_bounded(exact_xdo_runs):
    res = exact_xdo_runs["clone_gmp_2_4_3"]
    assert res.terminated
    tree = TreeIndex(make_game("clone_gmp_2_4_3"))
    counts = np.bincount(tree.col_isid[eq1_allowed(res.populations)],
                         minlength=tree.n_infosets)
    for player in (0, 1):
        worst = int(counts[tree.infosets_of(player)].max())
        assert worst <= 2 * 3, f"player {player} reached {worst} actions"


def test_c07_strategy_expansion_histogram(rps_tree):
    records = psro_histogram(make_game("rps_choice"), trials=150, seed0=0,
                             horizon=30, eps=1e-3, base_tree=rps_tree)
    full0 = sum(r["expanded0"] == 6 for r in records) / len(records)
    full1 = sum(r["expanded1"] == 9 for r in records) / len(records)
    assert full0 >= 0.95, f"player 1 expanded all strategies in {full0:.1%}"
    assert full1 >= 0.60, f"player 2 expanded all strategies in {full1:.1%}"


def test_c08_leduc_iteration_efficiency(leduc_bench):
    xdo_rows, xdo_summary = leduc_bench["xdo"]
    best = min(r["exploitability"] for r in xdo_rows
               if r["outer_iter"] <= 15)
    assert best <= 0.1, f"double oracle only reached {best:.4f} in 15 rounds"

    psro_rows, _ = leduc_bench["psro"]
    assert psro_rows[-1]["outer_iter"] == 50
    assert psro_rows[-1]["exploitability"] > 0.1

    xfp_rows, _ = leduc_bench["xfp"]
    assert xfp_rows[-1]["outer_iter"] == 50
    xdo_at_15 = xdo_summary["final_exploitability"]["0"]
    assert xfp_rows[-1]["exploitability"] > xdo_at_15


def test_c09_clone_leduc_ordering_at_budget(clone_bench):
    xdo_e = _final(clone_bench["xdo"])
    cfr_e = _final(clone_bench["cfr_plus"])
    mc_e = _final(clone_bench["mccfr_es"])
    assert xdo_e < cfr_e < mc_e, (
        f"at {NODE_BUDGET} nodes: xdo={xdo_e:.4f} cfr_plus={cfr_e:.4f} "
        f"mccfr_es={mc_e:.4f}; the double-oracle run is still growing its "
        f"restricted game at the cutoff and CFR+ passes MCCFR-ES later")


def test_c10_oshi_zumo_ordering_at_budget(oshi_bench):
    xdo_e = _final(oshi_bench["xdo"])
    cfr_e = _final(oshi_bench["cfr_plus"])
    assert xdo_e <= cfr_e, (
        f"at {NODE_BUDGET} nodes: xdo={xdo_e:.4f} cfr_plus={cfr_e:.4f}; "
        f"the default extension bids the minimum at uncovered infostates, "
        f"which loses every wrestle until the restricted game covers the "
        f"exploit paths")


def test_c11_restricted_game_size_ratios(leduc_bench, clone_bench):
    leduc_rows, _ = leduc_bench["xdo"]
    leduc_ratio = leduc_rows[-1]["restricted_states"] / LEDUC_HISTORIES
    assert 0.60 <= leduc_ratio <= 1.00

    clone_rows, _ = clone_bench["xdo"]
    clone_ratio = (clone_rows[-1]["restricted_states"]
                   / CLONE_LEDUC_HISTORIES)
    assert clone_ratio <= 0.60
    assert clone_ratio < leduc_ratio


def test_c12_perturbed_stage_games_across_seeds():
    wins = {"xdo": 0, "cfr_plus": 0}
    for seed in range(5):
        finals = {}
        for algo, params in (("xdo", {}), ("cfr_plus", {}),
                             ("psro", dict(payoffs="sampled",
                                           games_per_pair=100,
                                           meta_solver="lp"))):
            cfg = ExperimentConfig(game="perturbed_kgmp_8_4", algo=algo,
                                   seeds=(seed,), node_budget=300_000,
                                   params=params)
            _, summary = run_seed(cfg, seed)
            finals[algo] = summary["final_exploitability"]
        for algo in wins:
            wins[algo] += finals[algo] < finals["psro"]
    assert wins["xdo"] >= 4, wins
    assert wins["cfr_plus"] >= 4, wins


def test_c13_repeated_runs_are_byte_identical(small_bench, leduc_bench,
                                              clone_bench, oshi_bench):
    expected = {"xdo_kuhn", "xdo_rps_choice", "xdo_kgmp_2_3",
                "xdo_clone_gmp_2_4_3", "xdo_leduc", "psro_leduc",
                "xfp_leduc", "xdo_clone", "cfr_plus_clone", "mccfr_es_clone",
                "xdo_oshi", "cfr_plus_oshi"}
    assert set(IDENTICAL) == expected
    mismatched = sorted(tag for tag, same in IDENTICAL.items() if not same)
    assert not mismatched, f"non-deterministic outputs: {mismatched}"
