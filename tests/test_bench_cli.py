"""Experiment runner, metric files, and the command line.

Determinism is the load-bearing property here: the same configuration
must yield byte-identical CSVs whether run once, twice, or across a
process pool, because the acceptance checks diff files, not floats.
"""

import json
from dataclasses import fields

import pytest

from efgsolve import bench
from efgsolve.bench import (ConfigError, EnumerationOverflow,
                            ExperimentConfig, guard_enumerable, list_games,
                            run_experiment, run_psro_hist, run_seed,
                            run_size_report, validate_config)
from efgsolve.cli import _parse_seeds, main
from efgsolve.games import make_game, rps_choice
from efgsolve.metrics import (CSV_COLUMNS, check_rows, check_rules,
                              write_rows_csv)
from efgsolve.psro import PsroConfig, psro_solve
from efgsolve.solvers import Cfr
from efgsolve.tree import NodeCounter, TreeIndex
from efgsolve.xdo import XdoConfig, xdo_solve

from oracles import csv_rows


def small_cfg(**over):
    base = dict(game="kuhn", algo="cfr_plus", seeds=(0,), max_iters=40,
                eval_start=100, out_dir="runs")
    base.update(over)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("factor, thresholds", [
    (2, [100, 200, 400, 800, 1600, 3200, 6400, 12800]),
    (3, [100, 300, 900, 2700, 8100]),
])
def test_rows_sit_where_the_node_count_passes_each_threshold(factor,
                                                             thresholds):
    # The node count after each CFR+ iteration, from the solver alone.
    counter = NodeCounter()
    solver = Cfr(TreeIndex(make_game("kuhn")), plus=True, counter=counter)
    counts = []
    for _ in range(200):
        solver.iterate(1)
        counts.append(counter.count)
    assert thresholds == [100 * factor ** k for k in range(len(thresholds))]
    assert counts[-1] < 100 * factor ** len(thresholds)
    firsts = sorted({next(it for it, n in enumerate(counts, 1) if n >= t)
                     for t in thresholds})
    assert firsts[-1] < 200

    rows, _ = run_seed(small_cfg(max_iters=200, eval_factor=factor), 0)
    # Every row but the last is a threshold's; the last ends the run.
    assert [(r["outer_iter"], r["nodes_visited"]) for r in rows] \
        == [(it, counts[it - 1]) for it in firsts + [200]]


def test_check_rows_rejects_bad_rows():
    check_rows([dict(nodes_visited=5, exploitability=0.1),
                dict(nodes_visited=5, exploitability=0.0)])
    with pytest.raises(ValueError, match="unknown columns"):
        check_rows([dict(bogus=1)])
    with pytest.raises(ValueError, match="decreased"):
        check_rows([dict(nodes_visited=5), dict(nodes_visited=4)])
    with pytest.raises(ValueError, match="below floor"):
        check_rows([dict(exploitability=-1e-3)])


def test_csv_roundtrip_preserves_types(tmp_path):
    rows = [dict(algo="xdo", game="kuhn", seed=0, outer_iter=1,
                 inner_iter=None, nodes_visited=55,
                 exploitability=0.0078125, pop1=2, pop2=2,
                 restricted_states=51, wall_ms=0.0)]
    path = tmp_path / "r.csv"
    write_rows_csv(path, rows)
    # None is an empty cell, ints are written with str and floats with
    # repr, whose text reads back as the same float.
    assert path.read_text() == (
        ",".join(CSV_COLUMNS) + "\n"
        + "xdo,kuhn,0,1,,55,0.0078125,2,2,51,0.0\n")


def test_validate_config_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        validate_config(small_cfg(algo="sarsa"))
    with pytest.raises(ConfigError, match="unknown game"):
        validate_config(small_cfg(game="chess"))
    with pytest.raises(ConfigError, match="seed"):
        validate_config(small_cfg(seeds=()))
    # Neither is iterable; both once ended in a TypeError.
    for seeds in (5, None):
        with pytest.raises(ConfigError) as err:
            validate_config(small_cfg(seeds=seeds))
        assert str(err.value) == \
            f"seeds must be distinct integers >= 0, not {seeds!r}"
    for params in (5, None):
        with pytest.raises(ConfigError) as err:
            validate_config(small_cfg(params=params))
        assert str(err.value) == f"params must be a mapping, not {params!r}"
    with pytest.raises(ConfigError, match="budget"):
        validate_config(small_cfg(max_iters=None))
    with pytest.raises(ConfigError, match="does not take parameters"):
        validate_config(small_cfg(params={"inner": "lp"}))
    with pytest.raises(ConfigError, match="needs --node-budget"):
        validate_config(small_cfg(algo="xdo", max_iters=None,
                                  max_wall_s=1.0))


@pytest.mark.parametrize("algo", sorted(bench._PARAM_KEYS))
def test_every_accepted_parameter_is_checked(algo):
    # XDO's and PSRO's keys come from their configs, so a new config
    # field must not become a parameter that no check reads.
    keys = bench._PARAM_KEYS[algo]
    assert keys <= set(bench._CHECKS)
    config = {"xdo": bench.XdoConfig, "psro": bench.PsroConfig}.get(algo)
    if config is not None:
        assert keys <= {f.name for f in fields(config)}


# The values of each string setting of XdoConfig and PsroConfig.
CHOICES = {"inner": ("cfr_plus", "cfr", "lp"), "meta_solver": ("lp", "fp"),
           "payoffs": ("exact", "sampled"), "init": ("default", "random")}


@pytest.mark.parametrize("config, name, value", [
    (XdoConfig if name == "inner" else PsroConfig, name, value)
    for name, values in CHOICES.items()
    for value in values])
def test_every_choice_constructs_its_config(config, name, value):
    assert getattr(config(**{name: value}), name) == value


# What each solver setting must be, as the command line words it.
WHAT = {**{name: "one of " + ", ".join(values)
           for name, values in CHOICES.items()},
        **dict.fromkeys(("eps0", "eps_floor", "term_eps", "eps"),
                        "a finite real number >= 0"),
        **dict.fromkeys(("check_period", "max_outer", "max_inner",
                         "fp_iters", "games_per_pair", "max_iters"),
                        "an integer >= 1"),
        "eps_decay": "a real number in (0, 1]", "seed": "an integer >= 0"}


@pytest.mark.parametrize("config, name, value", [
    (XdoConfig, "inner", "lpp"), (XdoConfig, "inner", "CFR"),
    (XdoConfig, "inner", None), (PsroConfig, "meta_solver", "LP"),
    (PsroConfig, "meta_solver", "cfr"), (PsroConfig, "payoffs", "sample"),
    (PsroConfig, "payoffs", ""), (PsroConfig, "init", "Random"),
    (PsroConfig, "init", "uniform"),
    *((config, name, value)
      for config, name in ((XdoConfig, "eps0"), (XdoConfig, "eps_floor"),
                           (XdoConfig, "term_eps"), (PsroConfig, "eps"))
      for value in (-1e-9, float("inf"), float("nan"), "0.1", True)),
    *((config, name, value)
      for config, name in ((XdoConfig, "check_period"),
                           (XdoConfig, "max_outer"), (XdoConfig, "max_inner"),
                           (PsroConfig, "fp_iters"),
                           (PsroConfig, "games_per_pair"),
                           (PsroConfig, "max_iters"))
      for value in (0, -1, True, 2.0)),
    *((XdoConfig, "eps_decay", value)
      for value in (0, 1.5, -0.5, float("nan"), True)),
    *((PsroConfig, "seed", value) for value in (-1, 1.0, True, None)),
])
def test_a_bad_choice_fails_at_construction_in_the_cli_wording(
        config, name, value):
    # Without the check a library call ran another solver silently, or
    # crashed mid-run on a zero count.
    with pytest.raises(ConfigError) as cli:
        check_rules({name: value}, bench._CHECKS)
    with pytest.raises(ConfigError) as lib:
        config(**{name: value})
    assert str(lib.value) == str(cli.value) \
        == f"{name} must be {WHAT[name]}, not {value!r}"


def test_library_calls_that_crashed_fail_in_the_cli_wording(kuhn_tree):
    with pytest.raises(ConfigError,
                       match=r"^check_period must be an integer >= 1, "
                             r"not 0$"):
        xdo_solve(kuhn_tree, XdoConfig(check_period=0, max_outer=1))
    with pytest.raises(ConfigError,
                       match=r"^games_per_pair must be an integer >= 1, "
                             r"not 0$"):
        psro_solve(kuhn_tree, PsroConfig(payoffs="sampled",
                                         games_per_pair=0))
    with pytest.raises(ConfigError,
                       match=r"^seed must be an integer >= 0, not -1$"):
        PsroConfig(seed=-1)


def test_guard_enumerable_counts_and_overflows():
    assert guard_enumerable(make_game("kuhn"), 1000) == 55
    with pytest.raises(EnumerationOverflow):
        guard_enumerable(make_game("kuhn"), 54)
    assert guard_enumerable(make_game("kuhn"), None) == 0


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path), seeds=(0, 1))
    summary = run_experiment(cfg)
    for seed in (0, 1):
        rows = csv_rows(tmp_path / f"cfr_plus_kuhn_seed{seed}.csv")
        assert int(rows[-1]["outer_iter"]) == 40
        assert int(rows[-1]["nodes_visited"]) == 40 * 2 * 55
        assert all(r["algo"] == "cfr_plus" and int(r["seed"]) == seed
                   for r in rows)
    on_disk = json.loads(
        (tmp_path / "cfr_plus_kuhn_summary.json").read_text())
    assert on_disk["schema_version"] == 1
    assert summary["truncated"] is True
    assert set(summary["final_exploitability"]) == {"0", "1"}


def test_repeat_runs_are_byte_identical(tmp_path):
    texts = []
    for sub in ("a", "b"):
        cfg = small_cfg(algo="mccfr_es", out_dir=str(tmp_path / sub),
                        seeds=(3,), max_iters=60)
        run_experiment(cfg)
        texts.append((tmp_path / sub / "mccfr_es_kuhn_seed3.csv").read_text())
    assert texts[0] == texts[1]


def test_process_pool_matches_serial_output(tmp_path):
    outs = []
    for sub, jobs in (("serial", 1), ("pool", 3)):
        cfg = small_cfg(out_dir=str(tmp_path / sub), seeds=(0, 1, 2),
                        jobs=jobs)
        run_experiment(cfg)
        outs.append([(tmp_path / sub / f"cfr_plus_kuhn_seed{s}.csv")
                     .read_text() for s in (0, 1, 2)])
    assert outs[0] == outs[1]


def test_pools_start_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # A stand-in records the pool size asked for and maps in this
    # process, so a large --jobs starts no worker at all.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    run_experiment(small_cfg(out_dir=str(tmp_path / "run"), seeds=(0, 1),
                             max_iters=5, jobs=64))
    run_psro_hist(trials=3, horizon=6, out_dir=str(tmp_path / "hist"),
                  jobs=64)
    assert sizes == [2, 3]


def test_wall_clock_column_is_zero_unless_requested(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path))
    run_experiment(cfg)
    rows = csv_rows(tmp_path / "cfr_plus_kuhn_seed0.csv")
    assert all(float(r["wall_ms"]) == 0.0 for r in rows)
    cfg = small_cfg(out_dir=str(tmp_path / "timed"), wall_clock=True)
    run_experiment(cfg)
    rows = csv_rows(tmp_path / "timed" / "cfr_plus_kuhn_seed0.csv")
    assert float(rows[-1]["wall_ms"]) > 0.0


def test_node_budget_truncates_iterative_runs():
    rows, summary = run_seed(small_cfg(max_iters=None, node_budget=3000), 0)
    assert summary["truncated"]
    assert summary["nodes"] >= 3000
    assert rows[-1]["nodes_visited"] == summary["nodes"]


def test_xdo_run_reports_restricted_sizes(tmp_path):
    cfg = ExperimentConfig(game="kuhn", algo="xdo", seeds=(0,), max_iters=3,
                           out_dir=str(tmp_path), params={"inner": "lp"})
    summary = run_experiment(cfg)
    seed = summary["seeds"]["0"]
    assert seed["terminated"] is True
    assert seed["restricted_histories"] > 0
    assert len(seed["restricted_infostates"]) == 2
    rows = csv_rows(tmp_path / "xdo_kuhn_seed0.csv")
    assert int(rows[-1]["restricted_states"]) \
        == seed["restricted_histories"]
    assert int(rows[-1]["pop1"]) >= 1 and int(rows[-1]["pop2"]) >= 1


def test_run_psro_hist_writes_histogram(tmp_path):
    summary = run_psro_hist(trials=4, seed0=0, horizon=12, eps=1e-3,
                            out_dir=str(tmp_path))
    trials_csv = (tmp_path / "psro_hist_trials.csv").read_text()
    assert trials_csv.splitlines()[0] \
        == "seed,expanded1,expanded2,eps_pass_iter,iters,exploitability"
    assert len(trials_csv.strip().splitlines()) == 5
    data = json.loads((tmp_path / "psro_hist_summary.json").read_text())
    assert data["trials"] == 4
    assert set(data["histogram"]) == {"player1", "player2"}
    assert summary["proportion_full"]["player1"] <= 1.0


def test_run_psro_hist_pool_matches_serial(tmp_path):
    serial = run_psro_hist(trials=5, seed0=3, horizon=10,
                           out_dir=str(tmp_path / "s"), jobs=1)
    pooled = run_psro_hist(trials=5, seed0=3, horizon=10,
                           out_dir=str(tmp_path / "p"), jobs=3)
    assert serial["histogram"] == pooled["histogram"]
    assert (tmp_path / "s" / "psro_hist_trials.csv").read_text() \
        == (tmp_path / "p" / "psro_hist_trials.csv").read_text()


@pytest.mark.parametrize("command", [
    lambda: run_psro_hist(trials=1, out_dir=5),
    lambda: run_size_report("kuhn", max_outer=1, out_dir=5),
], ids=["psro-hist", "size-report"])
def test_out_dir_that_is_no_path_is_a_config_error(command, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as err:
        command()
    assert str(err.value) == "out_dir must be a path, not 5"
    assert not any(tmp_path.iterdir())


def test_size_report_on_kuhn(tmp_path):
    report = run_size_report("kuhn", max_outer=50, inner="lp",
                             out_dir=str(tmp_path))
    assert report["terminated"] is True
    assert 0 < report["history_ratio"] < 1
    assert report["full_histories"] == 55
    assert (tmp_path / "size_kuhn.json").exists()
    with pytest.raises(ConfigError):
        run_size_report("kuhn", out_dir=str(tmp_path))


def test_cli_run_and_exit_codes(tmp_path, capsys):
    code = main(["run", "--game", "kuhn", "--algo", "cfr_plus",
                 "--seeds", "0", "--max-iters", "30",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed 0: exploitability" in out
    assert (tmp_path / "cfr_plus_kuhn_seed0.csv").exists()

    assert main(["run", "--game", "kuhn", "--algo", "nope",
                 "--max-iters", "5"]) == 2
    assert main(["run", "--game", "kuhn", "--algo", "cfr_plus"]) == 2

    code = main(["run", "--game", "leduc", "--algo", "cfr_plus",
                 "--max-iters", "5", "--max-states", "100",
                 "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("game", ["kgmp_0_2", "kgmp_2_0",
                                  "clone_gmp_1_0_2", "oshi_zumo_4_-1_6",
                                  "oshi_zumo_0_3_6", "oshi_zumo_4_3_0",
                                  "oshi_zumo_-2_3_6"])
def test_cli_rejects_empty_stage_games(game, tmp_path, capsys):
    code = main(["run", "--game", game, "--algo", "cfr",
                 "--max-iters", "2", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >= 1" in err
    assert err.count("\n") == 1


# Full-width 2, Arabic-Indic 3, and a doubled sign.
@pytest.mark.parametrize("game", ["kgmp_1_\uff12", "kgmp_1_\u0663",
                                  "kgmp_1_--2"])
def test_cli_rejects_game_parameters_that_are_not_ascii_integers(
        game, tmp_path, capsys):
    code = main(["run", "--game", game, "--algo", "cfr",
                 "--max-iters", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"error: game 'kgmp' takes parameters ('k', 'n'), "
                   f"got {game!r}\n")
    assert not any(tmp_path.iterdir())


def test_seed_bounds_may_have_spaces_around_them():
    assert _parse_seeds(" 0 - 2 , 5") == (0, 1, 2, 5)
    assert _parse_seeds("7") == (7,)


XDO_RUN = ["run", "--game", "kuhn", "--algo", "xdo", "--max-iters", "2"]
PSRO_RUN = ["run", "--game", "kuhn", "--algo", "psro", "--max-iters", "2"]
CFR_RUN = ["run", "--game", "kuhn", "--algo", "cfr", "--max-iters", "2"]


@pytest.mark.parametrize("argv", [
    XDO_RUN + ["--param", "inner=bogus"],
    XDO_RUN + ["--param", "check_period=0"],
    ["size-report", "--game", "kuhn", "--max-iters", "2",
     "--inner", "bogus"],
    ["size-report", "--game", "nosuch", "--max-iters", "2"],
    ["size-report", "--game", "kgmp_0_2", "--max-iters", "2"],
    PSRO_RUN + ["--param", "meta_solver=bogus"],
    PSRO_RUN + ["--param", "payoffs=bogus"],
    PSRO_RUN + ["--param", "init=bogus"],
    ["psro-hist", "--trials", "2", "--jobs", "0"],
    ["psro-hist", "--trials", "2", "--horizon", "0"],
    XDO_RUN + ["--param", "eps0=abc"],
    XDO_RUN + ["--param", "inner=lp", "--param", "lp_cap=abc"],
    PSRO_RUN + ["--param", "eps=abc"],
    PSRO_RUN + ["--param", "payoffs=sampled", "--param",
                "games_per_pair=0"],
    ["run", "--game", "kuhn", "--algo", "cfr", "--max-iters", "2",
     "--param", "alternating=abc"],
    XDO_RUN + ["--param", "max_inner=-1"],
    PSRO_RUN + ["--param", "meta_solver=fp", "--param", "fp_iters=0"],
    XDO_RUN + ["--param", "eps_decay=2"],
    XDO_RUN + ["--param", "term_eps=true"],
    CFR_RUN + ["--seeds", "a"],
    CFR_RUN + ["--seeds", "1-a"],
    CFR_RUN + ["--seeds", "0,0"],
    CFR_RUN + ["--seeds", "0-2,5-4"],
    CFR_RUN + ["--seeds", "1_0"],
    CFR_RUN + ["--seeds", "\uff12"],
    CFR_RUN + ["--seeds", "0-1_0"],
    CFR_RUN + ["--seeds", "+3"],
    ["run", "--game", "kuhn", "--algo", "mccfr_es", "--max-iters", "2",
     "--seeds", "-3"],
    PSRO_RUN + ["--param", "init=random", "--seeds", "-3"],
    ["run", "--game", "perturbed_kgmp_1_3", "--algo", "cfr", "--max-iters",
     "2", "--seeds", "-3"],
    ["run", "--game", "kuhn", "--algo", "cfr", "--max-iters", "0"],
    CFR_RUN + ["--node-budget", "0"],
    CFR_RUN + ["--node-budget", "-5"],
    CFR_RUN + ["--max-wall-s", "-1"],
    CFR_RUN + ["--max-wall-s", "nan"],
    CFR_RUN + ["--max-wall-s", "inf"],
    ["run", "--game", "kuhn", "--algo", "xdo", "--max-iters", "0"],
    ["run", "--game", "kuhn", "--algo", "psro", "--max-iters", "-1"],
    CFR_RUN + ["--jobs", "0"],
    CFR_RUN + ["--eval-cadence", "0"],
    CFR_RUN + ["--eval-factor", "1"],
    ["size-report", "--game", "kuhn", "--max-iters", "0"],
    ["size-report", "--game", "kuhn", "--node-budget", "-1"],
    ["psro-hist", "--trials", "2", "--seed0", "-1"],
    ["psro-hist", "--trials", "2", "--eps", "-1"],
    ["psro-hist", "--trials", "2", "--eps", "nan"],
    ["run", "--game", "kgmp_01_2", "--algo", "cfr", "--max-iters", "1"],
    ["run", "--game", "oshi_zumo_04_3_6", "--algo", "cfr", "--max-iters",
     "1"],
    CFR_RUN + ["--seeds", "007"],
    CFR_RUN + ["--seeds", "-0"],
    CFR_RUN + ["--node-budget", "abc"],
    CFR_RUN + ["--node-budget", "1_0"],
    ["run", "--game", "kuhn", "--algo", "cfr", "--max-iters", "1_0"],
    CFR_RUN + ["--eval-cadence", "01"],
    CFR_RUN + ["--eval-factor", "+3"],
    CFR_RUN + ["--jobs", "\u0662"],
    CFR_RUN + ["--max-states", " 9"],
    ["psro-hist", "--trials", "1e3"],
    ["psro-hist", "--trials", "2", "--seed0", "\u0663"],
    ["psro-hist", "--trials", "2", "--horizon", "1_0"],
    ["psro-hist", "--trials", "2", "--jobs", "02"],
    ["size-report", "--game", "kuhn", "--max-iters", "2", "--seed", "1_0"],
    ["size-report", "--game", "kuhn", "--max-iters", "2", "--node-budget",
     "1e5"],
    ["size-report", "--game", "kuhn", "--max-iters", "+2"],
    ["size-report", "--game", "kuhn", "--max-iters", "2", "--max-states",
     "-0"],
    ["run", "--game", "kuhn", "--algo", "cfr", "--max-iters", "2",
     "--bogus"],
    ["psro-hist", "--trials"],
    XDO_RUN + ["--param", "check_period=010"],
    XDO_RUN + ["--param", "check_period=0x10"],
    XDO_RUN + ["--param", "check_period=1_0"],
    XDO_RUN + ["--param", "check_period=1:20"],
    XDO_RUN + ["--param", "check_period=+3"],
    XDO_RUN + ["--param", "term_eps=1_0.5"],
    XDO_RUN + ["--param", "term_eps=1e-1_0"],
    XDO_RUN + ["--param", "term_eps=\u0660.\u0665"],
    CFR_RUN + ["--max-wall-s", "1_0"],
    CFR_RUN + ["--max-wall-s", " 5"],
    CFR_RUN + ["--max-wall-s", "\uff15"],
    ["psro-hist", "--trials", "1", "--horizon", "2", "--eps",
     "\u0660.\u0665"],
    ["psro-hist", "--trials", "1", "--horizon", "2", "--eps", "0.0_5"],
    CFR_RUN + ["--param", "alternating=off"],
    XDO_RUN + ["--param", "term_eps=inf"],
    XDO_RUN + ["--param", "eps0=inf"],
    PSRO_RUN + ["--param", "eps=inf"],
    ["psro-hist", "--trials", "2", "--horizon", "2", "--eps", "inf"],
    CFR_RUN + ["--param", "alternating=[1"],
    CFR_RUN + ["--param", "alternating=!!python/name:os.system"],
    CFR_RUN + ["--param", "alternating=" + "[" * 3000 + "]" * 3000],
], ids=["xdo-inner", "xdo-check-period", "size-report-inner",
        "size-report-unknown-game", "size-report-empty-game",
        "psro-meta-solver", "psro-payoffs", "psro-init", "psro-hist-jobs",
        "psro-hist-horizon", "xdo-eps0", "xdo-lp-cap", "psro-eps",
        "psro-games-per-pair", "cfr-alternating", "xdo-max-inner",
        "psro-fp-iters", "xdo-eps-decay", "xdo-term-eps-bool",
        "seeds-text", "seeds-range-text", "seeds-duplicate",
        "seeds-reversed-range", "seeds-underscore", "seeds-fullwidth-digit",
        "seeds-range-underscore", "seeds-plus-sign", "mccfr-es-negative-seed",
        "psro-random-negative-seed", "perturbed-negative-seed",
        "max-iters-0", "node-budget-0", "node-budget-negative",
        "max-wall-s-negative", "max-wall-s-nan", "max-wall-s-inf",
        "xdo-max-iters-0",
        "psro-max-iters-negative", "jobs-0", "eval-cadence-0",
        "eval-factor-1", "size-report-max-iters-0",
        "size-report-node-budget-negative", "psro-hist-seed0-negative",
        "psro-hist-eps-negative", "psro-hist-eps-nan",
        "game-leading-zero", "oshi-zumo-leading-zero", "seeds-leading-zero",
        "seeds-minus-zero", "node-budget-text", "node-budget-underscore",
        "max-iters-underscore", "eval-cadence-leading-zero",
        "eval-factor-plus-sign", "jobs-arabic-indic-digit",
        "max-states-space", "psro-hist-trials-float",
        "psro-hist-seed0-arabic-indic-digit", "psro-hist-horizon-underscore",
        "psro-hist-jobs-leading-zero", "size-report-seed-underscore",
        "size-report-node-budget-float", "size-report-max-iters-plus-sign",
        "size-report-max-states-minus-zero", "unknown-flag",
        "flag-without-value", "param-octal", "param-hex",
        "param-underscore", "param-base-60", "param-plus-sign",
        "param-float-underscore", "param-exponent-underscore",
        "param-arabic-indic-digits", "max-wall-s-underscore",
        "max-wall-s-space", "max-wall-s-fullwidth-digit",
        "psro-hist-eps-arabic-indic-digits", "psro-hist-eps-underscore",
        "cfr-alternating-yaml-1-1-off", "xdo-term-eps-inf", "xdo-eps0-inf",
        "psro-eps-inf", "psro-hist-eps-inf", "param-unclosed-yaml",
        "param-python-yaml-tag", "param-deep-yaml"])
def test_cli_rejects_bad_solver_settings(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--game", "kuhn", "--algo", "cfr", "--max-iters", "2"],
    ["psro-hist", "--trials", "2"],
    ["size-report", "--game", "kuhn", "--max-iters", "2"],
], ids=["run", "psro-hist", "size-report"])
def test_cli_bad_out_path_exits_2_before_solving(argv, tmp_path, capsys,
                                                 monkeypatch):
    def solver_ran(*args, **kwargs):
        raise AssertionError("a solver ran before the --out check")

    for name in ("run_seed", "psro_histogram", "xdo_solve"):
        monkeypatch.setattr(bench, name, solver_ran)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(argv + ["--out", str(afile / "x")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: cannot create output directory "
                   f"{afile / 'x'}: Not a directory\n")


RUN_2_SEEDS = ["run", "--game", "kuhn", "--algo", "cfr", "--node-budget",
               "10", "--seeds", "0-1"]
HIST_2 = ["psro-hist", "--trials", "2", "--horizon", "2"]


@pytest.mark.parametrize("argv, name", [
    (["run", "--game", "kuhn", "--algo", "cfr", "--node-budget", "10"],
     "cfr_kuhn_seed0.csv"),
    (RUN_2_SEEDS, "cfr_kuhn_seed1.csv"),
    (RUN_2_SEEDS, "cfr_kuhn_summary.json"),
    (HIST_2, "psro_hist_trials.csv"),
    (HIST_2, "psro_hist_summary.json"),
    (["size-report", "--game", "kuhn", "--max-iters", "2", "--inner", "lp"],
     "size_kuhn.json"),
], ids=["run", "run-seed1-csv", "run-summary", "psro-hist",
        "psro-hist-summary", "size-report"])
def test_cli_unwritable_output_file_exits_2(argv, name, tmp_path, capsys):
    # A directory in the way of any output file ends the command before
    # the run: one error line, not a traceback, and no file written.
    (tmp_path / name).mkdir()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path / name}: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("command, name", [
    (lambda out: run_experiment(small_cfg(seeds=(0, 1), out_dir=out)),
     "cfr_plus_kuhn_seed1.csv"),
    (lambda out: run_psro_hist(trials=2, horizon=2, out_dir=out),
     "psro_hist_summary.json"),
    (lambda out: run_size_report("kuhn", max_outer=2, out_dir=out),
     "size_kuhn.json"),
], ids=["run", "psro-hist", "size-report"])
def test_unwritable_output_file_is_found_before_solving(command, name,
                                                        tmp_path,
                                                        monkeypatch):
    def solver_ran(*args, **kwargs):
        raise AssertionError("a solver ran before the output files' check")

    for fn in ("run_seed", "_hist_chunk", "_run_xdo"):
        monkeypatch.setattr(bench, fn, solver_ran)
    (tmp_path / name).mkdir()
    with pytest.raises(ConfigError, match="Is a directory"):
        command(str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("lines", [
    "node_budget: 1e7", "max_iters: abc", "max_iters: 2\njobs: two",
    "max_iters: 2\nmax_states: lots", "max_iters: 2\nseeds: [a]",
    "max_iters: 2.5", "max_iters: 2\nwall_clock: maybe",
    "max_iters: 2\nparams: [1, 2]", "max_iters: 2\ngame: 5",
    "max_iters: 2\nout_dir: 5", "max_iters: 2\nparams: {1: 2, foo: 3}",
    "max_iters: 2\nseeds: [0, 0]", "max_iters: 2\nmax_wall_s: .inf",
    "max_iters: 010", "max_iters: 1_0", "max_iters: 2\nseeds: [0x1]",
    "max_iters: 2\nseeds: 1:20", "max_iters: 2\nmax_wall_s: 1_0.5",
    "max_iters: 2\nwall_clock: yes", "max_iters: [2",
    "max_iters: 2\nseeds: !!python/object:os.system x",
    "max_iters: 2\nparams: 5",
    "max_iters: 2\nparams:\n" + "".join(f"{' ' * i} - \n"
                                     for i in range(1, 3000)),
], ids=["node-budget-text", "max-iters-text", "jobs-text",
        "max-states-text", "seeds-text", "max-iters-float",
        "wall-clock-text", "params-list", "game-number", "out-dir-number",
        "params-mixed-keys", "seeds-duplicate", "max-wall-s-inf",
        "max-iters-octal", "max-iters-underscore", "seeds-hex",
        "seeds-base-60", "max-wall-s-underscore", "wall-clock-yaml-1-1-yes",
        "unclosed-yaml", "python-yaml-tag", "params-number", "deep-yaml"])
def test_cli_rejects_bad_config_file_values(lines, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "exp.yaml"
    cfgfile.write_text(f"game: kuhn\nalgo: cfr\n{lines}\n")
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfgfile)]
    if "out_dir" not in lines:
        # --out would override the file's out_dir.
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml"]


def test_cli_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "exp.yaml"
    cfgfile.write_bytes(b"game: kuhn\nalgo: cfr # \xff\xfe\nmax_iters: 2\n")
    assert main(["run", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read config file: 'utf-8' codec can't decode byte "
        "0xff in position 23: invalid start byte\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml"]


def test_cli_yaml_errors_say_what_and_where(tmp_path, capsys):
    cfgfile = tmp_path / "exp.yaml"
    cfgfile.write_text("game: kuhn\nalgo: [cfr\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "error: bad config file: expected ',' or ']', but got "
        "'<stream end>' at line 3, column 1\n")
    assert main(CFR_RUN + ["--param", "alternating=!!python/name:os.system",
                           "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: bad --param value '!!python/name:os.system': could not "
        "determine a constructor for the tag "
        "'tag:yaml.org,2002:python/name:os.system' at line 1, column 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml"]


def test_cli_errors_name_what_was_typed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "exp.yaml"
    cfgfile.write_text("game: kuhn\nalgo: cfr\nmax_iters: 2\nbogus: 3\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown config key 'bogus'; accepted keys: game, algo, "
        "seeds, node_budget, max_iters, max_wall_s, out_dir, eval_start, "
        "eval_factor, wall_clock, jobs, max_states, params\n")
    # The library's rule words the same mistake the same way.
    cfgfile.write_text("game: kuhn\nalgo: cfr\nmax_iters: 2\nparams: 5\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == \
        "error: params must be a mapping, not 5\n"
    assert main(["size-report", "--game", "kuhn", "--max-iters", "2",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "error: seed must be an integer >= 0, not -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml"]


def test_cli_history_cap_exits_3_without_output(tmp_path, capsys):
    # The cap is checked while the tree is built; under --jobs it raises
    # in the pool worker, before any file is written.
    assert main(["size-report", "--game", "kuhn", "--max-iters", "2",
                 "--max-states", "10", "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err == "error: kuhn exceeds 10 histories\n"
    out = tmp_path / "pool"
    assert main(["run", "--game", "kuhn", "--algo", "cfr", "--seeds", "0,1",
                 "--jobs", "2", "--max-states", "10", "--max-iters", "2",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: kuhn exceeds 10 histories\n"
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))
    assert main(["run", "--game", "leduc", "--algo", "cfr_plus",
                 "--max-iters", "2", "--max-states", "0",
                 "--out", str(tmp_path / "free")]) == 0


class _RootCounter:
    """A game whose ``root()`` calls are counted; everything else is
    the wrapped game's."""

    def __init__(self, game, calls):
        self._game = game
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._game, name)

    def root(self):
        self._calls.append(self._game.name)
        return self._game.root()


@pytest.fixture
def root_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "make_game",
                        lambda *a, **k: _RootCounter(make_game(*a, **k),
                                                     calls))
    return calls


@pytest.mark.parametrize("algo", ["cfr_plus", "mccfr_es", "xfp", "xdo",
                                  "psro"])
def test_each_seed_walks_its_game_once(algo, root_calls, tmp_path):
    run_experiment(small_cfg(algo=algo, seeds=(0, 1), max_iters=2,
                             out_dir=str(tmp_path)))
    assert root_calls == ["kuhn", "kuhn"]


def test_size_report_walks_its_game_once(root_calls, tmp_path):
    run_size_report("kuhn", max_outer=2, inner="lp", out_dir=str(tmp_path))
    assert root_calls == ["kuhn"]


def test_psro_hist_walks_its_game_once(monkeypatch, tmp_path):
    # One chunk under one job, so the one build is in _hist_chunk.
    calls = []
    monkeypatch.setattr(bench, "rps_choice",
                        lambda: _RootCounter(rps_choice(), calls))
    run_psro_hist(trials=3, out_dir=str(tmp_path), jobs=1)
    assert calls == ["rps_choice"]


def test_cli_rejects_the_removed_lp_cap_key(tmp_path, capsys):
    code = main(["run", "--game", "kuhn", "--algo", "xdo", "--max-iters",
                 "3", "--param", "inner=lp", "--param", "lp_cap=1",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xdo does not take parameters ['lp_cap']")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "exp.yaml"
    cfgfile.write_text(
        "game: kuhn\nalgo: cfr_plus\nseeds: [0, 1]\nmax_iters: 10\n"
        f"out_dir: {tmp_path / 'from_file'}\n")
    code = main(["run", "--config", str(cfgfile),
                 "--seeds", "2", "--out", str(tmp_path / "flag")])
    assert code == 0
    assert (tmp_path / "flag" / "cfr_plus_kuhn_seed2.csv").exists()
    assert not (tmp_path / "from_file").exists()

    code = main(["run", "--config", str(tmp_path / "missing.yaml")])
    assert code == 2


def test_cli_param_values_are_yaml_typed(tmp_path):
    code = main(["run", "--game", "kuhn", "--algo", "xdo",
                 "--max-iters", "3", "--param", "inner=lp",
                 "--param", "term_eps=1e-5", "--param", "check_period=3",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "xdo_kuhn_summary.json").read_text())
    assert summary["config"]["params"] == {"inner": "lp", "term_eps": 1e-5,
                                           "check_period": 3}
    assert main(["run", "--game", "kuhn", "--algo", "xdo",
                 "--max-iters", "3", "--param", "nonsense"]) == 2


def test_cli_seed_ranges(tmp_path):
    code = main(["run", "--game", "kuhn", "--algo", "xfp",
                 "--seeds", "0,2-3", "--max-iters", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    for seed in (0, 2, 3):
        assert (tmp_path / f"xfp_kuhn_seed{seed}.csv").exists()
    assert not (tmp_path / "xfp_kuhn_seed1.csv").exists()


def test_cli_empty_seeds_exits_2(tmp_path, capsys):
    code = main(["run", "--game", "kuhn", "--algo", "cfr", "--seeds", "",
                 "--max-iters", "2", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: no seeds in ''\n"
    assert not (tmp_path / "out").exists()


def test_cli_list_games(capsys):
    assert main(["list-games"]) == 0
    out = capsys.readouterr().out
    for pattern in list_games():
        assert pattern in out
    assert "kgmp_<k>_<n>" in out


def test_cli_psro_hist(tmp_path, capsys):
    code = main(["psro-hist", "--trials", "2", "--horizon", "8",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "player 1 expanded" in capsys.readouterr().out
    assert (tmp_path / "psro_hist_summary.json").exists()


def test_cli_size_report(tmp_path, capsys):
    code = main(["size-report", "--game", "kuhn", "--max-iters", "50",
                 "--inner", "lp", "--out", str(tmp_path)])
    assert code == 0
    assert "restricted/full histories" in capsys.readouterr().out
