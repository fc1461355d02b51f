"""Experiment runner, metric files, and the command line.

Determinism is the load-bearing property here: the same configuration
must yield byte-identical CSVs whether run once, twice, or across a
process pool, because the acceptance checks diff files, not floats.
"""

import json
from itertools import islice

import pytest

from efgsolve import bench
from efgsolve.bench import (ConfigError, EnumerationOverflow,
                            ExperimentConfig, guard_enumerable, list_games,
                            run_experiment, run_psro_hist, run_seed,
                            run_size_report, validate_config)
from efgsolve.cli import main
from efgsolve.games import make_game
from efgsolve.metrics import (CSV_COLUMNS, cadence_thresholds, check_rows,
                              read_rows_csv, write_rows_csv)


def small_cfg(**over):
    base = dict(game="kuhn", algo="cfr_plus", seeds=(0,), max_iters=40,
                eval_start=100, out_dir="runs")
    base.update(over)
    return ExperimentConfig(**base)


def test_cadence_is_geometric():
    assert list(islice(cadence_thresholds(100, 2), 5)) \
        == [100, 200, 400, 800, 1600]
    with pytest.raises(ValueError):
        next(cadence_thresholds(0, 2))
    with pytest.raises(ValueError):
        next(cadence_thresholds(10, 1))


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
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert read_rows_csv(path) == rows
    # repr keeps floats exact through the round trip.
    assert "0.0078125" in text


def test_validate_config_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        validate_config(small_cfg(algo="sarsa"))
    with pytest.raises(ConfigError, match="unknown game"):
        validate_config(small_cfg(game="chess"))
    with pytest.raises(ConfigError, match="seed"):
        validate_config(small_cfg(seeds=()))
    with pytest.raises(ConfigError, match="budget"):
        validate_config(small_cfg(max_iters=None))
    with pytest.raises(ConfigError, match="does not take parameters"):
        validate_config(small_cfg(params={"inner": "lp"}))
    with pytest.raises(ConfigError, match="needs --node-budget"):
        validate_config(small_cfg(algo="xdo", max_iters=None,
                                  max_wall_s=1.0))


def test_guard_enumerable_counts_and_overflows():
    assert guard_enumerable(make_game("kuhn"), 1000) == 55
    with pytest.raises(EnumerationOverflow):
        guard_enumerable(make_game("kuhn"), 54)
    assert guard_enumerable(make_game("kuhn"), None) == 0


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path), seeds=(0, 1))
    summary = run_experiment(cfg)
    for seed in (0, 1):
        rows = read_rows_csv(tmp_path / f"cfr_plus_kuhn_seed{seed}.csv")
        assert rows[-1]["outer_iter"] == 40
        assert rows[-1]["nodes_visited"] == 40 * 2 * 55
        assert all(r["algo"] == "cfr_plus" and r["seed"] == seed
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
    rows = read_rows_csv(tmp_path / "cfr_plus_kuhn_seed0.csv")
    assert all(r["wall_ms"] == 0.0 for r in rows)
    cfg = small_cfg(out_dir=str(tmp_path / "timed"), wall_clock=True)
    run_experiment(cfg)
    rows = read_rows_csv(tmp_path / "timed" / "cfr_plus_kuhn_seed0.csv")
    assert rows[-1]["wall_ms"] > 0.0


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
    rows = read_rows_csv(tmp_path / "xdo_kuhn_seed0.csv")
    assert rows[-1]["restricted_states"] == seed["restricted_histories"]
    assert rows[-1]["pop1"] >= 1 and rows[-1]["pop2"] >= 1


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
], ids=["xdo-inner", "xdo-check-period", "size-report-inner",
        "size-report-unknown-game", "size-report-empty-game",
        "psro-meta-solver", "psro-payoffs", "psro-init", "psro-hist-jobs",
        "psro-hist-horizon", "xdo-eps0", "xdo-lp-cap", "psro-eps",
        "psro-games-per-pair", "cfr-alternating", "xdo-max-inner",
        "psro-fp-iters", "xdo-eps-decay", "xdo-term-eps-bool",
        "seeds-text", "seeds-range-text", "seeds-duplicate",
        "seeds-reversed-range", "mccfr-es-negative-seed",
        "psro-random-negative-seed", "perturbed-negative-seed",
        "max-iters-0", "node-budget-0", "node-budget-negative",
        "max-wall-s-negative", "max-wall-s-nan", "max-wall-s-inf",
        "xdo-max-iters-0",
        "psro-max-iters-negative", "jobs-0", "eval-cadence-0",
        "eval-factor-1", "size-report-max-iters-0",
        "size-report-node-budget-negative", "psro-hist-seed0-negative",
        "psro-hist-eps-negative", "psro-hist-eps-nan"])
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


@pytest.mark.parametrize("lines", [
    "node_budget: 1e7", "max_iters: abc", "max_iters: 2\njobs: two",
    "max_iters: 2\nmax_states: lots", "max_iters: 2\nseeds: [a]",
    "max_iters: 2.5", "max_iters: 2\nwall_clock: maybe",
    "max_iters: 2\nparams: [1, 2]", "max_iters: 2\ngame: 5",
    "max_iters: 2\nout_dir: 5", "max_iters: 2\nparams: {1: 2, foo: 3}",
    "max_iters: 2\nseeds: [0, 0]", "max_iters: 2\nmax_wall_s: .inf",
], ids=["node-budget-text", "max-iters-text", "jobs-text",
        "max-states-text", "seeds-text", "max-iters-float",
        "wall-clock-text", "params-list", "game-number", "out-dir-number",
        "params-mixed-keys", "seeds-duplicate", "max-wall-s-inf"])
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


def test_cli_lp_inner_over_its_cap_exits_3(tmp_path, capsys):
    code = main(["run", "--game", "kuhn", "--algo", "xdo", "--max-iters",
                 "3", "--param", "inner=lp", "--param", "lp_cap=1",
                 "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds cap 1" in err


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
                 "--param", "term_eps=1e-5", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "xdo_kuhn_summary.json").read_text())
    assert summary["config"]["params"] == {"inner": "lp", "term_eps": 1e-5}
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
