"""Seeded experiment runner behind the command line.

A run is (game, algorithm, seeds, budgets): each seed owns its RNG and
visit counter, produces one metrics CSV, and contributes to one JSON
summary.  The budget unit is visited history nodes as counted by the
solvers themselves plus the best-response traversals their decisions
depend on; exploitability measurements taken purely for the metric rows
are never counted, so algorithms are compared on the work they chose to
do, not on how often we looked at them.

Iterative solvers (cfr, cfr_plus, mccfr_es, xfp) have no termination of
their own, so their runs always end on a budget and are marked
truncated; xdo and psro report truncated only when a budget cut them
off before their stop test fired.  Wall-clock milliseconds are recorded
per row only when a run opts in; otherwise the column is zeroed so
repeated runs are byte-identical.  They count from the solver's start
and leave out building the tree.

Each seed builds its game's ``TreeIndex`` once, in ``run_seed``
(``run_size_report`` for a size report), and every algorithm runs on
that index; ``psro-hist`` builds one per chunk of trials, in
``_hist_chunk``.  No other module builds one, and these are the only
walks of a game.  A run's build enforces the ``max_states`` cap on
histories: a game past it raises ``EnumerationOverflow`` from the walk,
in the pool worker under ``jobs > 1``, before any file is written.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from . import __version__
from .evaluate import exploitability
from .games import GAME_PATTERNS, make_game, rps_choice
from .metrics import (ConfigError, _count, _int, _real, _seed, check_rules,
                      write_rows_csv, write_summary_json)
from .psro import PSRO_RULES, PsroConfig, psro_histogram, psro_solve
from .solvers import Cfr, MccfrEs, Xfp
from .tree import EnumerationOverflow, NodeCounter, TreeIndex
from .xdo import XDO_RULES, XdoConfig, xdo_solve


ALGOS = ("cfr", "cfr_plus", "mccfr_es", "xfp", "xdo", "psro")

# Per-algorithm keys accepted in ExperimentConfig.params: XDO and PSRO
# take their config's fields but the ones a run sets itself.
_PARAM_KEYS = {
    "cfr": {"alternating"},
    "cfr_plus": {"alternating"},
    "mccfr_es": set(),
    "xfp": set(),
    "xdo": {f.name for f in fields(XdoConfig)} - {"max_outer"},
    "psro": {f.name for f in fields(PsroConfig)} - {"seed", "max_iters"},
}


# Every input rule: setting -> (test, what it must be), XDO's and
# PSRO's from their configs.  NaN is no finite real number; max_states
# <= 0 is no cap; None is the solvers' default for alternating.
_CHECKS = {
    "game": (lambda v: isinstance(v, str), "a game name"),
    "out_dir": (lambda v: isinstance(v, (str, Path)), "a path"),
    **dict.fromkeys(("node_budget", "max_iters"), PSRO_RULES["max_iters"]),
    "max_wall_s": (lambda v: v is None or (_real(v) and 0 < v < math.inf),
                   "a finite real number > 0"),
    "seeds": (lambda v: isinstance(v, (tuple, list)) and all(map(_seed, v))
              and len(set(v)) == len(v), "distinct integers >= 0"),
    **dict.fromkeys(("eval_start", "trials", "horizon", "jobs"),
                    (_count, "an integer >= 1")),
    "eval_factor": (lambda v: _int(v) and v >= 2, "an integer >= 2"),
    "wall_clock": (lambda v: isinstance(v, bool), "true or false"),
    "max_states": (lambda v: v is None or _int(v), "an integer"),
    **dict.fromkeys(("seed0", "seed"), PSRO_RULES["seed"]),
    "params": (lambda v: isinstance(v, dict), "a mapping"),
    **XDO_RULES,
    **PSRO_RULES,
    "alternating": (lambda v: v is None or isinstance(v, bool),
                    "true or false"),
}


@dataclass
class ExperimentConfig:
    game: str
    algo: str
    seeds: tuple[int, ...] = (0,)
    node_budget: int | None = None
    max_iters: int | None = None
    max_wall_s: float | None = None
    out_dir: str = "runs"
    eval_start: int = 10_000
    eval_factor: int = 2
    wall_clock: bool = False
    jobs: int = 1
    max_states: int | None = 50_000_000
    params: dict = field(default_factory=dict)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.algo not in ALGOS:
        raise ConfigError(f"unknown algorithm {cfg.algo!r}; "
                          f"choose from {', '.join(ALGOS)}")
    check_rules(vars(cfg), _CHECKS)
    try:
        make_game(cfg.game)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if not cfg.seeds:
        raise ConfigError("at least one seed is required")
    if (cfg.node_budget is None and cfg.max_iters is None
            and cfg.max_wall_s is None):
        raise ConfigError("at least one budget is required "
                          "(--node-budget, --max-iters, or --max-wall-s)")
    if cfg.max_wall_s is not None and cfg.node_budget is None \
            and cfg.max_iters is None and cfg.algo in ("xdo", "psro"):
        # XDO's LP inner solve and PSRO's matrix fill each run to
        # completion before the next budget check, so a pure wall bound
        # can overrun arbitrarily on a large game; require a hard bound
        # alongside it.
        raise ConfigError(f"{cfg.algo} needs --node-budget or --max-iters "
                          "in addition to a wall-time budget")
    unknown = set(cfg.params) - _PARAM_KEYS[cfg.algo]
    if unknown:
        raise ConfigError(f"{cfg.algo} does not take parameters "
                          f"{sorted(unknown, key=str)}; "
                          f"accepted: {sorted(_PARAM_KEYS[cfg.algo])}")
    check_rules(cfg.params, _CHECKS)


def guard_enumerable(game, cap: int | None) -> int:
    """Count histories iteratively, aborting once past cap (None or a
    nonpositive cap disables the check).

    No run calls this: ``TreeIndex`` enforces the same cap, with the
    same message, inside the walk that builds the index.  It stays
    only because the benchmark under ``perfbench/`` times it as part of
    its set-up metric and traces it by name.
    """
    if cap is None or cap <= 0:
        return 0
    n = 0
    stack = [game.root()]
    while stack:
        s = stack.pop()
        n += 1
        if n > cap:
            raise EnumerationOverflow(
                f"{game.name} exceeds {cap} histories")
        if s.is_terminal():
            continue
        if s.is_chance():
            for a, _ in s.chance_outcomes():
                stack.append(s.apply(a))
        else:
            for a in s.legal_actions():
                stack.append(s.apply(a))
    return n


def _out_dir(path, names) -> Path:
    """Create the output directory and refuse a directory in the way of
    any output file in ``names``, so a bad path fails before any work."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{err.strerror}") from None
    for name in names:
        if (out / name).is_dir():
            raise ConfigError(f"cannot write {out / name}: Is a directory")
    return out


def _row(cfg: ExperimentConfig, seed: int, outer, inner, nodes, e,
         pops=(0, 0), restricted=None, wall_ms=0) -> dict:
    return dict(algo=cfg.algo, game=cfg.game, seed=seed, outer_iter=outer,
                inner_iter=inner, nodes_visited=nodes, exploitability=e,
                pop1=pops[0], pop2=pops[1], restricted_states=restricted,
                wall_ms=wall_ms if cfg.wall_clock else 0)


def _run_iterative(tree: TreeIndex, cfg: ExperimentConfig, seed: int,
                   counter: NodeCounter) -> tuple[list[dict], dict]:
    t0 = time.perf_counter()
    if cfg.algo in ("cfr", "cfr_plus"):
        solver = Cfr(tree, plus=(cfg.algo == "cfr_plus"),
                     alternating=cfg.params.get("alternating"),
                     counter=counter)
    elif cfg.algo == "mccfr_es":
        solver = MccfrEs(tree, seed=seed, counter=counter)
    else:
        solver = Xfp(tree, counter=counter)

    rows: list[dict] = []
    next_eval = cfg.eval_start
    it = 0
    while True:
        solver.iterate(1)
        it += 1
        stop = counter.exhausted or (cfg.max_iters is not None
                                     and it >= cfg.max_iters)
        if counter.count >= next_eval or stop:
            e = exploitability(tree, solver.average_flat(), None)
            rows.append(_row(cfg, seed, it, None, counter.count, e,
                             wall_ms=(time.perf_counter() - t0) * 1000.0))
            while next_eval <= counter.count:
                next_eval *= cfg.eval_factor
        if stop:
            break
    summary = dict(final_exploitability=rows[-1]["exploitability"],
                   iters=it, nodes=counter.count, terminated=False,
                   truncated=True)
    return rows, summary


def _run_xdo(tree: TreeIndex, cfg: ExperimentConfig, seed: int,
             counter: NodeCounter) -> tuple[list[dict], dict]:
    xcfg = XdoConfig(max_outer=cfg.max_iters, **cfg.params)
    res = xdo_solve(tree, xcfg, counter)
    rows = [_row(cfg, seed, t["outer"], t["inner"], t["nodes"],
                 t["exploitability"], (t["pop0"], t["pop1"]),
                 t["restricted_nodes"], t["wall_ms"])
            for t in res.trace]
    summary = dict(final_exploitability=res.exploitability,
                   iters=res.outer_iters, nodes=res.nodes,
                   terminated=res.terminated, truncated=not res.terminated,
                   eps_final=xcfg.term_eps,
                   populations=[len(p) for p in res.populations],
                   restricted_histories=res.restricted_nodes,
                   restricted_infostates=list(res.restricted_infostates))
    return rows, summary


def _run_psro(tree: TreeIndex, cfg: ExperimentConfig, seed: int,
              counter: NodeCounter) -> tuple[list[dict], dict]:
    pcfg = PsroConfig(seed=seed, max_iters=cfg.max_iters, **cfg.params)
    res = psro_solve(tree, pcfg, counter)
    rows = [_row(cfg, seed, t["iter"], None, t["nodes"],
                 t["exploitability"], (t["pop0"], t["pop1"]),
                 wall_ms=t["wall_ms"])
            for t in res.trace]
    summary = dict(final_exploitability=res.exploitability,
                   iters=res.iters, nodes=res.nodes,
                   terminated=res.terminated, truncated=not res.terminated,
                   populations=[len(p) for p in res.populations])
    return rows, summary


def run_seed(cfg: ExperimentConfig, seed: int) -> tuple[list[dict], dict]:
    """One seeded trial: builds the game (perturbed games draw their
    payoffs from this seed) and its one TreeIndex under the history cap,
    runs the algorithm under the configured budgets, returns (metric
    rows, seed summary)."""
    deadline = (time.perf_counter() + cfg.max_wall_s
                if cfg.max_wall_s is not None else None)
    tree = TreeIndex(make_game(cfg.game, seed=seed),
                     max_histories=cfg.max_states)
    counter = NodeCounter(cfg.node_budget, deadline)
    if cfg.algo == "xdo":
        return _run_xdo(tree, cfg, seed, counter)
    if cfg.algo == "psro":
        return _run_psro(tree, cfg, seed, counter)
    return _run_iterative(tree, cfg, seed, counter)


def _map(fn, items: list, jobs: int) -> list:
    """``[fn(x) for x in items]``, in a pool of ``min(jobs, len(items))``
    processes when that is more than one."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every seed, write one CSV per seed plus a JSON summary, and
    return the summary.  Seeds are independent, so with jobs > 1 they
    run in a process pool; files are written in seed order either way
    and are byte-identical to a single-process run."""
    validate_config(cfg)
    seeds = list(cfg.seeds)
    csv_files = [f"{cfg.algo}_{cfg.game}_seed{s}.csv" for s in seeds]
    summary_name = f"{cfg.algo}_{cfg.game}_summary.json"
    out = _out_dir(cfg.out_dir, csv_files + [summary_name])

    results = _map(partial(run_seed, cfg), seeds, cfg.jobs)

    per_seed = {}
    for seed, name, (rows, summary) in zip(seeds, csv_files, results):
        write_rows_csv(out / name, rows)
        per_seed[str(seed)] = summary

    summary = dict(
        config=asdict(cfg),
        version=__version__,
        seeds=per_seed,
        csv_files=csv_files,
        truncated=any(s["truncated"] for s in per_seed.values()),
        final_exploitability={
            s: per_seed[s]["final_exploitability"] for s in per_seed},
        total_nodes=sum(s["nodes"] for s in per_seed.values()),
    )
    write_summary_json(out / summary_name, summary)
    return summary


HIST_COLUMNS = ("seed", "expanded1", "expanded2", "eps_pass_iter", "iters",
                "exploitability")


def _hist_chunk(chunk) -> list[dict]:
    """``chunk`` is (trials, seed0, horizon, eps), run on one tree."""
    return psro_histogram(TreeIndex(rps_choice()), *chunk)


def run_psro_hist(trials: int = 150, seed0: int = 0, horizon: int = 30,
                  eps: float = PsroConfig.eps,
                  out_dir: str = ExperimentConfig.out_dir,
                  jobs: int = 1) -> dict:
    """Strategy-expansion histogram over repeated double-oracle trials
    on the two-stage pick-a-game variant of rock paper scissors; writes
    per-trial records and the per-player aggregate histogram.  Trials
    are independent (seed of trial t is seed0 + t) so splitting them
    into one chunk per job changes nothing but the wall time."""
    check_rules(dict(trials=trials, seed0=seed0, horizon=horizon, eps=eps,
                     out_dir=out_dir, jobs=jobs), _CHECKS)
    out = _out_dir(out_dir, ("psro_hist_trials.csv", "psro_hist_summary.json"))
    per = -(-trials // jobs)
    chunks = [(min(per, trials - lo), seed0 + lo, horizon, eps)
              for lo in range(0, trials, per)]
    records = [r for part in _map(_hist_chunk, chunks, jobs) for r in part]
    write_rows_csv(out / "psro_hist_trials.csv", records, HIST_COLUMNS)

    hist = {}
    for p in (1, 2):
        counts = Counter(str(r[f"expanded{p}"]) for r in records)
        hist[f"player{p}"] = dict(sorted(counts.items(),
                                         key=lambda kv: int(kv[0])))
    full = {1: 6, 2: 9}  # reduced pure strategy counts per player
    summary = dict(
        trials=trials, seed0=seed0, horizon=horizon, eps=eps,
        histogram=hist,
        proportion_full={
            f"player{p}": hist[f"player{p}"].get(str(full[p]), 0) / trials
            for p in (1, 2)},
        eps_passed=sum(r["eps_pass_iter"] is not None for r in records),
        version=__version__,
    )
    write_summary_json(out / "psro_hist_summary.json", summary)
    return summary


def run_size_report(game_name: str, seed: int = 0,
                    node_budget: int | None = None,
                    max_outer: int | None = None,
                    inner: str = XdoConfig.inner,
                    out_dir: str = ExperimentConfig.out_dir,
                    max_states: int | None = ExperimentConfig.max_states
                    ) -> dict:
    """Run the double-oracle solver on a named game and report how much
    of the full game its final restricted game spans: the history count
    ratio and each player's decision-infostate coverage."""
    if node_budget is None and max_outer is None:
        raise ConfigError("size-report needs --node-budget or --max-iters")
    check_rules(dict(seed=seed), _CHECKS)
    cfg = ExperimentConfig(
        game=game_name, algo="xdo", seeds=(seed,), node_budget=node_budget,
        max_iters=max_outer, out_dir=out_dir, max_states=max_states,
        params={"inner": inner})
    validate_config(cfg)
    name = f"size_{game_name}.json"
    out = _out_dir(out_dir, (name,))
    tree = TreeIndex(make_game(game_name, seed=seed), max_histories=max_states)
    _, res = _run_xdo(tree, cfg, seed, NodeCounter(node_budget))
    full_is = (len(tree.infosets_of(0)), len(tree.infosets_of(1)))
    r_is = res["restricted_infostates"]
    report = dict(
        game=tree.game.name,
        full_histories=tree.n_nodes,
        restricted_histories=res["restricted_histories"],
        history_ratio=res["restricted_histories"] / tree.n_nodes,
        full_infostates=list(full_is),
        restricted_infostates=r_is,
        infostate_coverage=[r_is[0] / full_is[0], r_is[1] / full_is[1]],
        terminated=res["terminated"],
        outer_iters=res["iters"],
        nodes=res["nodes"],
        version=__version__,
    )
    write_summary_json(out / name, report)
    return report


def list_games() -> list[str]:
    """Name patterns accepted by the game registry."""
    return [base + "".join(f"_<{p}>" for p in params)
            for base, params in GAME_PATTERNS.items()]
