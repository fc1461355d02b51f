"""Command line front end.

Subcommands: ``run`` (one algorithm on one game over seeds, metrics to
CSV), ``psro-hist`` (strategy-expansion histogram experiment),
``size-report`` (restricted-game size after a double-oracle run), and
``list-games``.  A YAML config file can carry any ``run`` setting; the
matching command line flags override it.  Exit codes: 0 success (budget
truncation included), 2 bad configuration, 3 game too large to
enumerate.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from .bench import (ConfigError, EnumerationOverflow, ExperimentConfig,
                    list_games, run_experiment, run_psro_hist,
                    run_size_report)
from .games import ascii_int


def _parse_seeds(text: str) -> tuple[int, ...]:
    """"0,3,7" and "0-149" forms, mixable; a range must not run
    backwards.  Each bound is ASCII ``-?[0-9]+`` after stripping
    spaces."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part.lstrip("-"):
                lo, hi = (ascii_int(b.strip()) for b in part.split("-", 1))
                if hi < lo:
                    raise ValueError
                seeds.extend(range(lo, hi + 1))
            elif part:
                seeds.append(ascii_int(part))
        except ValueError:
            raise ConfigError(f"bad seed {part!r} in {text!r}") from None
    if not seeds:
        raise ConfigError(f"no seeds in {text!r}")
    return tuple(seeds)


def _numeric(value):
    """YAML reads dot-less scientific notation ("1e-5") as text; give
    such strings a second chance as floats."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--param takes key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key.strip()] = _numeric(yaml.safe_load(val))
    return out


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"bad config file: {err}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config file must be a mapping")
    return data


def _run_config(args) -> ExperimentConfig:
    data = _load_config_file(args.config) if args.config else {}
    if "seeds" in data:
        seeds = data["seeds"]
        if isinstance(seeds, list):
            seeds = ",".join(map(str, seeds))
        data["seeds"] = _parse_seeds(str(seeds))
    overrides = dict(
        game=args.game, algo=args.algo,
        seeds=_parse_seeds(args.seeds) if args.seeds is not None else None,
        node_budget=args.node_budget, max_iters=args.max_iters,
        max_wall_s=args.max_wall_s, out_dir=args.out,
        eval_start=args.eval_cadence, eval_factor=args.eval_factor,
        wall_clock=args.wall_clock, jobs=args.jobs,
        max_states=args.max_states,
    )
    for key, val in overrides.items():
        if val is not None:
            data[key] = val
    params = data.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a mapping, not {params!r}")
    params = {k: _numeric(v) for k, v in params.items()}
    params.update(_parse_params(args.param))
    data["params"] = params
    for key in ("game", "algo"):
        if not data.get(key):
            raise ConfigError(f"--{key} is required (flag or config file)")
    try:
        return ExperimentConfig(**data)
    except TypeError as err:
        raise ConfigError(f"bad config: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efgsolve",
        description="Benchmark tabular solvers on two-player zero-sum "
                    "extensive-form games.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm over seeds")
    run_p.add_argument("--game", help="game name, e.g. kuhn, kgmp_2_3")
    run_p.add_argument("--algo", help="cfr | cfr_plus | mccfr_es | xfp | "
                                      "xdo | psro")
    run_p.add_argument("--seeds", "--seed", help='e.g. "0", "0,1,2", "0-9"')
    run_p.add_argument("--node-budget", type=int)
    run_p.add_argument("--max-iters", type=int)
    run_p.add_argument("--max-wall-s", type=float)
    run_p.add_argument("--out", help="output directory (default runs/)")
    run_p.add_argument("--eval-cadence", type=int, metavar="NODES",
                       help="first measurement at this visit count, "
                            "then geometrically (default 10000)")
    run_p.add_argument("--eval-factor", type=int)
    run_p.add_argument("--wall-clock", action="store_true", default=None,
                       help="record real wall_ms (breaks byte-level "
                            "reproducibility)")
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument("--max-states", type=int)
    run_p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="algorithm parameter, repeatable")
    run_p.add_argument("--config", help="YAML file with any of the above")

    hist_p = sub.add_parser("psro-hist",
                            help="repeated double-oracle trials on the "
                                 "pick-a-game rock paper scissors")
    hist_p.add_argument("--trials", type=int, default=150)
    hist_p.add_argument("--seed0", type=int, default=0)
    hist_p.add_argument("--horizon", type=int, default=30)
    hist_p.add_argument("--eps", type=float, default=1e-3)
    hist_p.add_argument("--out", default="runs")
    hist_p.add_argument("--jobs", type=int, default=1)

    size_p = sub.add_parser("size-report",
                            help="restricted-game size after a "
                                 "double-oracle run")
    size_p.add_argument("--game", required=True)
    size_p.add_argument("--seed", type=int, default=0)
    size_p.add_argument("--node-budget", type=int)
    size_p.add_argument("--max-iters", type=int)
    size_p.add_argument("--inner", default="cfr_plus")
    size_p.add_argument("--out", default="runs")
    size_p.add_argument("--max-states", type=int, default=50_000_000)

    sub.add_parser("list-games", help="name patterns the registry accepts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            summary = run_experiment(_run_config(args))
            for seed, final in summary["final_exploitability"].items():
                flag = (" (truncated)"
                        if summary["seeds"][seed]["truncated"] else "")
                print(f"seed {seed}: exploitability {final:.6g}{flag}")
            print(f"wrote {len(summary['csv_files'])} CSV file(s) and a "
                  f"summary under {summary['config']['out_dir']}/")
        elif args.command == "psro-hist":
            summary = run_psro_hist(args.trials, args.seed0, args.horizon,
                                    args.eps, args.out, args.jobs)
            for player in (1, 2):
                frac = summary["proportion_full"][f"player{player}"]
                print(f"player {player} expanded every pure strategy in "
                      f"{frac:.1%} of {args.trials} trial(s)")
        elif args.command == "size-report":
            report = run_size_report(args.game, args.seed, args.node_budget,
                                     args.max_iters, args.inner, args.out,
                                     args.max_states)
            print(f"{args.game}: restricted/full histories "
                  f"{report['history_ratio']:.3f} "
                  f"({report['restricted_histories']}/"
                  f"{report['full_histories']})")
        else:
            for pattern in list_games():
                print(pattern)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EnumerationOverflow as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0
