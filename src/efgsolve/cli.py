"""Command line front end.

Subcommands: ``run`` (one algorithm on one game over seeds, metrics to
CSV), ``psro-hist`` (strategy-expansion histogram experiment),
``size-report`` (restricted-game size after a double-oracle run), and
``list-games``.  A YAML config file can carry any ``run`` setting; the
matching command line flags override it.  Every integer, in a flag, a
seed list, a game name or YAML, is read by ``games.ascii_int``, and
every real-number flag by ``games.ascii_float``.  Exit codes:
0 success (budget truncation included), 2 bad configuration or command
line, 3 game too large to enumerate, each error in one line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import yaml

from .bench import (_CHECKS, ConfigError, EnumerationOverflow,
                    ExperimentConfig, check_rules, list_games,
                    run_experiment, run_psro_hist, run_size_report)
from .games import ascii_float, ascii_int


def _parse_seeds(text: str) -> tuple[int, ...]:
    """"0,3,7" and "0-149" forms, mixable; a range must not run
    backwards.  Each bound, spaces around it stripped, must pass
    ``ascii_int``."""
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


class _Yaml(yaml.SafeLoader):
    """YAML whose numbers follow the command line's rules.  YAML 1.1
    would read "010" as 8, "0x10" as 16 and "1_0" or "1:20" as integers,
    and "1_0.5" or "1:20.5" as floats; each of these is an error here.
    Booleans are YAML 1.2's true and false only: "yes", "no", "on" and
    "off" stay text, which the checks then refuse."""


def _yaml_int(loader, node):
    try:
        return ascii_int(loader.construct_scalar(node))
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _yaml_float(loader, node):
    # YAML's float pattern takes only ASCII: digits, a dot, a sign, an
    # exponent, "_", ":" and the words ".inf" and ".nan".  Without "_"
    # and ":" that is ascii_float's notation, in YAML's spelling of
    # infinity and NaN.
    text = loader.construct_scalar(node)
    if "_" in text or ":" in text:
        raise ConfigError(f"not a number: {text!r}")
    return loader.construct_yaml_float(node)


_BOOLS = {"true": True, "True": True, "TRUE": True,
          "false": False, "False": False, "FALSE": False}  # YAML 1.2's


def _yaml_bool(loader, node):
    text = loader.construct_scalar(node)
    return _BOOLS.get(text, text)


_Yaml.add_constructor("tag:yaml.org,2002:int", _yaml_int)
_Yaml.add_constructor("tag:yaml.org,2002:float", _yaml_float)
_Yaml.add_constructor("tag:yaml.org,2002:bool", _yaml_bool)


def _numeric(value):
    """YAML reads dot-less scientific notation ("1e-5") as text; give
    such strings a second chance as floats."""
    if isinstance(value, str):
        try:
            return ascii_float(value)
        except ValueError:
            pass
    return value


def _load_yaml(stream, what: str):
    """``stream`` read as YAML.  A YAML error becomes a one-line
    ConfigError: ``what`` was bad, the problem, and where it is."""
    try:
        return yaml.load(stream, Loader=_Yaml)
    except yaml.YAMLError as err:
        # PyYAML's own message spans lines; its parts do not.
        mark = getattr(err, "problem_mark", None)
        where = (f" at line {mark.line + 1}, column {mark.column + 1}"
                 if mark else "")
        problem = getattr(err, "problem", None) or str(err).split("\n")[0]
        raise ConfigError(f"bad {what}: {problem}{where}") from None
    except RecursionError:  # PyYAML composes nested nodes recursively
        raise ConfigError(f"bad {what}: nested too deeply") from None


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--param takes key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key.strip()] = _numeric(_load_yaml(val, f"--param value {val!r}"))
    return out


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = _load_yaml(fh, "config file")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError("config file must be a mapping")
    return data


def _run_config(opts: dict) -> ExperimentConfig:
    """The config file's settings, overridden by the flags given
    (``opts``: only those, under their ExperimentConfig names)."""
    data = _load_config_file(opts.pop("config")) if "config" in opts else {}
    params = data.get("params") or {}
    check_rules(dict(params=params), _CHECKS)
    params = {k: _numeric(v) for k, v in params.items()}
    params.update(_parse_params(opts.pop("param", ())))
    data.update(opts, params=params)
    if "seeds" in data:
        seeds = data["seeds"]
        if isinstance(seeds, list):
            seeds = ",".join(map(str, seeds))
        data["seeds"] = _parse_seeds(str(seeds))
    for key in ("game", "algo"):
        if not data.get(key):
            raise ConfigError(f"--{key} is required (flag or config file)")
    known = [f.name for f in fields(ExperimentConfig)]
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}; accepted keys: "
                              + ", ".join(known))
    return ExperimentConfig(**data)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 in one line, like any bad input
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  A flag left out is left out of
    the parsed namespace, so the defaults are the library's own."""
    parser = _Parser(
        prog="efgsolve",
        description="Benchmark tabular solvers on two-player zero-sum "
                    "extensive-form games.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm over seeds",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--game", help="game name, e.g. kuhn, kgmp_2_3")
    run_p.add_argument("--algo", help="cfr | cfr_plus | mccfr_es | xfp | "
                                      "xdo | psro")
    run_p.add_argument("--seeds", "--seed", help='e.g. "0", "0,1,2", "0-9"')
    run_p.add_argument("--node-budget", type=ascii_int)
    run_p.add_argument("--max-iters", type=ascii_int)
    run_p.add_argument("--max-wall-s", type=ascii_float)
    run_p.add_argument("--out", dest="out_dir", metavar="OUT", help="output "
                       f"directory (default {ExperimentConfig.out_dir}/)")
    run_p.add_argument("--eval-cadence", type=ascii_int, dest="eval_start",
                       metavar="NODES", help="first measurement at this "
                       "visit count, then geometrically (default "
                       f"{ExperimentConfig.eval_start})")
    run_p.add_argument("--eval-factor", type=ascii_int)
    run_p.add_argument("--wall-clock", action="store_true",
                       help="record real wall_ms (breaks byte-level "
                            "reproducibility)")
    run_p.add_argument("--jobs", type=ascii_int)
    run_p.add_argument("--max-states", type=ascii_int)
    run_p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="algorithm parameter, repeatable")
    run_p.add_argument("--config", help="YAML file with any of the above")

    hist_p = sub.add_parser("psro-hist",
                            help="repeated double-oracle trials on the "
                                 "pick-a-game rock paper scissors",
                            argument_default=argparse.SUPPRESS)
    hist_p.add_argument("--trials", type=ascii_int)
    hist_p.add_argument("--seed0", type=ascii_int)
    hist_p.add_argument("--horizon", type=ascii_int)
    hist_p.add_argument("--eps", type=ascii_float)
    hist_p.add_argument("--out", dest="out_dir", metavar="OUT")
    hist_p.add_argument("--jobs", type=ascii_int)

    size_p = sub.add_parser("size-report",
                            help="restricted-game size after a "
                                 "double-oracle run",
                            argument_default=argparse.SUPPRESS)
    size_p.add_argument("--game", dest="game_name", metavar="GAME",
                        required=True)
    size_p.add_argument("--seed", type=ascii_int)
    size_p.add_argument("--node-budget", type=ascii_int)
    size_p.add_argument("--max-iters", type=ascii_int, dest="max_outer",
                        metavar="MAX_ITERS")
    size_p.add_argument("--inner")
    size_p.add_argument("--out", dest="out_dir", metavar="OUT")
    size_p.add_argument("--max-states", type=ascii_int)

    sub.add_parser("list-games", help="name patterns the registry accepts")
    return parser


def main(argv=None) -> int:
    try:
        opts = vars(build_parser().parse_args(argv))
        command = opts.pop("command")
        if command == "run":
            summary = run_experiment(_run_config(opts))
            for seed, final in summary["final_exploitability"].items():
                flag = (" (truncated)"
                        if summary["seeds"][seed]["truncated"] else "")
                print(f"seed {seed}: exploitability {final:.6g}{flag}")
            print(f"wrote {len(summary['csv_files'])} CSV file(s) and a "
                  f"summary under {summary['config']['out_dir']}/")
        elif command == "psro-hist":
            summary = run_psro_hist(**opts)
            for player in (1, 2):
                frac = summary["proportion_full"][f"player{player}"]
                print(f"player {player} expanded every pure strategy in "
                      f"{frac:.1%} of {summary['trials']} trial(s)")
        elif command == "size-report":
            report = run_size_report(**opts)
            print(f"{opts['game_name']}: restricted/full histories "
                  f"{report['history_ratio']:.3f} "
                  f"({report['restricted_histories']}/"
                  f"{report['full_histories']})")
        else:
            for pattern in list_games():
                print(pattern)
    except (ConfigError, EnumerationOverflow) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, EnumerationOverflow) else 2
    return 0
