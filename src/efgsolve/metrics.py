"""Metric records and their CSV/JSON serialization.

Every experiment emits rows with the same fixed column set so plots can
be built from any mix of algorithms; the strategy-expansion trials are
the one other table, with columns of their own.  This module writes
every file a command writes.  Serialization is deterministic:
floats are written with ``repr`` (shortest round-trip form), missing
fields as empty strings, rows in the order produced, and summaries as
sorted-key JSON.  Two runs of the same configuration must produce
byte-identical files, which is why wall-clock times are zeroed unless a
run explicitly opts into timing.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = 1

CSV_COLUMNS = ("algo", "game", "seed", "outer_iter", "inner_iter",
               "nodes_visited", "exploitability", "pop1", "pop2",
               "restricted_states", "wall_ms")

# Exploitability is a max over a set containing the profile value, so it
# is nonnegative up to accumulated float error.
EXPLOIT_FLOOR = -1e-9


class ConfigError(ValueError):
    """Bad experiment configuration or output path; maps to exit code 2."""


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _count(v) -> bool:
    return _int(v) and v >= 1


def _seed(v) -> bool:
    return _int(v) and v >= 0


def one_of(*choices) -> tuple:
    """The rule that a setting takes one of ``choices``."""
    return choices.__contains__, "one of " + ", ".join(choices)


def check_rules(values: dict, rules: dict) -> None:
    """Raise ConfigError for the first value of ``values`` its rule in
    ``rules`` (setting -> (test, what it must be)) rejects."""
    for key, (ok, what) in rules.items():
        if key in values and not ok(values[key]):
            raise ConfigError(f"{key} must be {what}, not {values[key]!r}")


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def check_rows(rows, columns=CSV_COLUMNS) -> None:
    """Enforce the row invariants: known columns only, visit counts
    non-decreasing, exploitability above the float-error floor."""
    last_nodes = None
    for i, row in enumerate(rows):
        unknown = set(row) - set(columns)
        if unknown:
            raise ValueError(f"row {i}: unknown columns {sorted(unknown)}")
        nodes = row.get("nodes_visited")
        if nodes is not None:
            if last_nodes is not None and nodes < last_nodes:
                raise ValueError(
                    f"row {i}: nodes_visited decreased "
                    f"({last_nodes} -> {nodes})")
            last_nodes = nodes
        e = row.get("exploitability")
        if e is not None and e < EXPLOIT_FLOOR:
            raise ValueError(f"row {i}: exploitability {e} below floor")


def _write(path, text: str) -> None:
    """Write ``text`` to ``path``, making its folder first; a path that
    cannot be written raises a one-line ConfigError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def write_rows_csv(path, rows, columns=CSV_COLUMNS) -> None:
    """Write metric rows (dicts keyed by ``columns``) with a fixed
    header, unix newlines, and deterministic cell formatting."""
    check_rows(rows, columns)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(c)) for c in columns))
    _write(path, "\n".join(lines) + "\n")


def write_summary_json(path, summary: dict) -> None:
    payload = dict(summary, schema_version=SCHEMA_VERSION)
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

