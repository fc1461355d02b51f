"""Outside-in spans around efgsolve's layers.

A ``Tracer`` replaces public callables with timing wrappers at the names
their calling modules look them up under (``efgsolve.xdo.best_response``
is the name ``xdo_solve`` calls, ``efgsolve.bench.TreeIndex`` the one
``run_experiment`` builds its tree with), and methods on their classes
(``Cfr.iterate``).  Nothing under ``src/`` changes: the wrappers are
installed on entering the tracer and the original attributes are put
back on leaving it.

Each call leaves one span ``[name, layer, parent, start, end, info]`` in
an in-memory list; ``info`` holds counts read from the call's arguments
and result (tree sizes, node-counter deltas).  A span's self time is its
duration minus the durations of the spans nested directly inside it.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

# Wrapped module-level names: (calling module, attribute, layer, span name).
TRACED_FUNCTIONS = [
    ("efgsolve.bench", "guard_enumerable", "games", "guard_enumerable"),
    ("efgsolve.bench", "TreeIndex", "tree", "TreeIndex"),
    ("efgsolve.xdo", "TreeIndex", "tree", "TreeIndex"),
    ("efgsolve.psro", "TreeIndex", "tree", "TreeIndex"),
    ("efgsolve.bench", "run_experiment", "bench", "run"),
    ("efgsolve.bench", "run_psro_hist", "bench", "run"),
    ("efgsolve.bench", "make_game", "games", "make_game"),
    ("efgsolve.bench", "rps_choice", "games", "make_game"),
    ("efgsolve.bench", "exploitability", "evaluate", "report_exploitability"),
    ("efgsolve.bench", "write_rows_csv", "metrics", "write"),
    ("efgsolve.bench", "write_summary_json", "metrics", "write"),
    ("efgsolve.bench", "xdo_solve", "xdo", "xdo_solve"),
    ("efgsolve.bench", "psro_histogram", "psro", "psro_histogram"),
    ("efgsolve.xdo", "eq1_allowed", "xdo", "eq1_allowed"),
    ("efgsolve.xdo", "_extend_to_base", "xdo", "extend"),
    ("efgsolve.xdo", "best_response", "evaluate", "best_response"),
    ("efgsolve.xdo", "expected_value", "evaluate", "expected_value"),
    ("efgsolve.xdo", "profile_array", "policy", "profile_array"),
    ("efgsolve.xdo", "lift_policy", "policy", "lift_policy"),
    ("efgsolve.xdo", "realize_mixture", "policy", "realize_mixture"),
    ("efgsolve.xdo", "canonical_pure", "policy", "canonical_pure"),
    ("efgsolve.xdo", "solve_matrix_lp", "solvers.matrix_solvers", "lp"),
    # _extend_to_base imports this name from the module at call time.
    ("efgsolve.policy", "policy_from_flat", "policy", "policy_from_flat"),
    ("efgsolve.psro", "best_response", "evaluate", "best_response"),
    ("efgsolve.psro", "expected_value", "evaluate", "expected_value"),
    ("efgsolve.psro", "profile_array", "policy", "profile_array"),
    ("efgsolve.psro", "realize_mixture", "policy", "realize_mixture"),
    ("efgsolve.psro", "random_pure_policy", "policy", "random_pure_policy"),
    ("efgsolve.psro", "reduced_canonical", "psro", "reduced_canonical"),
    ("efgsolve.psro", "solve_matrix_lp", "solvers.matrix_solvers", "lp"),
    ("efgsolve.psro", "solve_matrix_fp", "solvers.matrix_solvers", "fp"),
    ("efgsolve.evaluate", "profile_array", "policy", "profile_array"),
]

# Wrapped methods: (defining module, class, method, layer, span name).
TRACED_METHODS = [
    ("efgsolve.solvers.cfr", "Cfr", "iterate", "solvers.cfr", "cfr_iterate"),
    ("efgsolve.solvers.cfr", "Cfr", "average_flat", "solvers.cfr",
     "cfr_average"),
    ("efgsolve.solvers.mccfr", "MccfrEs", "iterate", "solvers.mccfr",
     "mccfr_iterate"),
    ("efgsolve.solvers.mccfr", "MccfrEs", "average_flat", "solvers.mccfr",
     "mccfr_average"),
    ("efgsolve.xdo", "Population", "add", "xdo", "population_add"),
]

LAYERS = ("games", "tree", "policy", "evaluate", "solvers.cfr",
          "solvers.mccfr", "solvers.matrix_solvers", "xdo", "psro", "bench",
          "metrics")


def _restricted(game) -> bool:
    return isinstance(game, importlib.import_module("efgsolve.xdo")
                      .RestrictedGame)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


# Per-span-name hooks: before(args, kwargs) -> state, and
# after(args, kwargs, result, state) -> info dict stored on the span.
def _tree_after(args, kwargs, out, _):
    return {"nodes": out.n_nodes, "restricted": _restricted(out.game)}


def _guard_after(args, kwargs, out, _):
    return {"histories": out}


def _br_after(args, kwargs, out, _):
    tree = args[0]
    return {"nodes": tree.n_nodes, "restricted": _restricted(tree.game),
            "counted": _arg(args, kwargs, 3, "counter") is not None}


def _ev_after(args, kwargs, out, _):
    return {"nodes": args[0].n_nodes}


def _solver_before(args, kwargs):
    counter = args[0].counter
    return None if counter is None else counter.count


def _solver_after(args, kwargs, out, before):
    solver = args[0]
    charged = 0 if before is None else solver.counter.count - before
    return {"charged": charged, "restricted": _restricted(solver.tree.game)}


def _add_after(args, kwargs, out, _):
    return {"accepted": bool(out)}


SPAN_INFO = {
    "TreeIndex": (None, _tree_after),
    "guard_enumerable": (None, _guard_after),
    "best_response": (None, _br_after),
    "expected_value": (None, _ev_after),
    "cfr_iterate": (_solver_before, _solver_after),
    "mccfr_iterate": (_solver_before, _solver_after),
    "population_add": (None, _add_after),
}


class Tracer:
    """Context manager that installs the wrappers and restores the
    original attributes on exit; ``spans`` keeps every recorded call."""

    def __init__(self):
        self.spans: list[list] = []
        self._current = -1
        self._saved: list[tuple[object, str, object]] = []

    def _targets(self):
        for module, attr, layer, name in TRACED_FUNCTIONS:
            yield importlib.import_module(module), attr, layer, name
        for module, cls, attr, layer, name in TRACED_METHODS:
            owner = getattr(importlib.import_module(module), cls)
            yield owner, attr, layer, name

    def __enter__(self):
        # A name the package no longer has raises KeyError here, before
        # anything is replaced, so a stale tracer fails instead of
        # reporting 0 for the metrics built on that name.
        originals = [(owner, attr, vars(owner)[attr], layer, name)
                     for owner, attr, layer, name in self._targets()]
        for owner, attr, original, layer, name in originals:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, layer, name):
        before, after = SPAN_INFO.get(name, (None, None))
        spans = self.spans

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = [name, layer, self._current, 0.0, 0.0, None]
            parent = self._current
            self._current = len(spans)
            spans.append(span)
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._current = parent
            if after:
                span[5] = after(args, kwargs, out, state)
            return out

        return wrapper


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, trials_expanded: int | None = None) -> dict:
    """Per-layer figures of one traced run, keyed by metric name.

    ``trials_expanded`` is the number of new reduced strategies the
    strategy-expansion run reported (for ``psro.expansion_yield``).
    """
    own = self_times(spans)
    run_s = sum(end - start for name, _, parent, start, end, _ in spans
                if parent < 0)
    by_name: dict[str, list[tuple[float, dict]]] = {}
    for span, s in zip(spans, own):
        by_name.setdefault(span[0], []).append((s, span[5] or {}))

    def total(name, keep=lambda info: True):
        return sum(s for s, info in by_name.get(name, ()) if keep(info))

    def count(name, keep=lambda info: True):
        return sum(1 for _, info in by_name.get(name, ()) if keep(info))

    def add(name, keep=lambda info: True):
        return sum(info.get("nodes", 0) for _, info in by_name.get(name, ())
                   if keep(info))

    m: dict[str, float] = {}
    for layer in LAYERS:
        s = sum(o for span, o in zip(spans, own) if span[1] == layer)
        m[f"{layer}.self_s"] = s
        m[f"{layer}.self_share"] = _per(s, run_s)

    histories = sum(info["histories"] for _, info in
                    by_name.get("guard_enumerable", ()))
    m["games.walk_us_per_history"] = _per(total("guard_enumerable"),
                                          histories, 1e6)
    def base(info):
        return not info["restricted"]

    def restricted(info):
        return info["restricted"]

    m["tree.build_us_per_history"] = _per(total("TreeIndex", base),
                                          add("TreeIndex", base), 1e6)
    m["tree.restricted_build_s"] = total("TreeIndex", restricted)
    m["tree.restricted_builds"] = count("TreeIndex", restricted)

    br_s = total("best_response")
    br_calls = count("best_response")
    m["evaluate.best_response.ns_per_node"] = _per(
        br_s, add("best_response"), 1e9)
    m["evaluate.best_response.full_s"] = total("best_response", base)
    m["evaluate.best_response.restricted_s"] = total("best_response",
                                                     restricted)
    m["evaluate.best_response.calls"] = br_calls
    m["evaluate.best_response.us_per_call"] = _per(br_s, br_calls, 1e6)
    m["evaluate.best_response.full_ms_per_call"] = _per(
        m["evaluate.best_response.full_s"], count("best_response", base), 1e3)
    m["evaluate.expected_value.us_per_call"] = _per(
        total("expected_value"), count("expected_value"), 1e6)
    m["bench.report_eval_s"] = total("report_exploitability")

    for solver, scale, unit in (("cfr", 1e9, "ns"), ("mccfr", 1e6, "us")):
        name = f"{solver}_iterate"
        s = total(name) + total(f"{solver}_average")
        charged = sum(info["charged"] for _, info in by_name.get(name, ()))
        m[f"solvers.{solver}.s"] = s
        m[f"solvers.{solver}.{unit}_per_node"] = _per(total(name), charged,
                                                      scale)

    lp_calls = count("lp")
    m["solvers.matrix_solvers.lp_calls"] = lp_calls
    m["solvers.matrix_solvers.lp_ms_per_call"] = _per(total("lp"), lp_calls,
                                                      1e3)
    m["policy.profile_array_s"] = total("profile_array")
    m["policy.realize_mixture_s"] = total("realize_mixture")
    m["psro.reduced_canonical_s"] = total("reduced_canonical")
    m["xdo.eq1_allowed_s"] = total("eq1_allowed")
    m["xdo.extend_s"] = total("extend")
    m["metrics.write_s"] = total("write")

    # Nodes XDO charged, by phase: inner solves on the restricted tree,
    # restricted best responses, full-game best responses.  Only XDO
    # passes its best responses a counter.
    def full_br(info):
        return info["counted"] and not info["restricted"]

    inner = sum(info["charged"] for _, info in by_name.get("cfr_iterate", ())
                if info["restricted"])
    rbr = add("best_response", lambda i: i["restricted"] and i["counted"])
    fbr = add("best_response", full_br)
    xdo_nodes = inner + rbr + fbr
    for key, n in (("inner", inner), ("restricted_br", rbr),
                   ("full_br", fbr)):
        m[f"xdo.nodes.{key}"] = n
        m[f"xdo.nodes.{key}_share"] = _per(n, xdo_nodes)
    outer = count("eq1_allowed")
    full_checks = count("best_response", full_br) // 2
    m["xdo.outer_iters"] = outer
    m["xdo.full_checks"] = full_checks
    m["xdo.check_yield"] = _per(outer, full_checks)
    m["xdo.population_add_yield"] = _per(
        count("population_add", lambda i: i["accepted"]),
        count("population_add"))
    m["psro.expansion_yield"] = _per(trials_expanded or 0, br_calls)

    for key in list(m):
        if key.endswith("_s") and not key.endswith(".self_s"):
            m[key[:-2] + "_share"] = _per(m[key], run_s)
        elif key.endswith(".s"):
            m[key[:-2] + ".share"] = _per(m[key], run_s)
    m["trace.run_s"] = run_s
    return m


def median_metrics(runs: list[dict]) -> dict:
    """Per-metric median over repeated traced runs."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
