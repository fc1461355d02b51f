"""The benchmark under perfbench/ reaches into the package from outside:
its tracer (tracing.py) wraps callables by name, and its worker
(worker.py) calls the runner's functions with keywords and reads a
class-level default.  Every name and keyword must still be where they
look, or a benchmark run fails before it starts.  The package and the
benchmark are also the only readers that keep code alive: an import,
function, class or method that neither reads is dead, and every name
a package exports must resolve."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

from efgsolve import bench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _, _ in tracing.TRACED_FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert attr in vars(importlib.import_module(module))


@pytest.mark.parametrize("module, cls, attr", [
    (module, cls, attr) for module, cls, attr, _, _
    in tracing.TRACED_METHODS])
def test_traced_method_resolves(module, cls, attr):
    assert attr in vars(getattr(importlib.import_module(module), cls))


def test_restricted_game_class_resolves():
    # Spans on trees and solvers read it at call time to tell restricted
    # games from full ones.
    assert isinstance(importlib.import_module("efgsolve.xdo").RestrictedGame,
                      type)


def _worker_bench_calls():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "bench"]


def test_worker_calls_bind_to_the_runner():
    calls = _worker_bench_calls()
    assert {c.func.attr for c in calls} == {
        "ExperimentConfig", "run_experiment", "run_psro_hist",
        "guard_enumerable"}
    for call in calls:
        # Binding fails on a keyword the callable no longer takes, or on
        # a required argument the worker does not pass.
        inspect.signature(getattr(bench, call.func.attr)).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_worker_reads_the_class_level_history_cap():
    # setup_s times its set-up under the run's own default cap.
    assert isinstance(bench.ExperimentConfig.max_states, int)


def test_every_setting_has_exactly_one_rule():
    # One table holds every input rule, and only the settings a caller
    # can pass: the run's fields (but the algorithm, checked against
    # ALGOS), psro-hist's arguments, size-report's seed, and every
    # field of XdoConfig and PsroConfig.  Each solver config owns its
    # fields' rules, and bench holds those very entries, so a rule
    # spelt again in bench fails here.
    solver_rules = ((bench.XdoConfig, bench.XDO_RULES),
                    (bench.PsroConfig, bench.PSRO_RULES))
    for config, rules in solver_rules:
        assert set(rules) == {f.name for f in dataclasses.fields(config)}
    settings = {f.name for f in dataclasses.fields(bench.ExperimentConfig)}
    settings -= {"algo"}
    settings |= set().union(*bench._PARAM_KEYS.values())
    settings |= set(inspect.signature(bench.run_psro_hist).parameters)
    settings.add("seed")
    settings |= set(bench.XDO_RULES) | set(bench.PSRO_RULES)
    assert set(bench._CHECKS) == settings
    for _, rules in solver_rules:
        for key, rule in rules.items():
            assert bench._CHECKS[key] is rule, key


SRC = Path(__file__).resolve().parents[1] / "src" / "efgsolve"
# Imported only for the tracer's sake: the names it wraps under each
# module, and the class its spans read from efgsolve.xdo.
_TRACER_ONLY = {(module, attr) for module, attr, _, _
                in tracing.TRACED_FUNCTIONS}
_TRACER_ONLY.add(("efgsolve.xdo", "RestrictedGame"))


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_unread_import_is_one_the_tracer_needs(path):
    # A name a module imports but never reads is dead unless the
    # tracer looks it up there.
    module = ".".join(("efgsolve",)
                      + path.relative_to(SRC).with_suffix("").parts)
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = {(module, name) for name in imported - read}
    assert unread <= _TRACER_ONLY, sorted(unread - _TRACER_ONLY)


# Defined but read by no module on purpose: the interface every game
# implements, and the solver's current profile, which only tests read.
_UNREFERENCED = {"efgsolve.game.Game", "efgsolve.solvers.cfr.Cfr.current"}


def _referenced_names(node):
    """The names a syntax tree reads: each ``Name``, each attribute, and
    each import alias (so a package ``__init__``'s re-exports count)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
            if sub.asname:
                yield sub.asname


def test_every_definition_is_read_outside_itself():
    # Code only tests call is dead to every run: each module-level
    # function and class, and each public method, under src/ must be
    # read somewhere in src/ or perfbench/ outside its own definition.
    sources = {path: ast.parse(path.read_text()) for path
               in sorted(SRC.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py"))}
    reads = Counter(name for tree in sources.values()
                    for name in _referenced_names(tree))
    unreferenced = set()
    for path, tree in sources.items():
        if SRC not in path.parents:
            continue
        module = ".".join(("efgsolve",)
                          + path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not sub.name.startswith("_")]
            for qualname, definition in defs:
                name = definition.name
                own = sum(n == name for n in _referenced_names(definition))
                if reads[name] == own:
                    unreferenced.add(f"{module}.{qualname}")
    assert unreferenced == _UNREFERENCED, sorted(
        unreferenced ^ _UNREFERENCED)


def _file_writes(tree):
    """The calls in a syntax tree that write a file: ``write_text``,
    ``write_bytes``, and ``open`` with a mode that is not a constant
    read mode (the mode is ``open``'s second argument, a method's
    first)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        if name in ("write_text", "write_bytes"):
            yield node
        elif name == "open":
            pos = 1 if isinstance(func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = modes[0] if modes else (
                node.args[pos] if len(node.args) > pos else None)
            if mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                yield node


def test_only_metrics_writes_files():
    # Every output file goes through metrics, whose one write step turns
    # a failed write into a one-line error instead of a traceback.
    writes = [f"{path.relative_to(SRC).as_posix()}:{call.lineno}"
              for path in sorted(SRC.rglob("*.py"))
              if path.name != "metrics.py"
              for call in _file_writes(ast.parse(path.read_text()))]
    assert not writes, writes


def test_the_write_guard_sees_every_form():
    seen = [call.lineno for call in _file_writes(ast.parse(
        "p.write_text(s)\n"
        "p.write_bytes(b)\n"
        "open(p, 'w')\n"
        "open(p, mode='ab')\n"
        "p.open('r+')\n"
        "open(p, m)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "p.open()\n"
        "p.read_text()\n"))]
    assert seen == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("module", [
    "efgsolve", "efgsolve.solvers", "efgsolve.games"])
def test_every_exported_name_resolves(module):
    # A star import fails on an __all__ entry whose import was dropped.
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


def test_a_run_imports_no_module(tmp_path, fresh_python):
    # A module first imported inside a run would be charged to the
    # benchmark's timed run: numpy.random, for one, is imported on the
    # first ``np.random`` access unless a module imports it by name.
    fresh_python(
        "import sys\n"
        "from efgsolve import TreeIndex, bench, make_game\n"
        "for name in ('kuhn', 'rps_choice'):\n"
        "    TreeIndex(make_game(name))\n"
        "before = set(sys.modules)\n"
        "runs = [(algo, {}) for algo in bench.ALGOS]"
        " + [('xdo', {'inner': 'lp'})]\n"
        "for algo, params in runs:\n"
        "    bench.run_experiment(bench.ExperimentConfig(\n"
        "        game='kuhn', algo=algo, node_budget=20_000,\n"
        f"        out_dir={str(tmp_path)!r}, params=params))\n"
        f"bench.run_psro_hist(trials=2, out_dir={str(tmp_path)!r})\n"
        "added = sorted(set(sys.modules) - before)\n"
        "assert not added, added\n")
