"""The benchmark's own checks on its tracer.

Run from the repository root: python3 -m pytest -q perfbench/check_tracing.py

(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import shutil
from pathlib import Path

import pytest

from tracing import TRACED_FUNCTIONS, TRACED_METHODS, Tracer, layer_metrics
from worker import SpeedProbe, run_workload

# Small stand-ins for the workloads, covering every wrapped layer.
SPECS = [
    dict(kind="run", game="leduc", algo="xdo", node_budget=300_000, seed=0),
    dict(kind="run", game="kuhn", algo="cfr_plus", node_budget=50_000,
         seed=1),
    dict(kind="run", game="kuhn", algo="mccfr_es", node_budget=50_000,
         seed=2),
    dict(kind="psro_hist", trials=3, seed0=5, horizon=10, eps=1e-3),
]


def _attributes():
    out = {}
    for module, attr, _, _ in TRACED_FUNCTIONS:
        owner = importlib.import_module(module)
        out[(module, attr)] = (owner, vars(owner)[attr])
    for module, cls, attr, _, _ in TRACED_METHODS:
        owner = getattr(importlib.import_module(module), cls)
        out[(module, cls, attr)] = (owner, vars(owner)[attr])
    return out


def _files(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_every_wrapped_attribute_is_restored():
    before = _attributes()
    with Tracer():
        inside = _attributes()
        assert all(inside[k][1] is not v for k, (_, v) in before.items())
    after = _attributes()
    assert all(after[k][1] is v for k, (_, v) in before.items())


def test_restored_after_an_exception():
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_attributes()[k][1] is v for k, (_, v) in before.items())


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.get("algo", s["kind"]))
def test_traced_run_writes_identical_files(spec, tmp_path, monkeypatch):
    """Tracing and the speed probe change no output byte."""
    # Same relative output directory for both runs, because the run
    # summary records the directory it was written to.
    monkeypatch.chdir(tmp_path)
    before = _attributes()
    outputs = []
    for traced in (False, True):
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        # The traced run also carries the speed probe's signal handler.
        with SpeedProbe() if traced else contextlib.nullcontext():
            _, _, tracer = run_workload(spec, out.relative_to(tmp_path),
                                        traced)
        outputs.append(_files(out))
        if traced:
            assert len(tracer.spans) > 10
            # run.py reports every per-layer metric BENCHMARK.json names.
            declared = json.loads((Path(__file__).resolve().parents[1]
                                   / "BENCHMARK.json").read_text())
            assert set(layer_metrics(tracer.spans)) | {"trace.overhead_s"} \
                == {m["name"] for m in declared["per_layer"]}
    assert outputs[0] == outputs[1]
    assert all(_attributes()[k][1] is v for k, (_, v) in before.items())


def test_a_missing_name_fails_before_anything_is_wrapped(monkeypatch):
    """A tracer that names something the package no longer has raises
    instead of reporting 0 for the metrics built on that name."""
    import efgsolve.bench
    import efgsolve.xdo

    run_experiment = efgsolve.bench.run_experiment
    monkeypatch.delattr(efgsolve.xdo, "eq1_allowed")
    with pytest.raises(KeyError):
        with Tracer():
            pass
    assert efgsolve.bench.run_experiment is run_experiment
