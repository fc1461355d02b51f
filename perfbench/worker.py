"""One repetition of one workload, in its own process.

Usage: python3 perfbench/worker.py '<spec json>' <out dir> <spans file or ->

Runs the workload once through the library call the command line uses,
writing its CSV/JSON files under ``<out dir>``, and prints one JSON line:
- ``run_s`` and ``setup_s``: wall seconds of the run, and the median
  wall seconds of its set-up, repeated before the run (see ``setup_s``);
- ``speed`` and ``setup_speed``: how fast the host ran during those
  seconds, relative to its uncontended speed (see ``SpeedProbe``);
- ``peak_rss_mb``: peak resident memory of this process;
- the run's node count and final exploitability (or proportion of
  trials that expanded every strategy), and the SHA-256 of every file
  written;
- the Python, numpy and scipy versions;
- when a spans file is named, the per-layer metrics of the traced run
  (the raw spans go to that file once the run is over).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# Seconds the probe loop takes on a 2-core Intel Xeon host when nothing
# else contends for its core (the floor of 3,000 probes
# timed on their own).  It only sets the scale of the scaled times.
PROBE_REF_S = 150e-6
PROBE_INTERVAL_S = 0.02
# The workloads slow down more than the probe's loop does.  Two sets of
# ten runs of each of the four workloads were rescaled with powers 1.0 to
# 1.8; 1.4 left the least spread overall, cutting the spreads of the run
# medians from 0.03-0.12 (power 1) to 0.01-0.06.  Two fresh sets run
# with it gave 0.01-0.09.
SPEED_EXPONENT = 1.4


class SpeedProbe:
    """Samples the host's speed while the run executes.

    On a shared host the cores slow down by up to 2x, in bursts from a
    fraction of a second to a minute long, whatever this process does.
    Every 20 ms a SIGALRM handler times a fixed arithmetic loop (about
    0.15 ms) between two bytecodes of the run, on its core, so the
    samples see the slow-downs the run sees.  The run's seconds times
    the mean sampled speed, to the power SPEED_EXPONENT, estimate what
    the run would have taken at the uncontended speed.  Probes that read
    memory varied with what else was in the cache, from one process to
    the next, so this one is pure arithmetic.
    """

    def __enter__(self):
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _tick(self, signum, frame):
        t0 = perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        self.samples.append((t0, perf_counter() - t0))

    def speed(self, intervals=None) -> float:
        """Mean speed (PROBE_REF_S / probe seconds) over the samples taken
        inside ``intervals``, or over all of them (all of them when fewer
        than ten fall inside), to the power SPEED_EXPONENT."""
        inside = [d for t, d in self.samples
                  if intervals is None or any(a <= t < b
                                              for a, b in intervals)]
        if len(inside) < 10:
            inside = [d for _, d in self.samples]
        return statistics.fmean(
            PROBE_REF_S / d for d in inside) ** SPEED_EXPONENT


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def versions() -> dict:
    import numpy
    import scipy

    return dict(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__)


def run_workload(spec: dict, out: Path, trace: bool):
    """Run one repetition, under a tracer when ``trace`` is set; returns
    (wall seconds, the run's summary, the tracer or None)."""
    from efgsolve import bench
    from tracing import Tracer

    with Tracer() if trace else contextlib.nullcontext() as tracer:
        t0 = perf_counter()
        if spec["kind"] == "run":
            cfg = bench.ExperimentConfig(
                game=spec["game"], algo=spec["algo"], seeds=(spec["seed"],),
                node_budget=spec.get("node_budget"),
                max_iters=spec.get("max_iters"), out_dir=str(out), jobs=1)
            summary = bench.run_experiment(cfg)
        else:
            summary = bench.run_psro_hist(
                trials=spec["trials"], seed0=spec["seed0"],
                horizon=spec["horizon"], eps=spec["eps"], out_dir=str(out),
                jobs=1)
        run_s = perf_counter() - t0
    return run_s, summary, tracer


def setup_s(spec: dict) -> float:
    """Median seconds of the set-up the run pays before its first solver
    step: the enumeration guard (``run`` workloads; the strategy-expansion
    run has none) plus the base TreeIndex, on a fresh copy of the
    workload's game each time.  The calls are repeated
    ``setup_repeats`` times in the fresh worker, before the run: on
    Leduc they take about 0.1 s and on the strategy-expansion game
    0.15 ms, too short to time steadily once or for the speed probe to
    sample."""
    from efgsolve import TreeIndex, bench, make_game

    name = spec["game"] if spec["kind"] == "run" else "rps_choice"
    # The run's own cap on the number of histories it enumerates.
    cap = bench.ExperimentConfig.max_states
    times = []
    for _ in range(spec["setup_repeats"]):
        game = make_game(name)
        t0 = perf_counter()
        if spec["kind"] == "run":
            bench.guard_enumerable(game, cap)
        TreeIndex(game)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def outcome(spec: dict, summary: dict) -> dict:
    """The run's checked results, read from its summary."""
    if spec["kind"] == "run":
        return dict(nodes=summary["total_nodes"],
                    final_exploitability=summary["final_exploitability"][
                        str(spec["seed"])])
    return dict(proportion_full=summary["proportion_full"])


def main(argv) -> int:
    spec = json.loads(argv[1])
    out = Path(argv[2])
    spans_path = None if argv[3] == "-" else Path(argv[3])

    with SpeedProbe() as probe:
        t0 = perf_counter()
        setup = setup_s(spec)
        t1 = perf_counter()
        run_s, summary, tracer = run_workload(spec, out,
                                              spans_path is not None)
        run = [(t1, perf_counter())]
    result = dict(run_s=run_s, setup_s=setup,
                  speed=probe.speed(run), setup_speed=probe.speed([(t0, t1)]),
                  probes=len(probe.samples),
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  digests=digests(out), versions=versions(),
                  **outcome(spec, summary))
    if spans_path is not None:
        from tracing import layer_metrics

        expanded = None
        if spec["kind"] == "psro_hist":
            hist = summary["histogram"]
            expanded = sum(int(k) * v for h in hist.values()
                           for k, v in h.items()) - 2 * spec["trials"]
        result["layers"] = layer_metrics(tracer.spans, expanded)
        spans_path.write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
