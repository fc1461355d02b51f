"""efgsolve benchmark: time one workload's canonical run, check its
outputs, and print every metric by name with its unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload xdo_oshi --seed 0 --seconds 20

Each repetition runs in a fresh process with BLAS/OpenMP pinned to one
thread, so its peak memory is its own.  Repetitions run back to back
until ``--seconds`` have passed; every end-to-end figure is the median
over them.  Times are reported at the host's uncontended speed: wall
seconds times the speed the worker's probe sampled during them, to the
power ``worker.SPEED_EXPONENT`` (see ``worker.SpeedProbe``); the plain
wall seconds are printed beside them.
With ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics (medians over the traced ones) are printed instead.
Every repetition's files are checked against ``reference.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with an
environment stamp is written under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import median_metrics  # noqa: E402
from workloads import VARIANTS, WORKLOADS, spec  # noqa: E402

THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Per-layer metrics in these units are scaled by the probed speed too.
TIME_UNITS = {"s", "ms", "us", "ns"}

# A run must end within 180 s; a repetition still going when this much
# of it has passed is stopped and counted as failed.
TOTAL_LIMIT_S = 150


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read directly so
    that nothing outside the checkout is searched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_rep(rep_spec: dict, work: Path, spans: Path | None,
            timeout: float) -> dict:
    """One repetition in a fresh process; raises on failure.  The run
    writes to ``out`` under ``work``, its working directory: the run
    summary records that path, so it is the same for every repetition."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(rep_spec),
         "out", "-" if spans is None else str(spans)],
        cwd=work, capture_output=True, text=True,
        env=dict(os.environ, **THREAD_PIN), timeout=timeout)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, ref: dict) -> list[str]:
    """Mismatches between one repetition and its reference outputs."""
    errors = []
    for key, want in ref.items():
        got = result.get(key)
        if got != want:
            errors.append(f"{key}: got {got!r}, reference {want!r}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "efgsolve" / "__init__.py").is_file():
        print(f"error: no efgsolve sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    variant = args.seed % VARIANTS
    rep_spec = spec(args.workload, variant)
    ref = json.loads((HERE / "reference.json").read_text())[
        args.workload][str(variant)]
    work = ROOT / ".bench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stamp = dict(commit=git_commit(), source_sha256=source_digest(),
                 nproc=os.cpu_count(),
                 affinity=len(os.sched_getaffinity(0)),
                 thread_pin=THREAD_PIN, load1_before=os.getloadavg()[0])
    plain, traced, errors = [], [], []
    attempted = 0
    start = perf_counter()
    while True:
        use_trace = bool(args.trace) and attempted % 2 == 1
        spans = work / f"spans{attempted}.json" if use_trace else None
        attempted += 1
        timeout = max(5.0, TOTAL_LIMIT_S - (perf_counter() - start))
        try:
            result = run_rep(rep_spec, work, spans, timeout)
            problems = check(result, ref)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
            result, problems = None, [str(err)]
        if problems:
            errors.append(dict(repetition=attempted, traced=use_trace,
                               problems=problems))
        else:
            (traced if use_trace else plain).append(result)
        if (perf_counter() - start >= args.seconds
                and attempted >= 1 + args.trace):
            break
    stamp["load1_after"] = os.getloadavg()[0]
    stamp.update(next((r["versions"] for r in plain + traced), {}))
    record = dict(workload=args.workload, seed=args.seed, variant=variant,
                  seconds=args.seconds, trace=args.trace, env=stamp,
                  spec=rep_spec, repetitions=plain + traced, errors=errors)
    result_file = work / "result.json"

    if not plain or (args.trace and not traced):
        result_file.write_text(json.dumps(record, indent=1) + "\n")
        print(f"error: no repetition of {args.workload} succeeded: "
              f"{errors[:1]}", file=sys.stderr)
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = {key: statistics.median(r[key] for r in plain)
           for key in ("run_s", "setup_s")}
    # Seconds at the host's uncontended speed: see worker.SpeedProbe.
    values = dict(
        run_s=statistics.median(r["run_s"] * r["speed"] for r in plain),
        setup_s=statistics.median(r["setup_s"] * r["setup_speed"]
                                  for r in plain))
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                              for r in plain)
    if args.trace:
        timed = {m["name"] for m in declared["per_layer"]
                 if m["unit"] in TIME_UNITS}
        run_s = values["run_s"]
        values = median_metrics([
            {k: v * r["speed"] if k in timed else v
             for k, v in r["layers"].items()} for r in traced])
        values["trace.overhead_s"] = values["trace.run_s"] - run_s
    metrics = {m["name"]: dict(value=values[m["name"]], unit=m["unit"])
               for m in declared["per_layer" if args.trace
                                 else "end_to_end"]}

    print(f"{args.workload} seed {args.seed} (input variant {variant}): "
          f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{len(errors)} failed")
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:>14.6g} {m['unit']}")
    for key, value in raw.items():
        print(f"  {key + ' (wall, not scaled)':48s} {value:>14.6g} s")
    for key in ("nodes", "final_exploitability", "proportion_full"):
        if key in ref:
            print(f"  {key:48s} {json.dumps(plain[0][key]):>14s} (checked)")
    for err in errors:
        print(f"  FAILED repetition {err['repetition']}: {err['problems']}")

    record["metrics"] = metrics
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(dict(correct=not errors, attempted=attempted,
                          failed=len(errors), metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
