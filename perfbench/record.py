"""Record the reference outputs the benchmark checks every run against.

Usage (from the repository root): python3 perfbench/record.py [workload ...]

Runs one untraced repetition of each workload on each input variant and
writes, per workload and variant, the SHA-256 of every file the run
writes plus its node count and final exploitability (or, for the
strategy-expansion run, its proportion of trials that expanded every
strategy) to ``reference.json``.  Record only from a commit whose outputs
are known to be right: a later commit that changes any of them fails the
benchmark's correctness check until the change is shown to be intended.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, run_rep
from workloads import VARIANTS, WORKLOADS, spec

CHECKED = ("digests", "nodes", "final_exploitability", "proportion_full")


def main(names) -> int:
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    work = ROOT / ".bench_runs" / "record"
    for name in names or sorted(WORKLOADS):
        ref[name] = {}
        for variant in range(VARIANTS):
            result = run_rep(spec(name, variant), work, None, timeout=170)
            ref[name][str(variant)] = {k: result[k] for k in CHECKED
                                       if k in result}
            print(name, variant, {k: v for k, v in ref[name][
                str(variant)].items() if k != "digests"}, flush=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
