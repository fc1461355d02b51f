"""The benchmark's workloads: one canonical efgsolve run each, at or cut
from its canonical size to a repetition of 2 to 5 seconds, so that a
run of the benchmark holds several.

``--seed`` picks one of ``VARIANTS`` input variants (``seed % VARIANTS``):
the MCCFR-ES sampling seed, the first trial seed of the strategy-
expansion run, and the run seed of the deterministic XDO runs (on
unseeded games it only labels their output files).  Reference
outputs for every variant live in ``reference.json``.
"""

from __future__ import annotations

VARIANTS = 8

# name -> how one repetition calls the library, exactly as the command line
# would: ``run`` goes through bench.run_experiment (``efgsolve run``),
# ``psro_hist`` through bench.run_psro_hist (``efgsolve psro-hist``).
# ``setup_repeats`` is how many times the worker times the run's set-up
# before the run (see worker.setup_s): about 0.3 s or more in all, and a
# fixed count, so that the peak memory does not depend on the host's speed.
WORKLOADS = {
    "xdo_oshi": dict(kind="run", game="oshi_zumo_4_3_6", algo="xdo",
                     node_budget=1_000_000, setup_repeats=1),
    "xdo_leduc": dict(kind="run", game="leduc", algo="xdo", max_iters=15,
                      setup_repeats=3),
    "mccfr_es_leduc": dict(kind="run", game="leduc", algo="mccfr_es",
                           node_budget=700_000, setup_repeats=3),
    "psro_hist": dict(kind="psro_hist", trials=20, horizon=30, eps=1e-3,
                      setup_repeats=2000),
}


def spec(workload: str, variant: int) -> dict:
    """Arguments of one repetition of ``workload`` on input ``variant``."""
    w = dict(WORKLOADS[workload], workload=workload, variant=variant)
    if w["kind"] == "run":
        w["seed"] = variant
    else:
        w["seed0"] = variant * w["trials"]
    return w
