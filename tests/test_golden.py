"""Golden output digests of small runs of every solver family.

Each configuration below is run through the command line into a fixed
relative directory, and the SHA-256 of every file it writes is compared
with a digest recorded from an earlier version of the package.  The run
summaries record their output directory, so the directory name is part
of what is hashed.  Refactors must leave these bytes unchanged; a change
to an algorithm that is meant to change its output re-records the
digests: run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root and paste what it prints.
"""

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from efgsolve.cli import main

KUHN_PSRO = ["run", "--game", "kuhn", "--algo", "psro", "--max-iters", "20"]

CONFIGS = {
    "xfp_leduc": ["run", "--game", "leduc", "--algo", "xfp",
                  "--max-iters", "6"],
    "psro_exact": KUHN_PSRO,
    "psro_sampled": KUHN_PSRO + ["--seeds", "0-1", "--param",
                                 "payoffs=sampled", "--param",
                                 "games_per_pair=10"],
    "psro_fp": KUHN_PSRO + ["--param", "meta_solver=fp", "--param",
                            "fp_iters=300"],
    "psro_random": KUHN_PSRO + ["--seeds", "0-2", "--param", "init=random"],
    "xdo_kuhn_lp": ["run", "--game", "kuhn", "--algo", "xdo",
                    "--max-iters", "60", "--param", "inner=lp"],
    "xdo_leduc": ["run", "--game", "leduc", "--algo", "xdo",
                  "--max-iters", "3"],
    "psro_hist": ["psro-hist", "--trials", "3"],
}

GOLDEN = {
    "xfp_leduc": {
        "xfp_leduc_seed0.csv":
            "f8aebc3dda8c3c278786ae30b827474218831ed148d243efad4fcd77d8c9c939",
        "xfp_leduc_summary.json":
            "e575bffc7c507b1de26f8a88522e1b7bce6f49861449a34373fe2dd25b2c05f1",
    },
    "psro_exact": {
        "psro_kuhn_seed0.csv":
            "f45303c307775352fa27dbed80c70c81e1dcfc8ecb844ee53c2bcbaa968f1351",
        "psro_kuhn_summary.json":
            "e478c698246abd91412443c93772f8b32d184ade2682c9236059979c0e2bcb0a",
    },
    "psro_sampled": {
        "psro_kuhn_seed0.csv":
            "b2eb6f68b7d0457f1b35e4a6e6fb7211ed755401e136bc7556fee93d9cc3c970",
        "psro_kuhn_seed1.csv":
            "81f0ebdf86e554d7991a8bea1696ffda435f70c7fc37bbca749edd69a14bd467",
        "psro_kuhn_summary.json":
            "83cc340e68106887ea5fecb46ea30134b97910b18a410f22aeeba76383e60b80",
    },
    "psro_fp": {
        "psro_kuhn_seed0.csv":
            "af0f1aaf6ae99562d1d3ff0244d9b2326752ec1207db1375e62cec7bd7a99cc4",
        "psro_kuhn_summary.json":
            "2b08ab176c4a6f29f1ce603a0a9191e6ebaa7fd3ec0875b8bdc9b5e02b357eb4",
    },
    "psro_random": {
        "psro_kuhn_seed0.csv":
            "e880d148826858138e70e0d17bfcb57daa7c3044b072121da9152814ed542441",
        "psro_kuhn_seed1.csv":
            "8f8a62e5679966ed1c0b2bb17736905b6b5d44edb8ab6bba4d72690d6cb3d4de",
        "psro_kuhn_seed2.csv":
            "69dd4bd35ce91fa3f2cc2985ca7847846c08897f8ecfe5a53a064f4eb2fbbd70",
        "psro_kuhn_summary.json":
            "e8859e17c07f2c44b5560447de5e815e66894c269b518b87e1fdb4b4b232b857",
    },
    "xdo_kuhn_lp": {
        "xdo_kuhn_seed0.csv":
            "4298cbc3990210fb6b02c17f9794645aaa29a29d4cd95f55cf6d6fcd2b47c7b6",
        "xdo_kuhn_summary.json":
            "8b726d196e104386fb36540cd9ee6783cdca04ce103bedf2878d62387f7612f6",
    },
    "xdo_leduc": {
        "xdo_leduc_seed0.csv":
            "45fb6743962e0b2e47677fce6f2342878602bf73ed87013a57b5e820579ace5e",
        "xdo_leduc_summary.json":
            "3fa16524b1b713c7cbcd1c40689151b6285f7790640fdbb747f7e150581c53a0",
    },
    "psro_hist": {
        "psro_hist_summary.json":
            "143cf29352dc7ec25b83423991f0f290e772a1e28e787b70f2366b1adbde9008",
        "psro_hist_trials.csv":
            "a91f4b07b7f11de8d5720a2bd368e12b6ddff741b6ec7583bc39efa0c4e12c7c",
    },
}


def _digests(name: str) -> dict:
    """Run one configuration into ``out/<name>`` under the working
    directory and hash what it wrote."""
    out = Path("out") / name
    assert main(CONFIGS[name] + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(name) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(sys.stderr):
            digests = {name: _digests(name) for name in CONFIGS}
    print(json.dumps(digests, indent=4))
