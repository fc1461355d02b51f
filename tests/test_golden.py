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
    "psro_hist_bench": ["psro-hist", "--trials", "20", "--seed0", "20"],
    "cfr_plus_leduc": ["run", "--game", "leduc", "--algo", "cfr_plus",
                       "--max-iters", "20"],
    "cfr_kuhn_jobs": ["run", "--game", "kuhn", "--algo", "cfr", "--seeds",
                      "0-1", "--jobs", "2", "--max-iters", "50"],
    "mccfr_es_leduc": ["run", "--game", "leduc", "--algo", "mccfr_es",
                       "--node-budget", "200000"],
    "xfp_perturbed": ["run", "--game", "perturbed_kgmp_1_3", "--algo", "xfp",
                      "--seeds", "0-1", "--max-iters", "10"],
    "size_leduc": ["size-report", "--game", "leduc", "--max-iters", "5"],
    "xdo_leduc_cfr": ["run", "--game", "leduc", "--algo", "xdo",
                      "--max-iters", "3", "--param", "inner=cfr"],
    "cfr_plus_simultaneous": ["run", "--game", "leduc", "--algo", "cfr_plus",
                              "--max-iters", "20", "--param",
                              "alternating=false"],
    "xdo_oshi_small": ["run", "--game", "oshi_zumo_3_3_4", "--algo", "xdo",
                       "--node-budget", "300000"],
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
            "2c5b53cb987a3d30c2c014f443f8988dbba1bfdf866901a05e0f480f1fe494bf",
        "xdo_kuhn_summary.json":
            "f5cf4bc106681318bc994d3a222d14d0372b8695c4517e652a20530f0858579d",
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
    "psro_hist_bench": {
        "psro_hist_summary.json":
            "68e4a43dbdaaaf9b3fa573475fd9a9dc7396a7b31ef374ae895ff039660012b3",
        "psro_hist_trials.csv":
            "6ee7386e64300c18ea6e0ca8fbcd9f4a5a5aa843d2baabf490d7b9264410c540",
    },
    "cfr_plus_leduc": {
        "cfr_plus_leduc_seed0.csv":
            "f3ac62f4daba45cb400af9dd18f5292e87e8e5ef20eb555263a8c3c60e8186d0",
        "cfr_plus_leduc_summary.json":
            "deb3ebf88d4edc7a026c921a0c42912e50750d19da9b03254deb55470c1ee2e5",
    },
    "cfr_kuhn_jobs": {
        "cfr_kuhn_seed0.csv":
            "292c149a50b23ebc3372092b0417bc3a9bc3e7c206d2811c09f6a9e65060de8b",
        "cfr_kuhn_seed1.csv":
            "2bfcfe942c3d766249a801a62d34a5e7a1af36adf9ffea6bc25a7957af72a393",
        "cfr_kuhn_summary.json":
            "1e4ee9a65f75a414c541bf5a92d9cbee68924936aa88a86f8ef67768cbd95438",
    },
    "mccfr_es_leduc": {
        "mccfr_es_leduc_seed0.csv":
            "8a385c23bc5ed10f269e6e75df216d01006741fdc24f7248c8aee8371164c7c1",
        "mccfr_es_leduc_summary.json":
            "129a6797bee477e5b542c677954d54b37b5abb98b6ed96bb40e7a7feda9e1272",
    },
    "xfp_perturbed": {
        "xfp_perturbed_kgmp_1_3_seed0.csv":
            "17b37c4cb8d9f5665504dab5b2f913860c6cf78c5a945d85074c29427dbd3a83",
        "xfp_perturbed_kgmp_1_3_seed1.csv":
            "f7fbf8f8e84df9ce15723f4cfcc0a8e51957e09d76929d3537d7e7444b5e1c05",
        "xfp_perturbed_kgmp_1_3_summary.json":
            "664ff2332cdaac504bfe70cf9673c54a69eff55dd94d8f4195be377975843a77",
    },
    "size_leduc": {
        "size_leduc.json":
            "9a61ba7373b2fe494d1f2159fd9c6b64c827af4a1bc43eff94f12107b4e4f0cf",
    },
    "xdo_leduc_cfr": {
        "xdo_leduc_seed0.csv":
            "aab62008b7481aa018822846298ac5b3394582ff002c2d34d238309327641ba8",
        "xdo_leduc_summary.json":
            "0a4f4b2fdf50f03ab8c8c1c1f52e768a83bb79d4903d716fa02f33d79aa71e17",
    },
    "cfr_plus_simultaneous": {
        "cfr_plus_leduc_seed0.csv":
            "5b2ca0deb2ffb8551a23e8a64d6d32ca1cebaff56f51752877508abc8356eab1",
        "cfr_plus_leduc_summary.json":
            "6b8b2aaf5dab22a7cbb7bd6be0309738a0f6f61971d72d26173c4ecc287069bf",
    },
    "xdo_oshi_small": {
        "xdo_oshi_zumo_3_3_4_seed0.csv":
            "2c2f9007cde51003573831c6903897a796a886f46608d31740fbf86fe01e7ed7",
        "xdo_oshi_zumo_3_3_4_summary.json":
            "c36ada092f1b2435ebed146e7d79c3afd5c9a46215a7a611341dd3e46861d790",
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
