"""Golden digests of the enumerated ``TreeIndex`` of shipped games.

The digest of a tree is the SHA-256 of every numpy array it holds (the
attribute name, the dtype and the raw bytes, in name order), followed
by ``keys``, ``is_actions`` and ``levels``.  A speed-up of a game's
``apply`` or of the walk in ``TreeIndex.__init__`` must build
field-for-field equal trees and leave these digests unchanged.  A
change that is meant to alter a tree re-records them: run
``PYTHONPATH=src python tests/test_tree_golden.py`` from the
repository root and paste what it prints.
"""

import hashlib
import json

import numpy as np
import pytest

from efgsolve import TreeIndex, make_game

GOLDEN = {
    "kuhn":
        "7971e1bf32ed3a7c2f36f7af21efdc38937332c4b7e361e90a2c7ec7a2b42214",
    "leduc":
        "70f5eea0ec820c73ea34adbb9ffe73fd6c0361f17bace5c5336c1360037fd0a8",
    "clone_leduc_2":
        "d7aa6a489ea1d3e5648e1f138bf7059db6b715994e24d5e470a475f4cb691bf1",
    "oshi_zumo_3_3_4":
        "dce6f56c11a80fb0eacddcb3f734ac5be564543d58373dec3c5767c243eae01c",
    "oshi_zumo_4_3_6":
        "56922e12a2a1faa6cb43d12c2b34b801ea581807c16e55e96a2948af48a9388d",
    "rps_choice":
        "51ddda03d6da9cc3994ebf57d8bcf96bf4cd06c90629335a073de5e8fa96c789",
    "kgmp_2_3":
        "6600edc715f2ebc08c768911b1f47f5bb0bc3477d18d9e4e1c1db010f422983b",
    "clone_gmp_2_4_3":
        "131e79efaf3ad3fa4ca3aa9806acbb87582350d7a57c766595fe111a0eb3aeb7",
    "perturbed_kgmp_2_3":
        "cf803801cc5e3c43af033faf7b38656c7286491ceed3617bc48b663c18990458",
}


def tree_digest(tree: TreeIndex) -> str:
    h = hashlib.sha256()
    for name, value in sorted(vars(tree).items()):
        if isinstance(value, np.ndarray):
            h.update(name.encode())
            h.update(value.dtype.str.encode())
            h.update(np.ascontiguousarray(value).tobytes())
    for part in (tree.keys, tree.is_actions, tree.levels):
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_tree_matches_golden_digest(name):
    assert tree_digest(TreeIndex(make_game(name))) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: tree_digest(TreeIndex(make_game(name)))
                      for name in GOLDEN}, indent=4))
