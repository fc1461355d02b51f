"""Golden digests of the enumerated ``TreeIndex`` of shipped games.

The digest of a tree is the SHA-256 of every numpy array it holds once
its ``is_parent_col`` has been read (the attribute name, the dtype and
the raw bytes, in name order), followed by ``keys``, ``is_actions`` and
``levels``.  A speed-up of a game's
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
        "54088b4cfab2d2300877e8c38dcf916742beb48e2302203b3ef544a125576288",
    "leduc":
        "db32152455ace9ab431365981bc5b5ddcb3101cba87c824649c4d91cce2edba5",
    "clone_leduc_2":
        "6fad1dacf8d2f2114a83b9d6b5e310e89d70ef793db8a975c43d8660d8f2c893",
    "oshi_zumo_3_3_4":
        "377d34da0c8ab7035cb5e4246924c32827e9f5d88810ad760b151607c2c9a1c5",
    "oshi_zumo_4_3_6":
        "ca53a10adab06bfed5e04e58f71969848192717f5712637dc4ffc1b9f852d990",
    "rps_choice":
        "3244fe6770131af398a2740dfad3f1021ac750f6ef86c5ea6617e57aa0d00178",
    "kgmp_2_3":
        "294f4cfcb5c23731fd9acf34507486807fc335ce0be743313ada74dff33e91a9",
    "clone_gmp_2_4_3":
        "ef3c30c0983e2723515550cfbd9c28561737d27014c9d7461f2a1396fa701a53",
    "perturbed_kgmp_2_3":
        "83889615f1a34fa3e58bfdff9e7b301d9e1fa7202726ddc8832fbcf9dd29f384",
}


def tree_digest(tree: TreeIndex) -> str:
    tree.is_parent_col  # cached on first read
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
