import os
import subprocess
import sys
from pathlib import Path

import pytest

from efgsolve import TreeIndex, make_game

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def fresh_python():
    """Runs Python source in a new interpreter, with the given folders,
    then ``src/`` and ``tests/``, on its import path; a nonzero exit
    fails the test."""
    def run(code: str, *path) -> None:
        folders = [*path, TESTS.parent / "src", TESTS]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, folders)))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return run


@pytest.fixture(scope="session")
def kuhn_tree():
    return TreeIndex(make_game("kuhn"))


@pytest.fixture(scope="session")
def leduc_tree():
    return TreeIndex(make_game("leduc"))


@pytest.fixture(scope="session")
def rps_tree():
    return TreeIndex(make_game("rps_choice"))


@pytest.fixture(scope="session")
def kgmp13_tree():
    return TreeIndex(make_game("kgmp_1_3"))
