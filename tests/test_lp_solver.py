"""The HiGHS core and the one solver a process keeps for every LP.

``matrix_solvers._solver`` builds the solver once per process and
``_sequence_lp`` clears its model after every solve, failed or not.
These tests check that nothing carries from one LP to the next: any
order of solves gives the bytes of a fresh solver per LP, a failed
solve leaves nothing behind, and a process that never solves an LP
never builds the solver.  The core is loaded from scipy's own file
without ``scipy.optimize``: these tests check that no solve imports
it, and that either import order leaves one core that ``linprog`` and
the package share.
"""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from efgsolve.solvers import matrix_solvers
from efgsolve.solvers.matrix_solvers import (solve_matrix_lp,
                                             solve_sequence_form)

from oracles import reference_solve_matrix_lp, same_solution, tree_of


def use_fresh_solvers(mp):
    """Makes every later LP run on a solver built for it alone, until
    ``mp`` (a ``MonkeyPatch``) brings the process's own solver back."""
    build = matrix_solvers._solver
    mp.setattr(matrix_solvers, "_held_pid", None)
    mp.setattr(matrix_solvers, "_held_solver", None)

    def fresh():
        matrix_solvers._held_pid = None
        return build()

    mp.setattr(matrix_solvers, "_solver", fresh)


def meta_matrices():
    """Shuffled matrices from 1x1 to 8x8: random reals, integer ties,
    all zero and all equal."""
    rng = np.random.default_rng(5)
    ms = []
    for r in range(1, 9):
        for c in range(1, 9):
            ms.append(rng.normal(size=(r, c)))
            ms.append(rng.integers(-1, 2, size=(r, c)).astype(float))
    ms += [np.zeros((r, c)) for r, c in ((1, 1), (3, 5), (8, 8))]
    ms += [np.full((r, c), 0.5) for r, c in ((2, 2), (6, 3), (7, 8))]
    return [ms[i] for i in rng.permutation(len(ms))]


SEQUENCE_GAMES = ("kuhn", "leduc", "rps_choice")


@pytest.fixture(scope="module")
def games():
    return {name: tree_of(name) for name in SEQUENCE_GAMES}


def sequence_form_bytes(tree):
    plan, value = solve_sequence_form(tree)
    return plan.tobytes(), np.float64(value).tobytes()


@pytest.fixture(scope="module")
def fresh_sequence_forms(games):
    with pytest.MonkeyPatch.context() as mp:
        use_fresh_solvers(mp)
        return {name: sequence_form_bytes(tree)
                for name, tree in games.items()}


def test_the_order_of_solves_does_not_matter(games, fresh_sequence_forms):
    ms = meta_matrices()
    # Forward, then backward, so the solver meets models that grow and
    # models that shrink, with the sequence forms in between.
    for k, m in enumerate(ms + ms[::-1]):
        if k % 40 == 7:
            name = SEQUENCE_GAMES[k // 40 % len(SEQUENCE_GAMES)]
            assert (sequence_form_bytes(games[name])
                    == fresh_sequence_forms[name]), name
        assert same_solution(solve_matrix_lp(m),
                             reference_solve_matrix_lp(m)), (k, m)


class _FailingRun:
    """The process's solver with ``run`` reporting an error."""

    def __init__(self, highs):
        self._highs = highs

    def run(self):
        return matrix_solvers._highs.HighsStatus.kError

    def __getattr__(self, name):
        return getattr(self._highs, name)


def held_columns():
    highs = matrix_solvers._solver()
    return highs.getNumCol(), highs.getNumRow()


def test_a_failed_solve_leaves_nothing_behind(monkeypatch):
    m = np.random.default_rng(2).normal(size=(4, 5))
    want = reference_solve_matrix_lp(m)
    build = matrix_solvers._solver
    with monkeypatch.context() as mp:
        mp.setattr(matrix_solvers, "_solver", lambda: _FailingRun(build()))
        with pytest.raises(RuntimeError,
                           match="^row LP failed: HiGHS run error$"):
            solve_matrix_lp(m)
    assert held_columns() == (0, 0)
    assert same_solution(solve_matrix_lp(m), want)
    # A model HiGHS itself rejects.
    with pytest.raises(RuntimeError, match="^row LP failed: HiGHS model"):
        solve_matrix_lp([[1e300, -1e300], [-1e300, 1e300]])
    assert held_columns() == (0, 0)
    assert same_solution(solve_matrix_lp(m), want)


def test_the_solver_holds_no_model_between_solves(games):
    solve_matrix_lp(np.eye(6))
    assert held_columns() == (0, 0)
    solve_sequence_form(games["kuhn"])
    assert held_columns() == (0, 0)


def test_one_solver_per_process(monkeypatch):
    highs = matrix_solvers._solver()
    assert matrix_solvers._solver() is highs
    # A forked worker sees another process id and builds its own; the
    # parent's solver is back after the test.
    monkeypatch.setattr(matrix_solvers, "_held_pid", matrix_solvers._held_pid)
    monkeypatch.setattr(matrix_solvers, "_held_solver", highs)
    pid = os.getpid()
    monkeypatch.setattr(os, "getpid", lambda: pid + 1)
    child = matrix_solvers._solver()
    assert child is not highs
    assert matrix_solvers._solver() is child
    assert same_solution(solve_matrix_lp(np.eye(3)),
                         reference_solve_matrix_lp(np.eye(3)))


def test_importing_the_cli_builds_no_solver(fresh_python):
    # Runs that never solve an LP carry none of HiGHS's state, and runs
    # that do never import scipy.optimize.
    fresh_python(
        "import sys\n"
        "import efgsolve.cli\n"
        "from efgsolve import TreeIndex, make_game\n"
        "from efgsolve.solvers import matrix_solvers as m\n"
        "assert m._held_solver is None and m._held_pid is None\n"
        "m.solve_matrix_lp([[1.0, -1.0], [-1.0, 1.0]])\n"
        "m.solve_sequence_form(TreeIndex(make_game('kuhn')))\n"
        "assert 'scipy.optimize' not in sys.modules\n")


@pytest.mark.parametrize("first, second", [
    ("scipy.optimize", "efgsolve.solvers.matrix_solvers"),
    ("efgsolve.solvers.matrix_solvers", "scipy.optimize")])
def test_either_import_order_shares_one_core(fresh_python, first, second):
    # Loaded first by the package, the core is not an attribute of
    # scipy.optimize._highspy, and linprog still reaches it.
    fresh_python(
        f"import {first}\n"
        f"import {second}\n"
        "import sys\n"
        "import numpy as np\n"
        "from scipy.optimize import linprog\n"
        "from efgsolve.solvers import matrix_solvers\n"
        "from oracles import reference_solve_matrix_lp, same_solution\n"
        "from scipy.optimize._highspy import _core\n"
        "import scipy.optimize._highspy._core as aliased\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "assert core is _core is aliased is matrix_solvers._highs\n"
        "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])\n"
        "assert res.status == 0 and res.x.tolist() == [1.0, 0.0], res\n"
        "m = np.random.default_rng(3).normal(size=(5, 4))\n"
        "assert same_solution(matrix_solvers.solve_matrix_lp(m),\n"
        "                     reference_solve_matrix_lp(m))\n")


def test_the_core_is_scipys_own_file(tmp_path, fresh_python):
    scipy_dir = Path(scipy.__path__[0])
    assert Path(matrix_solvers._highs.__file__).is_relative_to(scipy_dir)
    # Stray cores earlier on the import path, at the top level and
    # under a scipy folder that is only a namespace portion, are never
    # loaded: each fails on import.
    for stray in (tmp_path / "_core.py",
                  tmp_path / "scipy" / "optimize" / "_highspy" / "_core.py"):
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_text("raise ImportError('a stray core was loaded')\n")
    fresh_python(
        "from pathlib import Path\n"
        "import scipy\n"
        "from efgsolve.solvers import matrix_solvers\n"
        "core = Path(matrix_solvers._highs.__file__)\n"
        "assert core.is_relative_to(Path(scipy.__path__[0])), core\n",
        tmp_path)
