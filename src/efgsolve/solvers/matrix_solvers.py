"""Zero-sum solvers over payoff matrices: meta-games and sequence forms.

``solve_sequence_form`` solves a ``TreeIndex`` game exactly by its
sequence-form LPs (Koller, Megiddo & von Stengel, GEB 1996), which are
linear in the game's sequences.  ``solve_matrix_lp`` solves a payoff
matrix exactly as the one-infostate case, where each player's
constraint matrix is one row of ones.  Both solve one LP per player
with ``_sequence_lp``.  ``solve_matrix_fp`` is plain fictitious play
with lowest-index tie-breaking, a cheaper approximate alternative.
``grow_matrix`` fills the cells that growing populations add.

The LPs go straight to the HiGHS core behind
``scipy.optimize.linprog(method="highs")``, without its per-call
Python, which cost about four times HiGHS's own solve of a meta-game
LP.  One solver serves the whole process: ``linprog``'s options are
passed to it once, and its model is cleared after every solve, so no
model, basis or solution carries from one LP to the next, and a fresh
solver's set-up, about half of HiGHS's time on a small meta-game, is
paid once.  Meta-game solutions stay ``linprog``'s to the bit: the
same model (the nonzeros of ``[A_ub; A_eq]`` by column, inequality rows
with lower bound ``-inf``, the simplex row an equality, ``v`` free),
the same options (presolve on, dual simplex, no output, no debug), and
the same checks (every HiGHS status, an optimal model, and
``linprog``'s test of bounds, slacks and equality residuals within
``10 * sqrt(1e-9)``, no NaN).  NaN or inf entries raise
``ValueError``, as ``linprog``'s input check did.

The core is loaded from scipy's own extension file, at import, without
``scipy.optimize``'s package init, which imports about 500 modules the
LPs never use.  Through the package, importing ``efgsolve.cli`` held
835 modules and peaked at 78.8 MB RSS, against 42.0 MB with the core
alone (26.9 MB after ``import numpy``; CPython 3.11, scipy 1.17.1,
numpy 2.4.6, x86-64 Linux), and took about three times as long.  Loaded
on first use instead, the package init would have moved into the first
run that solves an LP.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np
import scipy


def _load_highs_core():
    """scipy's HiGHS core, ``scipy.optimize._highspy._core``.  A private
    module: checked against scipy 1.17.1 (HiGHS 1.12.0), whose
    ``linprog(method="highs")`` drives the same core.

    The file is looked up in ``scipy.__path__[0]`` only, never on
    ``sys.path``, and registered in ``sys.modules`` under its own name
    before it runs, so a later ``import scipy.optimize`` reuses this one
    module; after an earlier one, that import's module is used.  Loaded
    first here, the core is not bound as an attribute of
    ``scipy.optimize._highspy``; ``from ... import _core`` and
    ``import ... as`` statements resolve it through ``sys.modules``."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no HiGHS core in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    core = importlib.util.module_from_spec(spec)
    sys.modules[name] = core
    spec.loader.exec_module(core)
    return core


# Loaded at import, so no timed run pays for it.
_highs = _load_highs_core()

# The process's solver and the id of the process that built it.
_held_pid = _held_solver = None


def _solver():
    """The process's HiGHS solver, with ``linprog``'s options passed
    once.  Built on the first solve, so runs that never solve an LP
    carry none of it, and again after a fork, so a ``--jobs`` worker
    never runs its parent's instance.  It serves one thread at a time;
    the package starts no threads."""
    global _held_pid, _held_solver
    pid = os.getpid()
    if _held_pid != pid:
        options = _highs.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = (
            _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        options.highs_debug_level = (
            _highs.HighsDebugLevel.kHighsDebugLevelNone)
        options.output_flag = False
        options.log_to_console = False
        highs = _highs._Highs()
        if highs.passOptions(options) == _highs.HighsStatus.kError:
            raise RuntimeError("LP failed: HiGHS rejected its options")
        _held_pid, _held_solver = pid, highs
    return _held_solver


# ``linprog``'s feasibility tolerance for its default ``tol`` of 1e-9.
_FEASIBILITY_TOL = 10 * np.sqrt(1e-9)


class MatrixSolution(NamedTuple):
    row: np.ndarray
    col: np.ndarray
    value: float


def grow_matrix(m: np.ndarray, shape: tuple[int, int],
                payoff) -> np.ndarray:
    """``m`` grown to ``shape``; each new cell is ``payoff(i, j)``,
    evaluated in row-major order."""
    grown = np.zeros(shape)
    grown[:m.shape[0], :m.shape[1]] = m
    for i in range(shape[0]):
        for j in range(shape[1]):
            if i >= m.shape[0] or j >= m.shape[1]:
                grown[i, j] = payoff(i, j)
    return grown


def _sequence_lp(columns: tuple, k: int, n: int, sign: float,
                 who: str) -> tuple:
    """One player's sequence-form LP: minimise ``sign * u[0]`` over a
    plan ``z >= 0`` with ``E z = e`` (1 in E's first row, else 0) and a
    free ``u``, subject to ``sign * (A z - F^T u) <= 0``.  ``columns``
    is ``(start, index, value, rows)``, the ``rows`` of ``[[sign * A,
    -sign * F^T], [E, 0]]`` by column; A has ``k`` rows, z ``n``
    entries.  Returns HiGHS's ``[z, u]`` and objective value."""
    width, rows = columns[0].size - 1, columns[3]
    lp, colwise = _highs.HighsLp(), _highs.MatrixFormat.kColwise
    lp.num_col_, lp.num_row_, a = width, rows, lp.a_matrix_
    a.num_col_, a.num_row_, a.format_ = width, rows, colwise
    a.start_, a.index_, a.value_ = columns[:3]
    # HiGHS copies each array as it is set, so each is finished first.
    inf = _highs.kHighsInf
    cost, lower, rhs = np.zeros(width), np.zeros(width), np.zeros(rows)
    cost[n], lower[n:], rhs[k] = sign, -inf, 1.0
    lp.col_cost_, lp.col_lower_, lp.row_upper_ = cost, lower, rhs
    lp.col_upper_ = np.full(width, inf)
    lp.row_lower_ = np.concatenate((np.full(k, -inf), rhs[k:]))

    highs = _solver()
    error = _highs.HighsStatus.kError
    try:
        if highs.passModel(lp) == error:
            raise RuntimeError(f"{who} LP failed: HiGHS model error")
        if highs.run() == error:
            raise RuntimeError(f"{who} LP failed: HiGHS run error")
        status = highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"{who} LP failed: model status "
                               f"{highs.modelStatusToString(status)}")
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row_value = np.array(solution.row_value)
        fun = highs.getInfo().objective_function_value
    finally:
        # No model, basis or solution carries into the next LP.
        highs.clearModel()
    slack = rhs - row_value
    tol = _FEASIBILITY_TOL
    # The upper bounds are infinite, so only NaN could break them.
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or not (x >= lower - tol).all() or (slack[:k] < -tol).any()
            or np.abs(slack[k:]).max() > tol):
        raise RuntimeError(f"{who} LP failed: the solution does not "
                           f"satisfy the constraints within {tol:.2E}")
    return x, fun


def _both_lps(columns, sizes: tuple) -> tuple:
    """Both players' LPs, player p's from ``columns(p, sign)`` with a
    plan of ``sizes[p]``: the plans, clipped at 0, and player 0's value,
    the row LP's maximum, which the column LP's ``u[0]`` must match."""
    (x, fun), (y, _) = (
        _sequence_lp(columns(p, sign), sizes[1 - p], sizes[p], sign, who)
        for p, sign, who in ((0, -1.0, "row"), (1, 1.0, "column")))
    if abs(y[sizes[1]] + fun) > 1e-6:
        raise RuntimeError("LP duals disagree beyond tolerance")
    return np.maximum(x[:sizes[0]], 0.0), np.maximum(y[:sizes[1]], 0.0), -fun


def solve_matrix_lp(matrix) -> MatrixSolution:
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("matrix must not contain inf or nan")

    def columns(p, sign):
        # Row player: maximize v s.t. x^T M >= v, x in simplex; column
        # player: minimize w s.t. M y <= w, y in simplex.  E and F are a
        # row of ones, so [[sign * a, -sign], [1 ... 1, 0]] is dense.
        a = m if p else m.T
        dense = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
        dense[:-1, :-1], dense[:-1, -1], dense[-1, :-1] = sign * a, -sign, 1
        nonzero = dense.T != 0
        return (np.concatenate(([0], np.cumsum(nonzero.sum(1)))),
                np.nonzero(nonzero)[1], dense.T[nonzero], len(dense))

    x, y, value = _both_lps(columns, m.shape)
    return MatrixSolution(row=x / x.sum(), col=y / y.sum(),
                          value=float(value))


def solve_sequence_form(tree) -> tuple[np.ndarray, float]:
    """Both players' realization plans over the columns of ``tree`` in
    an exact equilibrium, and player 0's value.  Sequences are the empty
    one, 0, then the player's columns in tree order; E's rows are the
    empty sequence and each infostate's columns minus its parent
    sequence; A sums payoff times chance reach by terminal sequences."""
    mine = [tree.is_player[tree.col_isid] == p for p in (0, 1)]
    size = [int(m.sum()) + 1 for m in mine]
    # Each column's sequence, and 0 for column -1: no decision edge.
    seq = np.append(np.where(mine[0], mine[0].cumsum(), mine[1].cumsum()), 0)
    term = np.flatnonzero(tree.terminal_mask)
    # Each terminal's last sequence of each player.
    last = seq[tree.last_cols()[:, term]]
    pay = (tree.payoff1 * tree.reach(tree.in_prob))[term]
    e = []  # each player's E as (rows, columns, values)
    for p in (0, 1):
        own = tree.infosets_of(p)
        row = np.arange(1, own.size + 1)
        e.append((np.concatenate(([0], row.repeat(tree.is_nact[own]), row)),
                  np.concatenate((np.arange(size[p]),
                                  seq[tree.is_parent_col[own]])),
                  np.repeat([1.0, -1.0], [size[p], own.size])))

    def columns(p, sign):
        # [[sign * A, -sign * F^T], [E, 0]] from triplets sorted by
        # column and row, duplicates summed in order (HiGHS drops zeros).
        (er, ec, ev), (fr, fc, fv), k = e[p], e[1 - p], size[1 - p]
        span = k + er[-1] + 1
        keys, at = np.unique(
            np.concatenate((last[p], ec, size[p] + fr)) * span
            + np.concatenate((last[1 - p], k + er, fc)),
            return_inverse=True)
        ends = np.searchsorted(keys // span, np.arange(size[p] + fr[-1] + 2))
        return ends, keys % span, np.bincount(at, np.concatenate((
            sign * pay, ev, -sign * fv))), span

    x, y, value = _both_lps(columns, size)
    plans = np.empty(tree.n_cols)
    plans[mine[0]], plans[mine[1]] = x[1:], y[1:]
    return plans, value


def solve_matrix_fp(matrix, iterations: int = 2000) -> MatrixSolution:
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    x_counts = np.zeros(rows)
    y_counts = np.zeros(cols)
    # Start from the first action for each player.
    x_counts[0] = 1.0
    y_counts[0] = 1.0
    for _ in range(iterations):
        y_avg = y_counts / y_counts.sum()
        x_avg = x_counts / x_counts.sum()
        x_counts[int(np.argmax(m @ y_avg))] += 1.0
        y_counts[int(np.argmin(x_avg @ m))] += 1.0
    x = x_counts / x_counts.sum()
    y = y_counts / y_counts.sum()
    return MatrixSolution(row=x, col=y, value=float(x @ m @ y))
