"""Zero-sum matrix game solvers used for meta-games.

``solve_matrix_lp`` finds an exact minimax solution of the row player's
payoff matrix by solving one small LP per player (deterministic for a
fixed matrix).  ``solve_matrix_fp`` is plain fictitious play with
lowest-index tie-breaking, kept as a cheaper approximate alternative.
``grow_matrix`` fills the cells that growing populations add.

The LPs go straight to the HiGHS core behind
``scipy.optimize.linprog(method="highs")``.  A meta-game LP has a few
dozen nonzeros, and ``linprog``'s per-call Python (input cleaning,
option checks, CSC conversion, result checks) costs about four times
HiGHS's own solve.  What ``linprog`` did is kept, so solutions are the
same to the bit:
- the same model: the nonzeros of ``[A_ub; A_eq]`` column by column,
  inequality rows with lower bound ``-inf``, the simplex row as an
  equality, and ``v`` free;
- the same options, built once: presolve on, dual simplex, no output,
  no debug;
- a fresh solver per LP;
- the same checks: the status of every HiGHS call, an optimal model
  status, and ``linprog``'s feasibility test of the result (bounds,
  slacks and the equality residual within ``10 * sqrt(1e-9)``, no NaN).
Matrices holding NaN or inf raise ``ValueError``, as ``linprog``'s input
check did.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np
# A private module: checked against scipy 1.17.1 (HiGHS 1.12.0), whose
# ``linprog(method="highs")`` drives the same core.
from scipy.optimize._highspy import _core as _highs


@cache
def _options():
    """``linprog``'s HiGHS options, built on the first solve: about
    70 kB that runs which never solve an LP do not carry."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


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


def _simplex_lp(a: np.ndarray, sign: float, who: str) -> tuple:
    """Minimise ``sign * v`` over ``p`` in the simplex and ``v`` free,
    subject to ``sign * (a @ p - v) <= 0``.  Returns HiGHS's column
    values ``[p, v]`` and its objective value."""
    k, n = a.shape
    # Constraint rows, then the simplex row; columns p, then v.
    dense = np.zeros((k + 1, n + 1))
    dense[:k, :n] = sign * a
    dense[:k, n] = -sign
    dense[k, :n] = 1.0
    nonzero = dense.T != 0
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = k + 1
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(1))))
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1]
    lp.a_matrix_.value_ = dense.T[nonzero]
    inf = _highs.kHighsInf
    lp.col_cost_ = np.append(np.zeros(n), sign)
    lp.col_lower_ = lower = np.append(np.zeros(n), -inf)
    lp.col_upper_ = np.full(n + 1, inf)
    lp.row_lower_ = np.append(np.full(k, -inf), 1.0)
    lp.row_upper_ = rhs = np.append(np.zeros(k), 1.0)

    highs = _highs._Highs()
    error = _highs.HighsStatus.kError
    if highs.passOptions(_options()) == error:
        raise RuntimeError(f"{who} LP failed: HiGHS rejected its options")
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
    fun = highs.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)
    tol = _FEASIBILITY_TOL
    # The upper bounds are infinite, so only NaN could break them.
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or not (x >= lower - tol).all() or (slack[:k] < -tol).any()
            or abs(slack[k]) > tol):
        raise RuntimeError(f"{who} LP failed: the solution does not "
                           f"satisfy the constraints within {tol:.2E}")
    return x, fun


def solve_matrix_lp(matrix) -> MatrixSolution:
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    if not np.isfinite(m).all():
        raise ValueError("matrix must not contain inf or nan")
    # Row player: maximize v s.t. x^T M >= v, x in simplex.
    x, fun = _simplex_lp(m.T, -1.0, "row")
    value = -fun
    # Column player: minimize w s.t. M y <= w, y in simplex.
    y, _ = _simplex_lp(m, 1.0, "column")
    if abs(y[-1] - value) > 1e-6:
        raise RuntimeError("LP duals disagree beyond tolerance")
    x = np.maximum(x[:rows], 0.0)
    y = np.maximum(y[:cols], 0.0)
    return MatrixSolution(row=x / x.sum(), col=y / y.sum(),
                          value=float(value))


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
