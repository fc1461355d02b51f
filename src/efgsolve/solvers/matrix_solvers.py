"""Zero-sum matrix game solvers used for meta-games.

``solve_matrix_lp`` finds an exact minimax solution of the row player's
payoff matrix by solving one small LP per player (deterministic for a
fixed matrix).  ``solve_matrix_fp`` is plain fictitious play with
lowest-index tie-breaking, kept as a cheaper approximate alternative.
``grow_matrix`` fills the cells that growing populations add.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog


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


def solve_matrix_lp(matrix) -> MatrixSolution:
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape

    # Row player: maximize v s.t. x^T M >= v, x in simplex.
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-m.T, np.ones((cols, 1))])
    a_eq = np.zeros((1, rows + 1))
    a_eq[0, :rows] = 1.0
    bounds = [(0.0, None)] * rows + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(cols), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"row LP failed: {res.message}")
    x = np.maximum(res.x[:rows], 0.0)
    x /= x.sum()
    value = -res.fun

    # Column player: minimize w s.t. M y <= w, y in simplex.
    c = np.zeros(cols + 1)
    c[-1] = 1.0
    a_ub = np.hstack([m, -np.ones((rows, 1))])
    a_eq = np.zeros((1, cols + 1))
    a_eq[0, :cols] = 1.0
    bounds = [(0.0, None)] * cols + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(rows), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"column LP failed: {res.message}")
    y = np.maximum(res.x[:cols], 0.0)
    y /= y.sum()
    if abs(res.x[-1] - value) > 1e-6:
        raise RuntimeError("LP duals disagree beyond tolerance")
    return MatrixSolution(row=x, col=y, value=float(value))


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
