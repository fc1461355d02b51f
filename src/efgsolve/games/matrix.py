"""Stage-game collections played behind a selector node.

Covers generalized matching pennies (GMP) and friends: a selector
(uniform chance, or a public choice by player 0) picks one of k payoff
matrices, then both players move simultaneously in the chosen matrix
game.  Player 0's move is hidden from player 1 until the terminal.

GMP(n) pays player 0 ``n - 1`` on a match and ``-1`` otherwise, which
makes the uniform profile an exact equilibrium of value 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from ..game import CHANCE

_CHANCE_ROOT = "chance"
_CHOICE_ROOT = "p1_choice"


@dataclass(eq=False, slots=True)
class StageState:
    game: "ParallelStageGame"
    stage: int | None
    a1: int | None
    a2: int | None

    def is_terminal(self) -> bool:
        return self.a2 is not None

    def is_chance(self) -> bool:
        return self.stage is None and self.game.root_kind == _CHANCE_ROOT

    def current_player(self) -> int:
        if self.stage is None:
            return CHANCE if self.game.root_kind == _CHANCE_ROOT else 0
        return 0 if self.a1 is None else 1

    def chance_outcomes(self) -> tuple[tuple[int, float], ...]:
        k = len(self.game.matrices)
        return tuple((j, 1.0 / k) for j in range(k))

    def legal_actions(self) -> tuple[int, ...]:
        if self.stage is None:
            return tuple(range(len(self.game.matrices)))
        m = self.game.matrices[self.stage]
        n = m.shape[0] if self.a1 is None else m.shape[1]
        return tuple(range(n))

    def apply(self, action: int) -> "StageState":
        if self.stage is None:
            return StageState(self.game, action, None, None)
        if self.a1 is None:
            return StageState(self.game, self.stage, action, None)
        return StageState(self.game, self.stage, self.a1, action)

    def returns(self) -> tuple[float, float]:
        v = float(self.game.matrices[self.stage][self.a1, self.a2])
        return (v, -v)

    def infostate_key(self, player: int) -> tuple:
        toks = []
        if self.stage is not None:
            # A chance pick is observed as a raw token, a public choice
            # by player 0 as an action token.
            root_tok = (self.stage if self.game.root_kind == _CHANCE_ROOT
                        else 10 + self.stage)
            toks.append(root_tok)
        own = self.a1 if player == 0 else self.a2
        if own is not None:
            toks.append(10 + own)
        return (player, *toks)


class ParallelStageGame:
    def __init__(self, name: str, matrices, root_kind: str = _CHANCE_ROOT):
        self.name = name
        self.matrices = tuple(np.asarray(m, dtype=float) for m in matrices)
        self.root_kind = root_kind

    def root(self) -> StageState:
        return StageState(game=self, stage=None, a1=None, a2=None)


def gmp_matrix(n: int) -> np.ndarray:
    m = np.full((n, n), -1.0)
    np.fill_diagonal(m, n - 1.0)
    return m


def _check_sizes(name: str, **sizes: int) -> None:
    for what, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name}: {what} must be >= 1, got {size}")


def kgmp(k: int, n: int) -> ParallelStageGame:
    _check_sizes("kgmp", k=k, n=n)
    return ParallelStageGame(f"kgmp_{k}_{n}", [gmp_matrix(n)] * k)


def clone_gmp(k: int, m: int, n: int) -> ParallelStageGame:
    """GMP where each of the n actions appears as m payoff-identical
    clones; slots [c*m, (c+1)*m) form class c and classes must match."""
    _check_sizes("clone_gmp", k=k, m=m, n=n)
    cls = np.arange(m * n) // m
    mat = np.where(cls[:, None] == cls[None, :], n - 1.0, -1.0)
    return ParallelStageGame(f"clone_gmp_{k}_{m}_{n}", [mat] * k)


def perturbed_kgmp(k: int, n: int, seed: int = 0) -> ParallelStageGame:
    """k-GMP with a seeded uniform(-1, 1) bump on every matching entry,
    so each stage game has a distinct, non-uniform equilibrium."""
    _check_sizes("perturbed_kgmp", k=k, n=n)
    rng = default_rng(seed)
    mats = []
    for _ in range(k):
        m = gmp_matrix(n)
        m[np.diag_indices(n)] += rng.uniform(-1.0, 1.0, size=n)
        mats.append(m)
    return ParallelStageGame(f"perturbed_kgmp_{k}_{n}", mats)


_RPS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]


def rps_choice() -> ParallelStageGame:
    """Player 0 publicly picks one of two identical RPS games, then both
    play it.  (Rock, Paper) -> (-1, +1)."""
    return ParallelStageGame("rps_choice", [_RPS, _RPS],
                             root_kind=_CHOICE_ROOT)
