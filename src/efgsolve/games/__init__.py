"""Game registry: construct shipped games from CLI-style names."""

from __future__ import annotations

import re

from .kuhn import Kuhn
from .leduc import Leduc
from .matrix import (ParallelStageGame, clone_gmp, gmp_matrix, kgmp,
                     perturbed_kgmp, rps_choice)
from .oshi_zumo import OshiZumo

__all__ = [
    "Kuhn", "Leduc", "OshiZumo", "ParallelStageGame", "clone_gmp",
    "gmp_matrix", "kgmp", "perturbed_kgmp", "rps_choice", "make_game",
    "GAME_PATTERNS", "ascii_int",
]

# Name pattern -> required integer parameters.
GAME_PATTERNS = {
    "kuhn": (),
    "leduc": (),
    "clone_leduc": ("clones",),
    "oshi_zumo": ("coins", "board", "horizon"),
    "kgmp": ("k", "n"),
    "clone_gmp": ("k", "m", "n"),
    "perturbed_kgmp": ("k", "n"),
    "rps_choice": (),
}

_INT = re.compile(r"-?[0-9]+")


def ascii_int(text: str) -> int:
    """``text`` as an int if it is ASCII ``-?[0-9]+``, else ValueError.
    ``int`` alone would also take "1_0", "+3", surrounding spaces and
    other scripts' digits."""
    if not _INT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def make_game(name: str, seed: int | None = None):
    """Build a game from a name like ``kgmp_2_3`` or ``clone_leduc_2``.

    ``seed`` only matters for perturbed games and defaults to 0 there.
    """
    parts = name.split("_")
    split = len(parts)
    while split > 0:
        base = "_".join(parts[:split])
        if base in GAME_PATTERNS:
            break
        split -= 1
    else:
        raise ValueError(f"unknown game {name!r}")
    params = GAME_PATTERNS[base]
    try:
        vals = dict(zip(params, map(ascii_int, parts[split:]), strict=True))
    except ValueError:
        raise ValueError(
            f"game {base!r} takes parameters {params}, got {name!r}") from None
    if base == "kuhn":
        return Kuhn()
    if base == "leduc":
        return Leduc()
    if base == "clone_leduc":
        return Leduc(clones=vals["clones"])
    if base == "oshi_zumo":
        return OshiZumo(vals["coins"], vals["board"], vals["horizon"])
    if base == "kgmp":
        return kgmp(vals["k"], vals["n"])
    if base == "clone_gmp":
        return clone_gmp(vals["k"], vals["m"], vals["n"])
    if base == "perturbed_kgmp":
        return perturbed_kgmp(vals["k"], vals["n"],
                              seed=0 if seed is None else seed)
    return rps_choice()
