"""Game registry: construct shipped games from CLI-style names."""

from __future__ import annotations

from .kuhn import Kuhn
from .leduc import Leduc
from .matrix import (ParallelStageGame, clone_gmp, gmp_matrix, kgmp,
                     perturbed_kgmp, rps_choice)
from .oshi_zumo import OshiZumo

__all__ = [
    "Kuhn", "Leduc", "OshiZumo", "ParallelStageGame", "clone_gmp",
    "gmp_matrix", "kgmp", "perturbed_kgmp", "rps_choice", "make_game",
    "GAME_PATTERNS", "ascii_float", "ascii_int",
]

# Base name -> (integer parameters, builder(seed, *parameters)).  Only
# the perturbed family draws from the seed.
_GAMES = {
    "kuhn": ((), lambda seed: Kuhn()),
    "leduc": ((), lambda seed: Leduc()),
    "clone_leduc": (("clones",), lambda seed, clones: Leduc(clones=clones)),
    "oshi_zumo": (("coins", "board", "horizon"),
                  lambda seed, *sizes: OshiZumo(*sizes)),
    "kgmp": (("k", "n"), lambda seed, *sizes: kgmp(*sizes)),
    "clone_gmp": (("k", "m", "n"), lambda seed, *sizes: clone_gmp(*sizes)),
    "perturbed_kgmp": (("k", "n"),
                       lambda seed, *sizes: perturbed_kgmp(*sizes, seed=seed)),
    "rps_choice": ((), lambda seed: rps_choice()),
}
GAME_PATTERNS = {base: params for base, (params, _) in _GAMES.items()}


def ascii_int(text: str) -> int:
    """``text`` as an int if it is how ``str`` writes that int, else
    ValueError.  ``int`` alone would also take "01", "+3", "-0", "1_0",
    surrounding spaces and other scripts' digits."""
    try:
        if str(value := int(text)) == text:
            return value
    except ValueError:
        pass
    raise ValueError(f"not an integer: {text!r}")


def ascii_float(text: str) -> float:
    """``text`` as a float if it is ASCII decimal or scientific notation,
    else ValueError; "inf", "nan" and values past the float range read
    as ``float`` reads them, for the caller's range check.  ``float``
    alone would also take "1_0", surrounding spaces and other scripts'
    digits."""
    if text.isascii() and "_" not in text and text == text.strip():
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"not a number: {text!r}")


def make_game(name: str, seed: int = 0):
    """Build a game from a name like ``kgmp_2_3`` or ``clone_leduc_2``.

    ``seed`` only matters for perturbed games.
    """
    parts = name.split("_")
    split = len(parts)
    while split > 0:
        base = "_".join(parts[:split])
        if base in _GAMES:
            break
        split -= 1
    else:
        raise ValueError(f"unknown game {name!r}")
    params, build = _GAMES[base]
    try:
        sizes = list(map(ascii_int, parts[split:]))
        if len(sizes) != len(params):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"game {base!r} takes parameters {params}, got {name!r}") from None
    return build(seed, *sizes)
