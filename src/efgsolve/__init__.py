"""Tabular solvers and benchmarks for two-player zero-sum
extensive-form games."""

__version__ = "0.1.0"

from .game import CHANCE, DEFAULT_ACTION, PLAYER1, PLAYER2
from .tree import NodeCounter, TreeIndex
from .policy import (TabularPolicy, lift_policy, profile_array,
                     policy_from_flat, random_pure_policy, realize_mixture,
                     uniform_policy)
from .evaluate import (BestResponse, best_response, exploitability,
                       expected_value)
from .games import make_game

__all__ = [
    "CHANCE", "DEFAULT_ACTION", "PLAYER1", "PLAYER2",
    "NodeCounter", "TreeIndex",
    "TabularPolicy", "lift_policy", "profile_array",
    "policy_from_flat", "random_pure_policy", "realize_mixture",
    "uniform_policy",
    "BestResponse", "best_response", "exploitability", "expected_value",
    "make_game",
]
