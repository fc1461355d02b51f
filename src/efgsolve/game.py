"""Two-player zero-sum extensive-form game interface.

Conventions shared by every game in this package:

- Decision players are ``0`` and ``1``; ``CHANCE`` (``-1``) marks chance
  nodes.  Terminal states have no acting player.
- ``apply`` returns a new state and never mutates the one it is called
  on.  The shipped states are plain slotted dataclasses, not frozen
  ones, because a frozen ``__init__`` or ``dataclasses.replace`` costs
  several times a positional constructor call on every edge of the
  walk; ``tests/test_game_core.py`` checks the contract instead.
- An action is a small integer indexing the ordered legal-action list of
  the current node.  All histories in one infostate expose the same
  legal list, so action ids are meaningful per infostate.
- ``infostate_key(player)`` returns a tuple ``(player, tok, tok, ...)``
  of small integer tokens, one appended per observation or own action in
  the order they occurred.  Keys therefore extend monotonically along a
  play line (perfect recall) and are hashable dict keys.
- Utilities are zero-sum: ``returns()[0] + returns()[1] == 0``.

Simultaneous-move games are modeled sequentially: player 0 commits an
action that is hidden from player 1 until the joint move resolves.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

CHANCE = -1


@runtime_checkable
class State(Protocol):
    """One history (node) of an extensive-form game."""

    def is_terminal(self) -> bool: ...

    def is_chance(self) -> bool: ...

    def current_player(self) -> int:
        """Acting player at a decision node, or CHANCE at a chance node."""
        ...

    def legal_actions(self) -> tuple[int, ...]:
        """Ordered, nonempty action ids available at a decision node."""
        ...

    def chance_outcomes(self) -> tuple[tuple[int, float], ...]:
        """(action, probability) pairs at a chance node; probabilities sum to 1."""
        ...

    def apply(self, action: int):
        """Child state reached by taking ``action``; does not mutate self."""
        ...

    def returns(self) -> tuple[float, float]:
        """Terminal utilities for players 0 and 1."""
        ...

    def infostate_key(self, player: int) -> tuple:
        """Observation/action sequence of ``player`` at this node."""
        ...


@runtime_checkable
class Game(Protocol):
    """Factory for the root state plus a stable name for reporting."""

    name: str

    def root(self) -> State: ...
