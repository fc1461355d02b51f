"""Kuhn poker: 3 cards, one ante, one bet of 1, pass/bet tree."""

from __future__ import annotations

from dataclasses import dataclass

from ..game import CHANCE

PASS = 0
BET = 1

# Ordered deals (card1, card2), cards J=0 Q=1 K=2.
_DEALS = tuple((a, b) for a in range(3) for b in range(3) if a != b)

# Betting lines that end the hand.  Showdown pot is 1 per player plus 1
# more each if a bet was called.
_TERMINAL = {
    (PASS, PASS): ("showdown", 1),
    (BET, PASS): ("fold2", 1),
    (BET, BET): ("showdown", 2),
    (PASS, BET, PASS): ("fold1", 1),
    (PASS, BET, BET): ("showdown", 2),
}


@dataclass(eq=False, slots=True)
class KuhnState:
    cards: tuple | None
    seq: tuple

    def is_chance(self) -> bool:
        return self.cards is None

    def is_terminal(self) -> bool:
        return self.seq in _TERMINAL

    def current_player(self) -> int:
        if self.cards is None:
            return CHANCE
        return len(self.seq) % 2

    def legal_actions(self) -> tuple[int, ...]:
        return (PASS, BET)

    def chance_outcomes(self) -> tuple[tuple[int, float], ...]:
        return tuple((i, 1.0 / 6.0) for i in range(6))

    def apply(self, action: int) -> "KuhnState":
        if self.cards is None:
            return KuhnState(_DEALS[action], ())
        return KuhnState(self.cards, self.seq + (action,))

    def returns(self) -> tuple[float, float]:
        kind, amount = _TERMINAL[self.seq]
        if kind == "fold2":
            v = 1.0
        elif kind == "fold1":
            v = -1.0
        else:
            c1, c2 = self.cards
            v = float(amount) if c1 > c2 else -float(amount)
        return (v, -v)

    def infostate_key(self, player: int) -> tuple:
        card = () if self.cards is None else (self.cards[player],)
        return (player,) + card + tuple(10 + a for a in self.seq)


class Kuhn:
    name = "kuhn"

    def root(self) -> KuhnState:
        return KuhnState(cards=None, seq=())
