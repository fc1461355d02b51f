"""Leduc poker and its m-clone variant.

Six cards (two suits of J/Q/K), one ante each, two betting rounds with a
fixed raise of 2 then 4 and at most two raises per round.  A public card
is dealt between rounds; pairing it wins the showdown, otherwise higher
rank wins and equal ranks split.

Base actions are ordered [call/check, raise, fold]; fold is only legal
against an outstanding raise.  With ``clones=m`` every legal base action
appears as m observationally distinct copies with identical effect,
ordered base-major: slots [b*m, (b+1)*m) are the clones of base b.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..game import CHANCE

CALL = 0
RAISE = 1
FOLD = 2

_RAISE_SIZE = (2, 4)
_MAX_RAISES = 2
_NUM_CARDS = 6

_DEALS = tuple(
    (a, b) for a in range(_NUM_CARDS) for b in range(_NUM_CARDS) if a != b
)
# The cards left in the deck after each private deal, in card order.
_REMAINING = {d: tuple(c for c in range(_NUM_CARDS) if c not in d)
              for d in _DEALS}

# Stages: private deal, round-1 betting, public deal, round-2 betting.
_DEAL, _BET1, _PUBLIC, _BET2, _DONE = range(5)


def _rank(card: int) -> int:
    return card >> 1


@dataclass(eq=False, slots=True)
class LeducState:
    clones: int
    stage: int
    cards: tuple | None
    public: int | None
    to_act: int
    acted: int
    raises: int
    contrib: tuple
    folded: int | None
    obs: tuple

    def is_terminal(self) -> bool:
        return self.stage == _DONE

    def is_chance(self) -> bool:
        return self.stage in (_DEAL, _PUBLIC)

    def current_player(self) -> int:
        if self.is_chance():
            return CHANCE
        return self.to_act

    def _outstanding(self) -> int:
        return self.contrib[1 - self.to_act] - self.contrib[self.to_act]

    def _base_actions(self, owed: int) -> tuple[int, ...]:
        if owed == 0:
            return (CALL, RAISE)
        if self.raises < _MAX_RAISES:
            return (CALL, RAISE, FOLD)
        return (CALL, FOLD)

    def legal_actions(self) -> tuple[int, ...]:
        owed = self._outstanding()
        return tuple(range(len(self._base_actions(owed)) * self.clones))

    def chance_outcomes(self) -> tuple[tuple[int, float], ...]:
        if self.stage == _DEAL:
            p = 1.0 / len(_DEALS)
            return tuple((i, p) for i in range(len(_DEALS)))
        rem = _REMAINING[self.cards]
        return tuple((i, 1.0 / len(rem)) for i in range(len(rem)))

    def apply(self, action: int) -> "LeducState":
        stage = self.stage
        obs0, obs1 = self.obs
        if stage == _DEAL:
            c = _DEALS[action]
            return LeducState(self.clones, _BET1, c, self.public, self.to_act,
                              self.acted, self.raises, self.contrib,
                              self.folded, (obs0 + (c[0],), obs1 + (c[1],)))
        if stage == _PUBLIC:
            card = _REMAINING[self.cards][action]
            tok = (100 + card,)
            return LeducState(self.clones, _BET2, self.cards, card, 0, 0, 0,
                              self.contrib, self.folded,
                              (obs0 + tok, obs1 + tok))

        # The acting player puts in what they owe, plus the raise size
        # when raising.
        p = self.to_act
        c0, c1 = self.contrib
        put = c1 - c0 if p == 0 else c0 - c1
        base = self._base_actions(put)[action // self.clones]
        tok = (10 + action,)
        obs = (obs0 + tok, obs1 + tok)
        if base == FOLD:
            return LeducState(self.clones, _DONE, self.cards, self.public, p,
                              self.acted, self.raises, self.contrib, p, obs)
        raises = self.raises
        if base == RAISE:
            put += _RAISE_SIZE[0] if stage == _BET1 else _RAISE_SIZE[1]
            raises += 1
        contrib = (c0 + put, c1) if p == 0 else (c0, c1 + put)
        if base == CALL and self.acted >= 1:
            # Check-check or a call closes the round.
            return LeducState(self.clones,
                              _PUBLIC if stage == _BET1 else _DONE,
                              self.cards, self.public, p, self.acted,
                              self.raises, contrib, self.folded, obs)
        return LeducState(self.clones, stage, self.cards, self.public, 1 - p,
                          self.acted + 1, raises, contrib, self.folded, obs)

    def returns(self) -> tuple[float, float]:
        if self.folded is not None:
            v = float(self.contrib[self.folded])
            v = -v if self.folded == 0 else v
            return (v, -v)
        r1, r2 = _rank(self.cards[0]), _rank(self.cards[1])
        rp = _rank(self.public)
        if r1 == rp:
            sign = 1.0
        elif r2 == rp:
            sign = -1.0
        elif r1 != r2:
            sign = 1.0 if r1 > r2 else -1.0
        else:
            sign = 0.0
        v = sign * self.contrib[0]
        return (v, -v)

    def infostate_key(self, player: int) -> tuple:
        return (player,) + self.obs[player]


class Leduc:
    def __init__(self, clones: int = 1):
        if clones < 1:
            raise ValueError("clones must be >= 1")
        self.clones = clones
        self.name = "leduc" if clones == 1 else f"clone_leduc_{clones}"

    def root(self) -> LeducState:
        return LeducState(clones=self.clones, stage=_DEAL, cards=None,
                          public=None, to_act=0, acted=0, raises=0,
                          contrib=(1, 1), folded=None, obs=((), ()))
