"""Oshi-Zumo: simultaneous coin-bidding over a token on a small board.

Each round both players secretly bid between 0 and their remaining
coins (both bids are paid regardless of outcome), then the higher bid
pushes the token one space toward the opponent's edge; equal bids leave
it in place.  Bids are revealed once the round resolves.  The game ends
when the token leaves the board, when both players are out of coins, or
when the horizon is reached; the winner is the side the token ended up
past the middle of (off the board counting as that side), middle is a
draw.  Player 0 pushes toward higher positions.

Modeled sequentially: player 0 commits a hidden bid, then player 1 bids,
then the round resolves with no chance nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

# The legal bids of each coin count met so far, shared by every state
# holding that many coins; filled on first use, not at import.
_BIDS: dict[int, tuple[int, ...]] = {}


@dataclass(eq=False, slots=True)
class OshiZumoState:
    board: int
    horizon: int
    coins: tuple
    pos: int
    t: int
    pending: int | None
    obs: tuple

    def is_chance(self) -> bool:
        return False

    def chance_outcomes(self):
        raise ValueError("oshi_zumo has no chance nodes")

    def is_terminal(self) -> bool:
        if self.pending is not None:
            return False
        return (self.pos < 0 or self.pos >= self.board
                or self.t >= self.horizon or self.coins == (0, 0))

    def current_player(self) -> int:
        return 0 if self.pending is None else 1

    def legal_actions(self) -> tuple[int, ...]:
        # A bid of b is action id b.  Player 1 bids while player 0's bid
        # is pending.
        coins = self.coins[self.pending is not None]
        bids = _BIDS.get(coins)
        if bids is None:
            bids = _BIDS[coins] = tuple(range(coins + 1))
        return bids

    def apply(self, action: int) -> "OshiZumoState":
        obs0, obs1 = self.obs
        if self.pending is None:
            return OshiZumoState(self.board, self.horizon, self.coins,
                                 self.pos, self.t, action,
                                 (obs0 + (10 + action,), obs1))
        b1, b2 = self.pending, action
        pos = self.pos + (1 if b1 > b2 else -1 if b2 > b1 else 0)
        coins = (self.coins[0] - b1, self.coins[1] - b2)
        reveal = 200 + (b1 << 8) + b2
        obs = (obs0 + (reveal,), obs1 + (10 + action, reveal))
        return OshiZumoState(self.board, self.horizon, coins, pos, self.t + 1,
                             None, obs)

    def returns(self) -> tuple[float, float]:
        # Off the board counts as past that edge, so sign against the
        # middle decides every ending uniformly.
        mid = (self.board - 1) // 2
        v = float((self.pos > mid) - (self.pos < mid))
        return (v, -v)

    def infostate_key(self, player: int) -> tuple:
        return (player,) + self.obs[player]


class OshiZumo:
    def __init__(self, coins: int = 4, board: int = 3, horizon: int = 6):
        for what, size in (("coins", coins), ("board", board),
                           ("horizon", horizon)):
            if size < 1:
                raise ValueError(f"oshi_zumo: {what} must be >= 1, got {size}")
        if board % 2 == 0:
            raise ValueError("board size must be odd so the middle is a draw")
        self.coins = coins
        self.board = board
        self.horizon = horizon
        self.name = f"oshi_zumo_{coins}_{board}_{horizon}"

    def root(self) -> OshiZumoState:
        return OshiZumoState(board=self.board, horizon=self.horizon,
                             coins=(self.coins, self.coins),
                             pos=(self.board - 1) // 2, t=0, pending=None,
                             obs=((), ()))
