"""Strategies as arrays over a ``TreeIndex``, and dict-keyed policies
at the API edge.

Inside the package a behavioral profile is one float array over the
tree's columns, and a pure strategy is a *choice array*: the column
each of the player's infostates plays, in ascending infostate order
(see ``TreeIndex``).  ``TabularPolicy`` (key -> probability row over the
infostate's ordered legal actions) and ``PurePolicy`` (key -> action
id) are for callers who want dict rows: ``profile_array`` and
``canonical_pure`` flatten them, and ``policy_from_flat`` makes rows
of a flat profile, such as a solver's result, on request.  Any key a
dict policy does not mention resolves to the first legal action (the
package-wide default rule), so every policy is total over any game it
is used on.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .tree import TreeIndex


class TabularPolicy:
    __slots__ = ("player", "table")

    def __init__(self, player: int, table: dict | None = None):
        self.player = player
        self.table = {} if table is None else table

    def row(self, key):
        return self.table.get(key)


class PurePolicy:
    __slots__ = ("player", "actions")

    def __init__(self, player: int, actions: dict | None = None):
        self.player = player
        self.actions = {} if actions is None else actions

    def act(self, key, legal=None) -> int:
        a = self.actions.get(key)
        if a is None:
            return legal[0] if legal is not None else 0
        return a


def random_pure_policy(tree: TreeIndex, player: int, rng) -> np.ndarray:
    """Choice array with one uniform draw per infostate, in infostate
    order."""
    isids = tree.infosets_of(player)
    return tree.is_off[isids] + rng.integers(tree.is_nact[isids])


def canonical_pure(tree: TreeIndex, policy: PurePolicy) -> np.ndarray:
    """Choice array of a dict-keyed pure policy."""
    isids = tree.infosets_of(policy.player)
    return np.fromiter(
        (tree.is_off[isid] + tree.is_actions[isid].index(
            policy.act(tree.keys[isid], tree.is_actions[isid]))
         for isid in isids.tolist()), dtype=np.int64, count=isids.size)


def _fill_cols(tree: TreeIndex, sigma: np.ndarray, policy, player: int):
    if policy is None:
        return
    if isinstance(policy, PurePolicy):
        sigma[canonical_pure(tree, policy)] = 1.0
        return
    for isid in tree.infosets_of(player):
        row = policy.row(tree.keys[isid])
        sl = tree.col_slice(isid)
        if row is None:
            sigma[sl.start] = 1.0
        else:
            sigma[sl] = row


def sample_index(probs, r: float) -> int:
    """Inverse-CDF pick for a uniform draw ``r`` in [0, 1): the first
    ``i`` with ``r < probs[0] + ... + probs[i]`` (added in order), else
    the last index, so a draw past every prefix sum takes the last."""
    return bisect_right(list(accumulate(probs[:-1])), r)


def profile_array(tree: TreeIndex, pol0, pol1) -> np.ndarray:
    """Flatten a policy pair into the tree's column space; a ``None``
    side leaves that player's columns at 0."""
    sigma = np.zeros(tree.n_cols)
    _fill_cols(tree, sigma, pol0, 0)
    _fill_cols(tree, sigma, pol1, 1)
    return sigma


def pure_profile(tree: TreeIndex, choice0, choice1) -> np.ndarray:
    """Flat profile of two choice arrays: 1 on every chosen column."""
    sigma = np.zeros(tree.n_cols)
    sigma[choice0] = 1.0
    sigma[choice1] = 1.0
    return sigma


def policy_from_flat(tree: TreeIndex, sigma: np.ndarray,
                     player: int) -> TabularPolicy:
    pol = TabularPolicy(player)
    for isid in tree.infosets_of(player):
        pol.table[tree.keys[isid]] = sigma[tree.col_slice(isid)].copy()
    return pol


def own_reachable(tree: TreeIndex, choices: np.ndarray,
                  player: int) -> np.ndarray:
    """Bool array shaped like ``choices`` (one choice array, or one per
    row): whether the strategy's own earlier choices lead to each of
    the player's infostates."""
    alive = np.ones(choices.shape, dtype=bool)
    for g in tree.own_levels(player).values():
        if not g.linked.size:  # no own parent here: all stay alive
            continue
        alive[..., g.linked] = (alive[..., g.parent_slots]
                                & (choices[..., g.parent_slots]
                                   == g.parent_cols))
    return alive


def realize_mixture(tree: TreeIndex, choices, weights,
                    player: int) -> np.ndarray:
    """The player's half of a flat profile that is realization-
    equivalent to a mixture of pure strategies (rows of ``choices``);
    the other player's columns are 0, so two halves add up to a profile.

    At each infostate the members still consistent with the player's
    own earlier choices split the mass by their weights; a member
    choosing a column adds its weight there, in member order.
    Infostates carrying no surviving weight are unconstrained by
    realization equivalence and get a uniform row.
    """
    choices = np.asarray(choices, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(choices),):
        raise ValueError("need exactly one weight per pure strategy")
    plan = tree.own_columns(player)
    choices = choices.reshape(len(choices), plan.isids.size)
    live = own_reachable(tree, choices, player) & (weights > 0.0)[:, None]
    half = np.zeros(tree.n_cols)
    np.add.at(half, choices[live],
              np.broadcast_to(weights[:, None], choices.shape)[live])
    total = np.empty(plan.isids.size)
    for slots, cols in plan.blocks:
        # Rows of one length laid out as a 2-D block sum exactly as each
        # row's own ``sum()`` does.
        total[slots] = half[cols].sum(axis=1)
    mask, nact = plan.mask, plan.nact
    half[mask] = np.divide(half[mask], np.repeat(total, nact),
                           out=plan.uniform.copy(),
                           where=np.repeat(total > 0.0, nact))
    return half


def lift_policy(sub: TreeIndex, base: TreeIndex, policy):
    """Re-index a policy built on a restricted tree onto the base tree.

    Each row scatters into the base row at the base columns behind its
    own (``sub.base_col``, see ``TreeIndex.restrict``).
    """
    out = TabularPolicy(policy.player)
    for isid in sub.infosets_of(policy.player):
        key = sub.keys[isid]
        row = policy.row(key)
        if row is not None:
            base_isid = base.key_to_isid[key]
            out.table[key] = lifted = np.zeros(int(base.is_nact[base_isid]))
            lifted[sub.base_col[sub.col_slice(isid)]
                   - base.is_off[base_isid]] = row
    return out
