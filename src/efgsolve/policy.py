"""Behavioral and pure tabular policies over infostate keys.

A ``TabularPolicy`` row is a probability vector over the owning game's
ordered legal-action list at that infostate.  A ``PurePolicy`` maps keys
to single action ids.  Any key a policy does not mention resolves to the
first legal action (the package-wide default rule), so every policy is
total over any game it is used on.
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

    def set_row(self, key, probs) -> None:
        self.table[key] = np.asarray(probs, dtype=float)


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


def uniform_policy(tree: TreeIndex, player: int) -> TabularPolicy:
    pol = TabularPolicy(player)
    for isid in tree.infosets_of(player):
        n = int(tree.is_nact[isid])
        pol.table[tree.keys[isid]] = np.full(n, 1.0 / n)
    return pol


def default_pure_policy(player: int) -> PurePolicy:
    return PurePolicy(player)


def random_pure_policy(tree: TreeIndex, player: int, rng) -> PurePolicy:
    pol = PurePolicy(player)
    for isid in tree.infosets_of(player):
        acts = tree.is_actions[isid]
        pol.actions[tree.keys[isid]] = acts[int(rng.integers(len(acts)))]
    return pol


def extend_with_default(policy, tree: TreeIndex):
    """Copy with an explicit entry for every decision infostate in ``tree``."""
    if isinstance(policy, PurePolicy):
        out = PurePolicy(policy.player, dict(policy.actions))
        for isid in tree.infosets_of(policy.player):
            key = tree.keys[isid]
            if key not in out.actions:
                out.actions[key] = tree.is_actions[isid][0]
        return out
    out = TabularPolicy(policy.player, dict(policy.table))
    for isid in tree.infosets_of(policy.player):
        key = tree.keys[isid]
        if key not in out.table:
            row = np.zeros(int(tree.is_nact[isid]))
            row[0] = 1.0
            out.table[key] = row
    return out


def canonical_pure(tree: TreeIndex, policy: PurePolicy) -> tuple:
    """Hashable total form used for population deduplication."""
    return tuple(
        policy.act(tree.keys[isid], tree.is_actions[isid])
        for isid in tree.infosets_of(policy.player)
    )


def _fill_cols(tree: TreeIndex, sigma: np.ndarray, policy, player: int):
    pure = isinstance(policy, PurePolicy)
    for isid in tree.infosets_of(player):
        key = tree.keys[isid]
        sl = tree.col_slice(isid)
        acts = tree.is_actions[isid]
        if pure:
            a = policy.act(key, acts)
            sigma[sl.start + acts.index(a)] = 1.0
        else:
            row = policy.row(key)
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
    """Flatten a policy pair into the tree's column space."""
    sigma = np.zeros(tree.n_cols)
    _fill_cols(tree, sigma, pol0, 0)
    _fill_cols(tree, sigma, pol1, 1)
    return sigma


def policy_from_flat(tree: TreeIndex, sigma: np.ndarray,
                     player: int) -> TabularPolicy:
    pol = TabularPolicy(player)
    for isid in tree.infosets_of(player):
        pol.table[tree.keys[isid]] = sigma[tree.col_slice(isid)].copy()
    return pol


def realize_mixture(tree: TreeIndex, pures, weights,
                    player: int) -> TabularPolicy:
    """Behavioral policy realization-equivalent to a mixture of pure
    strategies.

    At each infostate the mixture members still consistent with the
    player's own action history split the mass by their weights; a
    member choosing action a contributes its (surviving) weight to a.
    Infostates carrying no surviving weight are unconstrained by
    realization equivalence and get a uniform row.
    """
    pures = list(pures)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(pures),):
        raise ValueError("need exactly one weight per pure strategy")
    out = TabularPolicy(player)
    isids = tree.infosets_of(player)
    alive = np.zeros((tree.n_infosets, len(pures)))
    for isid in isids:
        p_isid = tree.is_parent[isid]
        if p_isid < 0:
            w = weights.copy()
        else:
            slot = int(tree.is_parent_slot[isid])
            pkey = tree.keys[p_isid]
            pacts = tree.is_actions[p_isid]
            taken = pacts[slot]
            w = alive[p_isid] * np.array(
                [1.0 if pi.act(pkey, pacts) == taken else 0.0
                 for pi in pures])
        alive[isid] = w
        acts = tree.is_actions[isid]
        row = np.zeros(len(acts))
        for k, pi in enumerate(pures):
            if w[k] > 0.0:
                row[acts.index(pi.act(tree.keys[isid], acts))] += w[k]
        total = row.sum()
        if total > 0.0:
            row /= total
        else:
            row[:] = 1.0 / len(acts)
        out.table[tree.keys[isid]] = row
    return out


def lift_policy(sub: TreeIndex, base: TreeIndex, policy):
    """Re-index a policy built on a restricted tree onto the base tree.

    Restricted legal lists are ordered subsets of base action ids, so
    rows scatter into the base row at the matching id positions.
    """
    player = policy.player
    if isinstance(policy, PurePolicy):
        return PurePolicy(player, dict(policy.actions))
    out = TabularPolicy(player)
    for isid in sub.infosets_of(player):
        key = sub.keys[isid]
        row = policy.row(key)
        if row is None:
            continue
        base_isid = base.key_to_isid[key]
        base_acts = base.is_actions[base_isid]
        lifted = np.zeros(len(base_acts))
        for pos, a in enumerate(sub.is_actions[isid]):
            lifted[base_acts.index(a)] = row[pos]
        out.table[key] = lifted
    return out
