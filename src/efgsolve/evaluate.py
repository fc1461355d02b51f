"""Exact evaluation: expected value, best response, exploitability.

All functions take a ``TreeIndex`` and flat or tabular policies.  A best
response is built stage by stage over the responder's own decision
depth, deepest stage first.  One backward sweep per stage values every
column of the stage, and a segment max (``np.maximum.reduceat`` over the
infostates' column slices) gives each infostate's best value.  Ties
between equally good actions are then broken in order: a caller-preferred
action set first (``prefer``, a dict of key -> action ids or a bool
column mask; used to keep responses inside a restricted game's action
set when possible; an infostate with no preferred maximizer keeps all of
them), then the lowest action id.  Passing a generator replaces the last
rule with one uniform draw per infostate that still has several
maximizers, which matters only for which exact maximizer gets reported.
Infostates the opponent/chance never reach still get an action, chosen
by the same rules with all histories weighted equally, so returned
policies are total.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .policy import PurePolicy, profile_array
from .tree import TreeIndex, NodeCounter


def _as_sigma(tree, pol0, pol1=None):
    if isinstance(pol0, np.ndarray):
        return pol0
    return profile_array(tree, pol0, pol1)


def expected_value(tree: TreeIndex, pol0, pol1=None,
                   counter: NodeCounter | None = None) -> float:
    """Player 0's expected utility under the profile (player 1 gets the
    negation)."""
    sigma = _as_sigma(tree, pol0, pol1)
    if counter is not None:
        counter.add(tree.n_nodes)
    v = tree.payoff1.copy()
    for ids in reversed(tree.levels[1:]):
        w = tree.in_prob[ids].copy()
        dec = tree.in_col[ids] >= 0
        w[dec] *= sigma[tree.in_col[ids][dec]]
        np.add.at(v, tree.parent[ids], w * v[ids])
    return float(v[0])


class BestResponse(NamedTuple):
    value: float
    policy: PurePolicy


class _Edges(NamedTuple):
    """One depth level's incoming edges: node ids, their parents, the
    chance-and-opponent weight of each edge, and the positions and
    columns of the responder's own edges."""
    ids: np.ndarray
    parents: np.ndarray
    w: np.ndarray
    own: np.ndarray
    own_cols: np.ndarray


def _edges(tree: TreeIndex, sigma: np.ndarray, player: int) -> list:
    out = []
    for ids in tree.levels[1:]:
        w = tree.in_prob[ids].copy()
        cols = tree.in_col[ids]
        opp = tree.in_player[ids] == (1 - player)
        w[opp] *= sigma[cols[opp]]
        own = np.flatnonzero(tree.in_player[ids] == player)
        out.append(_Edges(ids, tree.parent[ids], w, own, cols[own]))
    return out


def _cf_reach(tree: TreeIndex, edges: list) -> np.ndarray:
    """Chance-and-opponent reach of every history (own actions free)."""
    reach = np.ones(tree.n_nodes)
    for e in edges:
        reach[e.ids] = reach[e.parents] * e.w
    return reach


def _sweep_values(tree: TreeIndex, edges: list, chosen: np.ndarray,
                  decided: np.ndarray) -> np.ndarray:
    """Backward pass for player-0 values where the responder's edges use
    one-hot ``chosen`` columns; edges out of undecided responder nodes
    contribute 0 (their values are never read above)."""
    own_w = np.where(decided, chosen, 0.0)
    v = tree.payoff1.copy()
    for e in reversed(edges):
        w = e.w.copy()
        w[e.own] *= own_w[e.own_cols]
        np.add.at(v, e.parents, w * v[e.ids])
    return v


def _prefer_mask(tree: TreeIndex, prefer) -> np.ndarray:
    """Bool column mask of a ``prefer`` argument: a mask passes through,
    a dict ``key -> allowed action ids`` marks those ids' columns."""
    if isinstance(prefer, np.ndarray):
        return prefer
    mask = np.zeros(tree.n_cols, dtype=bool)
    for key, allowed in prefer.items():
        isid = tree.key_to_isid.get(key)
        if isid is None:
            continue
        off = int(tree.is_off[isid])
        for slot, a in enumerate(tree.is_actions[isid]):
            mask[off + slot] = a in allowed
    return mask


def _stage_rows(tree: TreeIndex, v: np.ndarray, player: int,
                reach: np.ndarray, kids: np.ndarray, nodes: np.ndarray,
                isids: np.ndarray, nact: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """Responder's value of each stage column: summed over the
    infostate's histories weighted by their reach, or unweighted where
    the opponent and chance never reach the infostate."""
    vp = v if player == 0 else -v
    q = np.zeros(tree.n_cols)
    q_unit = np.zeros(tree.n_cols)
    kid_cols = tree.in_col[kids]
    np.add.at(q, kid_cols, reach[tree.parent[kids]] * vp[kids])
    np.add.at(q_unit, kid_cols, vp[kids])
    is_reach = np.zeros(tree.n_infosets)
    np.add.at(is_reach, tree.infoset[nodes], reach[nodes])
    return np.where(np.repeat(is_reach[isids] > 0.0, nact),
                    q[cols], q_unit[cols])


def _pick(row: np.ndarray, starts: np.ndarray, nact: np.ndarray,
          preferred: np.ndarray | None, rng) -> np.ndarray:
    """Position of the chosen maximizer in each segment of ``row``."""
    best = np.repeat(np.maximum.reduceat(row, starts), nact)
    if rng is None:
        cand = row == best
    else:
        # tolerate meta-solver noise so degenerate ties stay ties
        cand = row >= best - 1e-9
    if preferred is not None:
        inside = cand & preferred
        has = np.logical_or.reduceat(inside, starts)
        cand = np.where(np.repeat(has, nact), inside, cand)
    # first candidate of each segment, i.e. the lowest action slot
    pick = np.minimum.reduceat(
        np.where(cand, np.arange(row.size), row.size), starts)
    if rng is not None:
        n_cand = np.add.reduceat(cand.astype(np.int64), starts)
        for seg in np.flatnonzero(n_cand > 1).tolist():
            lo = int(starts[seg])
            slots = np.flatnonzero(cand[lo:lo + int(nact[seg])])
            pick[seg] = lo + rng.choice(slots)
    return pick


def best_response(tree: TreeIndex, opponent, player: int,
                  counter: NodeCounter | None = None,
                  prefer=None, rng=None) -> BestResponse:
    """Exact pure best response for ``player`` against the opponent side
    of a profile (``opponent`` may be a flat profile array or a policy
    for the other player).

    ``prefer`` is a dict ``infostate key -> action ids`` or a bool mask
    over the tree's columns.  With ``rng`` given, exact ties (after the
    ``prefer`` filter) are resolved by a uniform draw instead of the
    lowest action id.  The returned value is unaffected; only which
    maximizer is reported changes.
    """
    if isinstance(opponent, np.ndarray):
        sigma = opponent
    else:
        blank = PurePolicy(player)
        pair = (blank, opponent) if player == 0 else (opponent, blank)
        sigma = profile_array(tree, *pair)
    if counter is not None:
        counter.add(tree.n_nodes)
    pmask = None if prefer is None else _prefer_mask(tree, prefer)

    edges = _edges(tree, sigma, player)
    reach = _cf_reach(tree, edges)
    chosen = np.zeros(tree.n_cols)
    decided = np.zeros(tree.n_cols, dtype=bool)

    own_infosets = tree.infosets_of(player)
    own_depth = tree.is_own_depth[own_infosets]
    dec_nodes = np.flatnonzero(tree.decision_mask & (tree.player == player))
    dec_stage = tree.is_own_depth[tree.infoset[dec_nodes]]
    own_kids = np.flatnonzero(tree.in_player == player)
    kid_stage = tree.is_own_depth[tree.infoset[tree.parent[own_kids]]]

    picked_isids, picked_cols = [], []
    for stage in sorted(set(own_depth.tolist()), reverse=True):
        # The stage's infostates in id order; their column slices laid
        # end to end form segments starting at ``starts``.
        isids = own_infosets[own_depth == stage]
        nact = tree.is_nact[isids]
        starts = np.zeros(isids.size, dtype=np.int64)
        np.cumsum(nact[:-1], out=starts[1:])
        cols = (np.repeat(tree.is_off[isids] - starts, nact)
                + np.arange(int(starts[-1] + nact[-1])))
        row = _stage_rows(tree, _sweep_values(tree, edges, chosen, decided),
                          player, reach, own_kids[kid_stage == stage],
                          dec_nodes[dec_stage == stage], isids, nact, cols)
        pick = cols[_pick(row, starts, nact,
                          None if pmask is None else pmask[cols], rng)]
        chosen[pick] = 1.0
        decided[cols] = True
        picked_isids.append(isids)
        picked_cols.append(pick)

    actions = PurePolicy(player)
    if picked_isids:
        isids = np.concatenate(picked_isids).tolist()
        actions.actions = dict(zip(
            map(tree.keys.__getitem__, isids),
            tree.col_action[np.concatenate(picked_cols)].tolist()))
    v = _sweep_values(tree, edges, chosen, decided)
    value = float(v[0]) if player == 0 else -float(v[0])
    return BestResponse(value=value, policy=actions)


def exploitability(tree: TreeIndex, pol0, pol1,
                   counter: NodeCounter | None = None) -> float:
    """Sum of both players' best-response gains; 0 exactly at a Nash
    equilibrium."""
    sigma = _as_sigma(tree, pol0, pol1)
    br0 = best_response(tree, sigma, 0, counter)
    br1 = best_response(tree, sigma, 1, counter)
    return br0.value + br1.value
