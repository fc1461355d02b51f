"""Exact evaluation: expected value, best response, exploitability.

All functions take a ``TreeIndex`` and flat or tabular policies.  An
expected value is one ``values`` pass.  A best response is one ``reach``
pass and one backward sweep, deepest level first (Johanson et al.,
IJCAI 2011), which relies on every infostate's decision nodes lying at
one depth (``TreeIndex`` checks this at build).  Before level k is
summed into its parents its values are final, so they value the columns
of the responder's infostates at depth k - 1; a segment max
(``np.maximum.reduceat`` over the infostates' column slices) gives each
infostate's best value, and the edges into level k then weigh 1 for the
picked columns and 0 for the rest.  Ties between equally good actions
are broken in order: a caller-preferred action set first (``prefer``, a
dict of key -> action ids or a bool column mask; used to keep responses
inside a restricted game's action set when possible; an infostate with
no preferred maximizer keeps all of them), then the lowest action id.
Passing a generator replaces the last rule with one uniform draw per
infostate that still has several maximizers, deepest level first and by
ascending infostate id within a level; only which maximizer gets
reported changes.  Infostates the opponent/chance never reach still get
an action, chosen by the same rules with all histories weighted
equally.  The response comes back as the responder's choice array (see
``TreeIndex``): one picked column per infostate, in ascending infostate
order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .policy import profile_array
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
    return float(tree.values(tree.in_prob * tree.edge_sigma(sigma))[0])


class BestResponse(NamedTuple):
    value: float
    choice: np.ndarray


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
    sigma = opponent if isinstance(opponent, np.ndarray) else profile_array(
        tree, *((opponent, None) if player else (None, opponent)))
    if counter is not None:
        counter.add(tree.n_nodes)
    pmask = None if prefer is None else _prefer_mask(tree, prefer)

    # The responder's edges weigh 1 until their level's picks are made.
    w = tree.in_prob * tree.edge_sigma(sigma)
    w[tree.in_player == player] = 1.0
    reach = tree.reach(w)  # chance-and-opponent reach
    q = np.zeros(tree.n_cols)
    q_unit = np.zeros(tree.n_cols)
    reached = np.zeros(tree.n_cols, dtype=bool)
    chosen = np.zeros(tree.n_cols)
    choice = np.empty(tree.infosets_of(player).size, dtype=np.int64)
    groups = tree.own_levels(player)
    v = tree.payoff1.copy()
    for k in range(len(tree.levels) - 1, 0, -1):
        g = groups.get(k - 1)
        if g is not None:
            # A column's value sums its histories weighted by their
            # reach, or unweighted where opponent and chance reach none
            # of the infostate's histories.
            kid_cols = tree.in_col[g.kids]
            par_reach = reach[tree.parent[g.kids]]
            vp = v[g.kids] if player == 0 else -v[g.kids]
            np.add.at(q, kid_cols, par_reach * vp)
            np.add.at(q_unit, kid_cols, vp)
            reached[kid_cols[par_reach > 0.0]] = True
            row = np.where(reached[g.cols], q[g.cols], q_unit[g.cols])
            pick = g.cols[_pick(row, g.starts, g.nact,
                                None if pmask is None else pmask[g.cols],
                                rng)]
            chosen[pick] = 1.0
            choice[g.slots] = pick
            w[g.kids] = chosen[kid_cols]
        sl = tree.levels[k]
        np.add.at(v, tree.parent[sl], w[sl] * v[sl])

    value = float(v[0]) if player == 0 else -float(v[0])
    return BestResponse(value=value, choice=choice)


def exploitability(tree: TreeIndex, pol0, pol1,
                   counter: NodeCounter | None = None) -> float:
    """Sum of both players' best-response gains; 0 exactly at a Nash
    equilibrium."""
    sigma = _as_sigma(tree, pol0, pol1)
    br0 = best_response(tree, sigma, 0, counter)
    br1 = best_response(tree, sigma, 1, counter)
    return br0.value + br1.value
