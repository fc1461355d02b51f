"""Exact evaluation: expected value, best response, exploitability.

All functions take a ``TreeIndex`` and a flat profile over its columns
(``sigma``, both players' rows side by side); dict-keyed policies are
flattened first with ``policy.profile_array``.  An expected value is
one ``values`` pass.  A best response is one ``reach`` pass and one
backward sweep, deepest level first (Johanson et al., IJCAI 2011),
which relies on every infostate's decision nodes lying at one depth
(``TreeIndex`` checks this at build).  Before level k is
summed into its parents its values are final, so they value the columns
of the responder's infostates at depth k - 1, summed with
``np.bincount`` into arrays the size of those columns through the
level plan ``TreeIndex.own_levels`` keeps (each edge's parent and its
position among the columns); a segment max
(``np.maximum.reduceat`` over the infostates' column slices) gives each
infostate's best value, and the edges into level k then weigh 1 for the
picked columns and 0 for the rest.  Ties between equally good actions
are broken in order: a caller-preferred action set first (``prefer``, a
bool column mask; used to keep responses inside a restricted game's
action set when possible; an infostate with no preferred maximizer
keeps all of them), then the lowest action id.
Passing a generator replaces the last rule with one uniform draw per
infostate that still has several maximizers, deepest level first and by
ascending infostate id within a level: ``rng.integers(k)`` picks one of
its ``k`` maximizers in action order, the same draw and generator state
as ``rng.choice`` over them at about a quarter of its cost.  Only which
maximizer gets reported changes.  Infostates the opponent/chance never reach still get
an action, chosen by the same rules with all histories weighted
equally.  The response comes back as the responder's choice array (see
``TreeIndex``): one picked column per infostate, in ascending infostate
order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# profile_array is not called here; the benchmark's tracer wraps it
# under this module's name.
from .policy import profile_array
from .tree import TreeIndex, NodeCounter


def expected_value(tree: TreeIndex, sigma: np.ndarray,
                   counter: NodeCounter | None = None) -> float:
    """Player 0's expected utility under the flat profile ``sigma``
    (player 1 gets the negation)."""
    if counter is not None:
        counter.add(tree.n_nodes)
    return float(tree.values(tree.in_prob * tree.edge_sigma(sigma))[0])


class BestResponse(NamedTuple):
    value: float
    choice: np.ndarray


def _pick(row: np.ndarray, starts: np.ndarray, nact: np.ndarray,
          preferred: np.ndarray | None, rng) -> np.ndarray:
    """Position of the chosen maximizer in each segment of ``row``."""
    best = np.maximum.reduceat(row, starts).repeat(nact)
    if rng is None:
        cand = row == best
    else:
        # tolerate meta-solver noise so degenerate ties stay ties
        cand = row >= best - 1e-9
    if preferred is not None:
        inside = cand & preferred
        has = np.logical_or.reduceat(inside, starts)
        cand = np.where(has.repeat(nact), inside, cand)
    # first candidate of each segment, i.e. the lowest action slot
    pick = np.minimum.reduceat(
        np.where(cand, np.arange(row.size), row.size), starts)
    if rng is not None:
        n_cand = np.add.reduceat(cand.astype(np.int64), starts)
        for seg in np.flatnonzero(n_cand > 1).tolist():
            lo = int(starts[seg])
            slots = np.flatnonzero(cand[lo:lo + int(nact[seg])])
            pick[seg] = lo + slots[rng.integers(slots.size)]
    return pick


def best_response(tree: TreeIndex, sigma: np.ndarray, player: int,
                  counter: NodeCounter | None = None,
                  prefer: np.ndarray | None = None,
                  rng=None) -> BestResponse:
    """Exact pure best response for ``player`` against the other
    player's rows of the flat profile ``sigma`` (the responder's own
    rows are ignored).

    ``prefer`` is a bool mask over the tree's columns.  With ``rng``
    given, exact ties (after the ``prefer`` filter) are resolved by a
    uniform draw instead of the lowest action id.  The returned value is
    unaffected; only which maximizer is reported changes.
    """
    if counter is not None:
        counter.add(tree.n_nodes)

    # The responder's edges weigh 1 until their level's picks are made.
    groups = tree.own_levels(player)
    sig = np.concatenate((sigma, [1.0]))
    for g in groups.values():
        sig[g.cols] = 1.0
    w = tree.in_prob * sig.take(tree.in_col)
    reach = tree.reach(w)  # chance-and-opponent reach
    choice = np.empty(sum(g.slots.size for g in groups.values()),
                      dtype=np.int64)
    v = tree.payoff1.copy()
    parent = tree.parent
    for k in range(len(tree.levels) - 1, 0, -1):
        g = groups.get(k - 1)
        if g is not None:
            # A column's value sums its histories weighted by their
            # reach, or unweighted where opponent and chance reach none
            # of the infostate's histories.  Reach is never negative,
            # so a column's reach sums to more than 0 exactly when one
            # of its histories is reached.
            n = g.cols.size
            par_reach = reach.take(g.kid_par)
            vp = v.take(g.kids)
            if player == 1:
                vp = -vp
            row = np.bincount(g.kid_pos, par_reach * vp, n)
            reached = np.bincount(g.kid_pos, par_reach, n) > 0.0
            if not reached.all():
                row = np.where(reached, row,
                               np.bincount(g.kid_pos, vp, n))
            pick = _pick(row, g.starts, g.nact,
                         None if prefer is None else prefer[g.cols], rng)
            choice[g.slots] = g.cols[pick]
            # The picked columns weigh 1, the others 0.
            w[g.kids] = np.bincount(pick, minlength=n).take(g.kid_pos)
        sl = tree.levels[k]
        np.add.at(v, parent[sl], w[sl] * v[sl])

    value = float(v[0]) if player == 0 else -float(v[0])
    return BestResponse(value=value, choice=choice)


def exploitability(tree: TreeIndex, sigma: np.ndarray,
                   counter: NodeCounter | None = None) -> float:
    """Sum of both players' best-response gains against the flat profile
    ``sigma``; 0 exactly at a Nash equilibrium."""
    br0 = best_response(tree, sigma, 0, counter)
    br1 = best_response(tree, sigma, 1, counter)
    return br0.value + br1.value
