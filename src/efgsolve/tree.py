"""Flat array index over a game tree, plus node-visit accounting.

Every solver and evaluator in this package works on a ``TreeIndex``: a
one-time depth-first enumeration of all histories into numpy arrays,
numbered level by level, so each depth level is one contiguous slice of
node ids and a full-width pass is one vectorized step per level.  The
index holds the general sweeps: ``reach``, the forward product of edge
weights from the root, and ``values``, the backward sum of weighted
child values; both take one weight per node.  A caller's weights are
``in_prob`` times one gather of a flat profile onto the edges through
``in_col`` (``edge_sigma``); ``Cfr`` gathers from its own player-major
buffer.  The best response runs the only other sweep, level by level
through the plans of ``own_levels``.  ``last_cols`` tables each node's
last own column per player, from which ``Cfr`` reads each player's own
reach, the sequence-form LP each terminal's sequences, and
``is_parent_col`` each infostate's parent sequence.
The walk that builds it is the only walk of a game a run makes, so it
also enforces the run's cap on the number of histories: it raises
``EnumerationOverflow`` from inside the walk once it has indexed more
histories than the cap.  The cap bounds histories, not memory.  The
walk packs each history's row into bytes, at the index's own dtypes,
so it holds no Python object per history; of an infostate it keeps
only the key, the legal actions and the column offset, and every
other infostate array is derived from the node arrays.
``restrict`` derives the index of an action-restricted subgame, and
that subgame's ``RestrictedGame``, from the index alone.
``walk_table`` is the one plain Python form of the tree, for the walks
that visit one history at a time: MCCFR-ES and PSRO's sampled playouts.

Node accounting contract: one full-width pass over a tree (a solver
iteration, a best-response computation, a counted expected-value call)
costs one visit per history swept; sampled traversals cost one visit
per history actually touched.  A sequence-form LP solve costs one
visit per history of its tree, for the pass that builds its payoff
triplets; HiGHS's own work is not metered.  Enumerating the tree itself
is free: budgets meter solving and the best-response checks decisions
rest on, not indexing.  Reporting-only evaluations pass ``counter=None`` and
cost nothing.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import accumulate, chain
from struct import Struct
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .game import CHANCE

DECISION = 0
CHANCE_NODE = 1
TERMINAL = 2


class EnumerationOverflow(RuntimeError):
    """More histories than an enumeration cap allows."""


class NodeCounter:
    """Visit counter shared across a run, with an optional budget and an
    optional ``perf_counter`` deadline; solvers that poll ``exhausted``
    honor both."""

    __slots__ = ("count", "budget", "deadline")

    def __init__(self, budget: int | None = None,
                 deadline: float | None = None):
        self.count = 0
        self.budget = budget
        self.deadline = deadline

    def add(self, n: int) -> None:
        self.count += int(n)

    @property
    def exhausted(self) -> bool:
        if self.budget is not None and self.count >= self.budget:
            return True
        return self.deadline is not None and perf_counter() >= self.deadline


# Node arrays of a TreeIndex with their dtypes, in the order of a
# walked node's row, which starts with its own rank and its parent's
# rank in the walk.  ``depth`` comes from the level a row was written
# to.  The walk packs each row with ``_NODE_ROW``, each value at its
# own array's type and width, and reads the rows back through the
# packed dtype ``_NODE_RECORD``.
_ROW_ARRAYS = (("preorder", np.int64), ("parent", np.int64),
               ("kind", np.int8), ("player", np.int8),
               ("infoset", np.int64), ("payoff1", np.float64),
               ("in_prob", np.float64), ("in_col", np.int64),
               ("in_player", np.int8))
_NODE_ARRAYS = _ROW_ARRAYS + (("depth", np.int64),)

# struct codes of the row dtypes, spelt out: numpy's ``dtype.char`` for
# int64 is 'l', which packs 4 bytes under '<'.
_STRUCT_CODES = {np.int64: "q", np.int8: "b", np.float64: "d"}


_NODE_ROW = Struct("<" + "".join(_STRUCT_CODES[t] for _, t in _ROW_ARRAYS))
_NODE_RECORD = np.dtype([(name, np.dtype(t).newbyteorder("<"))
                         for name, t in _ROW_ARRAYS])


class OwnLevel(NamedTuple):
    """One player's infostates at one depth, in ascending id order: their
    slots in the player's choice arrays; the player's edges leaving
    their decision nodes (``kids``, a slice of ascending node ids), the
    parents of those edges and each edge's position in ``cols``
    (``kid_pos``); their action counts and their columns laid end to
    end (``cols``, segments starting at ``starts``); and for the slots
    ``linked`` to a parent infostate, the parent's slot and the parent
    column leading there."""
    slots: np.ndarray
    kids: np.ndarray
    kid_par: np.ndarray
    kid_pos: np.ndarray
    nact: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    linked: np.ndarray
    parent_slots: np.ndarray
    parent_cols: np.ndarray


class OwnColumns(NamedTuple):
    """One player's infostates (``isids``, ascending) and their
    columns: the infostates' action counts, the bool ``mask`` of the
    player's columns, the uniform row of every infostate laid end to
    end, and ``blocks``, one ``(slots, cols)`` pair per action count n:
    the slots of the infostates with n actions and their columns as a
    2-D index, one row per infostate."""
    isids: np.ndarray
    nact: np.ndarray
    mask: np.ndarray
    uniform: np.ndarray
    blocks: tuple


class RestrictedGame:
    """The game behind a restricted tree: a base game cut down to the
    allowed columns ``cols`` of its tree (``TreeIndex.restrict``)."""

    def __init__(self, base, cols: np.ndarray):
        self.base = base
        self.cols = cols
        self.name = base.name + "+restricted"


def _relabel(ids: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """``ids`` (values in ``range(n)`` or -1) renumbered by position in
    ``kept``; -1, and any value not kept, become -1."""
    new = np.full(n + 1, -1, dtype=np.int64)  # new[-1] maps -1 to -1
    new[kept] = np.arange(kept.size)
    return new[ids]


class TreeIndex:
    """Arrays describing one game's full tree.

    Node arrays (length ``n_nodes``), numbered level by level: the root
    is 0, each depth's nodes follow those of the depth above, and within
    a depth they keep the order of the depth-first walk.  ``levels``
    lists the depths as contiguous slices of node ids, and the children
    of a node are a contiguous id range (``children``), in action or
    outcome order.
      parent, depth, kind, player (acting player at decision nodes),
      infoset (decision nodes only), payoff1 (terminals), in_prob
      (chance probability of the incoming edge, 1.0 elsewhere), in_col
      (flat policy column of the incoming edge when the parent is a
      decision node, else -1), in_player (owner of that column),
      preorder (the node's rank in the depth-first walk).

    Infostate arrays (length ``n_infosets``), numbered by first visit in
    the walk, all but is_actions derived from the node arrays:
    is_player, is_actions (ordered action ids), is_nact, is_off (start
    of the infostate's contiguous column range), is_depth (the one
    depth of all its decision nodes; the build raises ``ValueError`` if
    they lie at several).

    A pure strategy is a *choice array*: the column each of the
    player's infostates plays, slot ``i`` for ``infosets_of(player)[i]``;
    ``own_levels`` groups the slots by depth, and ``own_columns`` keeps
    the slots' columns by action count.

    A policy profile is a single float array over ``n_cols`` columns;
    each infostate owns the slice ``is_off[s] : is_off[s] + is_nact[s]``.
    ``col_isid`` and ``col_action`` map a column back to its infostate
    and action id, ``uniform`` is the profile that plays every
    infostate's actions equally, and ``is_parent_col`` is each
    infostate's parent sequence, the column its player took last
    before it (-1 at the top; reading it raises ``ValueError`` on a
    game without perfect recall); these are built on first use, so
    indexing a tree costs only its enumeration.  ``edge_sigma`` gathers
    a profile onto the edges: ``in_prob`` is exactly 1.0 on decision
    edges, so ``in_prob * edge_sigma(sigma)`` weighs every edge by its
    chance or policy probability, and a mask over ``in_player`` picks
    one player's edges out of it.  An index derived by ``restrict``
    also holds ``base_col``, the column of the parent index behind each
    column.

    ``max_histories`` caps the walk: a game with more histories raises
    ``EnumerationOverflow`` from inside the walk, at the first
    non-terminal history past the cap (terminal children are counted
    with their parent's loop) or at the end.  None or a cap <= 0 means
    no cap.
    """

    def __init__(self, game, *, max_histories: int | None = None):
        self.game = game
        cap = max_histories if max_histories and max_histories > 0 \
            else sys.maxsize
        # The walk packs one _ROW_ARRAYS row per node onto the buffer
        # of its depth; of an infostate it keeps only the key, the
        # legal actions and the column offset.
        pack = _NODE_ROW.pack
        levels = [bytearray()]
        keys: list[tuple] = []
        is_actions: list[tuple] = []
        is_off: list[int] = []
        key_to_isid: dict[tuple, int] = {}
        find_isid = key_to_isid.get
        # Infostates with equal legal lists share one tuple.
        shared_actions = {}.setdefault
        ncols = 0
        n = 0  # nodes indexed so far: the next node's rank in the walk

        def visit(state, par, dep, iprob, icol, iply):
            # Index the non-terminal ``state`` and its subtree; terminal
            # children are indexed in the loops here, without a call.
            nonlocal n, ncols
            u = n
            if u >= cap:
                raise EnumerationOverflow(
                    f"{game.name} exceeds {cap} histories")
            n += 1
            here = levels[dep]
            dep += 1
            if dep == len(levels):
                levels.append(bytearray())
            kids = levels[dep]
            if state.is_chance():
                here += pack(u, par, CHANCE_NODE, CHANCE, -1, 0.0, iprob,
                             icol, iply)
                outcomes = state.chance_outcomes()
                total = sum(p for _, p in outcomes)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"chance outcomes sum to {total} in {game.name}")
                for a, p in outcomes:
                    child = state.apply(a)
                    if child.is_terminal():
                        kids += pack(n, u, TERMINAL, -1, -1,
                                     child.returns()[0], p, -1, -1)
                        n += 1
                    else:
                        visit(child, u, dep, p, -1, -1)
                return
            p = state.current_player()
            actions = tuple(state.legal_actions())
            if not actions:
                raise ValueError("decision node with no legal actions")
            key = state.infostate_key(p)
            isid = find_isid(key)
            if isid is None:
                isid = len(keys)
                key_to_isid[key] = isid
                keys.append(key)
                is_actions.append(shared_actions(actions, actions))
                is_off.append(ncols)
                ncols += len(actions)
            elif is_actions[isid] != actions:
                raise ValueError(
                    f"legal actions differ within infostate {key!r}")
            here += pack(u, par, DECISION, p, isid, 0.0, iprob, icol, iply)
            for col, a in enumerate(actions, is_off[isid]):
                child = state.apply(a)
                if child.is_terminal():
                    kids += pack(n, u, TERMINAL, -1, -1, child.returns()[0],
                                 1.0, col, p)
                    n += 1
                else:
                    visit(child, u, dep, 1.0, col, p)

        root = game.root()
        if root.is_terminal():
            levels[0] += pack(0, -1, TERMINAL, -1, -1, root.returns()[0],
                              1.0, -1, -1)
            n = 1
        else:
            visit(root, -1, 0, 1.0, -1, -1)
        if n > cap:
            raise EnumerationOverflow(f"{game.name} exceeds {cap} histories")
        # ``visit`` holds itself and the buffers through its closure.
        # Unbinding it frees the buffers once they are copied out below,
        # not at the next cyclic garbage collection, which can come after
        # the next build and so add this build's rows to that one's peak.
        del visit

        sizes = [len(b) // _NODE_ROW.size for b in levels]
        # One join, not a concatenation of per-level arrays: that would
        # add a fixed cost to every build, tiny trees included.
        table = np.frombuffer(b"".join(levels), dtype=_NODE_RECORD)
        del levels
        for name, dtype in _ROW_ARRAYS:
            setattr(self, name, table[name].astype(dtype))
        del table
        # The rows were laid out by depth, in walk order within a depth.
        self.depth = np.repeat(np.arange(len(sizes)), sizes)
        self.parent = _relabel(self.parent, self.preorder, n)
        self.keys = keys
        self.key_to_isid = key_to_isid
        self.is_actions = is_actions
        self._finish()

    def _finish(self) -> None:
        """Sizes, column ranges, child ranges, depth levels, kind masks
        and each infostate's player and depth, derived from the node
        arrays and ``is_actions``.  Nodes are sorted by depth and by
        parent, so each level and each node's children are a run of
        consecutive ids."""
        self.n_nodes = len(self.parent)
        self.n_infosets = len(self.keys)
        self.is_nact = np.fromiter(map(len, self.is_actions), dtype=np.int64,
                                   count=self.n_infosets)
        self.is_off = np.cumsum(self.is_nact) - self.is_nact
        self.n_cols = int(self.is_nact.sum())

        self.child_off = np.searchsorted(self.parent,
                                         np.arange(self.n_nodes + 1))
        bounds = np.searchsorted(
            self.depth, np.arange(int(self.depth[-1]) + 2)).tolist()
        self.levels = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

        self.decision_mask = self.kind == DECISION
        self.terminal_mask = self.kind == TERMINAL
        dec_is = self.infoset[self.decision_mask]
        dec_depth = self.depth[self.decision_mask]
        self.is_player = np.zeros(self.n_infosets, dtype=np.int8)
        self.is_player[dec_is] = self.player[self.decision_mask]
        self.is_depth = np.zeros(self.n_infosets, dtype=np.int64)
        self.is_depth[dec_is] = dec_depth
        split = dec_is[self.is_depth[dec_is] != dec_depth]
        if split.size:
            raise ValueError(f"infostate {self.keys[split[0]]!r} has decision"
                             " nodes at several depths")
        self._own_levels = {}
        self._own_columns = {}

    def restrict(self, cols: np.ndarray) -> TreeIndex:
        """Index of the subgame that allows only the columns in the bool
        mask ``cols``, derived from this index without walking its game.
        Its game is ``RestrictedGame(self.game, cols)``.

        It equals a walk of the perfect-recall game whose legal lists are
        the allowed actions in this tree's order: kept nodes keep this
        tree's order, and infostates are numbered by their first kept
        decision node in walk order.  ``base_col`` maps restricted
        columns to columns here; ``preorder`` keeps this tree's ranks.

        The kept nodes are found level by level, as the children of the
        kept nodes one level up that chance or an allowed column leads
        to, and the columns are read off the kept infostates' column
        ranges, so the cost follows the restricted tree, not this one.
        """
        allowed = np.append(cols, True)  # in_col -1: chance and the root
        child_off, in_col = self.child_off, self.in_col
        kept = [np.zeros(1, dtype=np.int64)]
        while kept[-1].size:
            up = kept[-1]
            first_kid = child_off[up]
            nkids = child_off[up + 1] - first_kid
            ends = nkids.cumsum()
            kids = (np.arange(ends[-1])
                    + np.repeat(first_kid - ends + nkids, nkids))
            kept.append(kids[allowed[in_col[kids]]])
        nodes = np.concatenate(kept)

        out = object.__new__(TreeIndex)
        out.game = RestrictedGame(self.game, cols)
        for name, _ in _NODE_ARRAYS:
            setattr(out, name, getattr(self, name)[nodes])
        # Kept nodes ascend and a kept node's parent is kept.
        out.parent = nodes.searchsorted(out.parent)
        out.parent[0] = -1
        # An infostate's decision nodes lie at one depth, so its first
        # kept node in walk order is its lowest kept id.
        dec = np.flatnonzero(out.kind == DECISION)
        dec_is = out.infoset[dec]
        first = np.full(self.n_infosets, nodes.size)
        np.minimum.at(first, dec_is, dec)
        base_is = np.flatnonzero(first < nodes.size)
        base_is = base_is[np.argsort(out.preorder[first[base_is]])]
        new_is = np.empty(self.n_infosets, dtype=np.int64)
        new_is[base_is] = np.arange(base_is.size)
        out.infoset[dec] = new_is[dec_is]

        # The kept infostates' base columns, row after row; ``before``
        # counts the allowed ones before each, so at an allowed column
        # it is the restricted column, and restricted row i spans
        # ``lo[i]:hi[i]``.
        off = self.is_off[base_is]
        nact = self.is_nact[base_is]
        starts = np.cumsum(nact) - nact
        row_cols = np.repeat(off - starts, nact) + np.arange(int(nact.sum()))
        keep = cols[row_cols]
        before = np.concatenate(([0], np.cumsum(keep)))
        lo, hi = before[starts], before[starts + nact]
        if not (hi > lo).all():
            raise ValueError("decision node with no legal actions")
        out.base_col = row_cols[keep]
        edges = np.flatnonzero(out.in_col >= 0)
        row = out.infoset[out.parent[edges]]
        out.in_col[edges] = before[starts[row] + out.in_col[edges] - off[row]]
        out.keys = [self.keys[b] for b in base_is.tolist()]
        out.key_to_isid = dict(zip(out.keys, range(base_is.size)))
        acts = self.col_action[out.base_col].tolist()
        out.is_actions = [tuple(acts[a:b])
                          for a, b in zip(lo.tolist(), hi.tolist())]
        out._finish()
        return out

    def edge_sigma(self, sigma: np.ndarray) -> np.ndarray:
        """``sigma`` on every node's incoming decision edge, and 1.0 on
        chance edges and at the root (``in_col`` -1)."""
        return np.concatenate((sigma, [1.0])).take(self.in_col)

    def reach(self, weights: np.ndarray) -> np.ndarray:
        """Forward pass: the product of the incoming edge ``weights``
        along the path from the root to every node (the root's reach is
        1 and its weight is never read)."""
        r = np.ones(self.n_nodes)
        parent = self.parent
        for sl in self.levels[1:]:
            np.multiply(r.take(parent[sl]), weights[sl], out=r[sl])
        return r

    def last_cols(self) -> np.ndarray:
        """Each node's last own column per player: row p holds the
        column of the last edge player p took on the path from the root
        to the node, the node's own incoming edge included, and -1 where
        p has taken none.  Built on each call, one level pass; callers
        build their gathers from it and drop it."""
        own = self.in_player == np.array([[0], [1]], dtype=np.int8)
        last = np.where(own, self.in_col, -1)
        inherit = ~own
        for sl in self.levels[1:]:
            np.copyto(last[:, sl], last.take(self.parent[sl], axis=1),
                      where=inherit[:, sl])
        return last

    def values(self, weights: np.ndarray) -> np.ndarray:
        """Backward pass, deepest level first: every node's player-0
        value, its terminal payoff or the ``weights``-weighted sum of
        its children's values."""
        v = self.payoff1.copy()
        for sl in reversed(self.levels[1:]):
            np.add.at(v, self.parent[sl], weights[sl] * v[sl])
        return v

    @cached_property
    def col_isid(self) -> np.ndarray:
        """Owning infostate of every column."""
        return np.repeat(np.arange(self.n_infosets, dtype=np.int32),
                         self.is_nact)

    @cached_property
    def col_action(self) -> np.ndarray:
        """Action id of every column."""
        return np.fromiter(chain.from_iterable(self.is_actions),
                           dtype=np.int32, count=self.n_cols)

    @cached_property
    def uniform(self) -> np.ndarray:
        """The uniform profile: every infostate's actions equally likely."""
        return np.repeat(1.0 / self.is_nact, self.is_nact)

    @cached_property
    def is_parent_col(self) -> np.ndarray:
        """Each infostate's parent sequence: the last column its player
        took before reaching it, -1 where they took none, read off
        ``last_cols`` at its decision nodes.  Raises ``ValueError`` if
        those disagree, which a game of perfect recall never does."""
        dec = np.flatnonzero(self.decision_mask)
        dec_is = self.infoset[dec]
        dec_col = self.last_cols()[self.player[dec], dec]
        col = np.empty(self.n_infosets, dtype=np.int64)
        col[dec_is] = dec_col
        split = dec_is[col[dec_is] != dec_col]
        if split.size:
            raise ValueError(f"infostate {self.keys[split[0]]!r} follows"
                             " several own sequences: no perfect recall")
        return col

    def children(self, u: int) -> np.ndarray:
        return np.arange(self.child_off[u], self.child_off[u + 1])

    def infosets_of(self, player: int) -> np.ndarray:
        return np.flatnonzero(self.is_player == player)

    def col_slice(self, isid: int) -> slice:
        off = int(self.is_off[isid])
        return slice(off, off + int(self.is_nact[isid]))

    def own_levels(self, player: int) -> dict[int, OwnLevel]:
        """The player's infostates grouped by depth, keyed by it in
        ascending order, so a parent's group comes before its
        children's.  Built once per tree and player; each group is the
        plan of one level of a best response, which sums its edges into
        the group's columns through ``kid_pos`` without touching the
        tree's other columns."""
        groups = self._own_levels.get(player)
        if groups is None:
            own = self.infosets_of(player)
            kids = np.flatnonzero(self.in_player == player)
            kid_at = np.searchsorted(kids, [sl.start for sl in self.levels]
                                     + [self.n_nodes]).tolist()
            depth = self.is_depth[own]
            # Each column's position within its level's ``cols``.
            col_pos = np.empty(self.n_cols, dtype=np.int64)
            groups = {}
            for d in np.flatnonzero(np.bincount(depth)).tolist():
                slots = np.flatnonzero(depth == d)
                isids = own[slots]
                nact = self.is_nact[isids]
                starts = np.cumsum(nact) - nact
                cols = (np.repeat(self.is_off[isids] - starts, nact)
                        + np.arange(int(nact.sum())))
                col_pos[cols] = np.arange(cols.size)
                lvl_kids = kids[kid_at[d + 1]:kid_at[d + 2]]
                par_col = self.is_parent_col[isids]
                linked = par_col >= 0
                par_col = par_col[linked]
                groups[d] = OwnLevel(
                    slots, lvl_kids, self.parent[lvl_kids],
                    col_pos[self.in_col[lvl_kids]], nact, cols, starts,
                    slots[linked],
                    np.searchsorted(own, self.col_isid[par_col]), par_col)
            self._own_levels[player] = groups
        return groups

    def own_columns(self, player: int) -> OwnColumns:
        """The player's infostates and columns, the constants of
        ``policy.realize_mixture`` and of XFP's mixing step.  Built once
        per tree and player."""
        plan = self._own_columns.get(player)
        if plan is None:
            isids = self.infosets_of(player)
            nact = self.is_nact[isids]
            blocks = []
            for n in np.flatnonzero(np.bincount(nact)).tolist():
                slots = np.flatnonzero(nact == n)
                blocks.append((slots, self.is_off[isids[slots], None]
                               + np.arange(n)))
            mask = self.is_player[self.col_isid] == player
            plan = self._own_columns[player] = OwnColumns(
                isids, nact, mask, self.uniform[mask], tuple(blocks))
        return plan


def walk_table(tree: TreeIndex):
    """The tree as nested plain Python data, for walks that visit one
    history at a time.  Returns the root's entry: a terminal is its
    player-0 payoff as a float; a chance node is ``(kids, prefix)``,
    its children's entries and ``policy.sample_index``'s prefix sums of
    their probabilities, so ``kids[bisect_right(prefix, r)]`` is the
    child a draw ``r`` picks; a decision node is ``(kids, player, lo,
    hi)``, child ``k`` behind column ``lo + k``.  Built bottom-up, as
    children have larger ids than their node; the decision nodes of one
    infostate share one ``(lo, hi)`` pair, which keeps the table small."""
    kind = tree.kind.tolist()
    nodes: list = [None] * tree.n_nodes
    bounds: dict = {}
    for u in range(tree.n_nodes - 1, -1, -1):
        if kind[u] == TERMINAL:
            nodes[u] = float(tree.payoff1[u])
            continue
        ids = tree.children(u).tolist()
        kids = tuple([nodes[c] for c in ids])
        if kind[u] == CHANCE_NODE:
            probs = tree.in_prob[ids].tolist()
            nodes[u] = (kids, list(accumulate(probs[:-1])))
        else:
            lo = int(tree.is_off[tree.infoset[u]])
            if lo not in bounds:
                bounds[lo] = (lo, lo + len(ids))
            nodes[u] = (kids, int(tree.player[u])) + bounds[lo]
    return nodes[0]
