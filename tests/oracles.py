"""Exact oracles and conversions used only by the tests.

Exhaustive game walks (state counts and own-action predecessors),
per-node recursions standing in for ``TreeIndex.reach`` and
``TreeIndex.values``, the level loop ``reach`` replaced, the covering
tally behind the double-oracle iteration bound, the enumeration of
reduced pure strategies, ``reference_tree``, the float64 ``array``
walk that ``TreeIndex`` must match array for array, helpers that turn
choice arrays (see ``TreeIndex``) into dict-keyed or tabular forms for
assertions, ``uniform_profile``, ``csv_rows``, ``tree_of``, the cached
trees the sweep tests share, and ``reference_solve_matrix_lp``, the
``linprog`` solve that ``solve_matrix_lp`` must match bit for bit.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from efgsolve import CHANCE, TreeIndex, make_game
from efgsolve.policy import (PurePolicy, canonical_pure, policy_from_flat,
                             random_pure_policy)
from efgsolve.psro import reduced_canonical
from efgsolve.solvers.matrix_solvers import MatrixSolution
from efgsolve.tree import (_INFOSTATE_ARRAYS, _ROW_ARRAYS, CHANCE_NODE,
                           DECISION, TERMINAL, _relabel)


@dataclass(frozen=True)
class StateCounts:
    histories: int
    terminals: int
    decision_infostates: tuple[int, int]
    all_infostates: tuple[int, int]


def count_states(game) -> StateCounts:
    """Exhaustive tally of histories and per-player infostates.

    ``all_infostates`` counts every distinct observation sequence a
    player holds anywhere in the tree (root, opponent moves, chance and
    terminals included), which is the count the double-oracle iteration
    bounds are stated against.
    """
    histories = terminals = 0
    decision: tuple[set, set] = (set(), set())
    every: tuple[set, set] = (set(), set())

    def visit(state):
        nonlocal histories, terminals
        histories += 1
        for p in (0, 1):
            every[p].add(state.infostate_key(p))
        if state.is_terminal():
            terminals += 1
            return
        if state.is_chance():
            for a, _ in state.chance_outcomes():
                visit(state.apply(a))
            return
        p = state.current_player()
        decision[p].add(state.infostate_key(p))
        for a in state.legal_actions():
            visit(state.apply(a))

    visit(game.root())
    return StateCounts(
        histories=histories,
        terminals=terminals,
        decision_infostates=(len(decision[0]), len(decision[1])),
        all_infostates=(len(every[0]), len(every[1])),
    )


def infostate_predecessors(game) -> tuple[dict, dict]:
    """Map every infostate key to (preceding decision key, action id).

    The preceding action of a key is the owner's most recent own action
    before that key first exists; keys reached before the owner ever
    acted map to ``None``.  Used for the covered-infostate tally.
    """
    preds: tuple[dict, dict] = ({}, {})

    def visit(state, last0, last1):
        for p, last in ((0, last0), (1, last1)):
            k = state.infostate_key(p)
            if k not in preds[p]:
                preds[p][k] = last
        if state.is_terminal():
            return
        if state.is_chance():
            for a, _ in state.chance_outcomes():
                visit(state.apply(a), last0, last1)
            return
        p = state.current_player()
        key = state.infostate_key(p)
        for a in state.legal_actions():
            nxt = (key, a)
            visit(state.apply(a),
                  nxt if p == 0 else last0,
                  nxt if p == 1 else last1)

    visit(game.root(), None, None)
    return preds


def reference_tree(game) -> TreeIndex:
    """``game``'s index as the walk ``TreeIndex`` replaced built it:
    each node's ``_ROW_ARRAYS`` row, ints included, goes into one
    float64 ``array`` per depth (every int in a row is below 2**53, so
    it is held exactly), each infostate's row into one int64 ``array``,
    and the columns are cut from the concatenated rows.  No cap and no
    checks of the game."""
    tree = TreeIndex.__new__(TreeIndex)
    tree.game = game
    levels = [array("d")]
    infos = array("q")
    keys, is_actions, is_off, key_to_isid = [], [], [], {}
    ncols = n = 0

    def visit(state, par, dep, iprob, icol, iply, last0, last1):
        nonlocal n, ncols
        u = n
        n += 1
        here = levels[dep]
        dep += 1
        if dep == len(levels):
            levels.append(array("d"))
        kids = levels[dep]
        if state.is_chance():
            here.extend((u, par, CHANCE_NODE, CHANCE, -1, 0.0,
                         iprob, icol, iply))
            for a, p in state.chance_outcomes():
                child = state.apply(a)
                if child.is_terminal():
                    kids.extend((n, u, TERMINAL, -1, -1,
                                 child.returns()[0], p, -1, -1))
                    n += 1
                else:
                    visit(child, u, dep, p, -1, -1, last0, last1)
            return
        p = state.current_player()
        actions = tuple(state.legal_actions())
        key = state.infostate_key(p)
        isid = key_to_isid.get(key)
        if isid is None:
            isid = key_to_isid[key] = len(keys)
            keys.append(key)
            is_actions.append(actions)
            is_off.append(ncols)
            ncols += len(actions)
            infos.append(p)
            infos.extend(last0 if p == 0 else last1)
        here.extend((u, par, DECISION, p, isid, 0.0, iprob, icol, iply))
        off = is_off[isid]
        for col, a in enumerate(actions, off):
            child = state.apply(a)
            if child.is_terminal():
                kids.extend((n, u, TERMINAL, -1, -1, child.returns()[0],
                             1.0, col, p))
                n += 1
            elif p == 0:
                visit(child, u, dep, 1.0, col, 0, (isid, col - off), last1)
            else:
                visit(child, u, dep, 1.0, col, 1, last0, (isid, col - off))

    root = game.root()
    if root.is_terminal():
        levels[0].extend((0, -1, TERMINAL, -1, -1, root.returns()[0],
                          1.0, -1, -1))
        n = 1
    else:
        visit(root, -1, 0, 1.0, -1, -1, (-1, -1), (-1, -1))
    sizes = [len(b) // len(_ROW_ARRAYS) for b in levels]
    for table, fields in (
            (np.concatenate([np.frombuffer(b) for b in levels]),
             _ROW_ARRAYS),
            (np.frombuffer(infos, dtype=np.int64), _INFOSTATE_ARRAYS)):
        table = table.reshape(-1, len(fields))
        for (name, dtype), column in zip(fields, table.T):
            setattr(tree, name, column.astype(dtype))
    tree.depth = np.repeat(np.arange(len(sizes)), sizes)
    tree.parent = _relabel(tree.parent, tree.preorder, n)
    tree.keys = keys
    tree.key_to_isid = key_to_isid
    tree.is_actions = is_actions
    tree._finish()
    return tree


@lru_cache(maxsize=None)
def tree_of(name):
    """The tree of a registry game, or for "leduc+restricted" a Leduc
    tree derived by ``restrict`` from three random pure strategies per
    player."""
    if name != "leduc+restricted":
        return TreeIndex(make_game(name))
    base = tree_of("leduc")
    rng = np.random.default_rng(3)
    mask = np.zeros(base.n_cols, dtype=bool)
    for p in (0, 1):
        for _ in range(3):
            mask[random_pure_policy(base, p, rng)] = True
    tree = base.restrict(mask)
    assert 0 < tree.n_nodes < base.n_nodes
    return tree


def enumerate_reduced_pure(tree, player: int) -> np.ndarray:
    """All reduced pure strategies, as rows of choice arrays: every
    assignment over the infostates the player can reach given their own
    earlier choices, with the first action everywhere else.  The
    brute-force reference for the sequence-form LP: its number of rows
    grows exponentially with the game."""
    own = tree.infosets_of(player)
    kids: dict[int, list[int]] = {}  # parent column (-1: none) -> slots
    for slot, (par, par_slot) in enumerate(zip(
            tree.is_parent[own].tolist(), tree.is_parent_slot[own].tolist())):
        col = -1 if par < 0 else int(tree.is_off[par]) + par_slot
        kids.setdefault(col, []).append(slot)

    def expand_set(slots) -> list[dict]:
        combos = [{}]
        for slot in slots:
            branch = expand_one(slot)
            combos = [{**c, **b} for c in combos for b in branch]
        return combos

    def expand_one(slot: int) -> list[dict]:
        isid = int(own[slot])
        off = int(tree.is_off[isid])
        out = []
        for col in range(off, off + int(tree.is_nact[isid])):
            for c in expand_set(kids.get(col, ())):
                d = dict(c)
                d[slot] = col
                out.append(d)
        return out

    combos = expand_set(kids.get(-1, ()))
    rows = np.tile(tree.is_off[own], (len(combos), 1))
    for row, d in zip(rows, combos):
        row[list(d)] = list(d.values())
    return rows


def reference_reach(tree, w: np.ndarray) -> np.ndarray:
    """Product of the incoming edge weights ``w`` (one per node, the
    root's unused) along each node's path from the root, node by node
    from the root down."""
    reach = np.empty(tree.n_nodes)

    def visit(u, r):
        reach[u] = r
        for c in tree.children(u).tolist():
            visit(c, r * w[c])

    visit(0, 1.0)
    return reach


def reference_values(tree, w: np.ndarray) -> np.ndarray:
    """Each node's player-0 value: its terminal payoff, else the sum over
    its children, in order, of the incoming edge weight ``w`` times the
    child's value."""
    values = np.empty(tree.n_nodes)

    def visit(u):
        total = tree.payoff1[u]
        for c in tree.children(u).tolist():
            total += w[c] * visit(c)
        values[u] = total
        return total

    visit(0)
    return values


def loop_reach(tree, weights: np.ndarray) -> np.ndarray:
    """``TreeIndex.reach`` before it wrote each level through ``take``
    into a view of its output, kept as a reference."""
    r = np.ones(tree.n_nodes)
    for sl in tree.levels[1:]:
        r[sl] = r[tree.parent[sl]] * weights[sl]
    return r


def covered_infostate_count(game, populations) -> int:
    """How many infostates have their preceding own action chosen by
    some population member (the covering quantity behind the iteration
    bound; infostates with no preceding own action are not counted)."""
    preds = infostate_predecessors(game)
    covered = 0
    for player in (0, 1):
        pop = populations[player]
        tree = pop.tree
        slot_of = {int(isid): slot for slot, isid
                   in enumerate(tree.infosets_of(player))}
        for pred in preds[player].values():
            if pred is None:
                continue
            pkey, act = pred
            isid = tree.key_to_isid[pkey]
            col = int(tree.is_off[isid]) + tree.is_actions[isid].index(act)
            if (pop.choices[:, slot_of[isid]] == col).any():
                covered += 1
    return covered


def reduced_strategies_expanded(tree, pop) -> int:
    """Distinct reduced pure strategies in a population, the sense in
    which a player can 'expand all' strategies of a game."""
    return len({reduced_canonical(tree, row, pop.player)
                for row in pop.choices})


def default_choice(tree, player: int) -> np.ndarray:
    """Choice array of the first action everywhere."""
    return tree.is_off[tree.infosets_of(player)]


def choice_of(tree, player: int, table: dict) -> np.ndarray:
    """Choice array of a key -> action id table (first action where
    the table is silent)."""
    return canonical_pure(tree, PurePolicy(player, table))


def actions_of(tree, player: int, choice) -> dict:
    """Key -> action id table of a choice array."""
    return {tree.keys[isid]: int(tree.col_action[col]) for isid, col
            in zip(tree.infosets_of(player).tolist(), choice)}


def uniform_profile(tree) -> np.ndarray:
    """Flat profile that plays every infostate's actions uniformly."""
    return np.repeat(1.0 / tree.is_nact, tree.is_nact)


def csv_rows(path) -> list[dict]:
    """A metrics CSV's rows as dicts of the cells' text; an empty cell
    reads as ``""``."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def as_policy(tree, choice, player: int):
    """Tabular one-hot policy of a choice array."""
    onehot = np.zeros(tree.n_cols)
    onehot[choice] = 1.0
    return policy_from_flat(tree, onehot, player)


def reference_solve_matrix_lp(matrix) -> MatrixSolution:
    """The minimax solve of a payoff matrix through
    ``linprog(method="highs")``, one LP per player.  Matching it bit for
    bit also guards ``solve_matrix_lp`` against scipy changing the
    defaults it copies."""
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape

    # Row player: maximize v s.t. x^T M >= v, x in simplex.
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-m.T, np.ones((cols, 1))])
    a_eq = np.zeros((1, rows + 1))
    a_eq[0, :rows] = 1.0
    bounds = [(0.0, None)] * rows + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(cols), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"row LP failed: {res.message}")
    x = np.maximum(res.x[:rows], 0.0)
    x /= x.sum()
    value = -res.fun

    # Column player: minimize w s.t. M y <= w, y in simplex.
    c = np.zeros(cols + 1)
    c[-1] = 1.0
    a_ub = np.hstack([m, -np.ones((rows, 1))])
    a_eq = np.zeros((1, cols + 1))
    a_eq[0, :cols] = 1.0
    bounds = [(0.0, None)] * cols + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(rows), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"column LP failed: {res.message}")
    y = np.maximum(res.x[:cols], 0.0)
    y /= y.sum()
    if abs(res.x[-1] - value) > 1e-6:
        raise RuntimeError("LP duals disagree beyond tolerance")
    return MatrixSolution(row=x, col=y, value=float(value))


def same_solution(a: MatrixSolution, b: MatrixSolution) -> bool:
    """Equal bytes in both mixtures and in the value."""
    return (a.row.tobytes() == b.row.tobytes()
            and a.col.tobytes() == b.col.tobytes()
            and np.float64(a.value).tobytes() == np.float64(b.value).tobytes())
