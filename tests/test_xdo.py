"""Double oracle over restricted extensive-form games.

Small games keep every claim checkable against enumeration: restricted
trees derived from the base index are checked field by field against a
walk of the game cut down to the population action sets, and against
the whole-tree ``restrict`` that the level-by-level one replaced;
iteration bounds come from counting infostates, and the trace
invariants encode the inner loop's stop rule (restricted exploitability
below tolerance and strictly below the full-game number, unless the run
is ending anyway).
"""

from collections import Counter
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest

from efgsolve import (NodeCounter, TreeIndex, exploitability, make_game,
                      profile_array)
from efgsolve.policy import lift_policy, policy_from_flat, random_pure_policy
from efgsolve.tree import _NODE_ARRAYS, RestrictedGame, _relabel
from efgsolve.xdo import (Population, XdoConfig, XdoResult, _extend_to_base,
                          eq1_allowed, xdo_solve)

from oracles import (choice_of, covered_infostate_count, default_choice,
                     enumerate_reduced_pure, infostate_predecessors,
                     reference_tree, tree_of)


@pytest.fixture(scope="module")
def kuhn_lp_result(kuhn_tree):
    return xdo_solve(kuhn_tree, XdoConfig(inner="lp"), NodeCounter())


def all_action_pure(tree, player, action):
    table = {}
    for isid in tree.infosets_of(player):
        acts = tree.is_actions[int(isid)]
        table[tree.keys[int(isid)]] = acts[min(action, len(acts) - 1)]
    return choice_of(tree, player, table)


def test_population_deduplicates_by_total_action_table(kuhn_tree):
    pop = Population(kuhn_tree, 0, [default_choice(kuhn_tree, 0)])
    assert len(pop) == 1
    # same table, rejected
    assert not pop.add(choice_of(kuhn_tree, 0, {}))
    assert len(pop) == 1
    assert pop.add(all_action_pure(kuhn_tree, 0, 1))
    assert len(pop) == 2


def allowed_actions(tree, mask, isid):
    sl = tree.col_slice(int(isid))
    return tuple(tree.col_action[sl][mask[sl]].tolist())


def test_eq1_allowed_is_union_of_member_choices(kuhn_tree):
    pops = (Population(kuhn_tree, 0, [default_choice(kuhn_tree, 0),
                                      all_action_pure(kuhn_tree, 0, 1)]),
            Population(kuhn_tree, 1, [default_choice(kuhn_tree, 1)]))
    mask = eq1_allowed(pops)
    for isid in kuhn_tree.infosets_of(0):
        acts = kuhn_tree.is_actions[int(isid)]
        assert allowed_actions(kuhn_tree, mask, isid) == (acts[0], acts[1])
    for isid in kuhn_tree.infosets_of(1):
        acts = kuhn_tree.is_actions[int(isid)]
        assert allowed_actions(kuhn_tree, mask, isid) == (acts[0],)


def test_restricted_game_with_default_populations_is_forced(kuhn_tree):
    pops = tuple(Population(kuhn_tree, p, [default_choice(kuhn_tree, p)])
                 for p in (0, 1))
    rtree = kuhn_tree.restrict(eq1_allowed(pops))
    assert rtree.n_nodes < kuhn_tree.n_nodes
    for isid in range(rtree.n_infosets):
        assert int(rtree.is_nact[isid]) == 1


def test_enumerate_reduced_pure_counts():
    counts = {"kuhn": (27, 64), "rps_choice": (6, 9)}
    for name, want in counts.items():
        tree = TreeIndex(make_game(name))
        got = tuple(len(enumerate_reduced_pure(tree, p)) for p in (0, 1))
        assert got == want, name


def test_covered_infostates_grow_with_the_population(kuhn_tree):
    game = make_game("kuhn")
    defaults = tuple(Population(kuhn_tree, p, [default_choice(kuhn_tree, p)])
                     for p in (0, 1))
    base = covered_infostate_count(game, defaults)
    assert base == 18

    full = (Population(kuhn_tree, 0, enumerate_reduced_pure(kuhn_tree, 0)),
            Population(kuhn_tree, 1, enumerate_reduced_pure(kuhn_tree, 1)))
    everything = covered_infostate_count(game, full)
    assert base < everything == 42

    preds = infostate_predecessors(game)
    with_pred = sum(1 for p in (0, 1)
                    for pred in preds[p].values() if pred is not None)
    assert everything == with_pred


def test_lp_inner_terminates_exactly_on_kuhn(kuhn_lp_result, kuhn_tree):
    res = kuhn_lp_result
    assert res.terminated
    assert res.exploitability <= 1e-6
    # Exact inner solves expand something new every outer iteration, so
    # the iteration count is bounded by the total infostate count.
    assert res.outer_iters <= 28 + 28
    assert res.outer_iters == 3
    # Populations only ever grow by the two oracle responses per outer.
    assert all(len(p) <= res.outer_iters for p in res.populations)
    assert res.restricted_nodes < kuhn_tree.n_nodes
    # Reported profile really has the reported exploitability.
    assert exploitability(kuhn_tree, res.sigma) \
        == pytest.approx(res.exploitability, abs=1e-12)


def test_result_profile_is_the_measured_one_on_leduc(leduc_tree):
    # A run cut by max_outer, so the profile is a CFR+ average extended
    # to the full game, not an equilibrium.
    res = xdo_solve(leduc_tree, XdoConfig(inner="cfr_plus", max_outer=3))
    assert not res.terminated and res.outer_iters == 3
    assert exploitability(leduc_tree, res.sigma) \
        == pytest.approx(res.exploitability, abs=1e-12)
    # Dict rows are made on request, and flatten back to the same bytes.
    rows = (policy_from_flat(leduc_tree, res.sigma, p) for p in (0, 1))
    assert profile_array(leduc_tree, *rows).tobytes() == res.sigma.tobytes()


@pytest.mark.parametrize("k, n", [(1, 6), (1, 8), (1, 10), (2, 6), (3, 6),
                                  (4, 4), (6, 4), (8, 4), (6, 6)])
def test_lp_inner_outer_iterations_do_not_grow_with_the_stage_count(k, n):
    # k GMP(n) stages behind a chance node: each player has n^k reduced
    # pure strategies, but a best response picks an action in every
    # stage at once, so XDO with an exact inner solve ends after 2n - 1
    # outer iterations whatever k is.  The outer cap turns a run that
    # would not end into a failure.
    res = xdo_solve(TreeIndex(make_game(f"kgmp_{k}_{n}")),
                    XdoConfig(inner="lp", max_outer=4 * n))
    assert res.terminated
    assert res.outer_iters == 2 * n - 1


def test_every_outer_iteration_emits_a_trace_row(kuhn_lp_result):
    res = kuhn_lp_result
    outers = {t["outer"] for t in res.trace}
    assert outers == set(range(1, res.outer_iters + 1))
    nodes = [t["nodes"] for t in res.trace]
    assert nodes == sorted(nodes)
    for t in res.trace:
        assert set(t) == {"outer", "inner", "nodes", "exploitability",
                          "restricted_exploitability", "pop0", "pop1",
                          "restricted_nodes", "wall_ms"}


def test_cfr_plus_inner_reaches_termination_tolerance(kuhn_tree):
    res = xdo_solve(kuhn_tree, XdoConfig(term_eps=1e-3), NodeCounter())
    assert res.terminated
    assert res.exploitability <= 1e-3


def test_full_game_check_dominates_restricted_one(kuhn_tree):
    # A full-game best response searches a superset of the restricted
    # strategies, so every measured pair satisfies e_full >= e_r; the
    # inner loop only keeps polishing past tolerance on exact ties.
    res = xdo_solve(kuhn_tree, XdoConfig(term_eps=1e-4), NodeCounter())
    assert res.terminated
    by_outer: dict[int, list] = {}
    for t in res.trace:
        assert t["exploitability"] >= t["restricted_exploitability"] - 1e-12
        by_outer.setdefault(t["outer"], []).append(t)
    ties = [t for rows in by_outer.values() for t in rows[:-1]]
    assert ties, "expected at least one mid-outer full check"
    for t in ties:
        # The loop went on, so the stop test must have failed: no
        # strict improvement over the full game and no early accept.
        assert t["exploitability"] <= t["restricted_exploitability"] + 1e-12
        assert t["exploitability"] > 1e-4


def test_full_check_is_skipped_while_tolerance_unmet(leduc_tree):
    # eps so small that the inner loop cannot meet it: the only full
    # evaluation (and trace row) per outer comes from the stop path.
    # With max_inner off the check grid (3, 7), the solve stops at the
    # first check at or past it.
    for period, max_inner, expected in ((10, 20, [(1, 10), (2, 20)]),
                                        (3, 7, [(1, 3), (2, 9)])):
        res = xdo_solve(leduc_tree,
                        XdoConfig(eps0=1e-9, eps_floor=1e-9,
                                  check_period=period, max_inner=max_inner,
                                  max_outer=2), NodeCounter())
        assert [(t["outer"], t["inner"]) for t in res.trace] == expected
        assert not res.terminated


def test_node_budget_stops_the_run(kuhn_tree):
    counter = NodeCounter(500)
    res = xdo_solve(kuhn_tree, XdoConfig(), counter)
    assert not res.terminated
    assert res.nodes == counter.count >= 500
    assert res.trace, "the stop path still records a full evaluation"


def test_max_outer_stops_the_run(leduc_tree):
    res = xdo_solve(leduc_tree, XdoConfig(max_outer=3), NodeCounter())
    assert not res.terminated
    assert res.outer_iters == 3
    rows_per = Counter(t["outer"] for t in res.trace)
    assert set(rows_per) == {1, 2, 3}


def test_gmp_terminates_within_two_n_iterations(kgmp13_tree):
    # Exact restricted solves on generalized matching pennies add one
    # fresh action per player per iteration until the support closes.
    res = xdo_solve(kgmp13_tree, XdoConfig(inner="lp"))
    assert res.terminated
    assert res.exploitability <= 1e-6
    assert res.outer_iters <= 2 * 3


def test_clone_classes_stay_out_of_the_restricted_game():
    base = TreeIndex(make_game("clone_gmp_2_4_3"))
    res = xdo_solve(base, XdoConfig(inner="lp"))
    assert res.terminated
    counts = np.bincount(base.col_isid[eq1_allowed(res.populations)],
                         minlength=base.n_infosets)
    # 12 raw actions collapse into 3 payoff classes; the oracle never
    # needs more than one or two clones of each class per player.
    for player in (0, 1):
        assert counts[base.infosets_of(player)].max() <= 6
    assert res.restricted_nodes < base.n_nodes / 4


def test_result_dataclass_shape(kuhn_lp_result):
    res = kuhn_lp_result
    assert isinstance(res, XdoResult)
    assert res.restricted_infostates == (6, 6)
    assert 0 < res.eps_inner_final <= 0.35
    assert res.nodes > 0


class _RestrictedState:
    __slots__ = ("s", "g")

    def __init__(self, s, g):
        self.s = s
        self.g = g

    def is_terminal(self):
        return self.s.is_terminal()

    def is_chance(self):
        return self.s.is_chance()

    def current_player(self):
        return self.s.current_player()

    def chance_outcomes(self):
        return self.s.chance_outcomes()

    def legal_actions(self):
        return self.g.allowed[self.s.infostate_key(self.s.current_player())]

    def apply(self, action):
        return _RestrictedState(self.s.apply(action), self.g)

    def returns(self):
        return self.s.returns()

    def infostate_key(self, player):
        return self.s.infostate_key(player)


class _WalkedRestriction:
    """Walked reference for ``TreeIndex.restrict``: the base game with
    every legal list cut down to the allowed action ids, in ascending
    order."""

    def __init__(self, tree, mask):
        self.base = tree.game
        self.name = self.base.name + "+restricted"
        self.allowed = {tree.keys[isid]: tuple(sorted(allowed_actions(
            tree, mask, isid))) for isid in range(tree.n_infosets)}

    def root(self):
        return _RestrictedState(self.base.root(), self)


RESTRICT_GAMES = ["kuhn", "leduc", "oshi_zumo_3_3_4", "clone_gmp_2_4_3",
                  "kgmp_1_3"]
TREE_ARRAYS = ["parent", "depth", "kind", "player", "infoset", "payoff1",
               "in_prob", "in_col", "in_player", "child_off",
               "is_player", "is_nact", "is_off", "is_parent_col",
               "is_depth", "decision_mask", "terminal_mask", "col_isid",
               "col_action"]


@lru_cache(maxsize=None)
def base_index(name):
    return TreeIndex(make_game(name))


def population_mask(tree, members):
    """Allowed columns of populations per player: the default pure
    strategy ("default"), it and three random ones ("random"), or three
    random ones only ("random-only", where a first action can be
    missing from the allowed set)."""
    rng = np.random.default_rng(11)
    first = [] if members == "random-only" else [default_choice]
    extra = 0 if members == "default" else 3
    return eq1_allowed(tuple(
        Population(tree, p, [f(tree, p) for f in first] + [
            random_pure_policy(tree, p, rng) for _ in range(extra)])
        for p in (0, 1)))


@pytest.mark.parametrize("members", ["default", "random", "random-only"])
@pytest.mark.parametrize("name", RESTRICT_GAMES)
def test_restrict_equals_the_walked_restricted_game(name, members):
    base = base_index(name)
    mask = population_mask(base, members)
    got = base.restrict(mask)
    want = TreeIndex(_WalkedRestriction(base, mask))
    for field in TREE_ARRAYS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    # The players and parent columns a walk carries down the tree.
    walked = reference_tree(_WalkedRestriction(base, mask))
    for field in ("is_player", "is_parent_col"):
        assert np.array_equal(getattr(got, field), getattr(walked, field))
    assert (got.n_nodes, got.n_infosets, got.n_cols) \
        == (want.n_nodes, want.n_infosets, want.n_cols)
    assert got.keys == want.keys
    assert got.is_actions == want.is_actions
    assert got.key_to_isid == want.key_to_isid
    assert got.levels == want.levels
    # Restricted nodes keep the base tree's walk ranks, so only their
    # order can be compared.
    assert got.preorder.dtype == want.preorder.dtype
    assert np.array_equal(np.argsort(got.preorder), np.argsort(want.preorder))
    # Each restricted column sits on a base column of the same
    # infostate and action.
    assert got.base_col.dtype == np.int64
    assert np.array_equal(base.col_action[got.base_col], got.col_action)
    assert [base.keys[i] for i in base.col_isid[got.base_col]] \
        == [got.keys[i] for i in got.col_isid]


def reach_restrict(self, cols):
    """``TreeIndex.restrict`` before it found the kept nodes level by
    level: a ``reach`` pass over the whole base tree, then relabels and
    column scans over all its nodes and columns."""
    nodes = np.flatnonzero(self.reach(self.edge_sigma(cols)))

    dec = nodes[self.decision_mask[nodes]]
    base_is = self.infoset[dec[np.argsort(self.preorder[dec])]]
    if not np.isin(base_is, self.col_isid[cols]).all():
        raise ValueError("decision node with no legal actions")
    base_is = base_is[np.sort(np.unique(base_is, return_index=True)[1])]
    col_isid = _relabel(self.col_isid, base_is, self.n_infosets)
    base_col = np.flatnonzero(cols & (col_isid >= 0))
    base_col = base_col[np.argsort(col_isid[base_col], kind="stable")]

    out = object.__new__(TreeIndex)
    out.game = RestrictedGame(self.game, cols)
    out.base_col = base_col
    for name, _ in _NODE_ARRAYS:
        setattr(out, name, getattr(self, name)[nodes])
    out.parent = _relabel(out.parent, nodes, self.n_nodes)
    out.infoset = _relabel(out.infoset, base_is, self.n_infosets)
    out.in_col = _relabel(out.in_col, base_col, self.n_cols)
    out.keys = [self.keys[b] for b in base_is.tolist()]
    out.key_to_isid = dict(zip(out.keys, range(base_is.size)))
    acts = iter(self.col_action[base_col].tolist())
    out.is_actions = [tuple(islice(acts, n)) for n in np.bincount(
        col_isid[base_col], minlength=base_is.size).tolist()]
    out._finish()
    return out


@pytest.mark.parametrize("name", ["kuhn", "leduc", "oshi_zumo_3_3_4",
                                  "rps_choice", "clone_gmp_2_4_3",
                                  "leduc+restricted"])
def test_restrict_matches_the_reach_pass_version(name):
    # Populations grow by one random member per player and step, as in
    # a double-oracle run; every field must match, dtype and bytes.
    base = tree_of(name)
    rng = np.random.default_rng(2)
    pops = tuple(Population(base, p, [default_choice(base, p)])
                 for p in (0, 1))
    for _ in range(8):
        mask = eq1_allowed(pops)
        got, want = base.restrict(mask), reach_restrict(base, mask)
        # Cache the parent columns on both sides.
        got.is_parent_col, want.is_parent_col
        assert vars(got).keys() == vars(want).keys()
        for field, value in vars(want).items():
            ours = getattr(got, field)
            if field == "game":
                assert ours.base is value.base
                assert ours.cols.tobytes() == value.cols.tobytes()
            elif isinstance(value, np.ndarray):
                assert ours.dtype == value.dtype, field
                assert ours.tobytes() == value.tobytes(), field
            else:
                assert ours == value, field
        for p in (0, 1):
            pops[p].add(random_pure_policy(base, p, rng))


@pytest.mark.parametrize("name", RESTRICT_GAMES)
def test_restrict_rejects_a_reached_infostate_with_no_action(name):
    base = base_index(name)
    # Player 0's default actions only: player 1's first decision node
    # has nothing allowed; with nothing allowed, the first one does.
    for mask in (population_mask(base, "default")
                 & (base.is_player[base.col_isid] == 0),
                 np.zeros(base.n_cols, dtype=bool)):
        for build in (lambda: base.restrict(mask),
                      lambda: TreeIndex(_WalkedRestriction(base, mask))):
            with pytest.raises(ValueError,
                               match="decision node with no legal actions"):
                build()


@pytest.mark.parametrize("name", RESTRICT_GAMES)
def test_scatter_extension_equals_the_lifted_profile(name):
    base = base_index(name)
    mask = population_mask(base, "random-only")
    rtree = base.restrict(mask)
    rng = np.random.default_rng(4)
    flat = rng.random(rtree.n_cols)
    flat /= np.repeat(np.add.reduceat(flat, rtree.is_off), rtree.is_nact)
    lifted = [lift_policy(rtree, base, policy_from_flat(rtree, flat, p))
              for p in (0, 1)]
    assert np.array_equal(_extend_to_base(rtree, base, flat),
                          profile_array(base, *lifted))
