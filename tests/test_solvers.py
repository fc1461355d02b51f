"""Iterative solvers and the matrix-game solvers they lean on.

Convergence thresholds are frozen from reference runs of this exact
code: every solver here is deterministic for a fixed seed, so the
assertions are regression pins, not statistical hopes.  Node counts are
checked against closed forms (full sweeps cost one visit per history)
so a counting regression cannot hide inside a passing convergence test.
MCCFR-ES's walk over Python tables, and CFR's sweep that reuses each
player's unchanged reach and rows over player-major column blocks, are
checked bit for bit against the code they replaced, kept here as the
references.
"""


import numpy as np
import pytest

from efgsolve import (NodeCounter, TreeIndex, best_response,
                      exploitability, expected_value, make_game)
from efgsolve.games import ParallelStageGame
from efgsolve.policy import pure_profile, sample_index
from efgsolve.solvers import (Cfr, MccfrEs, Xfp, solve_matrix_fp,
                              solve_matrix_lp)
from efgsolve.solvers.cfr import normalise_rows
from efgsolve.solvers.matrix_solvers import solve_sequence_form
from efgsolve.tree import CHANCE_NODE, TERMINAL

from oracles import (enumerate_reduced_pure, reference_solve_matrix_lp,
                     same_solution, tree_of, uniform_profile)
from test_tree_golden import GOLDEN as TREE_GOLDEN

KUHN_VALUE = -1.0 / 18.0
LEDUC_VALUE = -0.085606424078


def test_cfr_plus_converges_on_kuhn(kuhn_tree):
    solver = Cfr(kuhn_tree, plus=True)
    solver.iterate(1000)
    flat = solver.average_flat()
    assert exploitability(kuhn_tree, flat, None) < 1e-3
    assert expected_value(kuhn_tree, flat) == pytest.approx(KUHN_VALUE,
                                                            abs=1e-4)


def test_cfr_vanilla_converges_on_kuhn(kuhn_tree):
    solver = Cfr(kuhn_tree, plus=False)
    solver.iterate(1000)
    assert exploitability(kuhn_tree, solver.average_flat(), None) < 0.03


def test_cfr_plus_beats_vanilla_at_equal_iterations(kuhn_tree):
    plus = Cfr(kuhn_tree, plus=True)
    vanilla = Cfr(kuhn_tree, plus=False)
    plus.iterate(1000)
    vanilla.iterate(1000)
    assert exploitability(kuhn_tree, plus.average_flat(), None) \
        < exploitability(kuhn_tree, vanilla.average_flat(), None)


def test_cfr_plus_converges_on_leduc(leduc_tree):
    solver = Cfr(leduc_tree, plus=True)
    solver.iterate(300)
    assert exploitability(leduc_tree, solver.average_flat(), None) < 0.01


def test_cfr_counter_closed_forms(kuhn_tree):
    # Alternating: two sweeps per iteration; simultaneous: one.
    n = kuhn_tree.n_nodes
    counter = NodeCounter()
    Cfr(kuhn_tree, plus=True, counter=counter).iterate(7)
    assert counter.count == 7 * 2 * n
    counter = NodeCounter()
    Cfr(kuhn_tree, plus=False, counter=counter).iterate(7)
    assert counter.count == 7 * n
    # plus with alternating overridden off still sweeps once.
    counter = NodeCounter()
    Cfr(kuhn_tree, plus=True, alternating=False, counter=counter).iterate(3)
    assert counter.count == 3 * n


def test_cfr_budget_is_soft(kuhn_tree):
    # The counter never raises; callers poll exhausted between steps, so
    # a blind iterate(n) may overshoot and that is fine.
    counter = NodeCounter(budget=100)
    solver = Cfr(kuhn_tree, plus=True, counter=counter)
    solver.iterate(5)
    assert counter.exhausted
    assert counter.count == 5 * 2 * kuhn_tree.n_nodes


class _ReferenceCfr:
    """The CFR sweep before it kept each player's own reach between
    sweeps: both reach passes every sweep, ``np.add.at`` sums and
    updates over the updated player's columns only."""

    def __init__(self, tree, plus=False, alternating=None, counter=None):
        self.tree = tree
        self.plus = plus
        self.alternating = plus if alternating is None else alternating
        self.counter = counter
        self.t = 0
        self.regret = np.zeros(tree.n_cols)
        self.ssum = np.zeros(tree.n_cols)

        self._col_player = tree.is_player[tree.col_isid]
        self._dec_nodes = [
            np.flatnonzero(tree.decision_mask & (tree.player == p))
            for p in (0, 1)
        ]
        self._pcols = [np.flatnonzero(self._col_player == p) for p in (0, 1)]
        self._own = [tree.in_player == p for p in (0, 1)]
        self._kids = [np.flatnonzero(own) for own in self._own]
        self._kid_cols = [tree.in_col[kids] for kids in self._kids]
        self._rc = tree.reach(tree.in_prob)

    def current(self):
        return normalise_rows(self.tree, np.maximum(self.regret, 0.0))

    def _update(self, sigma, reach, v, player):
        tree = self.tree
        kids, kid_cols = self._kids[player], self._kid_cols[player]
        par = tree.parent[kids]
        vp = v[kids] if player == 0 else -v[kids]
        q = np.zeros(tree.n_cols)
        np.add.at(q, kid_cols, self._rc[par] * reach[1 - player][par] * vp)
        node_val = np.add.reduceat(sigma * q, tree.is_off)
        cols = self._pcols[player]
        self.regret[cols] += q[cols] - node_val[tree.col_isid[cols]]
        if self.plus:
            np.maximum(self.regret, 0.0, out=self.regret,
                       where=self._col_player == player)

        dec = self._dec_nodes[player]
        ow = np.zeros(tree.n_infosets)
        np.add.at(ow, tree.infoset[dec], reach[player][dec])
        w = float(self.t) if self.plus else 1.0
        self.ssum[cols] += w * ow[tree.col_isid[cols]] * sigma[cols]

    def _sweep(self, players):
        tree = self.tree
        sigma = self.current()
        g = tree.edge_sigma(sigma)
        reach = [tree.reach(np.where(own, g, 1.0)) for own in self._own]
        v = tree.values(tree.in_prob * g)
        for p in players:
            self._update(sigma, reach, v, p)
        if self.counter is not None:
            self.counter.add(tree.n_nodes)

    def iterate(self, n=1):
        sweeps = ((0,), (1,)) if self.alternating else ((0, 1),)
        for _ in range(n):
            self.t += 1
            for players in sweeps:
                self._sweep(players)

    def average_flat(self):
        return normalise_rows(self.tree, self.ssum)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", [*TREE_GOLDEN, "leduc+restricted"])
def test_every_uniform_profile_is_the_trees(name):
    # Fresh trees, so the large ones stay out of tree_of's cache.
    tree = (tree_of(name) if name == "leduc+restricted"
            else TreeIndex(make_game(name)))
    want = uniform_profile(tree)
    assert tree.uniform is tree.uniform
    assert _same_bits(tree.uniform, want)
    assert _same_bits(normalise_rows(tree, np.zeros(tree.n_cols)), want)
    assert _same_bits(Xfp(tree).average_flat(), want)
    assert _same_bits(Cfr(tree).current(), want)
    scattered = np.zeros(tree.n_cols)
    for p in (0, 1):
        plan = tree.own_columns(p)
        scattered[plan.mask] = plan.uniform
    assert _same_bits(scattered, want)


@pytest.mark.parametrize("plus, alternating", [
    (True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("name", ["kuhn", "leduc", "oshi_zumo_3_3_4",
                                  "rps_choice", "leduc+restricted"])
def test_cfr_matches_the_reference_sweep(name, plus, alternating):
    tree = tree_of(name)
    ref = _ReferenceCfr(tree, plus, alternating, NodeCounter())
    solver = Cfr(tree, plus, alternating, NodeCounter())
    # Uneven calls with the average and the current profile read in
    # between, so the kept reach and rows must carry across iterate
    # calls and survive both reads.
    for n in (1, 3, 5):
        ref.iterate(n)
        solver.iterate(n)
        assert _same_bits(solver.average_flat(), ref.average_flat())
        assert _same_bits(solver.current(), ref.current())
        assert solver.t == ref.t
        assert solver.counter.count == ref.counter.count
        assert _same_bits(solver.regret, ref.regret)
        assert _same_bits(solver.ssum, ref.ssum)


@pytest.mark.parametrize("alternating", [True, False])
def test_cfr_makes_one_reach_pass_per_updated_player(alternating):
    # A sweep recomputes the own reach of the players the sweep before
    # it updated: both on the first sweep, then one per alternating
    # sweep and two per simultaneous sweep.  A ``current()`` read may
    # recompute it early, but never adds a pass.
    tree = TreeIndex(make_game("kuhn"))
    solver = Cfr(tree, plus=True, alternating=alternating)
    passes = []
    reach = tree.reach
    tree.reach = lambda weights: passes.append(1) or reach(weights)
    first = 1 if alternating else 0
    solver.iterate(1)
    assert len(passes) == 2 * 1 + first
    solver.current()
    solver.iterate(3)
    assert len(passes) == 2 * 4 + first
    solver.iterate(2)
    assert len(passes) == 2 * 6 + first


def test_xfp_converges_on_kuhn(kuhn_tree):
    solver = Xfp(kuhn_tree)
    solver.iterate(500)
    assert exploitability(kuhn_tree, solver.average_flat(), None) < 0.05


def test_xfp_counts_two_oracle_calls_per_iteration(kuhn_tree):
    counter = NodeCounter()
    Xfp(kuhn_tree, counter=counter).iterate(7)
    assert counter.count == 7 * 2 * kuhn_tree.n_nodes


def test_mccfr_es_converges_loosely_on_kuhn(kuhn_tree):
    solver = MccfrEs(kuhn_tree, seed=0)
    solver.iterate(2000)
    assert exploitability(kuhn_tree, solver.average_flat(), None) < 0.08


def test_mccfr_es_is_seed_deterministic(kuhn_tree):
    counts = []
    flats = []
    for _ in range(2):
        counter = NodeCounter()
        solver = MccfrEs(kuhn_tree, seed=3, counter=counter)
        solver.iterate(50)
        counts.append(counter.count)
        flats.append(solver.average_flat())
    assert counts[0] == counts[1]
    assert np.array_equal(flats[0], flats[1])

    other = MccfrEs(kuhn_tree, seed=4)
    other.iterate(50)
    assert not np.array_equal(flats[0], other.average_flat())


def test_mccfr_es_counts_sampled_visits_only(kuhn_tree):
    counter = NodeCounter()
    MccfrEs(kuhn_tree, seed=0, counter=counter).iterate(50)
    # Two walks per iteration, each a strict subtree of the full sweep.
    assert 0 < counter.count < 50 * 2 * kuhn_tree.n_nodes


def _loop_sample(probs, r):
    # The inverse-CDF loop the sampled walks used before sample_index.
    acc = 0.0
    last = len(probs) - 1
    for i in range(last):
        acc += probs[i]
        if r < acc:
            return i
    return last


def test_sample_index_matches_the_sequential_loop():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        probs = rng.dirichlet(np.ones(n)) if n > 1 else np.ones(1)
        if rng.random() < 0.2:
            probs[int(rng.integers(n))] = 0.0
        for r in (rng.random(), float(np.nextafter(1.0, 0.0))):
            assert sample_index(probs, r) == _loop_sample(probs, r)
            assert sample_index(probs.tolist(), r) == _loop_sample(probs, r)
    # Prefix sums that stop short of 1.0: a draw past them takes the
    # last index.
    probs = [0.1] * 10
    assert sum(probs[:-1]) < 0.95
    assert sample_index(probs, 0.95) == _loop_sample(probs, 0.95) == 9


class _ArrayMccfrEs:
    """The numpy walk MccfrEs used before its Python tables: numpy rows
    per visited history and one ``rng.random()`` per draw."""

    def __init__(self, tree, seed):
        self.tree = tree
        self.rng = np.random.default_rng(seed)
        self.regret = np.zeros(tree.n_cols)
        self.ssum = np.zeros(tree.n_cols)
        self.visits = 0

    def _row(self, sl):
        pos = np.maximum(self.regret[sl], 0.0)
        norm = pos.sum()
        if norm <= 0.0:
            return np.full(len(pos), 1.0 / len(pos))
        return pos / norm

    def _walk(self, u, player):
        self.visits += 1
        tree = self.tree
        kind = tree.kind[u]
        if kind == TERMINAL:
            pay = tree.payoff1[u]
            return pay if player == 0 else -pay
        kids = tree.children(u)
        if kind == CHANCE_NODE:
            c = _loop_sample(tree.in_prob[kids], self.rng.random())
            return self._walk(int(kids[c]), player)
        sl = tree.col_slice(int(tree.infoset[u]))
        sigma = self._row(sl)
        if tree.player[u] == player:
            vals = np.array([self._walk(int(c), player) for c in kids])
            v = float(sigma @ vals)
            self.regret[sl] += vals - v
            return v
        self.ssum[sl] += sigma
        c = _loop_sample(sigma, self.rng.random())
        return self._walk(int(kids[c]), player)

    def iterate(self, n):
        for _ in range(n):
            for p in (0, 1):
                self._walk(0, p)


# oshi_zumo_7_3_3 has 8-action rows, which numpy sums pairwise.
@pytest.mark.parametrize("name", ["kuhn", "leduc", "oshi_zumo_3_3_4",
                                  "oshi_zumo_7_3_3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mccfr_es_walk_matches_the_array_reference(name, seed):
    tree = TreeIndex(make_game(name))
    ref = _ArrayMccfrEs(tree, seed)
    counter = NodeCounter()
    solver = MccfrEs(tree, seed=seed, counter=counter)
    # Uneven calls, so the draw block carries across iterate calls; by
    # the long last call most rows have one positive regret.  Bytes, not
    # np.array_equal, which takes -0.0 for +0.0.
    for n in (1, 2, 3, 60, 300):
        ref.iterate(n)
        solver.iterate(n)
    assert counter.count == ref.visits
    assert _same_bits(np.array(solver.regret), ref.regret)
    assert _same_bits(np.array(solver.ssum), ref.ssum)


@pytest.mark.parametrize("seed", range(6))
def test_mccfr_es_unit_rows_match_the_array_reference(seed):
    # In stage s every row has its one positive regret in column s:
    # first, middle and last.  The diagonal is then both players' hot
    # child, so the traverser's value is a payoff of +0.0 or -0.0.
    m = [[-0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, -0.0]]
    tree = TreeIndex(ParallelStageGame("unit_rows", [m] * 3))
    regret = np.zeros(tree.n_cols)
    for s in range(3):
        for p in (0, 1):
            lo = int(tree.is_off[tree.key_to_isid[(p, s)]])
            regret[lo:lo + 3] = -1.0
            regret[lo + (s + 1) % 3] = 0.0
            regret[lo + s] = 0.5
    ref = _ArrayMccfrEs(tree, seed)
    ref.regret = regret.copy()
    solver = MccfrEs(tree, seed=seed, counter=NodeCounter())
    solver.regret = regret.tolist()
    ref.iterate(1)
    solver.iterate(1)
    assert solver.counter.count == ref.visits
    assert _same_bits(np.array(solver.regret), ref.regret)
    assert _same_bits(np.array(solver.ssum), ref.ssum)


@pytest.mark.parametrize("name, first, second", [
    ("kuhn", 3, 4), ("leduc", 3, 4), ("leduc", 40, 50)])
def test_mccfr_es_split_iterations_equal_one_call(name, first, second):
    tree = TreeIndex(make_game(name))
    whole = MccfrEs(tree, seed=5, counter=NodeCounter())
    whole.iterate(first + second)
    split = MccfrEs(tree, seed=5, counter=NodeCounter())
    split.iterate(first)
    split.iterate(second)
    assert split.counter.count == whole.counter.count
    assert split.regret == whole.regret
    assert split.ssum == whole.ssum
    assert np.array_equal(split.average_flat(), whole.average_flat())


def test_matrix_lp_on_rock_paper_scissors():
    m = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    sol = solve_matrix_lp(m)
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert sol.row == pytest.approx(np.full(3, 1 / 3), abs=1e-9)
    assert sol.col == pytest.approx(np.full(3, 1 / 3), abs=1e-9)


def test_matrix_lp_two_by_two_closed_form():
    # [[a, b], [c, d]] with no saddle point: value (ad-bc)/(a-b-c+d).
    sol = solve_matrix_lp([[2, -1], [-1, 1]])
    assert sol.value == pytest.approx(0.2, abs=1e-9)
    assert sol.row == pytest.approx([0.4, 0.6], abs=1e-9)
    assert sol.col == pytest.approx([0.4, 0.6], abs=1e-9)


def test_matrix_lp_saddle_inequalities_on_random_matrix():
    m = np.random.default_rng(7).normal(size=(4, 6))
    sol = solve_matrix_lp(m)
    # row strategy guarantees at least v against every column and the
    # column strategy concedes at most v against every row.
    assert (sol.row @ m).min() >= sol.value - 1e-8
    assert (m @ sol.col).max() <= sol.value + 1e-8


def test_matrix_lp_degenerate_one_by_one():
    sol = solve_matrix_lp([[3.5]])
    assert sol.value == pytest.approx(3.5)
    assert sol.row == pytest.approx([1.0])
    assert sol.col == pytest.approx([1.0])


def test_matrix_lp_matches_linprog_bit_for_bit():
    rng = np.random.default_rng(11)
    matrices = [rng.integers(-3, 4, size=(r, c)).astype(float)
                for r in range(1, 10) for c in range(1, 7)]
    matrices.append(np.array([[1.0, 0.0, 2.0], [-1.0, 0.0, 3.0]]))
    for m in matrices:
        assert same_solution(solve_matrix_lp(m),
                             reference_solve_matrix_lp(m)), m


@pytest.mark.parametrize("matrix, error, match", [
    ([[np.nan, 1.0]], ValueError, None),
    ([[1.0, np.inf]], ValueError, None),
    ([[-np.inf], [1.0]], ValueError, None),
    ([[1e300, -1e300], [-1e300, 1e300]], RuntimeError,
     "^row LP failed: HiGHS model error"),
    (np.zeros((0, 2)), RuntimeError, "^row LP failed:"),
])
def test_matrix_lp_rejects_what_linprog_rejected(matrix, error, match):
    with pytest.raises(error, match=match):
        solve_matrix_lp(matrix)
    with pytest.raises(error):
        reference_solve_matrix_lp(matrix)


def sequence_form_profile(tree):
    """The sequence-form LP's plans as rows, uniform where a row's
    parent sequence has mass 0, and the LP's value."""
    plan, value = solve_sequence_form(tree)
    return normalise_rows(tree, plan), value


@pytest.mark.parametrize("name, value", [
    ("kuhn", KUHN_VALUE), ("leduc", LEDUC_VALUE), ("oshi_zumo_4_3_6", 0.0)])
def test_sequence_form_lp_solves_the_game_exactly(name, value):
    tree = tree_of(name)
    flat, lp_value = sequence_form_profile(tree)
    assert lp_value == pytest.approx(value, abs=1e-9)
    assert expected_value(tree, flat) == pytest.approx(value, abs=1e-9)
    br0, br1 = (best_response(tree, flat, p) for p in (0, 1))
    assert br0.value + br1.value <= 1e-9
    assert br0.value == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("name", ["kuhn", "rps_choice", "clone_gmp_2_4_3"]
                         + [f"kgmp_{k}_{n}" for k in (1, 2, 3)
                            for n in (2, 3, 4)])
def test_sequence_form_value_is_the_reduced_normal_form_value(name):
    tree = tree_of(name)
    pures = [enumerate_reduced_pure(tree, p) for p in (0, 1)]
    matrix = np.array([[expected_value(tree, pure_profile(tree, a, b))
                        for b in pures[1]] for a in pures[0]])
    assert solve_sequence_form(tree)[1] == pytest.approx(
        solve_matrix_lp(matrix).value, abs=1e-9)


def test_cfr_plus_on_leduc_converges_to_the_lp_value(leduc_tree):
    solver = Cfr(leduc_tree, plus=True)
    solver.iterate(400)
    _, value = solve_sequence_form(leduc_tree)
    assert value == pytest.approx(LEDUC_VALUE, abs=1e-9)
    assert expected_value(leduc_tree, solver.average_flat()) \
        == pytest.approx(value, abs=1e-4)


def test_matrix_fp_approximates_lp():
    rps = np.array([[0.0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    fp = solve_matrix_fp(rps, 2000)
    assert fp.value == pytest.approx(0.0, abs=1e-2)
    assert fp.row == pytest.approx(np.full(3, 1 / 3), abs=0.02)

    m = np.random.default_rng(7).normal(size=(4, 6))
    assert abs(solve_matrix_fp(m, 5000).value
               - solve_matrix_lp(m).value) < 0.05


def test_matrix_solution_is_a_named_tuple():
    row, col, value = solve_matrix_lp([[1.0]])
    sol = solve_matrix_lp([[1.0]])
    assert np.array_equal(row, sol.row)
    assert np.array_equal(col, sol.col)
    assert value == sol.value


def test_solvers_share_average_flat_contract(kuhn_tree):
    # Every solver exposes a full profile array; each infostate row is a
    # distribution so the arrays compose with the evaluators directly.
    for solver in (Cfr(kuhn_tree, plus=True), MccfrEs(kuhn_tree, seed=0),
                   Xfp(kuhn_tree)):
        solver.iterate(3)
        flat = solver.average_flat()
        assert flat.shape == (kuhn_tree.n_cols,)
        sums = np.add.reduceat(flat, kuhn_tree.is_off)
        assert sums == pytest.approx(np.ones(kuhn_tree.n_infosets))
