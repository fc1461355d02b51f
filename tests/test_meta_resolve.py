"""The strategy-expansion loop re-solves its meta-game only after growth.

``psro_histogram`` keeps the last LP solution, realised mixture and
mixture value until a best response adds a new reduced strategy.  The
reference below is the loop that re-solves every iteration; the kept
values must give the same records, and the skip must drop exactly the
calls whose matrix had not changed.
"""

import numpy as np
import pytest

from efgsolve import expected_value, make_game
from efgsolve import psro
from efgsolve.evaluate import best_response
from efgsolve.policy import pure_profile, random_pure_policy, realize_mixture
from efgsolve.psro import psro_histogram, reduced_canonical
from efgsolve.solvers.matrix_solvers import grow_matrix, solve_matrix_lp

SEEDS = range(30)
HORIZON = 30


def reference_trial(tree, seed, horizon=HORIZON, eps=1e-3):
    """One trial of the loop that re-solves the meta-game every
    iteration.  Returns (record, number of iterations that followed an
    iteration which grew a population, the matrices it solved)."""
    rng = np.random.default_rng(seed)
    members = ([random_pure_policy(tree, 0, rng)],
               [random_pure_policy(tree, 1, rng)])
    seen = ({reduced_canonical(tree, members[0][0], 0)},
            {reduced_canonical(tree, members[1][0], 1)})
    m = np.zeros((0, 0))
    matrices = []
    first_pass = None
    after_growth = 0
    for it in range(1, horizon + 1):
        m = grow_matrix(m, (len(members[0]), len(members[1])),
                        lambda i, j: expected_value(tree, pure_profile(
                            tree, members[0][i], members[1][j])))
        matrices.append(m)
        sol = solve_matrix_lp(m)
        sigma = (realize_mixture(tree, members[0], sol.row, 0)
                 + realize_mixture(tree, members[1], sol.col, 1))
        v = expected_value(tree, sigma)
        br0 = best_response(tree, sigma, 0, rng=rng)
        br1 = best_response(tree, sigma, 1, rng=rng)
        d0, d1 = br0.value - v, br1.value + v
        e = d0 + d1
        if first_pass is None and d0 <= eps and d1 <= eps:
            first_pass = it
        grew = False
        for p, br in ((0, br0), (1, br1)):
            key = reduced_canonical(tree, br.choice, p)
            if key not in seen[p]:
                seen[p].add(key)
                members[p].append(br.choice)
                grew = True
        after_growth += grew and it < horizon
    record = dict(seed=seed, expanded0=len(seen[0]), expanded1=len(seen[1]),
                  iters=horizon, eps_pass_iter=first_pass, exploitability=e)
    return record, after_growth, matrices


@pytest.fixture(scope="module")
def reference(rps_tree):
    return {seed: reference_trial(rps_tree, seed) for seed in SEEDS}


@pytest.fixture
def lp_shapes(monkeypatch):
    """Shapes of the matrices psro passes to solve_matrix_lp, in call
    order."""
    shapes = []

    def counting_lp(matrix):
        shapes.append(np.shape(matrix))
        return solve_matrix_lp(matrix)

    monkeypatch.setattr(psro, "solve_matrix_lp", counting_lp)
    return shapes


def test_records_match_the_resolve_every_iteration_loop(rps_tree, reference,
                                                        lp_shapes):
    game = make_game("rps_choice")
    total_after_growth = 0
    for seed in SEEDS:
        lp_shapes.clear()
        record, after_growth, _ = reference[seed]
        assert psro_histogram(game, trials=1, seed0=seed, horizon=HORIZON,
                              base_tree=rps_tree) == [record]
        assert all(a != b for a, b in zip(lp_shapes, lp_shapes[1:])), seed
        assert len(lp_shapes) == 1 + after_growth, seed
        total_after_growth += after_growth
    # The skip matters only if some iterations leave both populations
    # alone, and the test means something only if some grow them.
    assert 0 < total_after_growth < len(SEEDS) * (HORIZON - 1)


def test_a_batch_of_trials_makes_one_call_per_grown_matrix(rps_tree,
                                                           reference,
                                                           lp_shapes):
    # Each trial starts its own meta-game, whatever the last one did.
    seeds = SEEDS[:10]
    records = psro_histogram(make_game("rps_choice"), trials=len(seeds),
                             seed0=seeds[0], horizon=HORIZON,
                             base_tree=rps_tree)
    assert records == [reference[s][0] for s in seeds]
    assert len(lp_shapes) == len(seeds) + sum(reference[s][1]
                                              for s in seeds)


def test_lp_solution_is_byte_identical_on_a_repeated_matrix(reference):
    # The kept solution stands in for a re-solve of the same matrix, so
    # the solver must be deterministic for a fixed input.
    matrices = [m for seed in SEEDS[:5]
                for k, m in enumerate(reference[seed][2])
                if k == 0 or m.shape != reference[seed][2][k - 1].shape]
    rng = np.random.default_rng(0)
    matrices += [rng.integers(-2, 3, size=(r, c)).astype(float)
                 for r, c in ((1, 1), (2, 3), (5, 4), (9, 6))]
    for m in matrices:
        a, b = solve_matrix_lp(m), solve_matrix_lp(m.copy())
        assert a.row.tobytes() == b.row.tobytes()
        assert a.col.tobytes() == b.col.tobytes()
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
