"""Normal-form double oracle / tabular PSRO.

Populations of pure strategies per player (rows of choice arrays, see
``xdo.Population``), an empirical payoff matrix over all pairs (each
cell scatters one row of each population into a flat profile; exact
tree evaluation by default, optionally the average of seeded playouts
down the tree's ``walk_table``), grown by ``grow_matrix``, a
matrix-game meta-solver (LP by default), and exact best responses
against the realized meta-mixture, the sum of both players' halves from
``realize_mixture``.  Terminates when neither best response improves
on the mixture value by more than ``eps``.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .evaluate import best_response, expected_value
# profile_array is not called here; the benchmark's tracer wraps it
# under this module's name.
from .policy import (TabularPolicy, own_reachable, policy_from_flat,
                     profile_array, pure_profile, random_pure_policy,
                     realize_mixture)
from .solvers.matrix_solvers import (grow_matrix, solve_matrix_fp,
                                     solve_matrix_lp)
from .tree import NodeCounter, TreeIndex, walk_table
from .xdo import Population


@dataclass
class PsroConfig:
    eps: float = 1e-3
    meta_solver: str = "lp"       # lp | fp
    fp_iters: int = 2000
    payoffs: str = "exact"        # exact | sampled
    games_per_pair: int = 100
    init: str = "default"         # default | random
    seed: int = 0
    max_iters: int | None = None


@dataclass
class PsroResult:
    populations: tuple[Population, Population]
    meta: tuple[np.ndarray, np.ndarray]
    policy0: TabularPolicy
    policy1: TabularPolicy
    exploitability: float
    terminated: bool
    iters: int
    nodes: int
    trace: list = field(default_factory=list)


def _sampled_payoff(root, sigma: np.ndarray, games: int,
                    seed_seq: np.random.SeedSequence,
                    counter: NodeCounter) -> float:
    """Mean player-0 payoff of ``games`` seeded playouts of the pure
    profile ``sigma`` down ``root``, a ``walk_table``."""
    draw = np.random.default_rng(seed_seq).random
    cols = sigma.tolist()
    total = 0.0
    visits = 0
    for _ in range(games):
        nd = root
        while nd.__class__ is not float:
            visits += 1
            if len(nd) == 2:
                nd = nd[0][bisect_right(nd[1], draw())]
            else:
                # Pure strategies: one column of the infostate is 1.0.
                kids, _, lo, hi = nd
                nd = kids[cols.index(1.0, lo, hi) - lo]
        visits += 1
        total += nd
    counter.add(visits)
    return total / games


def _double_oracle(tree: TreeIndex, pops, payoff, solve,
                   counter: NodeCounter | None = None, rng=None):
    """Matrix double-oracle iterations over ``pops``, which the caller
    grows between them.  Each yields the meta-solution, the realized
    mixture ``sigma``, both best responses against it and each one's
    gain over the mixture's value.  The matrix (new cells
    ``payoff(i, j)``), its ``solve``, ``sigma`` and the value are
    recomputed only after a population grew; the matrix is otherwise
    the one already solved, and HiGHS is deterministic for a fixed
    input."""
    m = np.zeros((0, 0))
    while True:
        shape = (len(pops[0]), len(pops[1]))
        if shape != m.shape:
            m = grow_matrix(m, shape, payoff)
            sol = solve(m)
            sigma = (realize_mixture(tree, pops[0].choices, sol.row, 0)
                     + realize_mixture(tree, pops[1].choices, sol.col, 1))
            v = expected_value(tree, sigma, counter=counter)
        br0 = best_response(tree, sigma, 0, counter, rng=rng)
        br1 = best_response(tree, sigma, 1, counter, rng=rng)
        yield sol, sigma, br0, br1, br0.value - v, br1.value + v


def psro_solve(game, config: PsroConfig | None = None,
               counter: NodeCounter | None = None,
               base_tree: TreeIndex | None = None) -> PsroResult:
    cfg = config or PsroConfig()
    if counter is None:
        counter = NodeCounter()
    tree = base_tree if base_tree is not None else TreeIndex(game)
    rng = np.random.default_rng(cfg.seed)

    pops = tuple(Population(tree, p, [
        random_pure_policy(tree, p, rng) if cfg.init == "random"
        else tree.is_off[tree.infosets_of(p)]]) for p in (0, 1))

    root = walk_table(tree) if cfg.payoffs == "sampled" else None

    def payoff(i: int, j: int) -> float:
        sigma = pure_profile(tree, pops[0].choices[i], pops[1].choices[j])
        if root is None:
            return expected_value(tree, sigma, counter=counter)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i, j))
        return _sampled_payoff(root, sigma, cfg.games_per_pair, seq, counter)

    solve = solve_matrix_lp if cfg.meta_solver == "lp" else partial(
        solve_matrix_fp, iterations=cfg.fp_iters)

    t_start = time.perf_counter()
    trace: list[dict] = []
    terminated = False

    for iters, (sol, sigma, br0, br1, d0, d1) in enumerate(
            _double_oracle(tree, pops, payoff, solve, counter), 1):
        e = d0 + d1
        trace.append(dict(iter=iters, nodes=counter.count,
                          exploitability=e, pop0=len(pops[0]),
                          pop1=len(pops[1]),
                          wall_ms=(time.perf_counter() - t_start) * 1000.0))

        if d0 <= cfg.eps and d1 <= cfg.eps:
            terminated = True
            break
        if counter.exhausted:
            break
        if cfg.max_iters is not None and iters >= cfg.max_iters:
            break

        added = [pops[p].add(br.choice) for p, br in ((0, br0), (1, br1))]
        if not any(added):
            # Approximate meta-solver failed to use an existing improver;
            # nothing new to evaluate, so stop rather than loop.
            break

    policy0, policy1 = (policy_from_flat(tree, sigma, p) for p in (0, 1))
    return PsroResult(populations=pops, meta=(sol.row, sol.col),
                      policy0=policy0, policy1=policy1, exploitability=e,
                      terminated=terminated, iters=iters,
                      nodes=counter.count, trace=trace)


def reduced_canonical(tree: TreeIndex, choice: np.ndarray,
                      player: int) -> bytes:
    """Hashable form of a pure strategy restricted to the infostates the
    player reaches under their own play (-1 in every other slot); two
    strategies with the same reduced form are indistinguishable in
    payoff terms."""
    return np.where(own_reachable(tree, choice, player), choice,
                    -1).tobytes()


def psro_histogram(game, trials: int, seed0: int, horizon: int,
                   eps: float = PsroConfig.eps,
                   base_tree: TreeIndex | None = None) -> list[dict]:
    """Strategy-expansion experiment over repeated double-oracle trials.

    Each trial starts from one uniformly drawn pure strategy per player
    and runs a fixed number of double-oracle iterations: exact payoff
    matrix over the populations, LP meta-solve, exact best responses
    against the realized meta-mixture (``_double_oracle``, which
    re-solves the meta-game only after an iteration that added a
    strategy).  Ties between equally good best response actions are
    resolved by the trial's seeded generator, so on games with tied
    optima the oracle keeps sampling the maximizer set instead of
    repeating one argmax; populations grow by reduced strategy
    identity.  The ``eps`` stop test is evaluated and the iteration
    where it first passes is recorded, but the trial keeps exploring to
    the horizon; expansion counts are therefore a property of the
    maximizer sets, not of which tie the stop test hit first.

    Returns one record per trial: seed, distinct reduced strategies
    expanded per player, the first iteration at which neither best
    response improved by more than ``eps`` (None if never), and the
    final mixture's exploitability.
    """
    tree = base_tree if base_tree is not None else TreeIndex(game)
    records = []
    for t in range(trials):
        seed = seed0 + t
        rng = np.random.default_rng(seed)
        pops = tuple(Population(tree, p, [random_pure_policy(tree, p, rng)])
                     for p in (0, 1))
        seen = tuple({reduced_canonical(tree, pops[p].choices[0], p)}
                     for p in (0, 1))
        first_pass = None
        e = float("inf")
        loop = _double_oracle(
            tree, pops, lambda i, j: expected_value(tree, pure_profile(
                tree, pops[0].choices[i], pops[1].choices[j])),
            solve_matrix_lp, rng=rng)
        # zip draws the iteration number first, so the loop stops before
        # the best responses of an iteration past the horizon.
        for it, (_, _, br0, br1, d0, d1) in zip(range(1, horizon + 1), loop):
            e = d0 + d1
            if first_pass is None and d0 <= eps and d1 <= eps:
                first_pass = it
            for p, br in ((0, br0), (1, br1)):
                key = reduced_canonical(tree, br.choice, p)
                if key not in seen[p]:
                    seen[p].add(key)
                    pops[p].add(br.choice)
        records.append(dict(seed=seed, expanded0=len(seen[0]),
                            expanded1=len(seen[1]), iters=horizon,
                            eps_pass_iter=first_pass,
                            exploitability=e))
    return records
