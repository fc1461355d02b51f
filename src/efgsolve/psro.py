"""Normal-form double oracle / tabular PSRO.

Populations of pure strategies per player, an empirical payoff matrix
over all pairs (exact tree evaluation by default, seeded playout
averages optionally), a matrix-game meta-solver (LP by default), and
exact best responses against the realized meta-mixture.  Terminates
when neither best response improves on the mixture value by more than
``eps``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .evaluate import best_response, expected_value
from .policy import (PurePolicy, TabularPolicy, profile_array,
                     random_pure_policy, realize_mixture, sample_index)
from .solvers.matrix_solvers import solve_matrix_fp, solve_matrix_lp
from .tree import CHANCE_NODE, TERMINAL, NodeCounter, TreeIndex
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
    node_budget: int | None = None


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


def _half_cols(tree: TreeIndex, pure: PurePolicy) -> np.ndarray:
    """One-hot columns for this player's infostates only; a profile of
    two pure strategies is the sum of their halves."""
    sigma = np.zeros(tree.n_cols)
    for isid in tree.infosets_of(pure.player):
        acts = tree.is_actions[isid]
        off = int(tree.is_off[isid])
        sigma[off + acts.index(pure.act(tree.keys[isid], acts))] = 1.0
    return sigma


def _sampled_payoff(tree: TreeIndex, sigma: np.ndarray, games: int,
                    seed_seq: np.random.SeedSequence,
                    counter: NodeCounter | None) -> float:
    rng = np.random.default_rng(seed_seq)
    total = 0.0
    visits = 0
    for _ in range(games):
        u = 0
        while True:
            visits += 1
            kind = tree.kind[u]
            if kind == TERMINAL:
                total += tree.payoff1[u]
                break
            kids = tree.children(u)
            if kind == CHANCE_NODE:
                u = int(kids[sample_index(tree.in_prob[kids], rng.random())])
            else:
                # Pure strategies: exactly one child column carries mass.
                cols = tree.in_col[kids]
                u = int(kids[int(np.argmax(sigma[cols]))])
    if counter is not None:
        counter.add(visits)
    return total / games


def _grow_matrix(m: np.ndarray, shape: tuple[int, int],
                 payoff) -> np.ndarray:
    """``m`` grown to ``shape``; each new cell is ``payoff(i, j)``,
    evaluated in row-major order."""
    grown = np.zeros(shape)
    grown[:m.shape[0], :m.shape[1]] = m
    for i in range(shape[0]):
        for j in range(shape[1]):
            if i >= m.shape[0] or j >= m.shape[1]:
                grown[i, j] = payoff(i, j)
    return grown


def psro_solve(game, config: PsroConfig | None = None,
               counter: NodeCounter | None = None,
               base_tree: TreeIndex | None = None) -> PsroResult:
    cfg = config or PsroConfig()
    if counter is None:
        counter = NodeCounter(cfg.node_budget)
    tree = base_tree if base_tree is not None else TreeIndex(game)
    rng = np.random.default_rng(cfg.seed)

    if cfg.init == "random":
        first = [random_pure_policy(tree, p, rng) for p in (0, 1)]
    else:
        first = [PurePolicy(0), PurePolicy(1)]
    pops = (Population(tree, 0, [first[0]]), Population(tree, 1, [first[1]]))

    halves = ([_half_cols(tree, first[0])], [_half_cols(tree, first[1])])
    m = np.zeros((0, 0))

    def payoff(i: int, j: int) -> float:
        sigma = halves[0][i] + halves[1][j]
        if cfg.payoffs == "exact":
            return expected_value(tree, sigma, counter=counter)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(i, j))
        return _sampled_payoff(tree, sigma, cfg.games_per_pair, seq, counter)

    t_start = time.perf_counter()
    trace: list[dict] = []
    terminated = False
    iters = 0
    policy0 = policy1 = None
    e = float("inf")
    meta = (np.ones(1), np.ones(1))

    while True:
        iters += 1
        n0, n1 = len(pops[0]), len(pops[1])
        m = _grow_matrix(m, (n0, n1), payoff)

        if cfg.meta_solver == "lp":
            sol = solve_matrix_lp(m)
        else:
            sol = solve_matrix_fp(m, cfg.fp_iters)
        meta = (sol.row, sol.col)

        policy0 = realize_mixture(tree, pops[0].members, sol.row, 0)
        policy1 = realize_mixture(tree, pops[1].members, sol.col, 1)
        sigma = profile_array(tree, policy0, policy1)
        v = expected_value(tree, sigma, counter=counter)
        br0 = best_response(tree, sigma, 0, counter)
        br1 = best_response(tree, sigma, 1, counter)
        d0 = br0.value - v
        d1 = br1.value + v
        e = d0 + d1
        trace.append(dict(iter=iters, nodes=counter.count,
                          exploitability=e, pop0=n0, pop1=n1,
                          wall_ms=(time.perf_counter() - t_start) * 1000.0))

        if d0 <= cfg.eps and d1 <= cfg.eps:
            terminated = True
            break
        if counter.exhausted:
            break
        if cfg.max_iters is not None and iters >= cfg.max_iters:
            break

        added = False
        if pops[0].add(br0.policy):
            halves[0].append(_half_cols(tree, br0.policy))
            added = True
        if pops[1].add(br1.policy):
            halves[1].append(_half_cols(tree, br1.policy))
            added = True
        if not added:
            # Approximate meta-solver failed to use an existing improver;
            # nothing new to evaluate, so stop rather than loop.
            break

    return PsroResult(populations=pops, meta=meta, policy0=policy0,
                      policy1=policy1, exploitability=e,
                      terminated=terminated, iters=iters,
                      nodes=counter.count, trace=trace)


def reduced_canonical(tree: TreeIndex, pure: PurePolicy,
                      player: int) -> tuple:
    """Hashable restriction of a pure strategy to the infostates the
    player can actually reach under their own play; two strategies with
    the same reduced form are indistinguishable in payoff terms."""
    reachable = {}
    parts = []
    for isid in tree.infosets_of(player):  # ascending, parents first
        p_isid = int(tree.is_parent[isid])
        if p_isid < 0:
            ok = True
        else:
            slot = int(tree.is_parent_slot[isid])
            pacts = tree.is_actions[p_isid]
            ok = (reachable[p_isid]
                  and pure.act(tree.keys[p_isid], pacts) == pacts[slot])
        reachable[int(isid)] = ok
        if ok:
            acts = tree.is_actions[isid]
            parts.append((int(isid), pure.act(tree.keys[isid], acts)))
    return tuple(parts)


def reduced_strategies_expanded(tree: TreeIndex, pop: Population) -> int:
    """Distinct reduced pure strategies in a population, the sense in
    which a player can 'expand all' strategies of a game."""
    return len({reduced_canonical(tree, pi, pop.player) for pi in pop})


def psro_histogram(game, trials: int = 150, seed0: int = 0,
                   horizon: int = 30, eps: float = 1e-3,
                   base_tree: TreeIndex | None = None) -> list[dict]:
    """Strategy-expansion experiment over repeated double-oracle trials.

    Each trial starts from one uniformly drawn pure strategy per player
    and runs a fixed number of double-oracle iterations: exact payoff
    matrix over the populations, LP meta-solve, exact best responses
    against the realized meta-mixture.  Ties between equally good best
    response actions are resolved by the trial's seeded generator, so
    on games with tied optima the oracle keeps sampling the maximizer
    set instead of repeating one argmax; populations grow by reduced
    strategy identity.  The ``eps`` stop test is evaluated and the
    iteration where it first passes is recorded, but the trial keeps
    exploring to the horizon; expansion counts are therefore a property
    of the maximizer sets, not of which tie the stop test hit first.

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
        members = ([random_pure_policy(tree, 0, rng)],
                   [random_pure_policy(tree, 1, rng)])
        seen = ({reduced_canonical(tree, members[0][0], 0)},
                {reduced_canonical(tree, members[1][0], 1)})
        halves = ([_half_cols(tree, members[0][0])],
                  [_half_cols(tree, members[1][0])])
        m = np.zeros((0, 0))
        first_pass = None
        e = float("inf")
        for it in range(1, horizon + 1):
            m = _grow_matrix(m, (len(members[0]), len(members[1])),
                             lambda i, j: expected_value(
                                 tree, halves[0][i] + halves[1][j]))
            sol = solve_matrix_lp(m)
            mix0 = realize_mixture(tree, members[0], sol.row, 0)
            mix1 = realize_mixture(tree, members[1], sol.col, 1)
            sigma = profile_array(tree, mix0, mix1)
            v = expected_value(tree, sigma)
            br0 = best_response(tree, sigma, 0, rng=rng)
            br1 = best_response(tree, sigma, 1, rng=rng)
            d0, d1 = br0.value - v, br1.value + v
            e = d0 + d1
            if first_pass is None and d0 <= eps and d1 <= eps:
                first_pass = it
            for p, br in ((0, br0), (1, br1)):
                key = reduced_canonical(tree, br.policy, p)
                if key not in seen[p]:
                    seen[p].add(key)
                    members[p].append(br.policy)
                    halves[p].append(_half_cols(tree, br.policy))
        records.append(dict(seed=seed, expanded0=len(seen[0]),
                            expanded1=len(seen[1]), iters=horizon,
                            eps_pass_iter=first_pass,
                            exploitability=e))
    return records
