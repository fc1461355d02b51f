"""Double oracle over extensive-form restricted games.

The outer loop keeps a population of pure strategies per player, as
rows of choice arrays over the base tree (see ``TreeIndex``).  Each
iteration takes the restricted game whose legal actions at an
infostate are exactly those some population member plays there, as a
column mask over the base tree, and derives its index from the base
index (``TreeIndex.restrict``, no game walk).  It solves that game to a
decaying tolerance, extends the solution to the full game by scattering
its columns onto the base tree (first action where undefined), and asks
exact best-response oracles whether either player can still gain.  If
the summed gain is within the termination tolerance the extended
profile is returned; otherwise both best responses join the
populations.

The inner solve is one stream of restricted profiles
(``_inner_solutions``): one exact LP solution, or the CFR(+) average
every ``check_period`` iterations.  It stops at the stream's last
profile, on an exhausted budget, or once (a) its restricted-game
exploitability is below the current tolerance and (b) it is strictly
below the full-game exploitability of the extended profile, so work is
never wasted polishing a restricted game that already lags the full
game; when the extended profile is already good enough to terminate
on, (b) is waived to avoid polishing forever.

Best responses prefer actions already inside the restricted game when
exactly tied, so payoff-identical duplicates never grow the population.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .evaluate import best_response, expected_value
# canonical_pure and profile_array are not called here; the benchmark's
# tracer wraps them under this module's names.
from .policy import (TabularPolicy, canonical_pure, lift_policy,
                     policy_from_flat, profile_array, pure_profile,
                     realize_mixture)
from .solvers.cfr import Cfr
from .solvers.matrix_solvers import grow_matrix, solve_matrix_lp
from .tree import EnumerationOverflow, NodeCounter, TreeIndex


class Population:
    """Pure strategies of one player as the rows of ``choices`` (choice
    arrays over the base tree, in order of arrival), deduplicated on
    their bytes.  ``cols`` is the bool mask of the base tree's columns
    that some member plays."""

    def __init__(self, tree: TreeIndex, player: int, members=()):
        self.tree = tree
        self.player = player
        self.choices = np.empty((0, tree.infosets_of(player).size),
                                dtype=np.int64)
        self.cols = np.zeros(tree.n_cols, dtype=bool)
        self._seen: set[bytes] = set()
        for m in members:
            self.add(m)

    def add(self, choice) -> bool:
        choice = np.asarray(choice, dtype=np.int64)
        key = choice.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.choices = np.vstack((self.choices, choice))
        self.cols[choice] = True
        return True

    def __len__(self) -> int:
        return len(self.choices)


def eq1_allowed(populations) -> np.ndarray:
    """The restricted game's bool mask over the base tree's columns:
    every action some population member plays at its infostate (the
    paper's Eq. 1)."""
    return populations[0].cols | populations[1].cols


class RestrictedGame:
    """The game behind a restricted tree: a base game cut down to the
    allowed columns ``cols`` of its tree (``TreeIndex.restrict``)."""

    def __init__(self, base, cols: np.ndarray):
        self.base = base
        self.cols = cols
        self.name = base.name + "+restricted"


def enumerate_reduced_pure(tree: TreeIndex, player: int,
                           cap: int = 100_000) -> np.ndarray:
    """All reduced pure strategies, as rows of choice arrays: every
    assignment over the infostates the player can reach given their own
    earlier choices, with the first action everywhere else."""
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
            if len(combos) > cap:
                raise EnumerationOverflow(
                    f"reduced strategy space of player {player} exceeds "
                    f"cap {cap}")
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


@dataclass
class XdoConfig:
    eps0: float = 0.35
    eps_decay: float = 0.98
    eps_floor: float = 1e-4
    term_eps: float = 1e-6
    inner: str = "cfr_plus"  # cfr_plus | cfr | lp
    check_period: int = 10
    max_outer: int | None = None
    max_inner: int | None = None
    lp_cap: int = 100_000


@dataclass
class XdoResult:
    populations: tuple[Population, Population]
    policy0: TabularPolicy
    policy1: TabularPolicy
    exploitability: float
    eps_final: float       # termination tolerance the final check used
    eps_inner_final: float  # decayed inner tolerance at the end
    terminated: bool
    outer_iters: int
    nodes: int
    trace: list = field(default_factory=list)
    restricted_nodes: int = 0
    restricted_infostates: tuple[int, int] = (0, 0)


def _extend_to_base(rtree: TreeIndex, base_tree: TreeIndex,
                    flat: np.ndarray) -> np.ndarray:
    """Base-tree profile of a restricted solution: its rows scattered
    onto their base columns, the first action wherever it is undefined."""
    sigma = np.zeros(base_tree.n_cols)
    sigma[base_tree.is_off] = 1.0
    sigma[base_tree.is_off[base_tree.col_isid[rtree.base_col]]] = 0.0
    sigma[rtree.base_col] = flat
    return sigma


def _inner_solutions(rtree: TreeIndex, cfg: XdoConfig, counter):
    """Yields ``(flat, inner_iters, last)``: a restricted profile, the
    inner iterations behind it, and whether it ends the solve (at
    ``max_inner``; the LP's one solution is always the last)."""
    if cfg.inner == "lp":
        p0, p1 = (enumerate_reduced_pure(rtree, p, cfg.lp_cap) for p in (0, 1))
        m = grow_matrix(np.zeros((0, 0)), (len(p0), len(p1)),
                        lambda i, j: expected_value(rtree, pure_profile(
                            rtree, p0[i], p1[j]), counter=counter))
        sol = solve_matrix_lp(m)
        yield (realize_mixture(rtree, p0, sol.row, 0)
               + realize_mixture(rtree, p1, sol.col, 1)), 1, True
        return
    solver = Cfr(rtree, plus=(cfg.inner == "cfr_plus"), counter=counter)
    for inner_iters in count(1):
        solver.iterate(1)
        if inner_iters % cfg.check_period == 0 or counter.exhausted:
            yield solver.average_flat(), inner_iters, (
                cfg.max_inner is not None and inner_iters >= cfg.max_inner)


def xdo_solve(game, config: XdoConfig | None = None,
              counter: NodeCounter | None = None,
              base_tree: TreeIndex | None = None) -> XdoResult:
    cfg = config or XdoConfig()
    if counter is None:
        counter = NodeCounter()
    if base_tree is None:
        base_tree = TreeIndex(game)
    populations = tuple(
        Population(base_tree, p, [base_tree.is_off[base_tree.infosets_of(p)]])
        for p in (0, 1))

    eps = cfg.eps0
    t_start = time.perf_counter()
    trace: list[dict] = []
    terminated = False
    outer = 0
    e_full = float("inf")

    while True:
        outer += 1
        allowed = eq1_allowed(populations)
        rtree = base_tree.restrict(allowed, RestrictedGame(game, allowed))

        for flat, inner_iters, last in _inner_solutions(rtree, cfg, counter):
            br0r = best_response(rtree, flat, 0, counter)
            br1r = best_response(rtree, flat, 1, counter)
            e_r = br0r.value + br1r.value

            stopping = last or counter.exhausted
            if not (e_r < eps or stopping):
                # condition (a) failed and the loop goes on, so the
                # verdict cannot be "stop" no matter what the full-game
                # check says; skip the expensive part of the check
                continue

            sigma_full = _extend_to_base(rtree, base_tree, flat)
            br0 = best_response(base_tree, sigma_full, 0, counter,
                                prefer=populations[0].cols)
            br1 = best_response(base_tree, sigma_full, 1, counter,
                                prefer=populations[1].cols)
            e_full = br0.value + br1.value

            trace.append(dict(outer=outer, inner=inner_iters,
                              nodes=counter.count, exploitability=e_full,
                              restricted_exploitability=e_r,
                              pop0=len(populations[0]),
                              pop1=len(populations[1]),
                              restricted_nodes=rtree.n_nodes,
                              wall_ms=(time.perf_counter() - t_start)
                              * 1000.0))

            if stopping or (e_r < eps and (e_r < e_full
                                           or e_full <= cfg.term_eps)):
                break

        if e_full <= cfg.term_eps:
            terminated = True
            break
        if counter.exhausted:
            break
        populations[0].add(br0.choice)
        populations[1].add(br1.choice)
        eps = max(eps * cfg.eps_decay, cfg.eps_floor)
        if cfg.max_outer is not None and outer >= cfg.max_outer:
            break

    # Every outer iteration ends on a full check, so (rtree, flat) is
    # the restricted solution the last check extended.
    policy0, policy1 = (lift_policy(rtree, base_tree,
                                    policy_from_flat(rtree, flat, p))
                        for p in (0, 1))
    r_is = (len(rtree.infosets_of(0)), len(rtree.infosets_of(1)))
    return XdoResult(
        populations=populations, policy0=policy0, policy1=policy1,
        exploitability=e_full, eps_final=cfg.term_eps,
        eps_inner_final=eps, terminated=terminated, outer_iters=outer,
        nodes=counter.count, trace=trace,
        restricted_nodes=rtree.n_nodes, restricted_infostates=r_is,
    )
