"""Double oracle over extensive-form restricted games.

``xdo_solve`` runs on the base game's ``TreeIndex`` and walks no game.
Its outer loop keeps a population of pure strategies per player, as
rows of choice arrays over that base tree.  Each iteration takes the
restricted game whose legal actions at an infostate are exactly those
some population member plays there, as a column mask over the base
tree, and derives its index from the base index
(``TreeIndex.restrict``).  It solves that game to a decaying
tolerance, extends the solution to the full game by scattering its
columns onto the base tree (first action where undefined), and asks
exact best-response oracles whether either player can still gain.  If
the summed gain is within the termination tolerance the extended
profile is returned; otherwise both best responses join the
populations.

The inner solve is one stream of restricted profiles
(``_inner_solutions``): the exact solution of the restricted game's
sequence-form LP, or the CFR(+) average every ``check_period``
iterations.  It stops at the stream's last profile, on an exhausted
budget, or once (a) its restricted-game exploitability is below the
current tolerance and (b) it is strictly below the full-game
exploitability of the extended profile, so work is never wasted
polishing a restricted game that already lags the full game; when the
extended profile is already good enough to terminate on, (b) is waived
to avoid polishing forever.

Best responses prefer actions already inside the restricted game when
exactly tied, so payoff-identical duplicates never grow the population.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import count

import numpy as np

# canonical_pure, expected_value, lift_policy, profile_array,
# realize_mixture, solve_matrix_lp and RestrictedGame are not used here;
# the benchmark's tracer wraps the functions under this module's names
# and reads the class from it.
from .evaluate import best_response, expected_value
from .metrics import _count, _real, check_rules, one_of
from .policy import (canonical_pure, lift_policy, profile_array,
                     realize_mixture)
from .solvers.cfr import Cfr, normalise_rows
from .solvers.matrix_solvers import solve_matrix_lp, solve_sequence_form
from .tree import NodeCounter, RestrictedGame, TreeIndex


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


# Each setting's rule, (test, what it must be) in the command line's
# wording; _inner_solutions dispatches on inner.  NaN fails every
# comparison, so it is no finite real number; None is no cap.
XDO_RULES = {
    "inner": one_of("cfr_plus", "cfr", "lp"),
    **dict.fromkeys(("eps0", "eps_floor", "term_eps"),
                    (lambda v: _real(v) and 0 <= v < math.inf,
                     "a finite real number >= 0")),
    "check_period": (_count, "an integer >= 1"),
    "eps_decay": (lambda v: _real(v) and 0 < v <= 1,
                  "a real number in (0, 1]"),
    **dict.fromkeys(("max_outer", "max_inner"),
                    (lambda v: v is None or _count(v), "an integer >= 1")),
}


@dataclass
class XdoConfig:
    eps0: float = 0.35
    eps_decay: float = 0.98
    eps_floor: float = 1e-4
    term_eps: float = 1e-6
    inner: str = "cfr_plus"
    check_period: int = 10
    max_outer: int | None = None
    max_inner: int | None = None

    def __post_init__(self):
        check_rules(vars(self), XDO_RULES)


@dataclass
class XdoResult:
    populations: tuple[Population, Population]
    sigma: np.ndarray      # base-tree profile the last full check measured
    exploitability: float
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
        counter.add(rtree.n_nodes)
        plan, _ = solve_sequence_form(rtree)
        yield normalise_rows(rtree, plan), 1, True
        return
    solver = Cfr(rtree, plus=(cfg.inner == "cfr_plus"), counter=counter)
    for inner_iters in count(1):
        solver.iterate(1)
        if inner_iters % cfg.check_period == 0 or counter.exhausted:
            yield solver.average_flat(), inner_iters, (
                cfg.max_inner is not None and inner_iters >= cfg.max_inner)


def xdo_solve(tree: TreeIndex, config: XdoConfig | None = None,
              counter: NodeCounter | None = None) -> XdoResult:
    cfg = config or XdoConfig()
    if counter is None:
        counter = NodeCounter()
    populations = tuple(
        Population(tree, p, [tree.is_off[tree.infosets_of(p)]])
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
        rtree = tree.restrict(allowed)

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

            sigma_full = _extend_to_base(rtree, tree, flat)
            br0 = best_response(tree, sigma_full, 0, counter,
                                prefer=populations[0].cols)
            br1 = best_response(tree, sigma_full, 1, counter,
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

    # Every outer iteration ends on a full check, so sigma_full is the
    # profile the last check measured.
    r_is = (len(rtree.infosets_of(0)), len(rtree.infosets_of(1)))
    return XdoResult(
        populations=populations, sigma=sigma_full, exploitability=e_full,
        eps_inner_final=eps, terminated=terminated, outer_iters=outer,
        nodes=counter.count, trace=trace, restricted_nodes=rtree.n_nodes,
        restricted_infostates=r_is,
    )
