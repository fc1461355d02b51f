"""Choice arrays against the dict-keyed code they replaced.

Pure strategies used to travel as key -> action tables, and mixtures,
reduced forms, population keys, random draws and the XFP step walked
them one infostate at a time.  Those walks are kept here as references;
the staged array versions must give the same bytes on every game below,
with random populations, zero weights and infostates no surviving
member reaches, and leave a generator in the same state.
"""

import numpy as np
import pytest

from efgsolve import (TabularPolicy, TreeIndex, best_response, make_game,
                      profile_array)
from efgsolve.policy import (PurePolicy, canonical_pure, random_pure_policy,
                             realize_mixture)
from efgsolve.psro import reduced_canonical
from efgsolve.solvers import Xfp

from oracles import actions_of

# kgmp_1_9 and oshi_zumo_9_1_4 have rows of 8 or more actions, which
# numpy sums pairwise rather than left to right.
GAMES = ["kuhn", "leduc", "rps_choice", "oshi_zumo_3_3_4", "kgmp_1_3",
         "kgmp_1_9", "oshi_zumo_9_1_4"]


@pytest.fixture(scope="module", params=GAMES)
def tree(request):
    return TreeIndex(make_game(request.param))


def as_pure(tree, player, choice):
    return PurePolicy(player, actions_of(tree, player, choice))


def reference_realize_mixture(tree, pures, weights, player):
    """The realized policy, and how many of its rows carry no
    surviving weight."""
    weights = np.asarray(weights, dtype=float)
    out = TabularPolicy(player)
    uniform = 0
    alive = np.zeros((tree.n_infosets, len(pures)))
    for isid in tree.infosets_of(player):
        p_isid = tree.is_parent[isid]
        if p_isid < 0:
            w = weights.copy()
        else:
            slot = int(tree.is_parent_slot[isid])
            pkey = tree.keys[p_isid]
            pacts = tree.is_actions[p_isid]
            taken = pacts[slot]
            w = alive[p_isid] * np.array(
                [1.0 if pi.act(pkey, pacts) == taken else 0.0
                 for pi in pures])
        alive[isid] = w
        acts = tree.is_actions[isid]
        row = np.zeros(len(acts))
        for k, pi in enumerate(pures):
            if w[k] > 0.0:
                row[acts.index(pi.act(tree.keys[isid], acts))] += w[k]
        total = row.sum()
        if total > 0.0:
            row /= total
        else:
            row[:] = 1.0 / len(acts)
            uniform += 1
        out.table[tree.keys[isid]] = row
    return out, uniform


def reference_reduced_canonical(tree, pure, player):
    reachable = {}
    parts = []
    for isid in tree.infosets_of(player):
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


def reference_random_pure_policy(tree, player, rng):
    pol = PurePolicy(player)
    for isid in tree.infosets_of(player):
        acts = tree.is_actions[isid]
        pol.actions[tree.keys[isid]] = acts[int(rng.integers(len(acts)))]
    return pol


class ReferenceXfp(Xfp):
    """The per-infostate XFP step."""

    def _reference_reach(self, player, pure=None):
        tree = self.tree
        x = np.zeros(tree.n_infosets)
        for isid in tree.infosets_of(player):
            p_isid = tree.is_parent[isid]
            if p_isid < 0:
                base = 1.0
            else:
                slot = int(tree.is_parent_slot[isid])
                if pure is None:
                    off = int(tree.is_off[p_isid])
                    base = x[p_isid] * self.sigma[off + slot]
                else:
                    key = tree.keys[p_isid]
                    acts = tree.is_actions[p_isid]
                    base = (x[p_isid] if pure.act(key, acts) == acts[slot]
                            else 0.0)
            x[isid] = base
        return x

    def iterate(self, n=1):
        tree = self.tree
        for _ in range(n):
            self.t += 1
            alpha = 1.0 / (self.t + 1.0)
            brs = [as_pure(tree, p, best_response(
                tree, self.sigma, p, self.counter).choice) for p in (0, 1)]
            for p, br in zip((0, 1), brs):
                x_avg = self._reference_reach(p)
                x_br = self._reference_reach(p, pure=br)
                for isid in tree.infosets_of(p):
                    denom = (1 - alpha) * x_avg[isid] + alpha * x_br[isid]
                    if denom <= 0.0:
                        continue
                    sl = tree.col_slice(int(isid))
                    row = (1 - alpha) * x_avg[isid] * self.sigma[sl]
                    if x_br[isid] > 0.0:
                        acts = tree.is_actions[isid]
                        a = br.act(tree.keys[isid], acts)
                        onehot = np.zeros(len(acts))
                        onehot[acts.index(a)] = 1.0
                        row = row + alpha * x_br[isid] * onehot
                    self.sigma[sl] = row / denom


def random_population(tree, player, rng):
    """Up to 12 random choice arrays, some repeated, and weights of
    which some are exactly 0."""
    k = int(rng.integers(1, 13))
    choices = np.array([random_pure_policy(tree, player, rng)
                        for _ in range(k)])
    if k > 2:
        choices[-1] = choices[0]
    weights = rng.random(k)
    weights[rng.random(k) < 0.3] = 0.0
    weights /= max(weights.sum(), 1.0)
    return choices, weights


def test_realize_mixture_matches_the_per_infostate_reference(tree):
    rng = np.random.default_rng(1)
    uniform_rows = 0
    for _ in range(20):
        for player in (0, 1):
            choices, weights = random_population(tree, player, rng)
            half = realize_mixture(tree, choices, weights, player)
            pures = [as_pure(tree, player, c) for c in choices]
            want, uniform = reference_realize_mixture(tree, pures, weights,
                                                      player)
            pair = (want, None) if player == 0 else (None, want)
            assert half.tobytes() == profile_array(tree, *pair).tobytes()
            uniform_rows += uniform
    # Rows no member with weight reaches are filled uniformly.
    assert uniform_rows > 0


def test_realize_mixture_of_zero_weights_is_uniform(tree):
    choices = np.array([random_pure_policy(tree, 0, np.random
                                           .default_rng(2))])
    half = realize_mixture(tree, choices, np.zeros(1), 0)
    pures = [as_pure(tree, 0, choices[0])]
    want, _ = reference_realize_mixture(tree, pures, np.zeros(1), 0)
    assert half.tobytes() == profile_array(tree, want, None).tobytes()


def test_reduced_canonical_matches_the_per_infostate_reference(tree):
    rng = np.random.default_rng(3)
    for _ in range(20):
        for player in (0, 1):
            choice = random_pure_policy(tree, player, rng)
            got = np.frombuffer(reduced_canonical(tree, choice, player),
                                dtype=np.int64)
            isids = tree.infosets_of(player)
            decoded = tuple((int(isids[i]), int(tree.col_action[c]))
                            for i, c in enumerate(got) if c >= 0)
            assert decoded == reference_reduced_canonical(
                tree, as_pure(tree, player, choice), player)


def test_canonical_pure_matches_the_action_tuple(tree):
    rng = np.random.default_rng(4)
    for player in (0, 1):
        # A partial table: some infostates fall back to the first action.
        table = {tree.keys[isid]: acts[int(rng.integers(len(acts)))]
                 for isid, acts in enumerate(tree.is_actions)
                 if tree.is_player[isid] == player and rng.random() < 0.5}
        pure = PurePolicy(player, table)
        want = tuple(pure.act(tree.keys[isid], tree.is_actions[isid])
                     for isid in tree.infosets_of(player))
        got = canonical_pure(tree, pure)
        assert got.dtype == np.int64
        assert tuple(tree.col_action[got].tolist()) == want
        assert (tree.col_isid[got] == tree.infosets_of(player)).all()


def test_random_pure_policy_draws_like_per_infostate_draws(tree):
    for seed in range(5):
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        for player in (0, 1):
            got = random_pure_policy(tree, player, ours)
            want = reference_random_pure_policy(tree, player, theirs)
            assert actions_of(tree, player, got) == want.actions
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_xfp_step_matches_the_per_infostate_reference(tree):
    ours, theirs = Xfp(tree), ReferenceXfp(tree)
    for _ in range(6):
        ours.iterate(1)
        theirs.iterate(1)
        assert ours.sigma.tobytes() == theirs.sigma.tobytes()
