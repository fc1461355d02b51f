"""Policies, evaluation, and the best-response oracle.

The oracle is checked against brute force: enumerate every reduced pure
strategy, evaluate each against the fixed opponent, take the max.  Its
stage-wise kernel is also checked against a per-infostate reference
for identical values, choices and random draws.  The mixture
realization is checked against Kuhn's theorem: a realized
mixture must earn exactly the weighted sum of its components' payoffs
against any fixed opponent.
"""

import numpy as np
import pytest

from efgsolve import (NodeCounter, TabularPolicy, TreeIndex, best_response,
                      exploitability, expected_value, make_game,
                      profile_array, realize_mixture, uniform_policy)
from efgsolve.policy import (PurePolicy, canonical_pure, lift_policy,
                             policy_from_flat, random_pure_policy)
from efgsolve.xdo import enumerate_reduced_pure

from oracles import actions_of, as_policy, choice_of, default_choice


def random_behavioral(tree, player, rng):
    pol = TabularPolicy(player)
    for isid in tree.infosets_of(player):
        n = int(tree.is_nact[isid])
        row = rng.random(n) + 1e-3
        pol.set_row(tree.keys[isid], row / row.sum())
    return pol


def brute_force_br_value(tree, opponent, player):
    best = -np.inf
    for choice in enumerate_reduced_pure(tree, player):
        pure = as_policy(tree, choice, player)
        pair = (pure, opponent) if player == 0 else (opponent, pure)
        v = expected_value(tree, profile_array(tree, *pair))
        best = max(best, v if player == 0 else -v)
    return best


@pytest.mark.parametrize("name", ["kuhn", "kgmp_1_3"])
def test_best_response_matches_brute_force(name):
    tree = TreeIndex(make_game(name))
    rng = np.random.default_rng(4)
    for player in (0, 1):
        opponents = [uniform_policy(tree, 1 - player),
                     random_behavioral(tree, 1 - player, rng),
                     random_behavioral(tree, 1 - player, rng)]
        for opp in opponents:
            sides = (None, opp) if player == 0 else (opp, None)
            br = best_response(tree, profile_array(tree, *sides), player)
            assert br.value == pytest.approx(
                brute_force_br_value(tree, opp, player), abs=1e-12)
            # The reported pure strategy actually achieves the value.
            pure = as_policy(tree, br.choice, player)
            pair = (pure, opp) if player == 0 else (opp, pure)
            achieved = expected_value(tree, profile_array(tree, *pair))
            achieved = achieved if player == 0 else -achieved
            assert achieved == pytest.approx(br.value, abs=1e-12)


def test_best_response_tie_breaking_is_lowest_action(kgmp13_tree):
    # Against uniform every action of GMP ties at value 0.
    br = best_response(kgmp13_tree, profile_array(
        kgmp13_tree, None, uniform_policy(kgmp13_tree, 1)), 0)
    key = kgmp13_tree.keys[int(kgmp13_tree.infosets_of(0)[0])]
    assert actions_of(kgmp13_tree, 0, br.choice)[key] == 0


def test_best_response_prefer_filter_breaks_ties(kgmp13_tree):
    key = kgmp13_tree.keys[int(kgmp13_tree.infosets_of(0)[0])]
    br = best_response(kgmp13_tree, profile_array(
        kgmp13_tree, None, uniform_policy(kgmp13_tree, 1)), 0,
        prefer=prefer_cols(kgmp13_tree, {key: (2,)}))
    assert actions_of(kgmp13_tree, 0, br.choice)[key] == 2


def test_best_response_rng_samples_the_tie_set(kgmp13_tree):
    rng = np.random.default_rng(0)
    opp = profile_array(kgmp13_tree, None, uniform_policy(kgmp13_tree, 1))
    det = best_response(kgmp13_tree, opp, 0)
    key = kgmp13_tree.keys[int(kgmp13_tree.infosets_of(0)[0])]
    picks = {actions_of(kgmp13_tree, 0, best_response(
        kgmp13_tree, opp, 0, rng=rng).choice)[key] for _ in range(40)}
    assert picks == {0, 1, 2}
    for _ in range(5):
        assert best_response(kgmp13_tree, opp, 0, rng=rng).value \
            == pytest.approx(det.value, abs=1e-12)


def test_best_response_counts_one_visit_per_history(kuhn_tree):
    counter = NodeCounter()
    opp = profile_array(kuhn_tree, None, uniform_policy(kuhn_tree, 1))
    best_response(kuhn_tree, opp, 0, counter)
    assert counter.count == kuhn_tree.n_nodes
    # Reporting mode is free.
    before = counter.count
    best_response(kuhn_tree, opp, 0)
    assert counter.count == before


def test_expected_value_counting(kuhn_tree):
    counter = NodeCounter()
    expected_value(kuhn_tree, profile_array(
        kuhn_tree, uniform_policy(kuhn_tree, 0), uniform_policy(kuhn_tree, 1)),
        counter)
    assert counter.count == kuhn_tree.n_nodes


def test_exploitability_zero_exactly_at_equilibrium():
    tree = TreeIndex(make_game("kgmp_2_3"))
    assert exploitability(tree, profile_array(
        tree, uniform_policy(tree, 0), uniform_policy(tree, 1))) <= 1e-9


def test_realized_mixture_obeys_kuhns_theorem(kuhn_tree):
    rng = np.random.default_rng(11)
    pures = enumerate_reduced_pure(kuhn_tree, 0)[:8]
    opp = random_behavioral(kuhn_tree, 1, rng)
    for _ in range(3):
        w = rng.random(len(pures))
        w /= w.sum()
        mix = realize_mixture(kuhn_tree, pures, w, 0)
        direct = expected_value(kuhn_tree, mix + profile_array(
            kuhn_tree, None, opp))
        by_parts = sum(
            wi * expected_value(kuhn_tree, profile_array(
                kuhn_tree, as_policy(kuhn_tree, pi, 0), opp))
            for wi, pi in zip(w, pures))
        assert direct == pytest.approx(by_parts, abs=1e-12)


def test_realized_mixture_of_one_pure_plays_it_on_path(kuhn_tree):
    choice = enumerate_reduced_pure(kuhn_tree, 0)[5]
    mix = realize_mixture(kuhn_tree, [choice], np.ones(1), 0)
    pure = actions_of(kuhn_tree, 0, choice)
    reachable = dict.fromkeys(
        (kuhn_tree.keys[int(i)] for i in kuhn_tree.infosets_of(0)), False)

    def down(isid, alive):
        key = kuhn_tree.keys[isid]
        reachable[key] = reachable[key] or alive
        for js in kuhn_tree.infosets_of(0):
            if int(kuhn_tree.is_parent[js]) != isid:
                continue
            slot = int(kuhn_tree.is_parent_slot[js])
            taken = pure[key]
            down(int(js), alive and
                 kuhn_tree.is_actions[isid][slot] == taken)

    for isid in kuhn_tree.infosets_of(0):
        if int(kuhn_tree.is_parent[isid]) < 0:
            down(int(isid), True)

    for isid in kuhn_tree.infosets_of(0):
        key = kuhn_tree.keys[int(isid)]
        acts = kuhn_tree.is_actions[int(isid)]
        row = mix[kuhn_tree.col_slice(int(isid))]
        if reachable[key]:
            want = np.zeros(len(acts))
            want[acts.index(pure[key])] = 1.0
            assert np.array_equal(row, want)
        else:
            # Unreachable under the pure itself: unconstrained, filled
            # uniformly.
            assert row == pytest.approx(np.full(len(acts), 1 / len(acts)))


def test_realize_mixture_rejects_bad_weights(kuhn_tree):
    pures = enumerate_reduced_pure(kuhn_tree, 0)[:2]
    with pytest.raises(ValueError):
        realize_mixture(kuhn_tree, pures, np.array([0.5]), 0)


def test_pure_policy_defaults_and_extension(kuhn_tree):
    pure = PurePolicy(0, {(0, 0): 1})
    assert pure.act((0, 0)) == 1
    assert pure.act((0, 1), (0, 1)) == 0, "missing keys take action 0"
    # Its choice array is total: the table's action where it has one,
    # the first action everywhere else.
    full = actions_of(kuhn_tree, 0, canonical_pure(kuhn_tree, pure))
    for isid in kuhn_tree.infosets_of(0):
        key = kuhn_tree.keys[int(isid)]
        assert key in full
        want = 1 if key == (0, 0) else 0
        assert full[key] == want


def test_canonical_pure_distinguishes_total_tables(kuhn_tree):
    a = canonical_pure(kuhn_tree, PurePolicy(0))
    b = canonical_pure(kuhn_tree, PurePolicy(0, {(0, 0, 10, 11): 1}))
    assert not np.array_equal(a, b)
    assert np.array_equal(a, canonical_pure(kuhn_tree, PurePolicy(0, {})))
    assert np.array_equal(a, default_choice(kuhn_tree, 0))


def test_random_pure_policy_is_seeded(kuhn_tree):
    a = random_pure_policy(kuhn_tree, 0, np.random.default_rng(3))
    b = random_pure_policy(kuhn_tree, 0, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_profile_array_roundtrip(kuhn_tree):
    rng = np.random.default_rng(5)
    p0 = random_behavioral(kuhn_tree, 0, rng)
    p1 = random_behavioral(kuhn_tree, 1, rng)
    sigma = profile_array(kuhn_tree, p0, p1)
    back = policy_from_flat(kuhn_tree, sigma, 0)
    for isid in kuhn_tree.infosets_of(0):
        key = kuhn_tree.keys[int(isid)]
        assert back.row(key) == pytest.approx(p0.row(key))


def test_lift_policy_scatters_restricted_rows():
    from efgsolve.xdo import Population, RestrictedGame, eq1_allowed
    game = make_game("kuhn")
    base = TreeIndex(game)
    # Player 1 may check or bet, player 2 is pinned to checking.
    pops = (Population(base, 0, [default_choice(base, 0), choice_of(
        base, 0, {base.keys[int(i)]: 1 for i in base.infosets_of(0)})]),
            Population(base, 1, [default_choice(base, 1)]))
    mask = eq1_allowed(pops)
    rtree = base.restrict(mask, RestrictedGame(game, mask))
    lifted = lift_policy(rtree, base, uniform_policy(rtree, 1))
    for isid in rtree.infosets_of(1):
        key = rtree.keys[int(isid)]
        row = lifted.row(key)
        base_isid = base.key_to_isid[key]
        # Mass sits on the single allowed action, zero elsewhere.
        assert len(row) == int(base.is_nact[base_isid])
        assert row.sum() == pytest.approx(1.0)
        assert row[0] == pytest.approx(1.0)
    # Base infostates the restricted game never reaches stay unset; the
    # profile array then defaults them to the first action.
    unset = [base.keys[int(i)] for i in base.infosets_of(1)
             if lifted.row(base.keys[int(i)]) is None]
    sigma = profile_array(base, uniform_policy(base, 0), lifted)
    for key in unset:
        sl = base.col_slice(base.key_to_isid[key])
        assert sigma[sl][0] == 1.0


def reference_best_response(tree, sigma, player, prefer=None, rng=None):
    """Per-infostate best response: one backward sweep per own-depth
    stage, then a loop over the stage's infostates with the same tie
    rules as ``best_response`` (``prefer`` is a dict here)."""
    def edge_w(ids, chosen, decided):
        w = tree.in_prob[ids].copy()
        cols = tree.in_col[ids]
        opp = tree.in_player[ids] == 1 - player
        w[opp] *= sigma[cols[opp]]
        own = tree.in_player[ids] == player
        if chosen is not None:
            w[own] *= np.where(decided[cols[own]], chosen[cols[own]], 0.0)
        return w

    def sweep(chosen, decided):
        v = tree.payoff1.copy()
        for ids in reversed(tree.levels[1:]):
            np.add.at(v, tree.parent[ids],
                      edge_w(ids, chosen, decided) * v[ids])
        return v

    reach = np.ones(tree.n_nodes)
    for ids in tree.levels[1:]:
        reach[ids] = reach[tree.parent[ids]] * edge_w(ids, None, None)
    chosen = np.zeros(tree.n_cols)
    decided = np.zeros(tree.n_cols, dtype=bool)
    own = tree.infosets_of(player)
    # Own depth: the number of the player's earlier infostates on the
    # way; a parent infostate is numbered before its children.
    own_depth = np.zeros(tree.n_infosets, dtype=np.int64)
    for isid in own.tolist():
        par = int(tree.is_parent[isid])
        if par >= 0:
            own_depth[isid] = own_depth[par] + 1
    node_stage = np.where(tree.decision_mask & (tree.player == player),
                          own_depth[tree.infoset], -1)
    actions = {}
    for stage in sorted(set(own_depth[own].tolist()), reverse=True):
        v = sweep(chosen, decided)
        vp = v if player == 0 else -v
        q = np.zeros(tree.n_cols)
        q_unit = np.zeros(tree.n_cols)
        at_stage = node_stage == stage
        kids = np.flatnonzero(at_stage[tree.parent] &
                              (tree.in_player == player))
        np.add.at(q, tree.in_col[kids], reach[tree.parent[kids]] * vp[kids])
        np.add.at(q_unit, tree.in_col[kids], vp[kids])
        is_reach = np.zeros(tree.n_infosets)
        nodes = np.flatnonzero(at_stage)
        np.add.at(is_reach, tree.infoset[nodes], reach[nodes])
        for isid in own[own_depth[own] == stage]:
            sl = tree.col_slice(isid)
            row = q[sl] if is_reach[isid] > 0.0 else q_unit[sl]
            tol = 0.0 if rng is None else 1e-9
            cand = np.flatnonzero(row >= row.max() - tol)
            acts = tree.is_actions[isid]
            allowed = (prefer or {}).get(tree.keys[isid], ())
            inside = [c for c in cand if acts[c] in allowed]
            if inside:
                cand = inside
            slot = int(cand[0]) if rng is None else int(rng.choice(cand))
            chosen[sl.start + slot] = 1.0
            decided[sl] = True
            actions[tree.keys[isid]] = acts[slot]
    v = sweep(chosen, decided)
    return float(v[0]) if player == 0 else -float(v[0]), actions


def tie_heavy_profile(tree, seed):
    """Random rows rounded to one decimal, so many actions tie."""
    rng = np.random.default_rng(seed)
    sigma = rng.random(tree.n_cols) + 1e-3
    sums = np.add.reduceat(sigma, tree.is_off)
    return np.round(sigma / np.repeat(sums, tree.is_nact), 1)


def random_prefer(tree, player, rng):
    """Allowed-action dict over a random subset of the player's
    infostates; some entries allow nothing."""
    prefer = {}
    for isid in tree.infosets_of(player):
        if rng.random() < 0.7:
            acts = tree.is_actions[isid]
            prefer[tree.keys[isid]] = tuple(a for a in acts
                                            if rng.random() < 0.4)
    return prefer


def prefer_cols(tree, prefer):
    mask = np.zeros(tree.n_cols, dtype=bool)
    for key, allowed in prefer.items():
        isid = tree.key_to_isid[key]
        for slot, a in enumerate(tree.is_actions[isid]):
            mask[int(tree.is_off[isid]) + slot] = a in allowed
    return mask


@pytest.mark.parametrize("name", ["kuhn", "leduc", "rps_choice",
                                  "oshi_zumo_3_3_4", "kgmp_1_3",
                                  "clone_gmp_2_4_3"])
def test_best_response_kernel_matches_per_infostate_reference(name):
    tree = TreeIndex(make_game(name))
    rng = np.random.default_rng(7)
    for seed in range(2):
        sigma = tie_heavy_profile(tree, seed)
        for player in (0, 1):
            prefer = random_prefer(tree, player, rng)
            for pref in (None, prefer_cols(tree, prefer)):
                want = reference_best_response(
                    tree, sigma, player,
                    None if pref is None else prefer)
                br = best_response(tree, sigma, player, prefer=pref)
                assert (br.value,
                        actions_of(tree, player, br.choice)) == want
                ours, theirs = (np.random.default_rng(seed + 10)
                                for _ in range(2))
                want = reference_best_response(
                    tree, sigma, player,
                    None if pref is None else prefer, rng=theirs)
                br = best_response(tree, sigma, player, prefer=pref,
                                   rng=ours)
                assert (br.value,
                        actions_of(tree, player, br.choice)) == want
                assert ours.bit_generator.state == \
                    theirs.bit_generator.state


@pytest.mark.parametrize("name", ["kuhn", "leduc"])
def test_population_mask_is_the_allowed_column_set(name):
    from efgsolve.xdo import Population, eq1_allowed
    tree = TreeIndex(make_game(name))
    rng = np.random.default_rng(3)
    pops = tuple(Population(tree, p, [default_choice(tree, p)] + [
        random_pure_policy(tree, p, rng) for _ in range(3)])
        for p in (0, 1))
    mask = eq1_allowed(pops)
    for p in (0, 1):
        union = {tree.keys[isid]: tuple(sorted(
            {actions_of(tree, p, pi)[tree.keys[isid]]
             for pi in pops[p].choices})) for isid in tree.infosets_of(p)}
        assert {tree.keys[isid]: tuple(
            tree.col_action[tree.col_slice(isid)][
                mask[tree.col_slice(isid)]].tolist())
            for isid in tree.infosets_of(p)} == union
        assert np.array_equal(pops[p].cols, prefer_cols(tree, union))
    # An empty population allows nothing anywhere.
    empty = eq1_allowed((Population(tree, 0), Population(tree, 1)))
    assert not empty.any()
