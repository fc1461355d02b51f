"""The tree's forward and backward passes against per-node recursions.

``TreeIndex.reach`` and ``TreeIndex.values`` are the only sweeps over
the depth levels; every expected value, best response and CFR iteration
goes through them, with weights from ``TreeIndex.edge_weights``.  Each
is checked bit for bit against a recursion over the children lists, on
random profiles and random weights, for trees with and without chance
nodes and for a tree derived by ``restrict``.
"""

from functools import lru_cache

import numpy as np
import pytest

from efgsolve import TreeIndex, make_game
from efgsolve.policy import random_pure_policy
from efgsolve.xdo import RestrictedGame

from oracles import reference_reach, reference_values

GAMES = ["kuhn", "leduc", "oshi_zumo_3_3_4", "kgmp_1_3", "leduc+restricted"]


@lru_cache(maxsize=None)
def tree_of(name):
    if name != "leduc+restricted":
        return TreeIndex(make_game(name))
    base = tree_of("leduc")
    rng = np.random.default_rng(3)
    mask = np.zeros(base.n_cols, dtype=bool)
    for p in (0, 1):
        for _ in range(3):
            mask[random_pure_policy(base, p, rng)] = True
    tree = base.restrict(mask, RestrictedGame(base.game, mask))
    assert 0 < tree.n_nodes < base.n_nodes
    return tree


def random_profile(tree, rng):
    x = rng.random(tree.n_cols)
    return x / np.repeat(np.add.reduceat(x, tree.is_off), tree.is_nact)


@pytest.mark.parametrize("players", [(0, 1), (0,), (1,), ()])
@pytest.mark.parametrize("name", GAMES)
def test_profile_passes_match_the_recursion(name, players):
    tree = tree_of(name)
    sigma = random_profile(tree, np.random.default_rng(len(players)))
    # Incoming edge weight of every node: the chance probability, times
    # sigma on the edges of the chosen players.
    w = tree.in_prob.copy()
    own = np.isin(tree.in_player, players)
    w[own] *= sigma[tree.in_col[own]]
    weights = tree.edge_weights(sigma, players)
    assert len(weights) == len(tree.levels) - 1
    for e, level in zip(tree.edges, weights):
        assert np.array_equal(level, w[e.ids])
    assert np.array_equal(tree.reach(weights), reference_reach(tree, w))
    assert np.array_equal(tree.values(weights), reference_values(tree, w))


@pytest.mark.parametrize("name", GAMES)
def test_arbitrary_weights_and_base_match_the_recursion(name):
    tree = tree_of(name)
    rng = np.random.default_rng(7)
    w = rng.random(tree.n_nodes)
    weights = [w[e.ids] for e in tree.edges]
    assert np.array_equal(tree.reach(weights), reference_reach(tree, w))
    assert np.array_equal(tree.values(weights), reference_values(tree, w))
    # A base replaces the chance probabilities and is left as it was.
    sigma = rng.random(tree.n_cols)
    scaled = tree.edge_weights(sigma, (1,), weights)
    own = tree.in_player == 1
    w_scaled = w.copy()
    w_scaled[own] *= sigma[tree.in_col[own]]
    for e, level, base in zip(tree.edges, scaled, weights):
        assert np.array_equal(level, w_scaled[e.ids])
        assert np.array_equal(base, w[e.ids])


@pytest.mark.parametrize("name", GAMES)
def test_edge_table_matches_the_node_arrays(name):
    tree = tree_of(name)
    assert len(tree.edges) == len(tree.levels) - 1
    for e, ids in zip(tree.edges, tree.levels[1:]):
        assert e.ids is ids
        assert np.array_equal(e.parents, tree.parent[ids])
        assert np.array_equal(e.prob, tree.in_prob[ids])
        assert np.array_equal(e.cols, tree.in_col[ids])
        for p in (0, 1):
            assert np.array_equal(e.own[p],
                                  np.flatnonzero(tree.in_player[ids] == p))
            assert np.array_equal(e.own_cols[p], e.cols[e.own[p]])
