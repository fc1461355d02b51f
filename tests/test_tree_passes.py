"""The tree's level-by-level layout, and its forward and backward
passes against per-node recursions.

``TreeIndex.reach`` and ``TreeIndex.values`` are the tree's general
sweeps over the depth levels, taking weights selected from ``in_prob``
and one gather of the profile, ``TreeIndex.edge_sigma``.  Every
expected value goes through them, and every CFR sweep through
``values``; a best response takes its reach from ``reach`` but runs
its own backward sweep, which ``test_policy_eval`` checks against a
per-infostate reference.  ``TreeIndex.last_cols``, each node's last
own column per player, is the table CFR and the sequence-form LP read
each player's own reach and sequences from.  Each
sweep is checked bit for bit against a recursion over the children
lists, on random profiles and random weights, for trees with and
without chance nodes and for a tree derived by ``restrict``.  The
layout they rely on (each level one slice of ids, each node's children
one run of ids in walk order, the gather's 1.0 off the decision edges)
is checked on the same trees, and ``reach`` bit for bit against the
level loop it replaced.
"""

import numpy as np
import pytest

from oracles import (loop_reach, reference_last_cols, reference_reach,
                     reference_values, tree_of)

GAMES = ["kuhn", "leduc", "oshi_zumo_3_3_4", "kgmp_1_3", "leduc+restricted"]


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
    gathered = tree.in_prob * tree.edge_sigma(sigma)
    assert np.array_equal(np.where(own, gathered, tree.in_prob), w)
    assert np.array_equal(tree.reach(w), reference_reach(tree, w))
    assert np.array_equal(tree.values(w), reference_values(tree, w))


@pytest.mark.parametrize("name", GAMES)
def test_arbitrary_weights_match_the_recursion(name):
    tree = tree_of(name)
    rng = np.random.default_rng(7)
    w = rng.random(tree.n_nodes)
    assert np.array_equal(tree.reach(w), reference_reach(tree, w))
    assert np.array_equal(tree.values(w), reference_values(tree, w))


@pytest.mark.parametrize("name", GAMES)
def test_reach_matches_the_level_loop(name):
    # Zero weights too, so that some subtrees are cut off.
    tree = tree_of(name)
    rng = np.random.default_rng(8)
    for w in (rng.random(tree.n_nodes),
              np.where(rng.random(tree.n_nodes) < 0.2, 0.0,
                       rng.random(tree.n_nodes))):
        got, want = tree.reach(w), loop_reach(tree, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", GAMES)
def test_last_cols_match_the_recursion(name):
    tree = tree_of(name)
    got = tree.last_cols()
    assert got.dtype == np.int64 and got.shape == (2, tree.n_nodes)
    assert np.array_equal(got, reference_last_cols(tree))
    # A fresh table on every call: callers may drop or write theirs.
    assert tree.last_cols() is not got


@pytest.mark.parametrize("name", GAMES)
def test_nodes_are_numbered_level_by_level(name):
    tree = tree_of(name)
    n = tree.n_nodes
    # The levels are consecutive slices, in depth order, covering 0..n.
    assert tree.levels[0] == slice(0, 1)
    end = 0
    for d, sl in enumerate(tree.levels):
        assert sl.start == end < sl.stop and sl.step is None
        assert (tree.depth[sl] == d).all()
        # Within a level, nodes keep the walk's order.
        assert (np.diff(tree.preorder[sl]) > 0).all()
        end = sl.stop
    assert end == n
    # Each node's children are one run of ids; the runs follow one
    # another in id order and cover every node but the root.
    kids = [tree.children(u) for u in range(n)]
    assert np.array_equal(np.concatenate(kids), np.arange(1, n))
    for u, ids in enumerate(kids):
        assert (tree.parent[ids] == u).all()
        assert (np.diff(tree.preorder[ids]) > 0).all()
        if tree.decision_mask[u]:
            # Siblings in action order.
            sl = tree.col_slice(int(tree.infoset[u]))
            assert np.array_equal(tree.in_col[ids],
                                  np.arange(sl.start, sl.stop))
    # ``preorder`` ranks the nodes as a depth-first recursion over the
    # children visits them; a restricted tree keeps its base tree's
    # ranks, so there it is compared by order.
    walk = []

    def visit(u):
        walk.append(u)
        for c in kids[u].tolist():
            visit(c)

    visit(0)
    assert np.array_equal(np.argsort(tree.preorder), walk)
    if name != "leduc+restricted":
        assert np.array_equal(np.sort(tree.preorder), np.arange(n))
    # The edges with a column are the decision edges, and their chance
    # probability is exactly 1.0; ``edge_sigma`` puts sigma there and
    # 1.0 on chance edges and at the root.
    dec = tree.in_col >= 0
    assert np.array_equal(dec, tree.in_player >= 0)
    assert (tree.in_prob[dec] == 1.0).all()
    sigma = random_profile(tree, np.random.default_rng(5))
    g = tree.edge_sigma(sigma)
    assert np.array_equal(g[dec], sigma[tree.in_col[dec]])
    assert (g[~dec] == 1.0).all()
