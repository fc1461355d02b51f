"""External-sampling Monte Carlo CFR.

One iteration traverses the tree once per updating player: the
traverser's actions are all explored, while chance and the opponent are
sampled from the seeded generator.  Visited histories are counted
individually, so the node counter reflects actual sampled work.

The walk runs on ``tree.walk_table``, plain Python data built once, and
``regret`` and ``ssum`` are flat float lists.  The results equal an
array implementation bit for bit (``tests/test_solvers.py`` keeps one
as the reference): every float operation is the one the equivalent
numpy row operations make, in the same order, or provably gives the
same float:

* a row's regret-matching norm is added left to right, which is what
  numpy's sum does below eight elements; longer rows use numpy's sum;
* the traverser's node value stays ``np.dot(sigma, vals)``.  The BLAS
  behind it (OpenBLAS on x86-64) computes short dots as a chain of fused
  multiply-adds, which a Python sum of products misses in the last bit
  on about half of all rows, and Python has no ``math.fma`` before 3.13;
* a row with exactly one positive regret, at column ``k``, has the unit
  row e_k as its strategy (``x / x`` is 1.0, every other entry 0.0), and
  most rows are such rows once the regrets settle.  Its node skips the
  strategy list.  The traverser's value is ``vals[k] + 0.0``: every
  other product in the dot is ±0, and numpy adds the BLAS result to
  +0.0, which ``+ 0.0`` repeats for a zero ``vals[k]``.  A sampled
  player adds 1.0 to ``ssum[lo + k]``, which never holds -0.0 and so
  gains nothing from the zeros, and moves to child ``k`` after using up
  its draw, since the prefix sums 0, ..., 0, 1, ..., 1 put every draw
  in [0, 1) at ``k``;
* uniforms are drawn 1,024 at a time with ``rng.random(1024)`` and
  handed out in order.  That is the same stream as one ``rng.random()``
  per draw at a fraction of the call cost.  The block carries across
  ``iterate`` calls.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add

import numpy as np

from ..policy import sample_index
from ..tree import NodeCounter, TreeIndex, walk_table
from .cfr import normalise_rows

_DRAW_BLOCK = 1024
# numpy sums fewer elements than this one after another; longer sums
# are pairwise, so those rows go through numpy itself.
_SEQUENTIAL_SUM = 8


def _uniforms(rng: np.random.Generator):
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


class MccfrEs:
    def __init__(self, tree: TreeIndex, seed: int = 0,
                 counter: NodeCounter | None = None):
        self.tree = tree
        self.rng = np.random.default_rng(seed)
        self.counter = counter
        self.regret = [0.0] * tree.n_cols
        self.ssum = [0.0] * tree.n_cols
        self._uniform = np.repeat(1.0 / tree.is_nact, tree.is_nact)
        self._root = walk_table(tree)
        self._draw = _uniforms(self.rng).__next__

    def iterate(self, n: int = 1) -> None:
        regret, ssum, draw = self.regret, self.ssum, self._draw
        dot, np_sum = np.dot, np.sum
        visits = 0

        def walk(nd):
            # Values are player 0's.  Negating every value negates the
            # dot exactly and turns r + (x - v) into r + (v - x), so
            # only player 1's regret update is signed.  Chance and
            # opponent nodes continue the loop instead of recursing, and
            # a node counts the visits of the children it moves to, so
            # the traverser reads terminal children without a call.
            nonlocal visits
            while nd.__class__ is not float:
                kids = nd[0]
                visits += 1
                if len(nd) == 2:
                    nd = kids[bisect_right(nd[1], draw())]
                    continue
                _, p, lo, hi = nd
                row = regret[lo:hi]
                norm = 0.0
                npos = 0
                if hi - lo < _SEQUENTIAL_SUM:
                    for x in row:
                        if x > 0.0:
                            norm += x
                            npos += 1
                else:
                    pos = [x if x > 0.0 else 0.0 for x in row]
                    norm = float(np_sum(pos))
                    npos = hi - lo - pos.count(0.0)
                if npos == 1:
                    # sigma is the unit row at k; norm is its one
                    # positive regret exactly.
                    sigma = None
                    k = row.index(norm)
                elif norm <= 0.0:
                    sigma = [1.0 / (hi - lo)] * (hi - lo)
                else:
                    sigma = [x / norm if x > 0.0 else 0.0 for x in row]
                if p == me:
                    visits += hi - lo - 1
                    vals = [c if c.__class__ is float else walk(c)
                            for c in kids]
                    if sigma is None:
                        v = vals[k] + 0.0
                    else:
                        v = float(dot(sigma, vals))
                    row = regret[lo:hi]
                    if me == 0:
                        regret[lo:hi] = [r + (x - v)
                                         for r, x in zip(row, vals)]
                    else:
                        regret[lo:hi] = [r + (v - x)
                                         for r, x in zip(row, vals)]
                    return v
                if sigma is None:
                    ssum[lo + k] += 1.0
                    draw()
                    nd = kids[k]
                else:
                    ssum[lo:hi] = list(map(add, ssum[lo:hi], sigma))
                    nd = kids[sample_index(sigma, draw())]
            return nd

        root = self._root
        for _ in range(n):
            for me in (0, 1):
                visits += 1
                walk(root)
        if self.counter is not None:
            self.counter.add(visits)

    def average_flat(self) -> np.ndarray:
        return normalise_rows(self.tree, np.array(self.ssum), self._uniform)
