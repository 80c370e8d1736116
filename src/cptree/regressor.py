"""Online linear probability regressor trained by incremental gradient descent
on squared loss, alone or as a block of rows that share every input.

A node regressor, and every test or oracle stand-in for one, has three
calls: raw(x), the unclipped score; predict(x), equal to clip01(raw(x));
and update(x, target, raw=None), one step toward target, given raw(x) when
the caller already has it. OneAgainstAll holds LinearRegressors. A
CondProbTree holds none: each internal node is a bias and a weight dict in
the tree's lists, which its walks score and step with LinearRegressor's
arithmetic, and leaves hold nothing. Only a stand-in put at a tree node
(CondProbTree.set_regressor or a regressor_factory) goes through the calls.

A KWayTree node holds k - 1 rows that always score and step on the same x.
It has the block form of that interface, RegressorBlock: raws(x), the raw
scores of every row in one pass over x, which adds eight stored features to
every row per list pass, in x's order, then four, then the last one to three
one at a time, whatever x's length; update(x, targets, raws=None), one step
of every row, which builds the row of a feature the block does not yet store
once per distinct value in x and copies it for each later new feature with
that value; and iteration, which yields each row as a LinearRegressor. A
block keeps no record of which rows have stepped on a feature: each row it
yields holds a weight for every feature the block stores, 0.0 where that row
never stepped.

Each tree estimator keeps one memo for the x object it last saw, described
on its class. A node regressor changes only by the estimator's own learning
or, at a CondProbTree node, through set_regressor; both keep the memo right.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, Sequence

from .features import SparseVector, clip01


def check_learning_rate(rate: float) -> None:
    """Raise ValueError unless rate is positive and finite: the one check
    every estimator that learns at a rate makes when it is built."""
    if not 0.0 < rate < math.inf:
        raise ValueError(f"learning_rate must be positive and finite, got {rate}")


class LinearRegressor:
    """Sparse linear model with a bias term; predictions are clipped to [0, 1].

    Weights live in a dict keyed by hashed feature index, so memory grows with
    the features actually touched instead of the full hash space. The gradient
    step uses the unclipped score: for a single repeated input this makes each
    update an exact error contraction by (1 - eta * (||x||^2 + 1)), and it
    avoids dead gradients at the clip boundary.

    The learning rate is fixed for the life of the model (no decay); rate
    selection is done by grid search in the evaluation harness.

    CondProbTree repeats raw and update inline over its node lists, so a
    change to either must be made in tree.py too.
    """

    __slots__ = ("weights", "bias", "learning_rate")

    def __init__(self, learning_rate: float = 0.1):
        check_learning_rate(learning_rate)
        self.weights: dict[int, float] = {}
        self.bias = 0.0
        self.learning_rate = learning_rate

    def raw(self, x: SparseVector) -> float:
        """Unclipped score bias + w . x."""
        total = self.bias
        weights = self.weights
        for i, v in zip(x.indices, x.values):
            w = weights.get(i)
            if w is not None:
                total += w * v
        return total

    def predict(self, x: SparseVector) -> float:
        return clip01(self.raw(x))

    def update(self, x: SparseVector, target: float, raw: float | None = None) -> None:
        """One gradient step toward target; target must be in [0, 1].

        raw, when given, must be raw(x) as the regressor stands now; a caller
        that has just scored x passes it to save recomputing it.

        Raises ValueError, leaving the regressor as it was, if the step is not
        finite: the learning rate is too large for the feature scale.
        """
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"target must be in [0, 1], got {target}")
        if raw is None:
            raw = self.raw(x)
        delta = self.learning_rate * (target - raw)
        if delta != 0.0:
            if not -math.inf < delta < math.inf:
                raise ValueError(f"regressor diverged: step {delta} is not finite")
            weights = self.weights
            for i, v in zip(x.indices, x.values):
                weights[i] = weights.get(i, 0.0) + delta * v
            self.bias += delta


class RegressorBlock:
    """The rows of one k-way node, stored as one block: each row computes what
    a LinearRegressor would, bit for bit, at a fraction of the lookups.

    Each feature maps to one array with a weight per row, so a pass over x
    looks each feature up once for every row. A row that has never stepped on
    a feature holds 0.0 there, and the block keeps no bitmask of which rows
    have. Each row sums bias + w * v in x's index order, and a row whose step
    is 0 is not touched, as in LinearRegressor. Adding 0.0 * v for a feature
    that a row never stepped on leaves its sum as it was, since the sum starts
    at a bias that is never -0.0: no step makes one, and model files reject
    one. Every row steps at the block's one learning rate.
    """

    __slots__ = ("_weights", "_biases", "_rate")

    def __init__(self, size: int, learning_rate: float):
        """An untrained block of size rows: every bias 0.0, no weights."""
        self._rate = learning_rate
        self._biases = [0.0] * size
        self._weights: dict[int, array] = {}

    def raws(self, x: SparseVector) -> list[float]:
        """Every row's unclipped score bias + w . x, in one pass over x.

        Features that the block stores are added in x's order, eight per list
        pass, then four, then one at a time: t + wa*va + ... + wh*vh sums
        left to right, so each total is the one that one pass per feature
        gives, bit for bit, with an eighth of the lists built.
        """
        totals = list(self._biases)
        get = self._weights.get
        present = [(row, v) for i, v in zip(x.indices, x.values) if (row := get(i)) is not None]
        n = len(present)
        eights = n & ~7
        groups = iter(present[:eights])
        for ((ra, va), (rb, vb), (rc, vc), (rd, vd),
             (re, ve), (rf, vf), (rg, vg), (rh, vh)) in zip(*[groups] * 8):
            totals = [t + wa * va + wb * vb + wc * vc + wd * vd
                      + we * ve + wf * vf + wg * vg + wh * vh
                      for t, wa, wb, wc, wd, we, wf, wg, wh
                      in zip(totals, ra, rb, rc, rd, re, rf, rg, rh)]
        fours = n & ~3
        if fours > eights:
            (ra, va), (rb, vb), (rc, vc), (rd, vd) = present[eights:fours]
            totals = [t + wa * va + wb * vb + wc * vc + wd * vd
                      for t, wa, wb, wc, wd in zip(totals, ra, rb, rc, rd)]
        for row, v in present[fours:]:
            totals = [t + w * v for t, w in zip(totals, row)]
        return totals

    def update(self, x: SparseVector, targets: Sequence[float],
               raws: Sequence[float] | None = None) -> None:
        """One gradient step of every row toward its target, each in [0, 1].

        targets may be floats or the ints 0 and 1 of a code column (bytes),
        which t - raw converts exactly. raws, when given, must be raws(x) as
        the block stands now. Raises ValueError, leaving every row as it was,
        if a target is out of range or any row's step is not finite.

        A stored feature's row steps cell by cell, row[r] += delta * v, for
        the rows whose step is not 0. A new feature's row is d * v + 0.0 for
        every row's step d, built once per distinct value v in x: the first
        new feature with that value stores it, and each later one a copy, so
        no two features share an array. Each cell is the 0.0 + d * v that
        stepping a zeroed row gives, bit for bit, since IEEE addition
        commutes; a row whose step is 0 gets +0.0, as a zeroed row left it,
        because + 0.0 turns a -0.0 product into +0.0. Keying by value is
        exact for the same reason: equal floats differ at most in the sign
        of a zero, which + 0.0 clears. A row built from a list or copied
        from an array is sized to its k - 1 cells, as the loader's are,
        where a zeroed row built from bytes is over-allocated.
        """
        for target in targets:
            if not 0.0 <= target <= 1.0:
                raise ValueError(f"target must be in [0, 1], got {target}")
        if raws is None:
            raws = self.raws(x)
        rate = self._rate
        deltas = [rate * (t - raw) for t, raw in zip(targets, raws, strict=True)]
        for delta in deltas:
            if not -math.inf < delta < math.inf:
                raise ValueError(f"regressor diverged: step {delta} is not finite")
        steps = [(r, delta) for r, delta in enumerate(deltas) if delta != 0.0]
        if not steps:
            return
        biases = self._biases
        for r, delta in steps:
            biases[r] += delta
        weights = self._weights
        new_rows: dict[float, array] = {}
        for i, v in zip(x.indices, x.values):
            row = weights.get(i)
            if row is not None:
                for r, delta in steps:
                    row[r] += delta * v
            elif (first := new_rows.get(v)) is None:
                weights[i] = new_rows[v] = array("d", [d * v + 0.0 for d in deltas])
            else:
                weights[i] = array("d", first)

    def __iter__(self) -> Iterator[LinearRegressor]:
        """Each row as a LinearRegressor that owns a copy of its state: a
        weight for every feature the block stores, 0.0 included."""
        for r, bias in enumerate(self._biases):
            reg = LinearRegressor(self._rate)
            reg.bias = bias
            reg.weights = {i: row[r] for i, row in self._weights.items()}
            yield reg

