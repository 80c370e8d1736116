"""Online linear probability regressor trained by incremental gradient descent
on squared loss.

Every node regressor the estimators hold, and every test or oracle stand-in
for one, has the same four calls: raw(x), the unclipped score; predict(x),
equal to clip01(raw(x)); update(x, target, raw=None), one step toward
target, given raw(x) when the caller already has it; and copy().

The estimators cache work on the x object they last saw (CondProbTree.score
and predict, KWayTree.score) and trust that a node regressor changes only
through their own learning. Code that swaps or edits a CondProbTree node's
regressor by hand must then call tree.regressors_changed(), as
install_oracle_regressors does.
"""

from __future__ import annotations

import math

from .features import SparseVector, clip01


class LinearRegressor:
    """Sparse linear model with a bias term; predictions are clipped to [0, 1].

    Weights live in a dict keyed by hashed feature index, so memory grows with
    the features actually touched instead of the full hash space. The gradient
    step uses the unclipped score: for a single repeated input this makes each
    update an exact error contraction by (1 - eta * (||x||^2 + 1)), and it
    avoids dead gradients at the clip boundary.

    The learning rate is fixed for the life of the model (no decay); rate
    selection is done by grid search in the evaluation harness.
    """

    __slots__ = ("weights", "bias", "learning_rate", "update_count")

    def __init__(self, learning_rate: float = 0.1):
        if not 0.0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
        self.weights: dict[int, float] = {}
        self.bias = 0.0
        self.learning_rate = learning_rate
        self.update_count = 0

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
        self.update_count += 1

    def copy(self) -> "LinearRegressor":
        dup = LinearRegressor(self.learning_rate)
        dup.weights = dict(self.weights)
        dup.bias = self.bias
        dup.update_count = self.update_count
        return dup

