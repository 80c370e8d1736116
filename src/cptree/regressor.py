"""Online linear probability regressor trained by incremental gradient descent
on squared loss."""

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

    def update(self, x: SparseVector, target: float) -> None:
        """One gradient step toward target; target must be in [0, 1]."""
        if not 0.0 <= target <= 1.0:
            raise ValueError(f"target must be in [0, 1], got {target}")
        delta = self.learning_rate * (target - self.raw(x))
        if delta != 0.0:
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
