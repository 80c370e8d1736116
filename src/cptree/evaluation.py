"""Progressive validation, baselines, and confidence intervals.

Progressive validation scores every example before learning on it, which makes
the running mean squared loss an unbiased estimate of online performance. The
synthetic tasks and exact regrets live in ``synthetic``, the package's one
numpy user.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .features import Example, SparseVector
from .regressor import LinearRegressor


class EmptyStreamError(ValueError):
    """Raised when an evaluation stream yields no examples."""


class Estimator(Protocol):
    """What progressive validation calls: score(x, y), then learn(x, y).

    learn(x, y) right after score(x, y) on the same x object reuses the
    scored path: the tree estimators step each regressor from the raw score
    that score computed. Any other order recomputes, with the same result.
    """

    def score(self, x: SparseVector, y: str) -> float: ...
    def learn(self, x: SparseVector, y: str) -> None: ...


@dataclass
class EvalReport:
    """Aggregate of one progressive-validation run."""

    m: int
    mean_sq_loss: float
    ci_halfwidth: float
    equivalent: float
    updates_per_example: float
    wall_time: float


def hoeffding_halfwidth(m: int, delta: float = 0.05) -> float:
    """Two-sided confidence half-width for the mean of a [0, 1] loss."""
    if m < 1:
        raise ValueError("need at least one example")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


def equivalent_labels(loss: float) -> float:
    """Size of the uniform label distribution achieving the same squared loss.

    Uniform guessing over E labels scores 1/E on the true label, for a loss of
    (1 - 1/E)^2; inverting gives E = 1 / (1 - sqrt(loss)).
    """
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must be in [0, 1) for a finite equivalent, got {loss}")
    return 1.0 / (1.0 - math.sqrt(loss))


def progressive_validate(
    stream: Iterable[Example],
    estimator: Estimator,
    learn: bool = True,
    delta: float = 0.05,
) -> EvalReport:
    """Score each example before (optionally) learning on it.

    With learn=False the estimator is frozen, giving the conventional test
    loss instead of the online loss.
    """
    start = time.perf_counter()
    updates_before = getattr(estimator, "updates", 0)
    total = 0.0
    m = 0
    for example in stream:
        err = 1.0 - estimator.score(example.x, example.y)
        total += err * err
        if learn:
            estimator.learn(example.x, example.y)
        m += 1
    if m == 0:
        raise EmptyStreamError("evaluation stream is empty")
    elapsed = time.perf_counter() - start
    mean = total / m
    equivalent = equivalent_labels(mean) if mean < 1.0 else math.inf
    updates = getattr(estimator, "updates", 0) - updates_before
    return EvalReport(
        m=m,
        mean_sq_loss=mean,
        ci_halfwidth=hoeffding_halfwidth(m, delta),
        equivalent=equivalent,
        updates_per_example=updates / m,
        wall_time=elapsed,
    )


class TableBaseline:
    """Empirical conditional frequencies keyed on the exact bytes of x.

    Unseen (context, label) pairs predict 0, so the method cannot generalize
    across contexts; it is a strong baseline only where contexts repeat.
    """

    def __init__(self) -> None:
        self.counts: dict[bytes, dict[str, int]] = {}  # context -> label -> count
        self.context_totals: dict[bytes, int] = {}
        self.updates = 0

    def score(self, x: SparseVector, y: str) -> float:
        key = x.key_bytes()
        total = self.context_totals.get(key)
        if not total:
            return 0.0
        return self.counts[key].get(y, 0) / total

    def learn(self, x: SparseVector, y: str) -> None:
        key = x.key_bytes()
        labels = self.counts.setdefault(key, {})
        labels[y] = labels.get(y, 0) + 1
        self.context_totals[key] = self.context_totals.get(key, 0) + 1
        self.updates += 1


class OneAgainstAll:
    """One regressor per label, every one updated on every example.

    Per-example training cost grows linearly with the number of labels seen,
    which is exactly what the tree estimators avoid.
    """

    def __init__(self, learning_rate: float = 0.1):
        self.learning_rate = learning_rate
        self.regressors: dict[str, LinearRegressor] = {}
        self.updates = 0

    def score(self, x: SparseVector, y: str) -> float:
        reg = self.regressors.get(y)
        return reg.predict(x) if reg is not None else 0.0

    def learn(self, x: SparseVector, y: str) -> None:
        if y not in self.regressors:
            self.regressors[y] = LinearRegressor(self.learning_rate)
        for label, reg in self.regressors.items():
            reg.update(x, 1.0 if label == y else 0.0)
        self.updates += len(self.regressors)


def grid_search(
    make_estimator,
    grid: Sequence[dict],
    examples: Sequence[Example],
    delta: float = 0.05,
) -> tuple[dict, list[EvalReport]]:
    """Run progressive validation once per grid point; pick the lowest loss.

    Ties resolve to the earliest grid entry. make_estimator receives each grid
    dict as keyword arguments and must return a fresh estimator.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    reports: list[EvalReport] = []
    best_idx = 0
    for i, params in enumerate(grid):
        report = progressive_validate(examples, make_estimator(**params), delta=delta)
        reports.append(report)
        if report.mean_sq_loss < reports[best_idx].mean_sq_loss:
            best_idx = i
    return dict(grid[best_idx]), reports
