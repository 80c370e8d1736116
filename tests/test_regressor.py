import math
import random

import pytest

from cptree import LinearRegressor

from _support import vec


def test_fresh_model_predicts_zero():
    reg = LinearRegressor()
    assert reg.predict(vec(("a", 1.0), ("b", 2.0))) == 0.0
    assert reg.predict(vec()) == 0.0


def test_interior_score_passes_through():
    reg = LinearRegressor()
    reg.bias = 0.5
    assert reg.predict(vec(("a", 1.0))) == 0.5


def test_scores_clip_to_unit_interval():
    reg = LinearRegressor()
    reg.bias = 1.7
    assert reg.predict(vec()) == 1.0
    reg.bias = -0.3
    assert reg.predict(vec()) == 0.0


def test_clipping_holds_for_random_models():
    rng = random.Random(4)
    for _ in range(10_000):
        reg = LinearRegressor()
        reg.bias = rng.uniform(-5, 5)
        x_entries = []
        for i in range(rng.randrange(1, 6)):
            idx = rng.randrange(100)
            reg.weights[idx] = rng.uniform(-5, 5)
            x_entries.append((str(idx), rng.uniform(-3, 3)))
        x = vec(*x_entries)
        assert 0.0 <= reg.predict(x) <= 1.0


def test_zero_gradient_leaves_weights_unchanged():
    reg = LinearRegressor(0.25)
    x = vec(("a", 1.0), ("b", -0.5))
    reg.update(x, 0.7)
    frozen = (dict(reg.weights), reg.bias)
    reg.update(x, reg.raw(x))  # target equals current score
    assert (dict(reg.weights), reg.bias) == frozen
    assert reg.update_count == 2


def test_update_is_exact_error_contraction():
    # One step multiplies the raw-score error by exactly
    # 1 - eta * (||x||^2 + 1); the +1 is the bias coordinate.
    rng = random.Random(5)
    for _ in range(300):
        x = vec(*[(f"f{i}", rng.uniform(-1.5, 1.5)) for i in range(rng.randrange(1, 5))])
        eta = rng.uniform(0.01, 0.9 / (x.squared_norm() + 1.0))
        reg = LinearRegressor(eta)
        reg.bias = rng.uniform(-1, 1)
        for i in x.indices:
            reg.weights[i] = rng.uniform(-1, 1)
        target = rng.uniform(0, 1)
        before = abs(reg.raw(x) - target)
        reg.update(x, target)
        after = abs(reg.raw(x) - target)
        expected = (1.0 - eta * (x.squared_norm() + 1.0)) * before
        assert math.isclose(after, expected, abs_tol=1e-9)
        if before > 1e-9:
            assert after < before


def test_repeated_updates_converge_monotonically():
    reg = LinearRegressor(0.05)
    x = vec(("a", 1.0), ("b", 1.0))
    last = reg.predict(x)
    for _ in range(1000):
        reg.update(x, 1.0)
        current = reg.predict(x)
        assert current >= last
        last = current
    assert last > 0.999


def test_identical_update_sequences_are_bit_identical():
    rng = random.Random(6)
    steps = [
        (vec(*[(f"f{rng.randrange(8)}", rng.uniform(-2, 2)) for _ in range(3)]), rng.random())
        for _ in range(200)
    ]
    a, b = LinearRegressor(0.1), LinearRegressor(0.1)
    for x, t in steps:
        a.update(x, t)
        b.update(x, t)
    assert a.weights == b.weights
    assert a.bias == b.bias


def test_target_domain_enforced():
    reg = LinearRegressor()
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            reg.update(vec(("a", 1.0)), bad)


def test_non_finite_step_raises_and_leaves_the_regressor_unchanged():
    reg = LinearRegressor(0.5)
    x = vec(("a", 30.0))
    reg.weights[x.indices[0]] = math.inf
    with pytest.raises(ValueError, match="regressor diverged"):
        reg.update(x, 0.0)
    assert reg.weights == {x.indices[0]: math.inf} and reg.bias == 0.0


def test_opposite_infinite_weights_raise_on_predict():
    reg = LinearRegressor()
    x = vec(("a", 1.0), ("b", 1.0))
    reg.weights.update({x.indices[0]: math.inf, x.indices[1]: -math.inf})
    with pytest.raises(ValueError):
        reg.predict(x)


def test_copy_is_independent():
    reg = LinearRegressor(0.2)
    x = vec(("a", 1.0))
    reg.update(x, 1.0)
    dup = reg.copy()
    assert dup.weights == reg.weights and dup.bias == reg.bias
    reg.update(x, 1.0)
    assert dup.weights != reg.weights


def test_learning_rate_must_be_positive():
    for bad in (float("nan"), float("inf"), 0.0, -0.1):
        with pytest.raises(ValueError, match="learning_rate"):
            LinearRegressor(bad)
