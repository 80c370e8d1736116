import math
import random
import re

import pytest

from cptree import (CondProbTree, KWayTree, LinearRegressor, ModelConfig, PecocModel, load_model,
                    save_model)
from cptree.regressor import RegressorBlock
from _support import RowList, block_of, install_rows, row_state, vec


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


def _squared_norm(x) -> float:
    # A plain loop: from Python 3.12 the builtin sum() compensates rounding.
    total = 0.0
    for v in x.values:
        total += v * v
    return total


def test_update_is_exact_error_contraction():
    # One step multiplies the raw-score error by exactly
    # 1 - eta * (||x||^2 + 1); the +1 is the bias coordinate.
    rng = random.Random(5)
    for _ in range(300):
        x = vec(*[(f"f{i}", rng.uniform(-1.5, 1.5)) for i in range(rng.randrange(1, 5))])
        eta = rng.uniform(0.01, 0.9 / (_squared_norm(x) + 1.0))
        reg = LinearRegressor(eta)
        reg.bias = rng.uniform(-1, 1)
        for i in x.indices:
            reg.weights[i] = rng.uniform(-1, 1)
        target = rng.uniform(0, 1)
        before = abs(reg.raw(x) - target)
        reg.update(x, target)
        after = abs(reg.raw(x) - target)
        expected = (1.0 - eta * (_squared_norm(x) + 1.0)) * before
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


def test_learning_rate_must_be_positive():
    # Every estimator that steps regressors refuses a bad rate when it is
    # built, before any example.
    makers = (LinearRegressor, lambda rate: CondProbTree(learning_rate=rate),
              lambda rate: KWayTree(["A", "B"], 2, rate), lambda rate: PecocModel(["A", "B"], rate))
    for bad in (float("nan"), float("inf"), 0.0, -0.1, -1.0):
        message = re.escape(f"learning_rate must be positive and finite, got {bad}")
        for make in makers:
            with pytest.raises(ValueError, match=f"^{message}$"):
                make(bad)


# --- the block form: the k - 1 rows of one k-way node ---------------------------

def _kway_bytes(path, node) -> bytes:
    """The model file of a 4-label k = 4 tree whose root is node: a block, or
    a RowList, saved through its block view."""
    est = KWayTree(["p", "q", "r", "s"], 4, 0.1)
    est._node_regs[(0, 0)] = node
    save_model(path, "kway", ModelConfig(k=4, eta=0.1), est)
    return path.read_bytes()


def _odd_rows() -> list[LinearRegressor]:
    """Rows as only a model file could give them: signed zero weights, and
    features that only some rows hold."""
    a, b, c = vec(("a", 1.0)).indices[0], vec(("b", 1.0)).indices[0], vec(("c", 1.0)).indices[0]
    rows = [LinearRegressor(0.1) for _ in range(3)]
    rows[1].bias, rows[1].weights = 0.5, {a: 1.5, b: -0.0}
    rows[2].bias, rows[2].weights = -0.25, {b: 2.0, c: -1.0, a: 0.0}
    return rows


def test_block_reads_back_its_rows_and_scores_them_bit_for_bit():
    rows = _odd_rows()
    block = block_of(_odd_rows())
    assert [row_state(reg) for reg in block] == [row_state(reg) for reg in rows]
    # Each row read back holds every feature the block stores.
    assert all(reg.weights.keys() == block._weights.keys() for reg in block)
    for pairs in ([], [("a", 2.0)], [("b", -1.0)], [("c", 3.0), ("a", -0.5)], [("z", 1.0)]):
        x = vec(*pairs)
        assert [r.hex() for r in block.raws(x)] == [row.raw(x).hex() for row in rows], pairs


def test_block_sums_four_features_per_pass_as_one_per_pass():
    # raws adds eight stored features per list pass, then four, then one at
    # a time. Every count of stored features from 0 to 25 meets each
    # remainder mod 8, with and without the four-wide pass, with features no
    # row stored between them, the odd rows' signed zeros and partial
    # features, and weights and values of both signs.
    rows = _odd_rows() + [LinearRegressor(0.1) for _ in range(2)]
    rng = random.Random(12)
    stored = ["a", "b", "c"] + [f"s{j}" for j in range(23)]
    for name in stored[3:]:
        index = vec((name, 1.0)).indices[0]
        for reg in rows:
            if rng.random() < 0.7:
                reg.weights[index] = rng.choice([-0.0, 0.0, rng.uniform(-3, 3)])
    rows[3].bias, rows[4].bias = -1.75, 3.0
    block, twin = block_of(rows), RowList(rows)
    for n in range(26):
        for _ in range(20):
            names = rng.sample(stored, n) + [f"u{j}" for j in rng.sample(range(30), rng.randrange(4))]
            x = vec(*[(name, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0)) for name in names])
            assert sum(i in block._weights for i in x.indices) == n
            assert [r.hex() for r in block.raws(x)] == [r.hex() for r in twin.raws(x)], names


def test_block_steps_as_separate_regressors_and_skips_zero_steps(tmp_path):
    block, twin = block_of(_odd_rows()), RowList(_odd_rows())
    rng = random.Random(8)
    for step in range(60):
        x = vec(*[(name, rng.choice([-1.0, 0.5, 2.0])) for name in "abcd" if rng.random() < 0.6])
        # Row 0 meets target 0 on a raw of 0 until it first steps: a zero step.
        targets = [0.0 if step < 20 else 1.0, float(step % 2), 0.0]
        block.update(x, targets)
        twin.update(x, targets)
        assert [r.hex() for r in block.raws(x)] == [r.hex() for r in twin.raws(x)]
        assert [row_state(reg) for reg in block] == [row_state(reg) for reg in twin]
    assert _kway_bytes(tmp_path / "block.bin", block) == _kway_bytes(tmp_path / "rows.bin", twin)


def test_block_builds_new_rows_per_value_with_positive_zeros_and_no_sharing():
    # update builds one new row per distinct value of x and copies it for the
    # other new features with that value. Row 0 never steps (target 0 on a
    # raw of 0.0), so its new cells are 0.0 * v + 0.0: +0.0, as a zeroed row
    # gave, where 0.0 * v alone would leave -0.0 for a negative v.
    block, twin = RegressorBlock(3, 0.1), RowList([LinearRegressor(0.1) for _ in range(3)])
    names = [f"n{j}" for j in range(6)]
    for x in (vec(*[(name, -0.5) for name in names]),
              vec(("n3", 2.0), ("m0", 0.25), ("m1", 0.25))):
        targets = [0.0, 1.0, 0.25]
        assert block.raws(x)[0] == 0.0
        block.update(x, targets)
        twin.update(x, targets)
    expected = {i: [w.hex() for w in row] for i, row in twin._weights.items()}
    assert {i: [w.hex() for w in row] for i, row in block._weights.items()} == expected
    assert [b.hex() for b in block._biases] == [b.hex() for b in twin._biases]
    assert len(expected) == 8
    assert all(math.copysign(1.0, row[0]) == 1.0 for row in block._weights.values())
    assert len({id(row) for row in block._weights.values()}) == len(block._weights)


def test_block_checks_every_step_before_it_changes_a_row():
    rows = [LinearRegressor(0.5) for _ in range(3)]
    x = vec(("a", 30.0))
    rows[2].weights[x.indices[0]] = math.inf
    block = block_of(rows)
    before = [row_state(reg) for reg in block]
    with pytest.raises(ValueError, match="regressor diverged"):
        block.update(x, [1.0, 1.0, 0.0])
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="target must be in"):
            block.update(x, [1.0, 1.0, bad])
    assert [row_state(reg) for reg in block] == before


def test_odd_rows_survive_a_kway_file_round_trip(tmp_path):
    est = KWayTree(["p", "q", "r", "s"], 4, 0.1)
    install_rows(est, 0, 0, _odd_rows())
    config = ModelConfig(k=4, eta=0.1)
    save_model(tmp_path / "rows.bin", "kway", config, est)
    loaded = load_model(tmp_path / "rows.bin").estimator
    save_model(tmp_path / "block.bin", "kway", config, loaded)
    assert (tmp_path / "block.bin").read_bytes() == (tmp_path / "rows.bin").read_bytes()
