import itertools
import math
import random

import numpy as np
import pytest
import scipy.linalg

from cptree import (
    CondProbTree,
    KWayTree,
    ModelConfig,
    PecocModel,
    decode_loss_bound,
    decode_probability,
    hadamard_code,
    loss_multiplier,
    save_model,
)
from cptree.features import clip01
from cptree.pecoc import COLUMN_MEMO_BYTES, MAX_CODE_EXPONENT, code_column

from _support import ConstantRegressor, ContextRegressor, install_rows, tiny_task, vec


# --- code construction -------------------------------------------------------

def test_smallest_code():
    assert hadamard_code(1) == [[1, 1], [1, 0]]


def test_doubled_code():
    assert hadamard_code(2) == [
        [1, 1, 1, 1],
        [1, 0, 1, 0],
        [1, 1, 0, 0],
        [1, 0, 0, 1],
    ]


def test_code_invariants_by_brute_force():
    for t in range(1, 7):
        code = np.array(hadamard_code(t))
        size = 2**t
        assert code.shape == (size, size)
        assert (code[0] == 1).all()
        for i in range(1, size):
            assert int(code[i].sum()) == size // 2
        for i, j in itertools.combinations(range(1, size), 2):
            assert int((code[i] == code[j]).sum()) == size // 2


def test_code_matches_sign_matrix_construction():
    # Independent construction: the 0/1 code is (1 + H) / 2 for the
    # classic +-1 Sylvester matrix.
    for t in range(1, 7):
        sign = scipy.linalg.hadamard(2**t)
        assert np.array_equal(hadamard_code(t), ((1 + sign) // 2).astype(np.uint8))


def test_code_columns_match_sign_matrix_at_size_1024():
    sign = scipy.linalg.hadamard(1024)
    for column in (0, 1, 513, 1023):
        assert code_column(1024, column) == ((1 + sign[:, column]) // 2).tolist()


def _popcount_column(size: int, column: int) -> list[int]:
    return (1 - np.bitwise_count(np.arange(size) & column) % 2).tolist()


def test_doubled_columns_equal_the_popcount_formula():
    # code_column builds a column by doubling; entry (row, column) must be
    # 1 - popcount(row & column) mod 2 for every column up to size 1024, and
    # for sampled columns at the largest size.
    for t in range(1, 11):
        size = 1 << t
        for column in range(size):
            assert code_column(size, column) == _popcount_column(size, column)
    size = 1 << MAX_CODE_EXPONENT
    for column in [0, 1, size - 1, *random.Random(23).sample(range(size), 197)]:
        assert code_column(size, column) == _popcount_column(size, column)


def test_code_exponent_domain():
    for bad in (0, -1, 17):
        with pytest.raises(ValueError):
            hadamard_code(bad)


# --- flat decoding ------------------------------------------------------------

def test_two_label_training_targets():
    model = PecocModel(["one", "two"])
    recorder = ConstantRegressor(0.0)
    install_rows(model, 0, 0, [recorder])
    x = vec(("a", 1.0))
    model.learn(x, "one")
    model.learn(x, "two")
    assert recorder.targets == [1.0, 0.0]


def test_update_count_per_example():
    model = PecocModel([f"y{i}" for i in range(5)])  # pads to 8 columns
    x = vec(("a", 1.0))
    for i in range(6):
        model.learn(x, f"y{i % 5}")
    assert model.updates == 6 * (model.k - 1)


def test_two_label_decode_reduces_to_the_row_regressor():
    model = PecocModel(["one", "two"])
    for q in (0.0, 0.3, 0.71, 1.0):
        install_rows(model, 0, 0, [ConstantRegressor(q)])
        assert model.score(vec(("a", 1.0)), "one") == q
        assert model.score(vec(("a", 1.0)), "two") == 1 - q


def test_uninformative_rows_decode_to_zero():
    for t in (1, 2, 3):
        code = np.array(hadamard_code(t))
        size = 2**t
        for y in range(size):
            assert decode_probability(code[:, y], [0.5] * size) == 0.0


def test_decode_adds_rows_left_to_right_on_every_python():
    # 1 + 1e16 rounds to 1e16, as does adding the next 1, so a plain sum
    # reaches 0 and decodes to -1. A compensated sum, such as the builtin
    # sum() of floats from Python 3.12, reaches 2 and decodes to 0.
    assert decode_probability([1, 1, 1, 1], [1.0, 1e16, 1.0, -1e16]) == -1.0


def test_oracle_rows_decode_exactly():
    rng = np.random.default_rng(21)
    for t, n in ((1, 2), (2, 4), (3, 8), (4, 16)):
        code = np.array(hadamard_code(t), dtype=np.float64)
        for _ in range(100):
            p = rng.dirichlet(np.ones(n))
            oracle_rows = code @ p  # per-row subset probability
            for y in range(n):
                assert abs(decode_probability(code[:, y], oracle_rows) - p[y]) < 1e-12


def test_model_with_oracle_rows_is_exact_even_when_padded():
    task = tiny_task(contexts=3, labels=6, seed=4)  # pads to 8 columns
    model = PecocModel(task.labels)
    padded = np.zeros((model.k,))
    code = np.array([code_column(model.k, row) for row in range(model.k)], dtype=np.float64)
    rows = []
    for row in range(1, model.k):
        by_key = {}
        for c in range(task.context_count):
            padded[: task.label_count] = task.conditional[c]
            by_key[task.features[c].key_bytes()] = float(code[row] @ padded)
        rows.append(ContextRegressor(by_key))
    install_rows(model, 0, 0, rows)
    for c in range(task.context_count):
        x = task.features[c]
        for j, y in enumerate(task.labels):
            assert abs(model.score(x, y) - task.conditional[c, j]) < 1e-12


def test_decode_loss_bound_cases():
    assert decode_loss_bound([0.0, 0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        decode_loss_bound([0.1, 0.0])
    with pytest.raises(ValueError):
        decode_loss_bound([0.0])
    # Hand value: n = 4, uniform nontrivial errors delta.
    delta = 0.2
    bound = decode_loss_bound([0.0, delta, delta, delta])
    assert math.isclose(bound, 4 * (3 / 4) ** 2 * delta**2, abs_tol=1e-15)


def test_realized_decode_loss_never_exceeds_bound():
    rng = np.random.default_rng(22)
    for _ in range(10_000):
        t = int(rng.integers(1, 5))
        n = 2**t
        code = np.array(hadamard_code(t), dtype=np.float64)
        p = rng.dirichlet(np.ones(n))
        errors = rng.uniform(-0.25, 0.25, size=n)
        errors[0] = 0.0
        rows = code @ p + errors
        y = int(rng.integers(n))
        realized = (decode_probability(code[:, y], rows) - p[y]) ** 2
        # Equality is attainable, so allow float rounding at that boundary.
        assert realized <= decode_loss_bound(errors) + 1e-12


def test_decode_loss_bound_is_tight_for_uniform_oriented_errors():
    rng = np.random.default_rng(23)
    for t in (1, 2, 3, 4):
        n = 2**t
        code = np.array(hadamard_code(t), dtype=np.float64)
        p = rng.dirichlet(np.ones(n))
        delta = 0.05
        y = int(rng.integers(n))
        signs = np.where(code[:, y] == 1, 1.0, -1.0)
        signs[0] = 0.0
        rows = code @ p + delta * signs
        realized = (decode_probability(code[:, y], rows) - p[y]) ** 2
        errors = np.full(n, delta)
        errors[0] = 0.0
        assert abs(realized - decode_loss_bound(errors)) < 1e-9


def test_decode_is_symmetric_under_row_complement():
    rng = np.random.default_rng(24)
    for t in (1, 2, 3):
        n = 2**t
        code = np.array(hadamard_code(t))
        rows = rng.uniform(0, 1, size=n)
        rows[0] = 1.0
        for flip in range(1, n):
            flipped_code = code.copy()
            flipped_code[flip] = 1 - flipped_code[flip]
            flipped_rows = rows.copy()
            flipped_rows[flip] = 1.0 - flipped_rows[flip]
            for y in range(n):
                a = decode_probability(code[:, y], rows)
                b = decode_probability(flipped_code[:, y], flipped_rows)
                assert math.isclose(a, b, abs_tol=1e-12)


def test_padded_labels_and_capacity():
    model = PecocModel(["a", "b", "c"])
    assert model.k == 4
    assert model.score(vec(("z", 1.0)), "never-seen") == 0.0
    model.learn(vec(("z", 1.0)), "d")  # takes the one spare column
    assert model.label_map == {"a": 0, "b": 1, "c": 2, "d": 3}
    with pytest.raises(ValueError, match="^label capacity 4 exhausted; cannot add 'e'$"):
        model.learn(vec(("z", 1.0)), "e")


# --- k-way trees ---------------------------------------------------------------

def test_kway_shapes():
    assert KWayTree([f"y{i}" for i in range(8)], 2).depth == 3
    four_way = KWayTree([f"y{i}" for i in range(16)], 4)
    assert four_way.depth == 2
    x = vec(("a", 1.0))
    four_way.learn(x, "y3")
    assert all(len(list(regs)) == 3 for regs in four_way._node_regs.values())
    flat = KWayTree([f"y{i}" for i in range(8)], 8)
    assert flat.depth == 1
    flat.learn(x, "y0")
    assert len(list(flat._node_regs[(0, 0)])) == 7


def test_kway_update_count():
    tree = KWayTree([f"y{i}" for i in range(16)], 4)
    x = vec(("a", 1.0))
    for i in range(10):
        tree.learn(x, f"y{i}")
    assert tree.updates == 10 * (4 - 1) * 2  # (k-1) * depth per example


def test_fresh_kway_tree_scores_every_label_from_untouched_nodes():
    # An untouched node scores like fresh regressors: every row predicts 0.
    x = vec(("a", 1.0))
    two = KWayTree(["A", "B"], 2)
    assert [two.score(x, y) for y in "AB"] == [1.0, 0.0]
    four = KWayTree(["A", "B", "C"], 4)
    assert [four.score(x, y) for y in "ABC"] == [0.5, 0.5, 0.5]


def test_kway_and_pecoc_keep_the_columns_of_their_own_digits():
    # KWayTree maps child digit d to column k - 1 - d, PecocModel to column
    # d; each keeps the columns it has decoded or stepped with, by digit.
    labels = [f"y{i}" for i in range(16)]
    x = vec(("a", 1.0))
    kway, flat = KWayTree(labels, 16), PecocModel(labels)
    assert kway.k == flat.k == 16
    kway.score(x, "y0")
    flat.learn(x, "y0")
    assert kway._columns == {0: bytes(code_column(16, 15))}
    assert flat._columns == {0: bytes(code_column(16, 0))}
    for est in (kway, flat):
        for y in labels:
            est.score(x, y)
        assert est._columns == {d: bytes(code_column(16, est._column(d))) for d in range(16)}
        assert est.predict(x, "y3") == est.score(x, "y3")


def test_pecoc_past_the_column_memo_scores_every_label_like_predict():
    # At k = 2048 the columns of every label come to 4 MiB; the model keeps
    # those that fit in COLUMN_MEMO_BYTES and rebuilds the others on each use.
    task = tiny_task(contexts=4, labels=1025, seed=60)
    model = PecocModel(task.labels)
    assert model.k == 2048
    for example in task.sample(30, seed=61):
        model.learn(example.x, example.y)
    x = task.features[0]
    rows = [1.0, *map(clip01, model.regressors_at(0, 0).raws(x))]
    for slot, y in enumerate(task.labels):
        score = model.score(x, y)
        assert score.hex() == model.predict(x, y).hex()
        expected = clip01(decode_probability(code_column(model.k, slot), rows))
        assert score.hex() == expected.hex()
    kept = sum(map(len, model._columns.values()))
    assert kept == COLUMN_MEMO_BYTES
    assert all(bits == bytes(code_column(model.k, d)) for d, bits in model._columns.items())


def test_kway_rejects_bad_fanout():
    with pytest.raises(ValueError):
        KWayTree(["a", "b", "c"], 3)


def test_code_size_caps_still_hold():
    cap = 1 << MAX_CODE_EXPONENT
    with pytest.raises(ValueError, match=f"^k must be at most {cap}, got {2 * cap}$"):
        KWayTree(["a", "b"], 1 << 17)
    with pytest.raises(ValueError, match=f"^at most {cap} labels, got {cap + 1}$"):
        PecocModel([f"y{i}" for i in range(cap + 1)])


def test_binary_kway_matches_binary_tree_bit_for_bit():
    labels = [f"y{i}" for i in range(8)]
    cpt = CondProbTree.balanced(labels, learning_rate=0.3)
    kway = KWayTree(labels, 2, learning_rate=0.3)
    rng = random.Random(25)
    xs = [vec((f"f{i}", 1.0), ("w", rng.uniform(0.2, 1.8))) for i in range(6)]
    for _ in range(500):
        x, y = rng.choice(xs), rng.choice(labels)
        cpt.learn(x, y)
        kway.learn(x, y)
    for x in xs:
        for y in labels:
            assert cpt.predict(x, y) == kway.score(x, y)


def test_kway_with_oracle_nodes_recovers_true_conditionals():
    task = tiny_task(contexts=4, labels=16, seed=26)
    k = 4
    tree = KWayTree(task.labels, k)
    block = tree.capacity
    # Slot masses per context (dummies carry zero mass).
    slot_mass = np.zeros((task.context_count, tree.capacity))
    slot_mass[:, : task.label_count] = task.conditional
    for level in range(tree.depth):
        block //= k
        for index in range(tree.capacity // (block * k)):
            start = index * block * k
            child_mass = np.stack(
                [
                    slot_mass[:, start + c * block : start + (c + 1) * block].sum(axis=1)
                    for c in range(k)
                ],
                axis=1,
            )
            node_mass = child_mass.sum(axis=1)
            regs = []
            for row in range(1, k):
                by_key = {}
                for c in range(task.context_count):
                    if node_mass[c] == 0.0:
                        by_key[task.features[c].key_bytes()] = 0.0
                        continue
                    value = 0.0
                    for child in range(k):
                        if code_column(k, tree._column(child))[row] == 1:
                            value += child_mass[c, child]
                    by_key[task.features[c].key_bytes()] = value / node_mass[c]
                regs.append(ContextRegressor(by_key))
            install_rows(tree, level, index, regs)
    for c in range(task.context_count):
        x = task.features[c]
        for j, y in enumerate(task.labels):
            assert abs(tree.score(x, y) - task.conditional[c, j]) < 1e-9


def test_kway_node_steps_every_row_or_none():
    # The divergence repro at k = 4: eta 0.5 on a feature of weight 30. The
    # rows' steps stop being finite at different examples; the learn whose
    # step is not finite for one row must leave every row as it was.
    labels = ["a", "b", "c", "d"]
    tree = KWayTree(labels, 4, learning_rate=0.5)
    x = vec(("f", 30.0))

    def rows():
        return [(reg.bias, reg.weights) for reg in tree.regressors_at(0, 0)]

    for n in range(1000):
        before, updates = rows(), tree.updates
        try:
            tree.learn(x, labels[n % 4])
        except ValueError as exc:
            assert str(exc) == "regressor diverged: step -inf is not finite"
            break
    else:
        pytest.fail("the repro did not diverge")
    assert math.isfinite(before[0][0]) and rows() == before and tree.updates == updates


def _memo_state(est) -> tuple:
    memo = est._memo
    if memo is None:
        return None, None
    nodes = {key: ([r.hex() for r in raws], [v.hex() for v in clipped],
                   sorted((d, p.hex()) for d, p in estimates.items()))
             for key, (raws, clipped, estimates) in memo[1].items()}
    return memo[0], nodes


@pytest.mark.parametrize("k", [2, 4, 16, None])
def test_kway_predict_is_score_without_the_memo(tmp_path, k):
    # predict walks y's path on its own: every label's answer equals score's
    # bit for bit, on each x of a trained stream, and the memo and the model
    # bytes stay as they were.
    task = tiny_task(contexts=6, labels=24, seed=40)
    mode, config = ("pecoc", ModelConfig()) if k is None else ("kway", ModelConfig(k=k))
    est = PecocModel(task.labels) if k is None else KWayTree(task.labels, k)
    labels = [*task.labels, "never-seen"]
    for n, example in enumerate(task.sample(240, seed=41)):
        est.learn(example.x, example.y)
        if n % 40 == 0:
            est.score(example.x, example.y)
            before = _memo_state(est)
            save_model(tmp_path / "before.bin", mode, config, est)
            predicted = [[est.predict(x, y).hex() for y in labels] for x in task.features]
            assert _memo_state(est) == before and before[0] is example.x
            save_model(tmp_path / "after.bin", mode, config, est)
            assert (tmp_path / "after.bin").read_bytes() == (tmp_path / "before.bin").read_bytes()
            assert predicted == [[est.score(x, y).hex() for y in labels] for x in task.features]
            assert predicted[0][-1] == (0.0).hex()


def test_installed_rows_replace_what_score_remembers():
    # install_rows swaps a node's rows behind the memo; the next score on the
    # same x object must read the new rows, not the raws or estimates of the old.
    tree = KWayTree(["A", "B", "C", "D"], 4)
    x = vec(("a", 1.0))
    assert [tree.score(x, y) for y in "ABCD"] == [0.5, 0.5, 0.5, 0.0]
    install_rows(tree, 0, 0, [ConstantRegressor(q) for q in (0.75, 0.25, 0.5)])
    assert [tree.score(x, y) for y in "ABCD"] == [0.25, 0.5, 0.0, 0.25]


def test_kway_unknown_label_scores_zero_and_capacity_is_enforced():
    tree = KWayTree(["a", "b", "c"], 2)  # capacity 4
    assert tree.score(vec(("u", 1.0)), "zzz") == 0.0
    tree.learn(vec(("u", 1.0)), "d")
    assert tree.label_map == {"a": 0, "b": 1, "c": 2, "d": 3}
    with pytest.raises(ValueError, match="^label capacity 4 exhausted; cannot add 'e'$"):
        tree.learn(vec(("u", 1.0)), "e")


# --- loss multiplier -------------------------------------------------------------

def test_loss_multiplier_reduces_to_tree_and_flat_constants():
    for n in (4, 16, 64, 1024):
        assert loss_multiplier(n, 2) == math.log2(n) ** 2
    for n in (2, 4, 8, 16):
        assert loss_multiplier(n, n) == 4 * ((n - 1) / n) ** 2


def test_loss_multiplier_interior_value():
    assert loss_multiplier(16, 4) == 9.0


def test_loss_multiplier_domain():
    with pytest.raises(ValueError):
        loss_multiplier(16, 3)
    with pytest.raises(ValueError):
        loss_multiplier(24, 2)
    with pytest.raises(ValueError):
        loss_multiplier(4, 8)
