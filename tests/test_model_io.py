import contextlib
import hashlib
import math
import random
import re
import signal
import struct
import tracemalloc

import pytest

from cptree import (
    CondProbTree,
    KWayTree,
    ModelConfig,
    OneAgainstAll,
    TableBaseline,
    build_estimator,
    from_tokens,
    load_model,
    read_sections,
    save_model,
)
from cptree.model_io import MODES, ModelFormatError
from cptree.synthetic import SyntheticTask


TASK = SyntheticTask.random(contexts=6, labels=12, seed=50)
TRAIN = TASK.sample(300, seed=51)
HELD_OUT = TASK.sample(1000, seed=52)


def build(mode):
    cfg = ModelConfig(alpha=0.7, eta=0.2, hash_bits=18, seed=9, k=4 if mode == "kway" else 0)
    est = build_estimator(mode, cfg, TASK.labels)
    for example in TRAIN:
        est.learn(example.x, example.y)
    return cfg, est


# sha256 of the file save_model writes for build(mode), recorded with the
# field-at-a-time codec of commit 335a0fd. The record codec must reproduce
# these bytes exactly: format v1 is unchanged.
GOLDEN_SHA256 = {
    "cpt-online": "b5de27b3a29713a721690076762ecae0f29cf6616a2dce217812e1e362bd9278",
    "cpt-random": "86b070c92df14775b2402d0a030b02d3a8f858b622262b5e286b2f38df832d06",
    "cpt-fixed": "18a4bb2efae77116a1c62bb7d17bd5c9fdcce8cdb72a88812c7844e61ca676f4",
    "oaa": "064b75c48642c7bfe07bbfc7ba77a2d3e922eca7a90d3f998d4463f695ee29e1",
    "pecoc": "a60ee48854b276d266a30ab65b349928ebe37e88664baab2abe3e64cdf98c1f9",
    "kway": "cc49ab359c8812f2989675eab2f307608612189d727e609a509e27d50678109b",
    "table": "9267f16233eb24636fb7280540edb924db570a39c0baa560efe4c8ad6399b23e",
}


@pytest.mark.parametrize("mode", MODES)
def test_model_bytes_match_golden_hashes(mode, tmp_path):
    cfg, est = build(mode)
    path = tmp_path / "model.bin"
    save_model(path, mode, cfg, est)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[mode]


# sha256 of the "<d"-packed scores of build(mode) over HELD_OUT, recorded at
# commit 3c3517e. Golden bytes alone miss a change to scoring that leaves
# training as it was.
GOLDEN_SCORES_SHA256 = {
    "cpt-online": "7e11e95175998fff8d56dd81b110cb77cc2fd8e8ce2134e1396e7ff79fba347f",
    "cpt-random": "b563e29cdd51cb745b8768110715b61652b8fbe5b2f702ca33097827588d15c8",
    "cpt-fixed": "e6ba8d6d01d8fea4485f83ef1c0657297adfc28c4f2dddaee0ad4d13c430279a",
    "oaa": "3a46a090aa0e7aa42295623820d9ec1a4b76f8deaf90dbd7e354132ce67049c1",
    "pecoc": "78ea79948b13bd5b0a2b28310fe5fa978faa9398021d8e9ace6037c72fbd3d6c",
    "kway": "292b9d881c9f48f2861beae74372927d8f9885944062c948c771805a9274a42b",
    "table": "308cc6540b4e342231f5052ef3a1c4b6f222beef5c3d9df5f6abff77dd80f7fd",
}


@pytest.mark.parametrize("mode", MODES)
def test_scores_match_golden_hashes(mode):
    _, est = build(mode)
    scores = struct.pack(f"<{len(HELD_OUT)}d", *(est.score(e.x, e.y) for e in HELD_OUT))
    assert hashlib.sha256(scores).hexdigest() == GOLDEN_SCORES_SHA256[mode]


@pytest.mark.parametrize("mode", MODES)
def test_round_trip_reproduces_predictions_exactly(mode, tmp_path):
    cfg, est = build(mode)
    path = tmp_path / "model.bin"
    save_model(path, mode, cfg, est)
    loaded = load_model(path)
    assert loaded.mode == mode
    assert loaded.config == cfg
    for example in HELD_OUT:
        assert loaded.estimator.score(example.x, example.y) == est.score(
            example.x, example.y
        )


@pytest.mark.parametrize("mode", ["cpt-online", "oaa", "pecoc", "kway", "table"])
def test_identical_runs_produce_identical_files(mode, tmp_path):
    _, _ = build(mode)  # warm nothing; builds are deterministic anyway
    cfg_a, est_a = build(mode)
    cfg_b, est_b = build(mode)
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(path_a, mode, cfg_a, est_a)
    save_model(path_b, mode, cfg_b, est_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_updates_counter_survives_round_trip(tmp_path):
    cfg, est = build("cpt-online")
    path = tmp_path / "model.bin"
    save_model(path, "cpt-online", cfg, est)
    assert load_model(path).estimator.updates == est.updates


def test_sections_are_separable(tmp_path):
    cfg, est = build("cpt-online")
    path = tmp_path / "model.bin"
    save_model(path, "cpt-online", cfg, est)
    mode, config, structure, weights = read_sections(path)
    assert mode == "cpt-online"
    assert config.alpha == cfg.alpha
    assert len(structure) > 0 and len(weights) > 0


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_truncated_file_is_rejected(tmp_path):
    cfg, est = build("oaa")
    path = tmp_path / "model.bin"
    save_model(path, "oaa", cfg, est)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(ModelFormatError):
        load_model(path)


def _hash_bits_message(hash_bits):
    return rf"^hash_bits must be in \[10, 30\], got {hash_bits}$"


@pytest.mark.parametrize("hash_bits", [9, 31, 99])
def test_unusable_hash_bits_are_rejected(hash_bits, tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, "oaa", ModelConfig(), OneAgainstAll())
    # hash_bits follows the magic, the version, the 4-byte length and 3 bytes
    # of the "oaa" tag, and the config's alpha and eta.
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", raw, 31) == (ModelConfig().hash_bits,)
    struct.pack_into("<I", raw, 31, hash_bits)
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match=_hash_bits_message(hash_bits)):
        load_model(path)


@pytest.mark.parametrize("hash_bits", [9, 31, 99])
def test_unusable_hash_bits_are_not_saved(hash_bits, tmp_path):
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=_hash_bits_message(hash_bits)):
        save_model(path, "oaa", ModelConfig(hash_bits=hash_bits), OneAgainstAll())
    assert not path.exists()


_BAD_CONFIG_FIELDS = [
    ("alpha", 15, 2.0, r"^alpha must be in \(0, 1\], got 2.0$"),
    ("alpha", 15, 0.0, r"^alpha must be in \(0, 1\], got 0.0$"),
    ("alpha", 15, math.nan, r"^alpha must be in \(0, 1\], got nan$"),
    ("eta", 23, math.nan, r"^eta must be positive and finite, got nan$"),
    ("eta", 23, math.inf, r"^eta must be positive and finite, got inf$"),
    ("eta", 23, 0.0, r"^eta must be positive and finite, got 0.0$"),
    ("eta", 23, -0.1, r"^eta must be positive and finite, got -0.1$"),
]
_BAD_CONFIG_IDS = ["alpha-2", "alpha-0", "alpha-nan", "eta-nan", "eta-inf", "eta-0", "eta-neg"]


@pytest.mark.parametrize("field, offset, value, message", _BAD_CONFIG_FIELDS, ids=_BAD_CONFIG_IDS)
def test_config_outside_its_domain_is_rejected(field, offset, value, message, tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, "oaa", ModelConfig(), OneAgainstAll())
    # alpha and eta are the config's first two reals, after the magic, the
    # version, the 4-byte length and 3 bytes of the "oaa" tag.
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<d", raw, offset) == (getattr(ModelConfig(), field),)
    struct.pack_into("<d", raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


# A tree decoder builds its empty tree from the config's alpha, and a pecoc
# decoder its regressors, lazily, from the config's eta.
@pytest.mark.parametrize("mode", ["cpt-online", "pecoc"])
@pytest.mark.parametrize("field, offset, value, message", _BAD_CONFIG_FIELDS, ids=_BAD_CONFIG_IDS)
def test_config_outside_its_domain_is_not_saved(mode, field, offset, value, message, tmp_path):
    path = tmp_path / "model.bin"
    est = build_estimator(mode, ModelConfig(), ["A", "B"])
    with pytest.raises(ModelFormatError, match=message):
        save_model(path, mode, ModelConfig(**{field: value}), est)
    assert not path.exists()


def _diverged_tree():
    # At eta 0.5 and a feature weight of 30 each update multiplies a
    # regressor's error by 1 - 0.5 * (30**2 + 1) = -449.5: a weight overflows
    # to inf, and the next step, no longer finite, stops learning.
    tree = CondProbTree(learning_rate=0.5)
    x = from_tokens([("f", 30.0)])
    with pytest.raises(ValueError, match="regressor diverged"):
        for i in range(200):
            tree.learn(x, "AB"[i % 2])
    return tree


def _infinite_weight_oaa():
    est = OneAgainstAll()
    est.learn(TRAIN[0].x, "A")
    weights = est.regressors["A"].weights
    weights[next(iter(weights))] = math.inf
    return est


@pytest.mark.parametrize(
    "mode, make, message",
    [("cpt-online", _diverged_tree, "regressor weight is not finite"),
     ("oaa", _infinite_weight_oaa, "regressor weight is not finite")],
    ids=["diverged-tree", "inf-weight"],
)
def test_non_finite_regressor_state_is_not_saved(mode, make, message, tmp_path):
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=message):
        save_model(path, mode, ModelConfig(), make())
    assert not path.exists()


@pytest.mark.parametrize("hash_bits", [10, 30])
def test_boundary_hash_bits_load(hash_bits, tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, "oaa", ModelConfig(hash_bits=hash_bits), OneAgainstAll())
    assert load_model(path).config.hash_bits == hash_bits


def test_loaded_tree_keeps_learning_consistently(tmp_path):
    cfg, est = build("cpt-online")
    path = tmp_path / "model.bin"
    save_model(path, "cpt-online", cfg, est)
    twin = load_model(path).estimator
    rng = random.Random(53)
    for _ in range(200):
        example = rng.choice(TRAIN)
        est.learn(example.x, example.y)
        twin.learn(example.x, example.y)
    for example in HELD_OUT[:200]:
        assert est.score(example.x, example.y) == twin.score(example.x, example.y)


def _raise_timeout(signum, frame):
    raise TimeoutError("time limit reached")


@contextlib.contextmanager
def _time_limit(seconds):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _two_leaf_tree_file(tmp_path, offset, patch):
    """Save the tree root(A, B) and overwrite its structure section from
    offset on with patch; offset == 65 appends to the section.

    Structure layout: a 16-byte tree head, the root record (id, kind, left,
    right, left leaves, right leaves) at 16, leaf "A" at 45, leaf "B" at 55.
    """
    path = _saved(tmp_path, "cpt-online", CondProbTree(), ["A", "B"])
    _, _, structure, weights = read_sections(path)
    assert len(structure) == 65
    edited = bytearray(structure)
    edited[offset : offset + len(patch)] = patch
    _replace_sections(path, bytes(edited), weights)
    return path


def _saved(tmp_path, mode, est, labels, xs=(TRAIN[0].x,)):
    """Train est on every (x, label) pair, in order, and save it."""
    for x in xs:
        for label in labels:
            est.learn(x, label)
    path = tmp_path / "model.bin"
    save_model(path, mode, ModelConfig(), est)
    return path


def _replace_sections(path, structure, weights):
    """Rewrite the model file at path with new structure and weights sections."""
    raw = path.read_bytes()
    _, _, old_structure, old_weights = read_sections(path)
    header = raw[: len(raw) - len(old_weights) - len(old_structure) - 16]
    path.write_bytes(
        header + struct.pack("<Q", len(structure)) + structure
        + struct.pack("<Q", len(weights)) + weights
    )


@pytest.mark.parametrize(
    "offset, patch, message",
    [
        # The root's right child is the root: a cycle from the root.
        (25, struct.pack("<I", 0), "the root is named as a child"),
        (25, struct.pack("<I", 1), "node 1 is named as a child twice"),
        (55, struct.pack("<I", 1), "node 1 appears twice"),
        (64, b"A", "label 'A' appears twice"),
        (65, b"\0", "trailing bytes after structure records"),
        # Rejected before a node list of that size is allocated.
        (0, struct.pack("<II", 1 << 20, 1 << 20), "node count exceeds"),
    ],
    ids=["root-cycle", "child-twice", "id-twice", "label-twice", "trailing-byte",
         "node-count"],
)
def test_malformed_tree_records_are_rejected(offset, patch, message, tmp_path):
    path = _two_leaf_tree_file(tmp_path, offset, patch)
    with _time_limit(2), pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_tree_whose_root_is_a_leaf_fails_the_leaf_recount(tmp_path):
    # The root record now reads as leaf "C": leaves A and B stay indexed, but
    # no node names them, so the traversal from the root finds one leaf.
    path = _saved(tmp_path, "cpt-online", CondProbTree(), ["A", "B"])
    _, _, structure, weights = read_sections(path)
    root_leaf = struct.pack("<IB", 0, 1) + _label_record("C")
    _replace_sections(path, structure[:16] + root_leaf + structure[45:], weights)
    with pytest.raises(ModelFormatError, match="1 leaves found but 3 labels indexed"):
        load_model(path)


def test_unedited_two_leaf_tree_loads(tmp_path):
    tree = load_model(_two_leaf_tree_file(tmp_path, 0, b"")).estimator
    assert tree.leaf_index == {"A": 1, "B": 2}


def test_non_finite_learning_rate_in_a_regressor_record_is_rejected(tmp_path):
    path = _saved(tmp_path, "cpt-online", CondProbTree(), ["A", "B"])
    _, _, structure, weights = read_sections(path)
    # The weights section opens with the 8-byte update counter; the root's
    # regressor record follows, led by its learning rate.
    edited = weights[:8] + struct.pack("<d", float("nan")) + weights[16:]
    _replace_sections(path, structure, edited)
    with pytest.raises(ModelFormatError, match="learning_rate"):
        load_model(path)


def _root_regressor_file(tmp_path, edits):
    """Save the tree root(A, B), trained on two one-feature contexts, and
    overwrite 8-byte reals of its weights section: edits maps offset to value.

    The weights section opens with the 8-byte update counter. The root's
    regressor record follows: learning rate, update count, bias at 24, a
    weight count of 2 at 32, then two (feature, weight) pairs with their
    weights at 40 and 52.
    """
    est = CondProbTree()
    path = _saved(tmp_path, "cpt-online", est, ["A", "B"], xs=TASK.features[:2])
    _, _, structure, weights = read_sections(path)
    assert struct.unpack_from("<I", weights, 32) == (2,)
    edited = bytearray(weights)
    for offset, value in edits.items():
        struct.pack_into("<d", edited, offset, value)
    _replace_sections(path, structure, bytes(edited))
    return path, est


@pytest.mark.parametrize(
    "edits, message",
    [
        ({24: float("nan")}, "regressor bias is not finite"),
        ({52: float("inf")}, "regressor weight is not finite"),
        ({40: 1e308, 52: float("-inf")}, "regressor weight is not finite"),
    ],
    ids=["nan-bias", "inf-weight", "inf-weight-after-a-large-one"],
)
def test_non_finite_regressor_state_is_rejected(edits, message, tmp_path):
    path, _ = _root_regressor_file(tmp_path, edits)
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


# Two weights of 1e308 sum to inf, yet each is finite: the file must load.
@pytest.mark.parametrize("edits", [{}, {40: 1e308, 52: 1e308}], ids=["unedited", "overflowing-sum"])
def test_finite_regressor_state_loads(edits, tmp_path):
    path, est = _root_regressor_file(tmp_path, edits)
    loaded = load_model(path).estimator
    expected = edits.values() if edits else est.nodes[est.root].reg.weights.values()
    assert sorted(loaded.nodes[loaded.root].reg.weights.values()) == sorted(expected)
    for x in TASK.features[:2]:
        for label in ("A", "B"):
            score = loaded.score(x, label)
            assert 0.0 <= score <= 1.0
            if not edits:
                assert score == est.score(x, label)


def _edited_model(tmp_path, mode, est, labels, old, new, xs=(TRAIN[0].x,)):
    """Save est trained on labels, then replace the one occurrence of old in
    its structure section with new, which has the same length."""
    path = _saved(tmp_path, mode, est, labels, xs)
    _, _, structure, weights = read_sections(path)
    assert structure.count(old) == 1 and len(new) == len(old)
    _replace_sections(path, structure.replace(old, new), weights)
    return path


def _label_record(label):
    return struct.pack("<I", len(label)) + label.encode("utf-8")


def test_repeated_oaa_label_is_rejected(tmp_path):
    path = _edited_model(tmp_path, "oaa", OneAgainstAll(), ["A", "B"],
                         _label_record("B"), _label_record("A"))
    with pytest.raises(ModelFormatError, match="label 'A' appears twice"):
        load_model(path)


def test_repeated_table_label_in_one_context_is_rejected(tmp_path):
    path = _edited_model(tmp_path, "table", TableBaseline(), ["A", "B"],
                         _label_record("B"), _label_record("A"))
    with pytest.raises(ModelFormatError, match="label 'A' appears twice in one context"):
        load_model(path)


def test_repeated_table_context_is_rejected(tmp_path):
    first, second = TASK.features[0], TASK.features[1]
    assert len(first.key_bytes()) == len(second.key_bytes())
    path = _edited_model(tmp_path, "table", TableBaseline(), ["A"],
                         second.key_bytes(), first.key_bytes(), xs=(first, second))
    with pytest.raises(ModelFormatError, match="context appears twice"):
        load_model(path)


def _kway_file(tmp_path, position, key):
    """Save build("kway"), the 12-label k = 4 tree of depth 2, and set the
    (level, index) key of its node record at position to key.

    Its structure section ends with the four node keys, in order (0, 0),
    (1, 0), (1, 1), (1, 2), 12 bytes each.
    """
    cfg, est = build("kway")
    path = tmp_path / "model.bin"
    save_model(path, "kway", cfg, est)
    _, _, structure, weights = read_sections(path)
    keys = structure[-48:]
    assert [struct.unpack_from("<IQ", keys, 12 * i) for i in range(4)] == [
        (0, 0), (1, 0), (1, 1), (1, 2)]
    start = len(structure) - 48 + 12 * position
    edited = structure[:start] + struct.pack("<IQ", *key) + structure[start + 12 :]
    _replace_sections(path, edited, weights)
    return path


@pytest.mark.parametrize(
    "position, key, message",
    [
        (1, (0, 0), "node (0, 0) appears twice"),
        (3, (1, 1), "node (1, 1) appears twice"),
        (3, (2, 0), "node (2, 0) lies outside a depth-2 tree"),
        (0, (0, 1), "node (0, 1) lies outside a depth-2 tree"),
        (3, (1, 4), "node (1, 4) lies outside a depth-2 tree"),
    ],
    ids=["repeated-root", "repeated-leaf-parent", "level", "root-index", "index"],
)
def test_malformed_kway_node_keys_are_rejected(position, key, message, tmp_path):
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(_kway_file(tmp_path, position, key))


# (1, 3) holds only padding slots: never trained, but inside the tree's shape.
@pytest.mark.parametrize("key", [(1, 2), (1, 3)], ids=["unedited", "padding-node"])
def test_kway_node_keys_inside_the_tree_load(key, tmp_path):
    loaded = load_model(_kway_file(tmp_path, 3, key)).estimator
    assert sorted(loaded._node_regs) == [(0, 0), (1, 0), (1, 1), key]


def test_kway_depth_that_disagrees_with_its_label_count_is_rejected(tmp_path):
    # Two labels at k = 2 make a depth-1 tree; the head now says depth 2.
    path = _edited_model(tmp_path, "kway", KWayTree(["A", "B"], 2), ["A", "B"],
                         struct.pack("<III", 2, 1, 2), struct.pack("<III", 2, 2, 2))
    with pytest.raises(ModelFormatError, match="tree depth does not match label count"):
        load_model(path)


def test_kway_fanout_edited_upward_is_rejected_without_a_dense_code(tmp_path):
    # A 2-label k = 2 file whose fan-out now reads 4096 holds one regressor
    # where 4095 are due. A dense 4096 x 4096 code alone would take 16 MiB.
    path = _edited_model(tmp_path, "kway", KWayTree(["A", "B"], 2), ["A", "B"],
                         struct.pack("<III", 2, 1, 2), struct.pack("<III", 4096, 1, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match="truncated model file"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("total", [1, 3])
def test_table_context_total_must_equal_its_label_counts(total, tmp_path):
    # One context with labels A and B, seen once each: its total is 2.
    path = _edited_model(tmp_path, "table", TableBaseline(), ["A", "B"],
                         struct.pack("<QI", 2, 2), struct.pack("<QI", total, 2))
    with pytest.raises(ModelFormatError, match="context total differs"):
        load_model(path)


def test_table_label_count_of_zero_is_rejected(tmp_path):
    path = _edited_model(tmp_path, "table", TableBaseline(), ["A", "B"],
                         struct.pack("<QI", 2, 2), struct.pack("<QI", 1, 2))
    _, _, structure, weights = read_sections(path)
    # The update counter, then one count per label; the total 1 still sums.
    assert weights == struct.pack("<QQQ", 2, 1, 1)
    _replace_sections(path, structure, struct.pack("<QQQ", 2, 0, 1))
    with pytest.raises(ModelFormatError, match="label 'A' has count 0"):
        load_model(path)


@pytest.mark.parametrize("mode, make", [("oaa", OneAgainstAll), ("table", TableBaseline)])
def test_unedited_two_label_models_load(mode, make, tmp_path):
    est = make()
    loaded = load_model(_saved(tmp_path, mode, est, ["A", "B"])).estimator
    for label in ("A", "B"):
        assert loaded.score(TRAIN[0].x, label) == est.score(TRAIN[0].x, label)


def _mutated_models(tmp_path, seed=2031, cases=300):
    """Yield (mode, bytes): saved models of every mode in turn, each with 1 to
    4 random bytes overwritten by a different value."""
    originals = {}
    for mode in MODES:
        cfg, est = build(mode)
        save_model(tmp_path / f"{mode}.bin", mode, cfg, est)
        originals[mode] = (tmp_path / f"{mode}.bin").read_bytes()
    rng = random.Random(seed)
    for case in range(cases):
        mode = MODES[case % len(MODES)]
        raw = bytearray(originals[mode])
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(raw))
            raw[pos] = (raw[pos] + rng.randrange(1, 256)) % 256
        yield mode, bytes(raw)


def test_mutated_files_load_or_raise_model_format_error(tmp_path):
    path = tmp_path / "mutant.bin"
    loaded_modes, rejected_modes = set(), set()
    for mode, raw in _mutated_models(tmp_path):
        path.write_bytes(raw)
        with _time_limit(2):
            try:
                loaded = load_model(path)
                for example in HELD_OUT[:5]:
                    score = loaded.estimator.score(example.x, example.y)
                    assert 0.0 <= score <= 1.0, (mode, score)
                loaded_modes.add(mode)
            except ModelFormatError:
                rejected_modes.add(mode)
    # Most mutations land in weights, which load; the rest must be rejected.
    assert loaded_modes == rejected_modes == set(MODES)
