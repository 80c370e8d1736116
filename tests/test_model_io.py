import contextlib
import gc
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
    LinearRegressor,
    ModelConfig,
    OneAgainstAll,
    PecocModel,
    TableBaseline,
    build_estimator,
    from_tokens,
    load_model,
    read_sections,
    save_model,
)
from cptree.model_io import MODES, ModelFormatError
from cptree.synthetic import SyntheticTask

from _support import check_leaf_counts


TASK = SyntheticTask.random(contexts=6, labels=12, seed=50)
TRAIN = TASK.sample(300, seed=51)
HELD_OUT = TASK.sample(1000, seed=52)


def build(mode):
    cfg = ModelConfig(alpha=0.7, eta=0.2, hash_bits=18, seed=9, k=4 if mode == "kway" else 0)
    est = build_estimator(mode, cfg, TASK.labels)
    for example in TRAIN:
        est.learn(example.x, example.y)
    return cfg, est


# sha256 of the file save_model writes for build(mode), recorded when format
# v4 replaced v3 (a tree as its preorder node kinds, without node ids, child
# ids or leaf counts). The other four modes' files differ from v3 only in the
# version. Re-record them only with a new format version.
GOLDEN_SHA256 = {
    "cpt-online": "3969b7361371fcbc0c0af4f2f68c4f716a2d355f40e4ae1a6b5ba6940ab5facc",
    "cpt-random": "e8f5f477eb10c1c17e0d060f2dc5acda5f3a8d7ff07489734a6eb4675933d689",
    "cpt-fixed": "351ac36931ed4f98d6c594173024dd0ecee72bb2eab006748ec40e7171c73f1e",
    "oaa": "a5eebec3fe0cade8e11252960c5f55b077cf4f48138101e24a9a5e52d2ec0e2b",
    "pecoc": "d0b1fced216fe2199fea84a4e5b7fcd2145b63960c3f647a36f77167692bc6e9",
    "kway": "e8883892cd77be48ab4ca0f95d3cade9ae5edf5a913e5b7d851e08c234b3c2cd",
    "table": "6356a45cd2e5eb875950354025a973f447a5e3e00e0951f4e724da6249017209",
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
    if isinstance(loaded.estimator, CondProbTree):
        check_leaf_counts(loaded.estimator)
    for example in HELD_OUT:
        assert loaded.estimator.score(example.x, example.y) == est.score(
            example.x, example.y
        )
    save_model(tmp_path / "again.bin", mode, loaded.config, loaded.estimator)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


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


def _check_earlier_format_is_rejected(tmp_path, version):
    path = tmp_path / "model.bin"
    save_model(path, "oaa", ModelConfig(), OneAgainstAll())
    # The version follows the 4-byte magic.
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", raw, 4) == (4,)
    struct.pack_into("<I", raw, 4, version)
    path.write_bytes(bytes(raw))
    message = (rf"^unsupported format version {version}: this build reads version 4 only;"
               r" retrain the model$")
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_format_1_file_is_rejected_with_a_retrain_message(tmp_path):
    _check_earlier_format_is_rejected(tmp_path, 1)


def test_format_2_file_is_rejected_with_a_retrain_message(tmp_path):
    _check_earlier_format_is_rejected(tmp_path, 2)


def test_format_3_file_is_rejected_with_a_retrain_message(tmp_path):
    _check_earlier_format_is_rejected(tmp_path, 3)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    for mode in MODES:
        cfg, est = build(mode)
        save_model(path, mode, cfg, est)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(ModelFormatError):
            load_model(path)
        # Each section cut to every shorter length, with its length prefix
        # to match: the records the counts ask for run out.
        path.write_bytes(raw)
        _, _, structure, weights = read_sections(path)
        cuts = [(structure[:n], weights) for n in range(len(structure))]
        cuts += [(structure, weights[:n]) for n in range(len(weights))]
        for cut in cuts:
            path.write_bytes(raw)
            _replace_sections(path, *cut)
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


@pytest.mark.parametrize("field, value, bits", [
    ("seed", -1, 64), ("seed", 1 << 64, 64), ("k", -1, 32), ("passes", -2, 32),
    ("passes", 1 << 32, 32), ("hash_bits", 18.0, 32), ("seed", 0.5, 64),
])
def test_config_a_file_cannot_hold_is_not_saved(field, value, bits, tmp_path):
    # The header is packed before the path is opened: a refused save leaves
    # no file behind, and an existing file as it was.
    est = build_estimator("cpt-online", ModelConfig())
    config = ModelConfig(**{field: value})
    message = rf"^{field} must be an integer in \[0, 2\*\*{bits}\), got {value!r}$"
    path = tmp_path / "model.bin"
    with pytest.raises(ModelFormatError, match=message):
        save_model(path, "cpt-online", config, est)
    assert not path.exists()
    path.write_bytes(b"kept")
    with pytest.raises(ModelFormatError, match=message):
        save_model(path, "cpt-online", config, est)
    assert path.read_bytes() == b"kept"


@pytest.mark.parametrize("field, value", [
    ("alpha", "0.5"), ("eta", None), ("delta", "0.05"), ("delta", 2**1024),
])
def test_config_reals_must_be_numbers_a_double_holds(field, value, tmp_path):
    path = tmp_path / "model.bin"
    message = f"^{field} must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(ModelFormatError, match=message):
        save_model(path, "oaa", ModelConfig(**{field: value}), OneAgainstAll())
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


def _negative_zero_bias_oaa():
    # No step makes a bias of -0.0; only an edit by hand can.
    est = OneAgainstAll()
    est.learn(TRAIN[0].x, "A")
    est.regressors["A"].bias = -0.0
    return est


def _diverged_kway_tree():
    # The same repro at k = 4: the learn that raises leaves a weight at inf.
    tree = KWayTree(["A", "B", "C", "D"], 4, learning_rate=0.5)
    x = from_tokens([("f", 30.0)])
    with pytest.raises(ValueError, match="regressor diverged"):
        for i in range(200):
            tree.learn(x, "ABCD"[i % 4])
    return tree


def _negative_zero_bias_kway_tree():
    tree = KWayTree(["A", "B", "C", "D"], 4)
    tree.learn(TRAIN[0].x, "A")
    tree.regressors_at(0, 0)._biases[1] = -0.0
    return tree


@pytest.mark.parametrize(
    "mode, make, message",
    [("cpt-online", _diverged_tree, "regressor weight is not finite"),
     ("oaa", _infinite_weight_oaa, "regressor weight is not finite"),
     ("oaa", _negative_zero_bias_oaa, "regressor bias is -0.0"),
     ("kway", _diverged_kway_tree, "regressor weight is not finite"),
     ("kway", _negative_zero_bias_kway_tree, "regressor bias is -0.0")],
    ids=["diverged-tree", "inf-weight", "negative-zero-bias", "diverged-kway-tree",
         "block-negative-zero-bias"],
)
def test_non_finite_regressor_state_is_not_saved(mode, make, message, tmp_path):
    path = tmp_path / "model.bin"
    est = make()
    with pytest.raises(ValueError, match=message):
        save_model(path, mode, ModelConfig(eta=est.learning_rate, k=4), est)
    assert not path.exists()


# A model file holds no learning rate: every regressor reloads at the eta of
# the config, so a save at any other rate would not reload as it was.
@pytest.mark.parametrize("mode", [mode for mode in MODES if mode != "table"])
def test_estimator_rate_other_than_eta_is_not_saved(mode, tmp_path):
    cfg = ModelConfig(k=4)
    est = build_estimator(mode, ModelConfig(eta=0.2, k=4), TASK.labels)
    path = tmp_path / "model.bin"
    with pytest.raises(ModelFormatError, match=r"^learning_rate 0.2 differs from the config's eta 0.1$"):
        save_model(path, mode, cfg, est)
    assert not path.exists()


def test_tree_whose_regressors_run_at_another_rate_is_not_saved(tmp_path):
    tree = CondProbTree(learning_rate=0.1, regressor_factory=lambda: LinearRegressor(0.3))
    for label in "AB":
        tree.learn(TRAIN[0].x, label)
    path = tmp_path / "model.bin"
    with pytest.raises(ModelFormatError, match=r"^regressor learning_rate 0.3 != eta 0.1$"):
        save_model(path, "cpt-online", ModelConfig(), tree)
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
    check_leaf_counts(twin)
    # The loader numbers nodes by their preorder record, while insertion
    # appended the trained tree's nodes out of preorder: the ids differ, yet
    # scores and saved bytes must agree.
    records = list(range(len(est.nodes)))
    assert [node_id for node_id, _ in twin.preorder()] == records
    assert [node_id for node_id, _ in est.preorder()] != records
    rng = random.Random(53)
    for _ in range(200):
        example = rng.choice(TRAIN)
        est.learn(example.x, example.y)
        twin.learn(example.x, example.y)
    for example in HELD_OUT[:200]:
        assert est.score(example.x, example.y) == twin.score(example.x, example.y)
    save_model(tmp_path / "again.bin", "cpt-online", cfg, twin)
    save_model(path, "cpt-online", cfg, est)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def _weight_dicts(est):
    """Every dict of feature index to weight or block row that est holds."""
    if isinstance(est, CondProbTree):
        return [node.reg.weights for node in est.nodes]
    if isinstance(est, OneAgainstAll):
        return [reg.weights for reg in est.regressors.values()]
    return [block._weights for block in est._node_regs.values()]


@pytest.mark.parametrize("mode", [m for m in MODES if m != "table"])
def test_a_load_holds_one_int_per_feature_index(mode, tmp_path):
    # A trained model's dicts share the parser's int for each token; a loaded
    # one shares one int per index across the whole model, however many
    # regressors or block rows hold it.
    cfg, est = build(mode)
    save_model(tmp_path / "model.bin", mode, cfg, est)
    keys = [key for weights in _weight_dicts(load_model(tmp_path / "model.bin").estimator)
            for key in weights]
    assert len(set(keys)) > 1
    assert len({id(key) for key in keys}) == len(set(keys))


def test_loaded_tree_is_as_small_as_the_trained_one(tmp_path):
    # Few contexts over many labels: many regressors, each holding some of
    # the same feature indices, as in the A10 shape.
    task = SyntheticTask.random(contexts=64, labels=200, seed=54)
    examples = task.sample(3000, seed=55)
    cfg = ModelConfig(alpha=1.0, eta=0.1)
    path = tmp_path / "model.bin"

    def traced():
        # A full collection also empties the interpreter's free lists, which
        # training fills with spare tuples and floats.
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        before = traced()
        est = build_estimator("cpt-online", cfg)
        for example in examples:
            est.learn(example.x, example.y)
        trained = traced() - before
        save_model(path, "cpt-online", cfg, est)
        before = traced()
        loaded = load_model(path).estimator
        loaded_bytes = traced() - before
    finally:
        tracemalloc.stop()
    assert len(loaded.nodes) == len(est.nodes) == 2 * len(task.labels) - 1
    assert loaded_bytes <= 1.05 * trained, (loaded_bytes, trained)


def test_reloaded_random_tree_flips_the_coins_the_saved_one_would(tmp_path):
    cfg, est = build("cpt-random")
    path = tmp_path / "model.bin"
    save_model(path, "cpt-random", cfg, est)
    twin = load_model(path).estimator
    check_leaf_counts(twin)
    for i, example in enumerate(HELD_OUT[:40]):
        est.learn(example.x, f"new{i}")
        twin.learn(example.x, f"new{i}")
    assert twin.structure_signature() == est.structure_signature()
    for example in HELD_OUT[:200]:
        assert twin.score(example.x, example.y) == est.score(example.x, example.y)


@pytest.mark.parametrize("position", [625, 2**32 - 1])
def test_random_tree_coin_position_past_its_state_is_rejected(position, tmp_path):
    cfg, est = build("cpt-random")
    path = tmp_path / "model.bin"
    save_model(path, "cpt-random", cfg, est)
    _, _, structure, weights = read_sections(path)
    # The coin state follows the 12-byte tree head: 624 words, then the
    # position in them, at most 624.
    offset = 12 + 624 * 4
    assert struct.unpack_from("<I", structure, offset) == (est._rng.getstate()[1][-1],)
    edited = bytearray(structure)
    struct.pack_into("<I", edited, offset, position)
    _replace_sections(path, bytes(edited), weights)
    with pytest.raises(ModelFormatError, match=r"^invalid cpt-random model: invalid state$"):
        load_model(path)


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


def _two_leaf_tree_file(tmp_path, *edits):
    """Save the tree root(A, B) and overwrite its structure section from each
    (offset, patch) edit's offset on with its patch; offset 25 appends.

    Structure layout: a 12-byte tree head (node records, disagreements), the
    root's kind byte at 12, then leaf "A" (kind, label length, label) at 13
    and leaf "B" at 19.
    """
    path = _saved(tmp_path, "cpt-online", CondProbTree(), ["A", "B"])
    _, _, structure, weights = read_sections(path)
    assert len(structure) == 25
    edited = bytearray(structure)
    for offset, patch in edits:
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


def _label_record(label):
    return struct.pack("<I", len(label)) + label.encode("utf-8")


@pytest.mark.parametrize(
    "edits, message",
    [
        # The root's right child never comes.
        ([(0, struct.pack("<I", 2))], "node records end inside a subtree"),
        # Leaf "C" comes after the root's subtree is complete.
        ([(0, struct.pack("<I", 4)), (25, b"\1" + _label_record("C"))],
         "node records continue after the tree is complete"),
        ([(12, b"\2")], "unknown node kind 2"),
        ([(24, b"A")], "label 'A' appears twice"),
        ([(25, b"\0")], "trailing bytes after structure records"),
        # No node is made before its record is read, so a claim of 2^32 - 1
        # nodes costs nothing until the records run out.
        ([(0, struct.pack("<I", (1 << 32) - 1))], "truncated model file"),
    ],
    ids=["end-inside-subtree", "continue-after-complete", "unknown-kind", "label-twice",
         "trailing-byte", "node-count"],
)
def test_malformed_tree_records_are_rejected(edits, message, tmp_path):
    path = _two_leaf_tree_file(tmp_path, *edits)
    with _time_limit(2):
        assert _peak_bytes_of_rejected_load(path, message) < 4 << 20


def test_unedited_two_leaf_tree_loads(tmp_path):
    tree = load_model(_two_leaf_tree_file(tmp_path)).estimator
    assert tree.leaf_index == {"A": 1, "B": 2}
    check_leaf_counts(tree)


def _root_regressor_file(tmp_path, edits):
    """Save the tree root(A, B), trained on two one-feature contexts, and
    overwrite 8-byte reals of its weights section: edits maps offset to value.

    The weights section opens with the 8-byte update counter. The root's
    regressor record follows, the only one, since leaves hold none: its bias
    at 8, a weight count of 2 at 16, then two (feature, weight) pairs with
    their weights at 24 and 36.
    """
    est = CondProbTree()
    path = _saved(tmp_path, "cpt-online", est, ["A", "B"], xs=TASK.features[:2])
    _, _, structure, weights = read_sections(path)
    assert len(weights) == 44 and struct.unpack_from("<I", weights, 16) == (2,)
    edited = bytearray(weights)
    for offset, value in edits.items():
        struct.pack_into("<d", edited, offset, value)
    _replace_sections(path, structure, bytes(edited))
    return path, est


def _root_block_file(tmp_path, edits):
    """Save a 4-label k = 4 kway tree, trained on two one-feature contexts,
    and overwrite 8-byte reals of its weights section as _root_regressor_file
    does.

    The tree has one node, whose block record follows the 8-byte update
    counter: its 3 biases at 8, 16 and 24, a feature count of 2 at 32, then
    two (feature, 3 weights) records, with features at 36 and 64 and weights
    at 40, 48, 56 and 68, 76, 84.
    """
    est = KWayTree(["A", "B", "C", "D"], 4)
    path = _saved(tmp_path, "kway", est, ["A", "B", "C", "D"], xs=TASK.features[:2])
    _, _, structure, weights = read_sections(path)
    assert len(weights) == 92 and struct.unpack_from("<I", weights, 32) == (2,)
    edited = bytearray(weights)
    for offset, value in edits.items():
        struct.pack_into("<d", edited, offset, value)
    _replace_sections(path, structure, bytes(edited))
    return path, est


@pytest.mark.parametrize(
    "make, edits, message",
    [
        (_root_regressor_file, {8: float("nan")}, "regressor bias is not finite"),
        (_root_regressor_file, {36: float("inf")}, "regressor weight is not finite"),
        (_root_regressor_file, {24: 1e308, 36: float("-inf")}, "regressor weight is not finite"),
        (_root_regressor_file, {8: -0.0}, "regressor bias is -0.0"),
        (_root_block_file, {24: float("nan")}, "regressor bias is not finite"),
        (_root_block_file, {76: float("inf")}, "regressor weight is not finite"),
        (_root_block_file, {40: 1e308, 84: float("-inf")}, "regressor weight is not finite"),
        (_root_block_file, {16: -0.0}, "regressor bias is -0.0"),
    ],
    ids=["nan-bias", "inf-weight", "inf-weight-after-a-large-one", "negative-zero-bias",
         "block-nan-bias", "block-inf-weight", "block-inf-weight-after-a-large-one",
         "block-negative-zero-bias"],
)
def test_non_finite_regressor_state_is_rejected(make, edits, message, tmp_path):
    path, _ = make(tmp_path, edits)
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


# Two weights of 1e308 sum to inf, yet each is finite: the file must load.
@pytest.mark.parametrize("edits", [{}, {24: 1e308, 36: 1e308}], ids=["unedited", "overflowing-sum"])
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


def _root_weight_indices_file(tmp_path, edit, make=_root_regressor_file, offsets=(20, 32)):
    """The _root_regressor_file tree with its two weight indices (a, b), at
    20 and 32 of the weights section, replaced by edit(a, b); or the
    _root_block_file tree's two features, at 36 and 64."""
    path, _ = make(tmp_path, {})
    _, _, structure, weights = read_sections(path)
    edited = bytearray(weights)
    a, b = edit(*(struct.unpack_from("<I", weights, offset)[0] for offset in offsets))
    struct.pack_into("<I", edited, offsets[0], a)
    struct.pack_into("<I", edited, offsets[1], b)
    _replace_sections(path, structure, bytes(edited))
    return path


_INDEX_EDITS = [
    (lambda a, b: (b, a), "regressor weight indices are not strictly increasing"),
    (lambda a, b: (a, a), "regressor weight indices are not strictly increasing"),
    (lambda a, b: (a, 1 << 18), r"regressor weight index 262144 is not below 2\^18"),
    (lambda a, b: (a, (1 << 32) - 1), r"regressor weight index 4294967295 is not below 2\^18"),
]
_INDEX_IDS = ["swapped", "repeated", "at-the-limit", "largest"]
_BLOCK_INDICES = (_root_block_file, (36, 64))


@pytest.mark.parametrize(
    "where, edit, message",
    [((), *case) for case in _INDEX_EDITS] + [(_BLOCK_INDICES, *case) for case in _INDEX_EDITS],
    ids=_INDEX_IDS + [f"block-{name}" for name in _INDEX_IDS],
)
def test_regressor_weight_indices_out_of_order_or_range_are_rejected(where, edit, message,
                                                                      tmp_path):
    with pytest.raises(ModelFormatError, match=message):
        load_model(_root_weight_indices_file(tmp_path, edit, *where))


def test_regressor_weight_index_at_the_top_of_the_hash_space_loads(tmp_path):
    path = _root_weight_indices_file(tmp_path, lambda a, b: (a, (1 << 18) - 1))
    weights = load_model(path).estimator.nodes[0].reg.weights
    assert len(weights) == 2 and list(weights)[1] == (1 << 18) - 1


def test_weight_index_outside_the_configured_hash_space_is_not_saved(tmp_path):
    # The vector is hashed into 2^18 buckets; a config of 10 bits could not
    # reload it, so the save is refused.
    x = from_tokens([("word", 1.0)], 18)
    assert x.indices[0] >= 1 << 10
    est = OneAgainstAll()
    est.learn(x, "A")
    path = tmp_path / "model.bin"
    with pytest.raises(ModelFormatError, match=rf"index {x.indices[0]} is not below 2\^10"):
        save_model(path, "oaa", ModelConfig(hash_bits=10), est)
    assert not path.exists()


def _edited_model(tmp_path, mode, est, labels, old, new, xs=(TRAIN[0].x,)):
    """Save est trained on labels, then replace the one occurrence of old in
    its structure section with new, which has the same length."""
    path = _saved(tmp_path, mode, est, labels, xs)
    _, _, structure, weights = read_sections(path)
    assert structure.count(old) == 1 and len(new) == len(old)
    _replace_sections(path, structure.replace(old, new), weights)
    return path


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


def test_table_labels_out_of_order_are_rejected(tmp_path):
    path = _edited_model(tmp_path, "table", TableBaseline(), ["A", "B"],
                         _label_record("A"), _label_record("C"))
    with pytest.raises(ModelFormatError, match="label 'B' is out of order in one context"):
        load_model(path)


def test_table_contexts_out_of_order_are_rejected(tmp_path):
    first = min(x.key_bytes() for x in TASK.features[:2])
    path = _edited_model(tmp_path, "table", TableBaseline(), ["A"],
                         first, b"\xff" * len(first), xs=TASK.features[:2])
    with pytest.raises(ModelFormatError, match="context is out of order"):
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


def test_kway_node_keys_out_of_order_are_rejected(tmp_path):
    # (0, 0), (1, 0), (1, 3), (1, 2): the writer sorts the keys.
    with pytest.raises(ModelFormatError, match=re.escape("node (1, 2) is out of order")):
        load_model(_kway_file(tmp_path, 2, (1, 3)))


# (1, 3) holds only padding slots: never trained, but inside the tree's shape.
@pytest.mark.parametrize("key", [(1, 2), (1, 3)], ids=["unedited", "padding-node"])
def test_kway_node_keys_inside_the_tree_load(key, tmp_path):
    loaded = load_model(_kway_file(tmp_path, 3, key)).estimator
    assert sorted(loaded._node_regs) == [(0, 0), (1, 0), (1, 1), key]


def test_kway_depth_that_disagrees_with_its_label_count_is_rejected(tmp_path):
    # Two labels at k = 2 make a depth-1 tree; the head now says depth 2.
    path = _edited_model(tmp_path, "kway", KWayTree(["A", "B"], 2), ["A", "B"],
                         struct.pack("<III", 2, 1, 2), struct.pack("<III", 2, 2, 2))
    with pytest.raises(ModelFormatError, match="^fan-out 2 and depth 2 do not match 2 labels$"):
        load_model(path)


@pytest.mark.parametrize("head", [(4, 1, 2), (2, 2, 2)], ids=["fan-out", "depth"])
def test_pecoc_head_that_disagrees_with_its_label_count_is_rejected(head, tmp_path):
    # Two labels make a pecoc code of size 2, a depth-1 k-way tree.
    path = _edited_model(tmp_path, "pecoc", PecocModel(["A", "B"]), ["A", "B"],
                         struct.pack("<III", 2, 1, 2), struct.pack("<III", *head))
    message = f"^fan-out {head[0]} and depth {head[1]} do not match 2 labels$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("mode", ["pecoc", "kway"])
def test_saving_an_untrained_kway_model_creates_no_node(mode, tmp_path):
    est = build_estimator(mode, ModelConfig(k=4), ["A", "B", "C"])
    save_model(tmp_path / "model.bin", mode, ModelConfig(k=4), est)
    assert est._node_regs == {}
    assert load_model(tmp_path / "model.bin").estimator._node_regs == {}


def _peak_bytes_of_rejected_load(path, message):
    """Load path, which must raise ModelFormatError matching message, and
    return the peak of the memory that tracemalloc traced meanwhile."""
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_kway_fanout_edited_upward_is_rejected_without_a_dense_code(tmp_path):
    # A 2-label k = 2 file whose fan-out now reads 4096 holds one regressor
    # where 4095 are due. A dense 4096 x 4096 code alone would take 16 MiB.
    path = _edited_model(tmp_path, "kway", KWayTree(["A", "B"], 2), ["A", "B"],
                         struct.pack("<III", 2, 1, 2), struct.pack("<III", 4096, 1, 2))
    assert _peak_bytes_of_rejected_load(path, "truncated model file") < 4 << 20


def test_kway_feature_count_edited_upward_is_rejected_before_any_array(tmp_path):
    # 2^32 - 1 records of 28 bytes would take 112 GiB; the loader compares
    # them with the bytes left before it reads one.
    path, _ = _root_block_file(tmp_path, {})
    _, _, structure, weights = read_sections(path)
    edited = bytearray(weights)
    struct.pack_into("<I", edited, 32, (1 << 32) - 1)
    _replace_sections(path, structure, bytes(edited))
    message = re.escape("node (0, 0): 4294967295 features exceed the weights section")
    assert _peak_bytes_of_rejected_load(path, message) < 4 << 20


# Two weights of 1e308 in one block sum to inf, yet each is finite: the file
# must load and save again to the same bytes.
def test_block_whose_weights_overflow_their_sum_loads(tmp_path):
    path, _ = _root_block_file(tmp_path, {40: 1e308, 84: 1e308})
    loaded = load_model(path)
    weights = loaded.estimator._node_regs[(0, 0)]._weights
    first, second = (weights[i] for i in sorted(weights))
    assert first[0] == second[2] == 1e308
    save_model(tmp_path / "again.bin", "kway", loaded.config, loaded.estimator)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


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


def _mutated_models(tmp_path, seed=2031, cases=700):
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
    path, resaved = tmp_path / "mutant.bin", tmp_path / "resaved.bin"
    loaded_modes, rejected_modes = set(), set()
    for case, (mode, raw) in enumerate(_mutated_models(tmp_path)):
        path.write_bytes(raw)
        with _time_limit(2):
            try:
                loaded = load_model(path)
            except ModelFormatError:
                rejected_modes.add(mode)
                continue
            # A file that loads is one the writer could have written.
            save_model(resaved, loaded.mode, loaded.config, loaded.estimator)
            assert resaved.read_bytes() == raw, (case, mode)
            for example in HELD_OUT[:5]:
                score = loaded.estimator.score(example.x, example.y)
                assert 0.0 <= score <= 1.0, (mode, score)
            loaded_modes.add(mode)
    # Most mutations land in weights, which load; the rest must be rejected.
    # A table's weights are counts that must sum to their context's total,
    # so its loading mutants are rare: 3 of its 100 cases here, none of its
    # first 42.
    assert loaded_modes == rejected_modes == set(MODES)
