"""Versioned binary model files with bit-exact round trips.

Layout: magic, format version, mode tag, config echo, then two length-prefixed
sections (structure, weights). Each section is a sequence of fixed-width
little-endian records, laid out by the ``struct.Struct`` constants below, and
length-prefixed UTF-8 strings. All reals are 8-byte IEEE floats, so identical
runs produce identical bytes and a reload reproduces predictions exactly.

Format 4 stores only what a computation reads. A regressor record is a bias
and its (feature, weight) pairs. A tree is its nodes in preorder: a kind
byte, then a leaf's label or, in the weights section, an internal node's
regressor. The preorder fixes the shape, so no record holds a node id, a
child id or a leaf count: the loader hands the records to the tree's own
preorder builder, which numbers nodes by record and counts the leaves. A
kway or pecoc node is one block record, as RegressorBlock holds it: its
k - 1 biases, a feature count, then one (feature, k - 1 weights) record per
feature. No record holds a learning rate, because every regressor of a
model runs at the config's eta (save_model refuses an estimator or a
regressor at another rate), or an update count, which nothing read. Leaf
records hold no regressor: no example steps a leaf's, so the builder gives
each leaf a fresh one. A cpt-random tree's header
holds its coin's state, so a reloaded tree flips the coins the saved one
would have. This build reads format 4 only; a model of an earlier format must
be retrained.
"""

from __future__ import annotations

import math
import random
import struct
from array import array
from dataclasses import dataclass
from functools import partial
from io import BytesIO
from typing import BinaryIO, Sequence

from .evaluation import OneAgainstAll, TableBaseline
from .features import MAX_HASH_BITS, MIN_HASH_BITS
from .pecoc import KWayTree, PecocModel
from .regressor import LinearRegressor, RegressorBlock
from .tree import CondProbTree

MAGIC = b"CPTM"
FORMAT_VERSION = 4


@dataclass
class ModelConfig:
    """Run parameters echoed into every model file."""

    alpha: float = 0.5
    eta: float = 0.1
    hash_bits: int = 18
    passes: int = 1
    k: int = 0
    delta: float = 0.05
    seed: int = 0


@dataclass
class LoadedModel:
    mode: str
    config: ModelConfig
    estimator: object


class ModelFormatError(ValueError):
    """Raised when a model file, or a model about to be saved, fails validation."""


# Every fixed-width record of format v4, little-endian and unpadded, but for
# the k-way block records, whose width depends on k.
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CONFIG = struct.Struct("<ddIIIdQ")  # alpha, eta, hash_bits, passes, k, delta, seed
_REGRESSOR = struct.Struct("<dI")  # bias, nnz
_WEIGHT = struct.Struct("<Id")  # feature index, weight
_TREE_HEAD = struct.Struct("<IQ")  # node records, disagreements
_COIN = struct.Struct("<625I")  # cpt-random only: 624 Mersenne Twister words, position
_KIND = struct.Struct("<B")  # tree node kind: 0 internal, 1 leaf (then its label)
_KWAY_HEAD = struct.Struct("<III")  # fan-out, depth, labels
_KWAY_NODE = struct.Struct("<IQ")  # level, index
_TABLE_CONTEXT = struct.Struct("<QI")  # context total, labels

_INTERNAL_KIND, _LEAF_KIND = 0, 1


def _w_bytes(out: BinaryIO, raw: bytes) -> None:
    out.write(_U32.pack(len(raw)))
    out.write(raw)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self.raw):
            raise ModelFormatError("truncated model file")
        chunk = self.raw[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        pos = self._pos
        end = self._pos = pos + fmt.size
        if end > len(self.raw):
            raise ModelFormatError("truncated model file")
        return fmt.unpack_from(self.raw, pos)  # in place, without the copy take() makes

    def left(self) -> int:
        return len(self.raw) - self._pos

    def raw_bytes(self) -> bytes:
        return self.take(self.unpack(_U32)[0])

    def string(self) -> str:
        try:
            return self.raw_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"string is not UTF-8: {exc}") from exc

    def finish(self, section: str) -> None:
        if self._pos != len(self.raw):
            raise ModelFormatError(f"trailing bytes after {section}")


def _check_values(biases: Sequence[float], rows) -> None:
    """biases, and rows (a collection of weight sequences), are finite and no
    bias is -0.0."""
    for bias in biases:
        if not math.isfinite(bias):
            raise ModelFormatError(f"regressor bias is not finite: {bias}")
        # No step makes a bias of -0.0, and RegressorBlock relies on that.
        if bias == 0.0 and math.copysign(1.0, bias) < 0.0:
            raise ModelFormatError("regressor bias is -0.0")
    # One sum screens the weights. Only a sum that is not finite, from a
    # non-finite weight or from an overflow, is checked weight by weight.
    if not math.isfinite(sum(map(sum, rows))) and not all(
            math.isfinite(w) for row in rows for w in row):
        raise ModelFormatError("regressor weight is not finite")


def _write_regressor(out: BinaryIO, reg: LinearRegressor, cfg: ModelConfig) -> None:
    _check_values([reg.bias], [reg.weights.values()])
    if reg.learning_rate != cfg.eta:  # the loader builds every regressor at eta
        raise ModelFormatError(f"regressor learning_rate {reg.learning_rate} != eta {cfg.eta}")
    weights = reg.weights
    keys = sorted(weights)  # ints sort much faster than (index, weight) tuples
    _check_indices(keys, len(keys), cfg.hash_bits)
    out.write(_REGRESSOR.pack(reg.bias, len(keys)))
    out.writelines(map(_WEIGHT.pack, keys, map(weights.__getitem__, keys)))


def _read_regressor(r: _Reader, cfg: ModelConfig) -> LinearRegressor:
    bias, nnz = r.unpack(_REGRESSOR)
    reg = LinearRegressor(cfg.eta)
    reg.bias = bias
    reg.weights = dict(_WEIGHT.iter_unpack(r.take(_WEIGHT.size * nnz)))
    _check_indices(list(reg.weights), nnz, cfg.hash_bits)
    _check_values([reg.bias], [reg.weights.values()])
    return reg


def _check_indices(keys: list[int], count: int, hash_bits: int) -> None:
    """keys, from count records, come strictly increasing and inside the
    config's hash space. The writer sorts them, so any other order, and so a
    repeat (which leaves a dict of fewer than count keys), is damage."""
    if len(keys) != count or keys != sorted(keys):
        raise ModelFormatError("regressor weight indices are not strictly increasing")
    if keys and keys[-1] >= 1 << hash_bits:
        raise ModelFormatError(
            f"regressor weight index {keys[-1]} is not below 2^{hash_bits}")


def _check_follows(prev, key, name: str, where: str = "") -> None:
    """Keys the writer sorts must come strictly increasing."""
    if key == prev:
        raise ModelFormatError(f"{name} appears twice{where}")
    if key < prev:
        raise ModelFormatError(f"{name} is out of order{where}")


def _encode_tree(tree: CondProbTree, cfg: ModelConfig, structure: BinaryIO,
                 weights: BinaryIO) -> None:
    order = tree.preorder()
    structure.write(_TREE_HEAD.pack(len(order), tree.disagreement_count))
    if tree.policy == "random":
        structure.write(_COIN.pack(*tree._rng.getstate()[1]))
    for node_id, _ in order:
        node = tree.nodes[node_id]
        if node.is_leaf:
            structure.write(_KIND.pack(_LEAF_KIND))
            _w_bytes(structure, node.label.encode("utf-8"))
        else:
            structure.write(_KIND.pack(_INTERNAL_KIND))
            _write_regressor(weights, node.reg, cfg)


def _decode_tree(build, cfg: ModelConfig, s: _Reader, w: _Reader) -> CondProbTree:
    tree = build(cfg, [])
    n_records, tree.disagreement_count = s.unpack(_TREE_HEAD)
    if tree.policy == "random":
        # setstate raises ValueError on a coin position past the state's end.
        tree._rng.setstate((random.Random.VERSION, s.unpack(_COIN), None))

    def records():
        for _ in range(n_records):
            (kind,) = s.unpack(_KIND)
            if kind == _LEAF_KIND:
                yield s.string(), None
            elif kind == _INTERNAL_KIND:
                yield None, _read_regressor(w, cfg)
            else:
                raise ModelFormatError(f"unknown node kind {kind}")

    tree._build_preorder(records())
    return tree


def _encode_oaa(est: OneAgainstAll, cfg: ModelConfig, structure: BinaryIO,
                weights: BinaryIO) -> None:
    structure.write(_U32.pack(len(est.regressors)))
    for label, reg in est.regressors.items():
        _w_bytes(structure, label.encode("utf-8"))
        _write_regressor(weights, reg, cfg)


def _decode_oaa(cfg: ModelConfig, s: _Reader, w: _Reader) -> OneAgainstAll:
    est = OneAgainstAll(cfg.eta)
    (count,) = s.unpack(_U32)
    for _ in range(count):
        label = s.string()
        if label in est.regressors:
            raise ModelFormatError(f"label {label!r} appears twice")
        est.regressors[label] = _read_regressor(w, cfg)
    return est


def _encode_kway(est: KWayTree, cfg: ModelConfig, structure: BinaryIO,
                 weights: BinaryIO) -> None:
    structure.write(_KWAY_HEAD.pack(est.k, est.depth, est.n_labels))
    for label in est.label_map:  # slots fill in insertion order
        _w_bytes(structure, label.encode("utf-8"))
    keys = sorted(est._node_regs)
    structure.write(_U32.pack(len(keys)))
    biases, record = struct.Struct(f"<{est.k - 1}d"), struct.Struct(f"<I{est.k - 1}d")
    for key in keys:
        structure.write(_KWAY_NODE.pack(*key))
        block = est._node_regs[key]
        rows = block._weights
        features = sorted(rows)
        _check_indices(features, len(features), cfg.hash_bits)
        _check_values(block._biases, rows.values())
        weights.write(biases.pack(*block._biases))
        weights.write(_U32.pack(len(features)))
        weights.writelines(record.pack(i, *rows[i]) for i in features)


def _decode_kway(make, cfg: ModelConfig, s: _Reader, w: _Reader) -> KWayTree:
    k, depth, n = s.unpack(_KWAY_HEAD)
    est = make([s.string() for _ in range(n)], k, cfg.eta)
    if (est.k, est.depth) != (k, depth):
        raise ModelFormatError(f"fan-out {k} and depth {depth} do not match {n} labels")
    (node_count,) = s.unpack(_U32)
    biases, record = struct.Struct(f"<{k - 1}d"), struct.Struct(f"<I{k - 1}d")
    prev = (-1, -1)
    for _ in range(node_count):
        level, index = key = s.unpack(_KWAY_NODE)
        if level >= depth or index >= k**level:
            raise ModelFormatError(f"node {key} lies outside a depth-{depth} tree")
        _check_follows(prev, key, f"node {key}")
        prev = key
        block = est._node_regs[key] = RegressorBlock(k - 1, cfg.eta)
        block._biases = list(w.unpack(biases))
        (count,) = w.unpack(_U32)
        if count * record.size > w.left():  # before a record is read
            raise ModelFormatError(f"node {key}: {count} features exceed the weights section")
        rows = block._weights = {
            r[0]: array("d", r[1:]) for r in record.iter_unpack(w.take(count * record.size))}
        _check_indices(list(rows), count, cfg.hash_bits)
        _check_values(block._biases, rows.values())
    return est


def _encode_table(est: TableBaseline, cfg: ModelConfig, structure: BinaryIO,
                  weights: BinaryIO) -> None:
    structure.write(_U64.pack(len(est.counts)))
    for key in sorted(est.counts):
        entries = sorted(est.counts[key].items())
        _w_bytes(structure, key)
        structure.write(_TABLE_CONTEXT.pack(est.context_totals[key], len(entries)))
        for label, count in entries:
            _w_bytes(structure, label.encode("utf-8"))
            weights.write(_U64.pack(count))


def _decode_table(cfg: ModelConfig, s: _Reader, w: _Reader) -> TableBaseline:
    est = TableBaseline()
    (n_contexts,) = s.unpack(_U64)
    key = None
    for _ in range(n_contexts):
        prev, key = key, s.raw_bytes()
        if prev is not None:
            _check_follows(prev, key, "context")
        labels = est.counts[key] = {}
        est.context_totals[key], n_labels = s.unpack(_TABLE_CONTEXT)
        label = None
        for _ in range(n_labels):
            prev, label = label, s.string()
            if prev is not None:
                _check_follows(prev, label, f"label {label!r}", " in one context")
            (count,) = w.unpack(_U64)
            if count == 0:
                raise ModelFormatError(f"label {label!r} has count 0")
            labels[label] = count
        if sum(labels.values()) != est.context_totals[key]:
            raise ModelFormatError("context total differs from the sum of its label counts")
    return est


def _tree_mode(build):
    return build, _encode_tree, partial(_decode_tree, build)


def _kway_mode(make):
    """make(labels, k, eta) builds the estimator. The mode's build passes the
    config's k; the decoder passes the file's, then checks k and depth."""
    return (lambda cfg, labels: make(labels, cfg.k, cfg.eta), _encode_kway,
            partial(_decode_kway, make))


# mode -> (build(config, labels), encode(estimator, config, structure, weights),
#          decode(config, structure, weights)).
# build returns a fresh estimator; only LABELED_MODES read labels. Each codec
# pair handles only its own records: save_model and load_model own the update
# counter that opens every weights section, and the section framing. Tree
# and k-way decoders start from the mode's own constructor.
_MODES = {
    "cpt-online": _tree_mode(lambda cfg, labels: CondProbTree(
        alpha=cfg.alpha, learning_rate=cfg.eta, policy="online", seed=cfg.seed)),
    "cpt-random": _tree_mode(lambda cfg, labels: CondProbTree(
        alpha=cfg.alpha, learning_rate=cfg.eta, policy="random", seed=cfg.seed)),
    # Fixed trees are balanced whatever the configured alpha.
    "cpt-fixed": _tree_mode(lambda cfg, labels: CondProbTree.balanced(labels, cfg.eta)),
    "oaa": (lambda cfg, labels: OneAgainstAll(cfg.eta), _encode_oaa, _decode_oaa),
    # A pecoc model is a depth-1 k-way tree whose k follows from its labels.
    "pecoc": _kway_mode(lambda labels, k, eta: PecocModel(labels, eta)),
    "kway": _kway_mode(KWayTree),
    "table": (lambda cfg, labels: TableBaseline(), _encode_table, _decode_table),
}
MODES = tuple(_MODES)
LABELED_MODES = ("cpt-fixed", "pecoc", "kway")


def build_estimator(mode: str, config: ModelConfig, labels: Sequence[str] = ()):
    """A fresh estimator for mode. The modes in LABELED_MODES are built over
    labels, in order; the others ignore them."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode: {mode}")
    return _MODES[mode][0](config, labels)


_F64 = struct.Struct("<d")
# Each field of _CONFIG, in order, with the record that holds it.
_CONFIG_FIELDS = (("alpha", _F64), ("eta", _F64), ("hash_bits", _U32), ("passes", _U32),
                  ("k", _U32), ("delta", _F64), ("seed", _U64))


def _check_config(config: ModelConfig) -> None:
    """Raise ModelFormatError unless a model file can hold config and load it back."""
    for name, field in _CONFIG_FIELDS:
        value = getattr(config, name)
        try:
            field.pack(value)
        except struct.error:
            kind = "a number" if field is _F64 else f"an integer in [0, 2**{8 * field.size})"
            raise ModelFormatError(f"{name} must be {kind}, got {value!r}") from None
    if not MIN_HASH_BITS <= config.hash_bits <= MAX_HASH_BITS:
        raise ModelFormatError(
            f"hash_bits must be in [{MIN_HASH_BITS}, {MAX_HASH_BITS}], got {config.hash_bits}"
        )
    if not 0.0 < config.alpha <= 1.0:
        raise ModelFormatError(f"alpha must be in (0, 1], got {config.alpha}")
    if not 0.0 < config.eta < math.inf:
        raise ModelFormatError(f"eta must be positive and finite, got {config.eta}")


def save_model(path, mode: str, config: ModelConfig, estimator) -> None:
    """Write estimator to path, encoded and checked as load_model checks it."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode: {mode}")
    _check_config(config)
    rate = getattr(estimator, "learning_rate", config.eta)  # a table has none
    if rate != config.eta:
        raise ModelFormatError(f"learning_rate {rate} differs from the config's eta {config.eta}")
    structure, weights = BytesIO(), BytesIO()
    # The update counter is training state, not shape; keeping it in the
    # weights section lets structure sections compare byte-for-byte across
    # retraining passes.
    weights.write(_U64.pack(estimator.updates))
    _MODES[mode][1](estimator, config, structure, weights)
    # The whole file is encoded before the path is opened, so a refused save
    # writes nothing.
    header = BytesIO()
    header.write(MAGIC)
    header.write(_U32.pack(FORMAT_VERSION))
    _w_bytes(header, mode.encode("utf-8"))
    header.write(_CONFIG.pack(
        config.alpha, config.eta, config.hash_bits, config.passes,
        config.k, config.delta, config.seed,
    ))
    with open(path, "wb") as out:
        out.write(header.getvalue())
        for section in (structure.getvalue(), weights.getvalue()):
            out.write(_U64.pack(len(section)))
            out.write(section)


def read_sections(path) -> tuple[str, ModelConfig, bytes, bytes]:
    """Parse the framing only; returns (mode, config, structure, weights)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise ModelFormatError("bad magic; not a model file")
    (version,) = r.unpack(_U32)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}: this build reads"
                               f" version {FORMAT_VERSION} only; retrain the model")
    mode = r.string()
    if mode not in MODES:
        raise ModelFormatError(f"unknown mode tag {mode!r}")
    config = ModelConfig(*r.unpack(_CONFIG))
    _check_config(config)
    structure = r.take(r.unpack(_U64)[0])
    weights = r.take(r.unpack(_U64)[0])
    r.finish("weights section")
    return mode, config, structure, weights


def load_model(path) -> LoadedModel:
    mode, config, structure, weights = read_sections(path)
    s, w = _Reader(structure), _Reader(weights)
    try:
        (updates,) = w.unpack(_U64)
        est = _MODES[mode][2](config, s, w)
    except ModelFormatError:
        raise
    except ValueError as exc:
        # Constructors reject decoded parameters (alpha, learning rate,
        # duplicate labels, fan-out), the tree builder a repeated label or a
        # broken preorder, and setstate a cpt-random coin state.
        raise ModelFormatError(f"invalid {mode} model: {exc}") from exc
    est.updates = updates
    s.finish("structure records")
    w.finish("weights records")
    return LoadedModel(mode=mode, config=config, estimator=est)
