"""Versioned binary model files with bit-exact round trips.

Layout: magic, format version, mode tag, config echo, then two length-prefixed
sections (structure, weights). Each section is a sequence of fixed-width
little-endian records, laid out by the ``struct.Struct`` constants below, and
length-prefixed UTF-8 strings. All reals are 8-byte IEEE floats, so identical
runs produce identical bytes and a reload reproduces predictions exactly.

Format 4 stores only what a computation reads. A regressor record is a bias
and its (feature, weight) pairs. A tree is its nodes in preorder: a kind byte,
then a leaf's label or, in the weights section, an internal node's regressor;
leaves hold none. The preorder fixes the shape, so no record holds a node id,
a child id or a leaf count: the writer reads the tree's node lists, and the
loader hands its labels, biases and weight dicts, in preorder lists, to the
tree's builder. A kway or pecoc node is one block record, as RegressorBlock
holds it: its k - 1 biases, a feature count, then one (feature, k - 1 weights)
record per feature. No record holds a learning rate: every regressor runs at
the config's eta, and save_model refuses one at another rate. A cpt-random
tree's header holds its coin's state, so a reloaded tree flips the coins the
saved one would have. This build reads format 4 only; a model of an earlier
format must be retrained.
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
    if reg.learning_rate != cfg.eta:  # the loader builds every regressor at eta
        raise ModelFormatError(f"regressor learning_rate {reg.learning_rate} != eta {cfg.eta}")
    _write_weights(out, reg.bias, reg.weights, cfg)


def _write_weights(out: BinaryIO, bias: float, weights: dict[int, float],
                   cfg: ModelConfig) -> None:
    """One regressor record: bias, then its weights by feature index."""
    _check_values([bias], [weights.values()])
    keys = sorted(weights)  # ints sort much faster than (index, weight) tuples
    _check_top_index(keys, cfg.hash_bits)
    out.write(_REGRESSOR.pack(bias, len(keys)))
    out.writelines(map(_WEIGHT.pack, keys, map(weights.__getitem__, keys)))


def _read_weights(r: _Reader, cfg: ModelConfig,
                  ints: dict[int, int]) -> tuple[float, dict[int, float]]:
    """One regressor record, as (bias, weights), checked as _write_weights
    checks what it writes; a helper is called only to name a failure."""
    raw, start = r.raw, r._pos + _REGRESSOR.size
    if start > len(raw):
        raise ModelFormatError("truncated model file")
    bias, nnz = _REGRESSOR.unpack_from(raw, r._pos)
    end = r._pos = start + _WEIGHT.size * nnz
    if end > len(raw):  # before a weight is read
        raise ModelFormatError("truncated model file")
    share = ints.setdefault
    weights = {share(i, i): x for i, x in _WEIGHT.iter_unpack(raw[start:end])}
    keys = list(weights)
    if len(keys) != nnz or keys != sorted(keys) or keys and keys[-1] >> cfg.hash_bits:
        _check_indices(keys, nnz, cfg.hash_bits)
    # A 0.0 bias may be -0.0; a sum that is not finite may hide a value that is not.
    if bias == 0.0 or not math.isfinite(sum(weights.values(), bias)):
        _check_values([bias], [weights.values()])
    return bias, weights


def _check_indices(keys: list[int], count: int, hash_bits: int) -> None:
    """keys, from count records, come strictly increasing and inside the
    config's hash space. The writer sorts them, so any other order, and so a
    repeat (which leaves a dict of fewer than count keys), is damage."""
    if len(keys) != count or keys != sorted(keys):
        raise ModelFormatError("regressor weight indices are not strictly increasing")
    _check_top_index(keys, hash_bits)


def _check_top_index(keys: list[int], hash_bits: int) -> None:
    """keys, sorted, lie inside the config's hash space."""
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
    labels, biases, dicts, standins = tree._label, tree._bias, tree._weights, tree._standins
    for node_id, _ in order:
        label = labels[node_id]
        if label is not None:
            structure.write(_KIND.pack(_LEAF_KIND))
            _w_bytes(structure, label.encode("utf-8"))
        else:
            structure.write(_KIND.pack(_INTERNAL_KIND))
            if node_id in standins:
                _write_regressor(weights, standins[node_id], cfg)
            else:
                _write_weights(weights, biases[node_id], dicts[node_id], cfg)


def _decode_tree(build, cfg: ModelConfig, s: _Reader, w: _Reader,
                 ints: dict[int, int]) -> CondProbTree:
    tree = build(cfg, [])
    n_records, tree.disagreement_count = s.unpack(_TREE_HEAD)
    if tree.policy == "random":
        # setstate raises ValueError on a coin position past the state's end.
        tree._rng.setstate((random.Random.VERSION, s.unpack(_COIN), None))

    # Read in place: a kind byte, then a leaf's length-prefixed UTF-8 label.
    # An internal node's regressor is the next record of the weights section.
    raw, pos, end = s.raw, s._pos, len(s.raw)
    labels, biases, dicts = [], [], []
    try:
        for _ in range(n_records):
            if pos >= end:
                raise ModelFormatError("truncated model file")
            kind = raw[pos]
            if kind == _INTERNAL_KIND:
                bias, weights = _read_weights(w, cfg, ints)
                labels.append(None)
                biases.append(bias)
                dicts.append(weights)
                pos += 1
            elif kind == _LEAF_KIND:
                start = pos + 1 + _U32.size
                if start > end:
                    raise ModelFormatError("truncated model file")
                pos = start + _U32.unpack_from(raw, pos + 1)[0]
                if pos > end:
                    raise ModelFormatError("truncated model file")
                labels.append(str(raw[start:pos], "utf-8"))
                biases.append(0.0)
                dicts.append(None)
            else:
                raise ModelFormatError(f"unknown node kind {kind}")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"string is not UTF-8: {exc}") from exc
    s._pos = pos
    tree._build_preorder(labels, biases, dicts)
    return tree


def _encode_oaa(est: OneAgainstAll, cfg: ModelConfig, structure: BinaryIO,
                weights: BinaryIO) -> None:
    structure.write(_U32.pack(len(est.regressors)))
    for label, reg in est.regressors.items():
        _w_bytes(structure, label.encode("utf-8"))
        _write_regressor(weights, reg, cfg)


def _decode_oaa(cfg: ModelConfig, s: _Reader, w: _Reader,
                ints: dict[int, int]) -> OneAgainstAll:
    est = OneAgainstAll(cfg.eta)
    (count,) = s.unpack(_U32)
    for _ in range(count):
        label = s.string()
        if label in est.regressors:
            raise ModelFormatError(f"label {label!r} appears twice")
        reg = est.regressors[label] = LinearRegressor(cfg.eta)
        reg.bias, reg.weights = _read_weights(w, cfg, ints)
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
        _check_top_index(features, cfg.hash_bits)
        _check_values(block._biases, rows.values())
        weights.write(biases.pack(*block._biases))
        weights.write(_U32.pack(len(features)))
        weights.writelines(record.pack(i, *rows[i]) for i in features)


def _decode_kway(make, cfg: ModelConfig, s: _Reader, w: _Reader,
                 ints: dict[int, int]) -> KWayTree:
    k, depth, n = s.unpack(_KWAY_HEAD)
    est = make([s.string() for _ in range(n)], k, cfg.eta)
    if (est.k, est.depth) != (k, depth):
        raise ModelFormatError(f"fan-out {k} and depth {depth} do not match {n} labels")
    (node_count,) = s.unpack(_U32)
    biases, record = struct.Struct(f"<{k - 1}d"), struct.Struct(f"<I{k - 1}d")
    share = ints.setdefault
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
            share(r[0], r[0]): array("d", r[1:])
            for r in record.iter_unpack(w.take(count * record.size))}
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


def _decode_table(cfg: ModelConfig, s: _Reader, w: _Reader,
                  ints: dict[int, int]) -> TableBaseline:
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
#          decode(config, structure, weights, ints)).
# build returns a fresh estimator; only LABELED_MODES read labels. Each codec
# pair handles only its own records: save_model and load_model own the update
# counter that opens every weights section, and the section framing. Tree
# and k-way decoders start from the mode's own constructor. ints is one load's
# table from each feature index to the one int that every weight dict of the
# loaded model uses for it, as a trained model's dicts share the parser's.
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


def check_config_fits(config: ModelConfig) -> None:
    """Raise ModelFormatError unless every field of config packs into the
    header record that holds it. Whether a value is in its domain is left
    to check_config."""
    for name, field in _CONFIG_FIELDS:
        value = getattr(config, name)
        try:
            field.pack(value)
        except struct.error:
            kind = "a number" if field is _F64 else f"an integer in [0, 2**{8 * field.size})"
            raise ModelFormatError(f"{name} must be {kind}, got {value!r}") from None


def check_config(config: ModelConfig) -> None:
    """Raise ModelFormatError unless a model file can hold config and load it back."""
    check_config_fits(config)
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
    check_config(config)
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
    check_config(config)
    structure = r.take(r.unpack(_U64)[0])
    weights = r.take(r.unpack(_U64)[0])
    r.finish("weights section")
    return mode, config, structure, weights


def load_model(path) -> LoadedModel:
    mode, config, structure, weights = read_sections(path)
    s, w = _Reader(structure), _Reader(weights)
    try:
        (updates,) = w.unpack(_U64)
        est = _MODES[mode][2](config, s, w, {})
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
