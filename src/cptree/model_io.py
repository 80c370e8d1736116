"""Versioned binary model files with bit-exact round trips.

Layout: magic, format version, mode tag, config echo, then two length-prefixed
sections (structure, weights). Each section is a sequence of fixed-width
little-endian records, laid out by the ``struct.Struct`` constants below, and
length-prefixed UTF-8 strings. All reals are 8-byte IEEE floats, so identical
runs produce identical bytes and a reload reproduces predictions exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from io import BytesIO
from itertools import starmap
from typing import BinaryIO, Sequence

from .evaluation import OneAgainstAll, TableBaseline
from .features import MAX_HASH_BITS, MIN_HASH_BITS
from .pecoc import KWayTree, PecocModel
from .regressor import LinearRegressor
from .tree import CondProbTree, CorruptTreeError, _Node

MAGIC = b"CPTM"
FORMAT_VERSION = 1


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


# Every fixed-width record of format v1, little-endian and unpadded.
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CONFIG = struct.Struct("<ddIIIdQ")  # alpha, eta, hash_bits, passes, k, delta, seed
_REGRESSOR = struct.Struct("<dQdI")  # learning rate, update count, bias, nnz
_WEIGHT = struct.Struct("<Id")  # feature index, weight
_TREE_HEAD = struct.Struct("<IIQ")  # node slots, node records, disagreements
_NODE_HEAD = struct.Struct("<IB")  # node id, kind (0 internal, 1 leaf)
_INTERNAL = struct.Struct("<IIQQ")  # left, right, left leaves, right leaves
_PECOC_HEAD = struct.Struct("<II")  # code exponent, labels
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
        return fmt.unpack(self.take(fmt.size))

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


def _check_finite(reg: LinearRegressor) -> None:
    if not math.isfinite(reg.bias):
        raise ModelFormatError(f"regressor bias is not finite: {reg.bias}")
    # One sum screens the weights. Only a sum that is not finite, from a
    # non-finite weight or from an overflow, is checked weight by weight.
    weights = reg.weights.values()
    if not math.isfinite(sum(weights)) and not all(map(math.isfinite, weights)):
        raise ModelFormatError("regressor weight is not finite")


def _write_regressor(out: BinaryIO, reg: LinearRegressor) -> None:
    _check_finite(reg)
    out.write(_REGRESSOR.pack(reg.learning_rate, reg.update_count, reg.bias, len(reg.weights)))
    out.writelines(starmap(_WEIGHT.pack, sorted(reg.weights.items())))


def _read_regressor(r: _Reader) -> LinearRegressor:
    learning_rate, update_count, bias, nnz = r.unpack(_REGRESSOR)
    reg = LinearRegressor(learning_rate)
    reg.update_count = update_count
    reg.bias = bias
    reg.weights = dict(_WEIGHT.iter_unpack(r.take(_WEIGHT.size * nnz)))
    _check_finite(reg)
    return reg


def _encode_tree(tree: CondProbTree, structure: BinaryIO, weights: BinaryIO) -> None:
    order = tree.preorder()
    structure.write(_TREE_HEAD.pack(len(tree.nodes), len(order), tree.disagreement_count))
    for node_id, _ in order:
        node = tree.nodes[node_id]
        if node.is_leaf:
            structure.write(_NODE_HEAD.pack(node_id, _LEAF_KIND))
            _w_bytes(structure, node.label.encode("utf-8"))
        else:
            structure.write(_NODE_HEAD.pack(node_id, _INTERNAL_KIND))
            structure.write(_INTERNAL.pack(node.left, node.right, node.n_left, node.n_right))
        _write_regressor(weights, node.reg)


def _decode_tree(build, cfg: ModelConfig, s: _Reader, w: _Reader) -> CondProbTree:
    tree = build(cfg, [])
    n_nodes, n_order, tree.disagreement_count = s.unpack(_TREE_HEAD)
    if n_order != n_nodes:
        raise ModelFormatError("node record count mismatch")
    if n_nodes * _NODE_HEAD.size > len(s.raw):
        raise ModelFormatError("node count exceeds the structure section")
    nodes = tree.nodes = [_Node(None, None, None) for _ in range(n_nodes)]
    # Records come in preorder, so the first one is the root. Each id must
    # appear once, no node may be named as a child twice and the root never;
    # with distinct labels and the leaf recount below, that makes the nodes
    # one tree, so no traversal can loop.
    for _ in range(n_order):
        node_id, kind = s.unpack(_NODE_HEAD)
        if node_id >= n_nodes:
            raise ModelFormatError(f"node id out of range: {node_id}")
        node = nodes[node_id]
        if node.reg is not None:
            raise ModelFormatError(f"node {node_id} appears twice")
        if tree.root is None:
            tree.root = node_id
        if kind == _LEAF_KIND:
            label = s.string()
            if label in tree.leaf_index:
                raise ModelFormatError(f"label {label!r} appears twice")
            node.label = label
            tree.leaf_index[label] = node_id
        elif kind == _INTERNAL_KIND:
            node.left, node.right, node.n_left, node.n_right = s.unpack(_INTERNAL)
            for child in (node.left, node.right):
                if child >= n_nodes:
                    raise ModelFormatError(f"node {node_id}: child id out of range: {child}")
                if child == tree.root:
                    raise ModelFormatError("the root is named as a child")
                if nodes[child].parent is not None:
                    raise ModelFormatError(f"node {child} is named as a child twice")
                nodes[child].parent = node_id
        else:
            raise ModelFormatError(f"unknown node kind {kind}")
        node.reg = _read_regressor(w)
    tree.depth_stats()  # validates counts against a recount
    return tree


def _encode_oaa(est: OneAgainstAll, structure: BinaryIO, weights: BinaryIO) -> None:
    structure.write(_U32.pack(len(est.regressors)))
    for label, reg in est.regressors.items():
        _w_bytes(structure, label.encode("utf-8"))
        _write_regressor(weights, reg)


def _decode_oaa(cfg: ModelConfig, s: _Reader, w: _Reader) -> OneAgainstAll:
    est = OneAgainstAll(cfg.eta)
    (count,) = s.unpack(_U32)
    for _ in range(count):
        label = s.string()
        if label in est.regressors:
            raise ModelFormatError(f"label {label!r} appears twice")
        est.regressors[label] = _read_regressor(w)
    return est


def _encode_pecoc(est: PecocModel, structure: BinaryIO, weights: BinaryIO) -> None:
    structure.write(_PECOC_HEAD.pack(est.k.bit_length() - 1, est.n_labels))
    for label in est.label_map:  # slots fill in insertion order
        _w_bytes(structure, label.encode("utf-8"))
    for reg in est.regressors_at(0, 0):
        _write_regressor(weights, reg)


def _decode_pecoc(cfg: ModelConfig, s: _Reader, w: _Reader) -> PecocModel:
    t, n = s.unpack(_PECOC_HEAD)
    est = PecocModel([s.string() for _ in range(n)], cfg.eta)
    if est.k.bit_length() - 1 != t:
        raise ModelFormatError("code size does not match label count")
    est._node_regs[(0, 0)] = [_read_regressor(w) for _ in range(est.k - 1)]
    return est


def _encode_kway(est: KWayTree, structure: BinaryIO, weights: BinaryIO) -> None:
    structure.write(_KWAY_HEAD.pack(est.k, est.depth, est.n_labels))
    for label in est.label_map:  # slots fill in insertion order
        _w_bytes(structure, label.encode("utf-8"))
    keys = sorted(est._node_regs)
    structure.write(_U32.pack(len(keys)))
    for key in keys:
        structure.write(_KWAY_NODE.pack(*key))
        for reg in est._node_regs[key]:
            _write_regressor(weights, reg)


def _decode_kway(cfg: ModelConfig, s: _Reader, w: _Reader) -> KWayTree:
    k, depth, n = s.unpack(_KWAY_HEAD)
    est = KWayTree([s.string() for _ in range(n)], k, cfg.eta)
    if est.depth != depth:
        raise ModelFormatError("tree depth does not match label count")
    (node_count,) = s.unpack(_U32)
    for _ in range(node_count):
        level, index = key = s.unpack(_KWAY_NODE)
        if level >= depth or index >= k**level:
            raise ModelFormatError(f"node {key} lies outside a depth-{depth} tree")
        if key in est._node_regs:
            raise ModelFormatError(f"node {key} appears twice")
        est._node_regs[key] = [_read_regressor(w) for _ in range(k - 1)]
    return est


def _encode_table(est: TableBaseline, structure: BinaryIO, weights: BinaryIO) -> None:
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
    for _ in range(n_contexts):
        key = s.raw_bytes()
        if key in est.counts:
            raise ModelFormatError("context appears twice")
        labels = est.counts[key] = {}
        est.context_totals[key], n_labels = s.unpack(_TABLE_CONTEXT)
        for _ in range(n_labels):
            label = s.string()
            if label in labels:
                raise ModelFormatError(f"label {label!r} appears twice in one context")
            (count,) = w.unpack(_U64)
            if count == 0:
                raise ModelFormatError(f"label {label!r} has count 0")
            labels[label] = count
        if sum(labels.values()) != est.context_totals[key]:
            raise ModelFormatError("context total differs from the sum of its label counts")
    return est


def _tree_mode(build):
    return build, _encode_tree, partial(_decode_tree, build)


# mode -> (build(config, labels), encode(estimator, structure, weights),
#          decode(config, structure, weights)).
# build returns a fresh estimator; only LABELED_MODES read labels. Each codec
# pair handles only its own records: save_model and load_model own the update
# counter that opens every weights section, and the section framing. Tree
# decoders start from the mode's own empty tree.
_MODES = {
    "cpt-online": _tree_mode(lambda cfg, labels: CondProbTree(
        alpha=cfg.alpha, learning_rate=cfg.eta, policy="online", seed=cfg.seed)),
    "cpt-random": _tree_mode(lambda cfg, labels: CondProbTree(
        alpha=cfg.alpha, learning_rate=cfg.eta, policy="random", seed=cfg.seed)),
    # Fixed trees are balanced whatever the configured alpha.
    "cpt-fixed": _tree_mode(lambda cfg, labels: CondProbTree.balanced(labels, cfg.eta)),
    "oaa": (lambda cfg, labels: OneAgainstAll(cfg.eta), _encode_oaa, _decode_oaa),
    "pecoc": (lambda cfg, labels: PecocModel(labels, cfg.eta), _encode_pecoc, _decode_pecoc),
    "kway": (lambda cfg, labels: KWayTree(labels, cfg.k, cfg.eta), _encode_kway, _decode_kway),
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


def _check_config(config: ModelConfig) -> None:
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
    structure, weights = BytesIO(), BytesIO()
    # The update counter is training state, not shape; keeping it in the
    # weights section lets structure sections compare byte-for-byte across
    # retraining passes.
    weights.write(_U64.pack(estimator.updates))
    _MODES[mode][1](estimator, structure, weights)
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(_U32.pack(FORMAT_VERSION))
        _w_bytes(out, mode.encode("utf-8"))
        out.write(_CONFIG.pack(
            config.alpha, config.eta, config.hash_bits, config.passes,
            config.k, config.delta, config.seed,
        ))
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
        raise ModelFormatError(f"unsupported format version {version}")
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
    except (ValueError, CorruptTreeError) as exc:
        # Constructors reject decoded parameters (alpha, learning rate,
        # duplicate labels, fan-out) and the tree recount rejects counts.
        raise ModelFormatError(f"invalid {mode} model: {exc}") from exc
    est.updates = updates
    s.finish("structure records")
    w.finish("weights records")
    return LoadedModel(mode=mode, config=config, estimator=est)
