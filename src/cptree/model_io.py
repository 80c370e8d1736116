"""Versioned binary model files with bit-exact round trips.

Layout: magic, format version, mode tag, config echo, then two length-prefixed
sections (structure, weights). Each section is a sequence of fixed-width
little-endian records, laid out by the ``struct.Struct`` constants below, and
length-prefixed UTF-8 strings. All reals are 8-byte IEEE floats, so identical
runs produce identical bytes and a reload reproduces predictions exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from io import BytesIO
from itertools import starmap
from typing import BinaryIO

from .evaluation import OneAgainstAll, TableBaseline
from .pecoc import KWayTree, PecocModel
from .regressor import LinearRegressor
from .tree import CondProbTree, CorruptTreeError, _Node

MAGIC = b"CPTM"
FORMAT_VERSION = 1

MODES = ("cpt-online", "cpt-random", "cpt-fixed", "oaa", "pecoc", "kway", "table")


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
    """Raised when a model file fails validation."""


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
        self._raw = raw
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._raw):
            raise ModelFormatError("truncated model file")
        chunk = self._raw[self._pos : self._pos + n]
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
        if self._pos != len(self._raw):
            raise ModelFormatError(f"trailing bytes after {section}")


def _write_regressor(out: BinaryIO, reg: LinearRegressor) -> None:
    out.write(_REGRESSOR.pack(reg.learning_rate, reg.update_count, reg.bias, len(reg.weights)))
    out.writelines(starmap(_WEIGHT.pack, sorted(reg.weights.items())))


def _read_regressor(r: _Reader) -> LinearRegressor:
    learning_rate, update_count, bias, nnz = r.unpack(_REGRESSOR)
    reg = LinearRegressor(learning_rate)
    reg.update_count = update_count
    reg.bias = bias
    reg.weights = dict(_WEIGHT.iter_unpack(r.take(_WEIGHT.size * nnz)))
    return reg


def _tree_preorder(tree: CondProbTree) -> list[int]:
    if tree.root is None:
        return []
    order = []
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        node = tree.nodes[node_id]
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return order


def _encode_tree(tree: CondProbTree) -> tuple[bytes, bytes]:
    structure = BytesIO()
    weights = BytesIO()
    order = _tree_preorder(tree)
    structure.write(_TREE_HEAD.pack(len(tree.nodes), len(order), tree.disagreement_count))
    # The update counter is training state, not shape; keeping it in the
    # weights section lets structure sections compare byte-for-byte across
    # retraining passes.
    weights.write(_U64.pack(tree.updates))
    for node_id in order:
        node = tree.nodes[node_id]
        if node.is_leaf:
            structure.write(_NODE_HEAD.pack(node_id, _LEAF_KIND))
            _w_bytes(structure, node.label.encode("utf-8"))
        else:
            structure.write(_NODE_HEAD.pack(node_id, _INTERNAL_KIND))
            structure.write(_INTERNAL.pack(node.left, node.right, node.n_left, node.n_right))
        _write_regressor(weights, node.reg)
    return structure.getvalue(), weights.getvalue()


def _decode_tree(mode: str, cfg: ModelConfig, structure: bytes, weights: bytes) -> CondProbTree:
    policy = "random" if mode == "cpt-random" else "online"
    tree = CondProbTree(
        alpha=cfg.alpha, learning_rate=cfg.eta, policy=policy, seed=cfg.seed
    )
    s = _Reader(structure)
    w = _Reader(weights)
    n_nodes, n_order, tree.disagreement_count = s.unpack(_TREE_HEAD)
    (tree.updates,) = w.unpack(_U64)
    if n_order != n_nodes:
        raise ModelFormatError("node record count mismatch")
    if n_nodes * _NODE_HEAD.size > len(structure):
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
                if nodes[child].parent is not None:
                    raise ModelFormatError(f"node {child} is named as a child twice")
                nodes[child].parent = node_id
        else:
            raise ModelFormatError(f"unknown node kind {kind}")
        node.reg = _read_regressor(w)
    s.finish("node records")
    w.finish("node regressors")
    if tree.root is None:
        return tree
    if nodes[tree.root].parent is not None:
        raise ModelFormatError("the root is named as a child")
    stats = tree.depth_stats()  # validates counts against a recount
    tree.max_depth = stats.max_depth
    return tree


def _encode_oaa(est: OneAgainstAll) -> tuple[bytes, bytes]:
    structure = BytesIO()
    weights = BytesIO()
    structure.write(_U32.pack(len(est.regressors)))
    weights.write(_U64.pack(est.updates))
    for label, reg in est.regressors.items():
        _w_bytes(structure, label.encode("utf-8"))
        _write_regressor(weights, reg)
    return structure.getvalue(), weights.getvalue()


def _decode_oaa(cfg: ModelConfig, structure: bytes, weights: bytes) -> OneAgainstAll:
    est = OneAgainstAll(cfg.eta)
    s = _Reader(structure)
    w = _Reader(weights)
    (count,) = s.unpack(_U32)
    (est.updates,) = w.unpack(_U64)
    for _ in range(count):
        est.regressors[s.string()] = _read_regressor(w)
    s.finish("labels")
    w.finish("regressors")
    return est


def _encode_pecoc(est: PecocModel) -> tuple[bytes, bytes]:
    structure = BytesIO()
    weights = BytesIO()
    structure.write(_PECOC_HEAD.pack(est.t, est.n_labels))
    weights.write(_U64.pack(est.updates))
    for label, _col in sorted(est.label_map.items(), key=lambda kv: kv[1]):
        _w_bytes(structure, label.encode("utf-8"))
    for reg in est.row_regressors:
        _write_regressor(weights, reg)
    return structure.getvalue(), weights.getvalue()


def _decode_pecoc(cfg: ModelConfig, structure: bytes, weights: bytes) -> PecocModel:
    s = _Reader(structure)
    w = _Reader(weights)
    t, n = s.unpack(_PECOC_HEAD)
    labels = [s.string() for _ in range(n)]
    s.finish("labels")
    est = PecocModel(labels, cfg.eta)
    if est.t != t:
        raise ModelFormatError("code size does not match label count")
    (est.updates,) = w.unpack(_U64)
    est.row_regressors = [_read_regressor(w) for _ in range(est.size - 1)]
    w.finish("row regressors")
    return est


def _encode_kway(est: KWayTree) -> tuple[bytes, bytes]:
    structure = BytesIO()
    weights = BytesIO()
    structure.write(_KWAY_HEAD.pack(est.k, est.depth, est.n_labels))
    weights.write(_U64.pack(est.updates))
    for label, _slot in sorted(est.label_map.items(), key=lambda kv: kv[1]):
        _w_bytes(structure, label.encode("utf-8"))
    keys = sorted(est._node_regs)
    structure.write(_U32.pack(len(keys)))
    for key in keys:
        structure.write(_KWAY_NODE.pack(*key))
        for reg in est._node_regs[key]:
            _write_regressor(weights, reg)
    return structure.getvalue(), weights.getvalue()


def _decode_kway(cfg: ModelConfig, structure: bytes, weights: bytes) -> KWayTree:
    s = _Reader(structure)
    w = _Reader(weights)
    k, depth, n = s.unpack(_KWAY_HEAD)
    labels = [s.string() for _ in range(n)]
    est = KWayTree(labels, k, cfg.eta)
    if est.depth != depth:
        raise ModelFormatError("tree depth does not match label count")
    (est.updates,) = w.unpack(_U64)
    (node_count,) = s.unpack(_U32)
    for _ in range(node_count):
        est._node_regs[s.unpack(_KWAY_NODE)] = [_read_regressor(w) for _ in range(k - 1)]
    s.finish("node keys")
    w.finish("node regressors")
    return est


def _encode_table(est: TableBaseline) -> tuple[bytes, bytes]:
    structure = BytesIO()
    weights = BytesIO()
    by_context: dict[bytes, list[tuple[str, int]]] = {}
    for (key, label), count in est.counts.items():
        by_context.setdefault(key, []).append((label, count))
    structure.write(_U64.pack(len(by_context)))
    weights.write(_U64.pack(est.updates))
    for key in sorted(by_context):
        entries = sorted(by_context[key])
        _w_bytes(structure, key)
        structure.write(_TABLE_CONTEXT.pack(est.context_totals[key], len(entries)))
        for label, count in entries:
            _w_bytes(structure, label.encode("utf-8"))
            weights.write(_U64.pack(count))
    return structure.getvalue(), weights.getvalue()


def _decode_table(cfg: ModelConfig, structure: bytes, weights: bytes) -> TableBaseline:
    est = TableBaseline()
    s = _Reader(structure)
    w = _Reader(weights)
    (n_contexts,) = s.unpack(_U64)
    (est.updates,) = w.unpack(_U64)
    for _ in range(n_contexts):
        key = s.raw_bytes()
        est.context_totals[key], n_labels = s.unpack(_TABLE_CONTEXT)
        for _ in range(n_labels):
            label = s.string()
            (est.counts[(key, label)],) = w.unpack(_U64)
    s.finish("contexts")
    w.finish("counts")
    return est


_ENCODERS = {
    "cpt-online": _encode_tree,
    "cpt-random": _encode_tree,
    "cpt-fixed": _encode_tree,
    "oaa": _encode_oaa,
    "pecoc": _encode_pecoc,
    "kway": _encode_kway,
    "table": _encode_table,
}


def save_model(path, mode: str, config: ModelConfig, estimator) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode}")
    structure, weights = _ENCODERS[mode](estimator)
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(_U32.pack(FORMAT_VERSION))
        _w_bytes(out, mode.encode("utf-8"))
        out.write(_CONFIG.pack(
            config.alpha, config.eta, config.hash_bits, config.passes,
            config.k, config.delta, config.seed,
        ))
        out.write(_U64.pack(len(structure)))
        out.write(structure)
        out.write(_U64.pack(len(weights)))
        out.write(weights)


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
    structure = r.take(r.unpack(_U64)[0])
    weights = r.take(r.unpack(_U64)[0])
    r.finish("weights section")
    return mode, config, structure, weights


def load_model(path) -> LoadedModel:
    mode, config, structure, weights = read_sections(path)
    try:
        if mode in ("cpt-online", "cpt-random", "cpt-fixed"):
            est = _decode_tree(mode, config, structure, weights)
        elif mode == "oaa":
            est = _decode_oaa(config, structure, weights)
        elif mode == "pecoc":
            est = _decode_pecoc(config, structure, weights)
        elif mode == "kway":
            est = _decode_kway(config, structure, weights)
        else:
            est = _decode_table(config, structure, weights)
    except ModelFormatError:
        raise
    except (ValueError, CorruptTreeError) as exc:
        # Constructors reject decoded parameters (alpha, learning rate,
        # duplicate labels, fan-out) and the tree recount rejects counts.
        raise ModelFormatError(f"invalid {mode} model: {exc}") from exc
    return LoadedModel(mode=mode, config=config, estimator=est)
