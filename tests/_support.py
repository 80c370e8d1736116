"""Shared fakes and builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np

from cptree import KWayTree, LinearRegressor, PecocModel, SparseVector, from_tokens
from cptree.regressor import RegressorBlock
from cptree.synthetic import SyntheticTask

# One line per acceptance criterion, echoed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv, **env) -> None:
    """Run a fresh interpreter on argv from the repository root, with this
    checkout's src/ first on its path and env added to its environment, and
    assert that it exits with status 0."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


class ConstantRegressor:
    """Always predicts the same value; updates are recorded but inert."""

    def __init__(self, value: float):
        self.value = value
        self.targets: list[float] = []

    def predict(self, x) -> float:
        return self.value

    raw = predict

    def update(self, x, target: float, raw: float | None = None) -> None:
        self.targets.append(target)


class ContextRegressor:
    """Predicts a fixed value per exact input vector; updates are inert."""

    def __init__(self, by_key: dict[bytes, float]):
        self.by_key = by_key

    def predict(self, x: SparseVector) -> float:
        return self.by_key[x.key_bytes()]

    raw = predict

    def update(self, x, target: float, raw: float | None = None) -> None:
        pass


class CallRecorder:
    """Estimator that records the order of score/learn calls."""

    def __init__(self, score_value: float = 0.5):
        self.calls: list[str] = []
        self.score_value = score_value
        self.updates = 0

    def score(self, x, y) -> float:
        self.calls.append("score")
        return self.score_value

    def learn(self, x, y) -> None:
        self.calls.append("learn")


class RowList:
    """A k-way node held as separate row regressors, behind RegressorBlock's
    calls: the reference layout that the block must reproduce bit for bit,
    and the one seam that puts stand-in rows at a node.

    _biases and _weights give the rows the block's view, the one the model
    writer reads: a weight per row for every feature that any row holds,
    0.0 where a row holds none. So a node of LinearRegressors saves as the
    block that holds the same rows.
    """

    def __init__(self, rows):
        self.rows = list(rows)

    def raws(self, x) -> list[float]:
        return [row.raw(x) for row in self.rows]

    def update(self, x, targets, raws=None) -> None:
        if raws is None:
            raws = self.raws(x)
        for row, target, raw in zip(self.rows, targets, raws, strict=True):
            row.update(x, target, raw)

    def __iter__(self):
        return iter(self.rows)

    @property
    def _biases(self) -> list[float]:
        return [row.bias for row in self.rows]

    @property
    def _weights(self) -> dict[int, array]:
        weights = {}
        for r, row in enumerate(self.rows):
            for i, w in row.weights.items():
                if i not in weights:
                    weights[i] = array("d", bytes(8 * len(self.rows)))
                weights[i][r] = w
        return weights


def row_state(reg) -> tuple:
    """A row's bias and nonzero weights, by float.hex. A block row holds 0.0
    for every feature of its block that it never stepped on, where a separate
    regressor holds no weight, so rows of the two layouts compare this way."""
    return reg.bias.hex(), sorted((i, w.hex()) for i, w in reg.weights.items() if w != 0.0)


def block_of(rows) -> RegressorBlock:
    """The RegressorBlock that holds rows, LinearRegressors at one rate."""
    view = RowList(rows)
    block = RegressorBlock(len(view.rows), view.rows[0].learning_rate)
    block._biases, block._weights = view._biases, view._weights
    return block


def install_rows(est: KWayTree, level: int, index: int, rows) -> None:
    """Put rows (regressors or stand-ins, k - 1 of them) at one node of est,
    and drop est's score memo, whose raws and estimates came from the old rows."""
    est._node_regs[(level, index)] = RowList(rows)
    est._memo = None


class _RowListNodes:
    def regressors_at(self, level: int, index: int) -> RowList:
        key = (level, index)
        if key not in self._node_regs:
            install_rows(self, *key, (LinearRegressor(self.learning_rate) for _ in range(self.k - 1)))
        return self._node_regs[key]


class RowListKWayTree(_RowListNodes, KWayTree):
    """KWayTree whose nodes are k - 1 separate LinearRegressors."""


class RowListPecocModel(_RowListNodes, PecocModel):
    """PecocModel whose one node is k - 1 separate LinearRegressors."""


def check_leaf_counts(tree) -> None:
    """Assert that every internal node of tree stores the leaf counts of its
    two subtrees, recounted from the leaves up, that its leaves are the
    ones leaf_index names, and that its max_depth is its deepest leaf's."""
    nodes = tree.nodes
    counts = {}  # node id -> leaves in its subtree
    leaves = []
    for node_id, _ in reversed(tree.preorder()):
        node = nodes[node_id]
        if node.is_leaf:
            leaves.append((node.label, node_id))
            counts[node_id] = 1
        else:
            assert (node.n_left, node.n_right) == (counts[node.left], counts[node.right]), node_id
            counts[node_id] = node.n_left + node.n_right
    assert sorted(leaves) == sorted(tree.leaf_index.items())
    assert tree.max_depth == tree.depth_stats().max_depth


def count_calls(monkeypatch, owner: type, name: str) -> list[int]:
    """Count every call of the method owner.name from now on, in calls[0]."""
    calls = [0]
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def vec(*pairs: tuple[str, float], hash_bits: int = 18) -> SparseVector:
    return from_tokens(list(pairs), hash_bits)


def tiny_task(contexts: int = 4, labels: int = 8, seed: int = 0) -> SyntheticTask:
    return SyntheticTask.random(contexts=contexts, labels=labels, seed=seed)


def product_bounds(p: np.ndarray, q: np.ndarray) -> tuple[float, float, float]:
    """(|prod q - prod p|, tight slab bound, loose additive bound)."""
    gap = abs(float(np.prod(q)) - float(np.prod(p)))
    mx = np.maximum(p, q)
    tight = 0.0
    for i in range(p.size):
        rest = np.prod(np.delete(mx, i))
        tight += abs(q[i] - p[i]) * rest
    loose = float(np.abs(q - p).sum())
    return gap, float(tight), loose
