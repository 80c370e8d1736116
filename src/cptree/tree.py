"""Binary label tree that factors P(y | x) into per-node left/right regressions.

Each internal node carries a regressor estimating the probability that the
true label lies in its right subtree; a label's probability is the product of
the per-node estimates along its root-to-leaf path, so both training and
prediction touch O(depth) regressors. New labels are inserted online by
descending the tree with a decision rule that trades regressor agreement
against subtree balance, keeping the depth logarithmic in the label count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .features import SparseVector
from .regressor import LinearRegressor


class UnknownLabelError(KeyError):
    """Raised when an operation requires a label the tree has not seen."""


class CorruptTreeError(RuntimeError):
    """Raised when stored subtree counts disagree with a fresh recount."""


def insert_objective(p: float, left: int, right: int, alpha: float) -> float:
    """Score for sending a new label to the right of a node.

    Positive means go right. The first term follows the node regressor's
    prediction p, the second pushes toward the smaller subtree; alpha in
    (0, 1] sets how aggressively balance overrides the regressor.
    """
    assert left >= 1 and right >= 1, "internal nodes always have nonempty sides"
    return (1.0 - alpha) * 2.0 * (p - 0.5) + alpha * math.log2(left / right)


def insert_direction(p: float, left: int, right: int, alpha: float) -> int:
    """1 to insert right, 0 to insert left; ties go left."""
    return 1 if insert_objective(p, left, right, alpha) > 0.0 else 0


def max_side_fraction(alpha: float) -> float:
    """Asymptotic cap on the fraction of leaves either side of a node can hold.

    Equals 1/2 at alpha = 1 (perfect balance) and approaches 1 as alpha -> 0.
    For finite N = L + R, online insertion keeps every node at
    max(L, R) <= kappa*N + (1 - kappa), i.e. max(L, R) - 1 <= kappa*(N - 1),
    with kappa the value returned here: insertion is forced to the smaller
    side once a side exceeds kappa of its node's leaves. The bound can hold
    with equality, because ties in insert_direction go left: at alpha = 1
    every 3-leaf tree has a 2 : 1 split against a cap of 2.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return 1.0 / (1.0 + 2.0 ** (1.0 - 1.0 / alpha))


def _check_bound_args(bound: str, n_labels: int, side_fraction: float) -> None:
    if n_labels < 2:
        raise ValueError(f"{bound} needs at least 2 labels")
    if not 0.5 <= side_fraction < 1.0:
        raise ValueError(f"side_fraction must be in [1/2, 1), got {side_fraction}")


def max_depth_bound(n_labels: int, side_fraction: float) -> float:
    """Worst-case tree depth for n labels under the insertion rule."""
    _check_bound_args("depth bound", n_labels, side_fraction)
    return math.log(n_labels) / math.log(1.0 / side_fraction) + 2.0


def total_depth_bound(n_labels: int, side_fraction: float) -> float:
    """Bound on the sum of all leaf depths for an n-leaf tree whose nodes
    split no worse than side_fraction : (1 - side_fraction)."""
    _check_bound_args("total depth bound", n_labels, side_fraction)
    k = side_fraction
    entropy = -(k * math.log(k) + (1.0 - k) * math.log(1.0 - k))
    return n_labels * math.log(n_labels) / entropy


class _Node:
    __slots__ = ("left", "right", "label", "reg", "n_left", "n_right", "parent")

    def __init__(self, label, reg, parent):
        self.left = None
        self.right = None
        self.label = label
        self.reg = reg
        self.n_left = 0
        self.n_right = 0
        self.parent = parent

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class DepthStats:
    """Exact structural summary recomputed by traversal."""

    n_leaves: int
    max_depth: int
    total_leaf_depth: int
    depth_histogram: dict[int, int]


class CondProbTree:
    """Online conditional probability tree over an open-ended label set.

    policy "online" inserts new labels with the balance/agreement objective;
    policy "random" makes a fair coin flip at each node instead, but trains the
    traversed regressors the same way. Training is strictly sequential;
    prediction is read-only and may run concurrently between training phases.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        learning_rate: float = 0.1,
        policy: str = "online",
        seed: int = 0,
        regressor_factory: Callable[[], LinearRegressor] | None = None,
    ):
        if policy not in ("online", "random"):
            raise ValueError(f"unknown policy: {policy}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.policy = policy
        self._rng = random.Random(seed)
        self._factory = regressor_factory or (lambda: LinearRegressor(learning_rate))
        self.nodes: list[_Node] = []
        self.root: int | None = None
        self.leaf_index: dict[str, int] = {}
        self.disagreement_count = 0
        self.updates = 0  # total regressor updates, for complexity accounting
        self.last_example_updates = 0
        self.last_insert_path: list[int] = []

    @classmethod
    def balanced(
        cls,
        labels: Sequence[str],
        learning_rate: float = 0.1,
        regressor_factory: Callable[[], LinearRegressor] | None = None,
    ) -> "CondProbTree":
        """Build a fixed balanced tree over labels known up front (untrained).

        Labels occupy leaves left to right; later online inserts still work and
        follow the objective at alpha = 1.
        """
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        tree = cls(alpha=1.0, learning_rate=learning_rate, regressor_factory=regressor_factory)

        def build(lo: int, hi: int, parent: int | None) -> int:
            count = hi - lo
            node_id = tree._add_node(labels[lo] if count == 1 else None, parent)
            if count > 1:
                mid = lo + (count + 1) // 2
                node = tree.nodes[node_id]
                node.left = build(lo, mid, node_id)
                node.right = build(mid, hi, node_id)
                node.n_left, node.n_right = mid - lo, hi - mid
            return node_id

        if labels:
            tree.root = build(0, len(labels), None)
        return tree

    def _add_node(self, label: str | None, parent: int | None, reg=None) -> int:
        """Append a node, with a fresh regressor unless reg is given; index it if a leaf."""
        node_id = len(self.nodes)
        self.nodes.append(_Node(label, self._factory() if reg is None else reg, parent))
        if label is not None:
            self.leaf_index[label] = node_id
        return node_id

    @property
    def n_labels(self) -> int:
        return len(self.leaf_index)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf, recounted by depth_stats() on every read."""
        return self.depth_stats().max_depth

    def path_to(self, y: str) -> list[tuple[int, int]]:
        """Internal nodes from root toward y's leaf, each with its direction
        bit (0 left, 1 right)."""
        node_id = self.leaf_index.get(y)
        if node_id is None:
            raise UnknownLabelError(y)
        nodes = self.nodes
        steps: list[tuple[int, int]] = []
        cur = node_id
        parent = nodes[cur].parent
        while parent is not None:
            steps.append((parent, 1 if nodes[parent].right == cur else 0))
            cur = parent
            parent = nodes[cur].parent
        steps.reverse()
        return steps

    def predict(self, x: SparseVector, y: str) -> float:
        """Estimated P(y | x); labels never seen score 0."""
        if y not in self.leaf_index:
            return 0.0
        q = 1.0
        nodes = self.nodes
        for node_id, go_right in self.path_to(y):
            f = nodes[node_id].reg.predict(x)
            q *= f if go_right else 1.0 - f
        return q

    # Estimator interface used by the evaluation harness.
    def score(self, x: SparseVector, y: str) -> float:
        return self.predict(x, y)

    def learn(self, x: SparseVector, y: str) -> None:
        if y in self.leaf_index:
            self.train_known(x, y)
        else:
            self.insert_label(x, y)

    def train_known(self, x: SparseVector, y: str) -> None:
        """Update the regressors along y's path; y must already be a leaf."""
        nodes = self.nodes
        path = self.path_to(y)
        for node_id, go_right in path:
            nodes[node_id].reg.update(x, 1.0 if go_right else 0.0)
        nodes[self.leaf_index[y]].reg.update(x, 0.0)
        self.updates += len(path) + 1
        self.last_example_updates = len(path) + 1

    def insert_label(self, x: SparseVector, y: str) -> int:
        """Add a new leaf for y, training every regressor passed; returns its id."""
        if y in self.leaf_index:
            raise ValueError(f"label already present: {y}")
        path: list[int] = []
        if self.root is None:
            self.root = leaf_id = self._add_node(y, None)
        else:
            nodes = self.nodes
            cur = self.root
            node = nodes[cur]
            while not node.is_leaf:
                p = node.reg.predict(x)
                if self.policy == "random":
                    go_right = 1 if self._rng.random() < 0.5 else 0
                else:
                    go_right = insert_direction(p, node.n_left, node.n_right, self.alpha)
                # p == 1/2 counts as preferring left, matching the tie-break.
                if go_right != (p > 0.5):
                    self.disagreement_count += 1
                node.reg.update(x, float(go_right))
                path.append(cur)
                if go_right:
                    node.n_right += 1
                    cur = node.right
                else:
                    node.n_left += 1
                    cur = node.left
                node = nodes[cur]
            # Split the reached leaf: old label moves left with a copy of the
            # regressor taken before this node's final update, new label goes right.
            path.append(cur)
            node.left = self._add_node(node.label, cur, node.reg.copy())
            node.right = leaf_id = self._add_node(y, cur)
            node.label = None
            node.n_left = node.n_right = 1
            node.reg.update(x, 1.0)
        self.nodes[leaf_id].reg.update(x, 0.0)
        # One update per internal node on the new leaf's path, and its own.
        self.updates += len(path) + 1
        self.last_example_updates = len(path) + 1
        self.last_insert_path = path
        return leaf_id

    def preorder(self) -> list[tuple[int, int]]:
        """Every node as (node id, depth), each parent before its children and
        the left subtree before the right: the model file's record order."""
        nodes = self.nodes
        order: list[tuple[int, int]] = []
        stack = [] if self.root is None else [(self.root, 0)]
        while stack:
            node_id, depth = stack.pop()
            order.append((node_id, depth))
            node = nodes[node_id]
            if not node.is_leaf:
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))
        return order

    def depth_stats(self) -> DepthStats:
        """Recount leaves and depths by traversal, cross-checking stored counts."""
        nodes = self.nodes
        leaf_counts = [0] * len(nodes)
        histogram: dict[int, int] = {}
        # Children come after their parent in preorder, so in reverse every
        # child's leaf count is known before its parent is checked.
        for node_id, depth in reversed(self.preorder()):
            node = nodes[node_id]
            if node.is_leaf:
                leaf_counts[node_id] = 1
                histogram[depth] = histogram.get(depth, 0) + 1
                continue
            left_count = leaf_counts[node.left]
            right_count = leaf_counts[node.right]
            if left_count != node.n_left or right_count != node.n_right:
                raise CorruptTreeError(
                    f"node {node_id}: stored counts ({node.n_left}, {node.n_right})"
                    f" != recount ({left_count}, {right_count})"
                )
            leaf_counts[node_id] = left_count + right_count
        leaves = sum(histogram.values())
        if leaves != len(self.leaf_index):
            raise CorruptTreeError(
                f"{leaves} leaves found but {len(self.leaf_index)} labels indexed"
            )
        return DepthStats(
            n_leaves=leaves,
            max_depth=max(histogram, default=0),
            total_leaf_depth=sum(depth * count for depth, count in histogram.items()),
            depth_histogram=histogram,
        )

    def structure_signature(self) -> tuple:
        """Preorder shape-and-label fingerprint, regressor state excluded."""
        nodes = [self.nodes[node_id] for node_id, _ in self.preorder()]
        return tuple(
            ("leaf", node.label) if node.is_leaf else ("internal", node.n_left, node.n_right)
            for node in nodes
        )
