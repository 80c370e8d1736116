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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .features import SparseVector, clip01
from .regressor import LinearRegressor, check_learning_rate


class UnknownLabelError(KeyError):
    """Raised when an operation requires a label the tree has not seen."""


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


class NodeWeights(NamedTuple):
    """A read-only view of a node's own weight dict (an empty one at a leaf)
    and a copy of its bias. It scores as a LinearRegressor would; it has no
    update."""

    weights: Mapping[int, float]
    bias: float

    raw = LinearRegressor.raw
    predict = LinearRegressor.predict


class NodeView(NamedTuple):
    """One node, built when tree.nodes is indexed, with its NodeWeights as
    reg."""

    parent: int | None
    left: int | None
    right: int | None
    label: str | None
    n_left: int
    n_right: int
    reg: NodeWeights

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _Nodes(Sequence):
    """tree.nodes: every node as a NodeView, by node id, read-only."""

    __slots__ = ("_tree",)

    def __init__(self, tree: "CondProbTree"):
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree._parent)

    def __getitem__(self, node_id: int) -> NodeView:
        t = self._tree
        node_id = range(len(t._parent))[node_id]  # a negative id counts from the end
        weights = t._weights[node_id]
        reg = NodeWeights(MappingProxyType({} if weights is None else weights), t._bias[node_id])
        return NodeView(t._parent[node_id], t._left[node_id], t._right[node_id],
                        t._label[node_id], t._n_left[node_id], t._n_right[node_id], reg)


@dataclass
class DepthStats:
    """Leaf depths of a tree, counted by traversal."""

    n_leaves: int
    max_depth: int
    total_leaf_depth: int
    depth_histogram: dict[int, int]


class CondProbTree:
    """Online conditional probability tree over an open-ended label set.

    policy "online" inserts new labels with the balance/agreement objective;
    policy "random" makes a fair coin flip at each node instead, but trains the
    traversed regressors the same way. Training is strictly sequential.

    Nodes live in parallel lists indexed by node id: _parent, _left, _right,
    _n_left and _n_right (leaves under each side), _label, _bias and
    _weights. A leaf has no children, counts of 0 and weights None: no
    example steps a leaf, so it holds no regressor. An internal node has no
    label, and is its bias and weight dict alone: the walks score and step
    it with LinearRegressor's arithmetic in its order, so scores and weights
    match its methods bit for bit. Only _build_preorder and insertion's
    split add nodes; both keep max_depth. tree.nodes shows each node as a
    NodeView built on access, whose weights cannot be written.

    score, which is also predict, changes no model state but keeps a memo
    for the x object it last saw, valid while updates is unchanged: only
    learning, which bumps updates, changes a node. After the first call on
    an x it holds y and the raw score of x at each node on y's path, in
    climb order, and no path: learn right after score(x, y), with the same
    x object and y, climbs again and steps each node from its stored value
    instead of scoring x again. A later call on that x swaps in a dict of
    prefix products, so scoring every label of one x evaluates each
    internal node once; once the dict holds as many entries as a subtree
    off y's path has leaves, a call fills that whole subtree in one
    traversal. The memo is one tuple and the dict holds only final
    products, so score may run concurrently between training phases: a
    caller on another x replaces the tuple without touching the dict a
    caller on this x still holds.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        learning_rate: float = 0.1,
        policy: str = "online",
        seed: int = 0,
    ):
        if policy not in ("online", "random"):
            raise ValueError(f"unknown policy: {policy}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        check_learning_rate(learning_rate)
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.policy = policy
        self._rng = random.Random(seed)
        self._parent, self._left, self._right, self._n_left, self._n_right = [], [], [], [], []
        self._label, self._bias, self._weights = [], [], []
        self.root: int | None = None
        self.leaf_index: dict[str, int] = {}
        self.max_depth = 0
        self.disagreement_count = 0
        self.updates = 0  # total regressor updates, for complexity accounting
        self.last_example_updates = 0
        self.last_insert_path: list[int] = []
        self._memo = None  # (x, updates, y, raws), then (x, updates, prefix dict)

    @classmethod
    def balanced(cls, labels: Sequence[str], learning_rate: float = 0.1) -> "CondProbTree":
        """Build a fixed balanced tree over labels known up front (untrained).

        Labels occupy leaves left to right; later online inserts still work and
        follow the objective at alpha = 1. A repeated label raises ValueError.
        """
        tree = cls(alpha=1.0, learning_rate=learning_rate)
        # Each range of labels is a node, split with the larger half left.
        # The stack pops a left half before its right, so nodes come in preorder.
        order, stack = [], [(0, len(labels))] if labels else []
        while stack:
            lo, hi = stack.pop()
            if hi - lo == 1:
                order.append(labels[lo])
            else:
                order.append(None)
                mid = lo + (hi - lo + 1) // 2
                stack += (mid, hi), (lo, mid)
        tree._build_preorder(order, [0.0] * len(order),
                             [None if label is not None else {} for label in order])
        return tree

    def _build_preorder(self, labels: list, biases: list, weights: list) -> None:
        """Fill this empty tree, and keep these lists, from its nodes in
        preorder: each node's label (None at an internal node), bias and
        weight dict (0.0 and None at a leaf). A node's id is its place.

        Raises ValueError on a repeated label and on records that go on
        after the tree is complete or end inside a subtree."""
        n = len(labels)
        parents, lefts, rights = [None] * n, [None] * n, [None] * n
        leaf_index = self.leaf_index
        # A node is the left child of the node before it if that is internal,
        # else the right child of the last internal node still waiting for
        # one, each held with its children's depth. Pointers reuse the ids.
        waiting: list[tuple[int, int]] = []
        parent, right, depth, max_depth = None, False, 0, 0
        for node_id, label in enumerate(labels):
            parents[node_id] = parent
            if right:
                rights[parent] = node_id
            elif node_id:  # the root, node 0, has no parent
                lefts[parent] = node_id
            if label is None:
                depth += 1
                waiting.append((node_id, depth))
                parent, right = node_id, False
                continue
            if label in leaf_index:
                raise ValueError(f"label {label!r} appears twice")
            leaf_index[label] = node_id
            if depth > max_depth:
                max_depth = depth
            if waiting:
                (parent, depth), right = waiting.pop(), True
            elif node_id + 1 < n:
                raise ValueError("node records continue after the tree is complete")
        # No record came after the tree was complete, so it is complete iff
        # it has one leaf more than it has internal nodes.
        if n and 2 * len(leaf_index) != n + 1:
            raise ValueError("node records end inside a subtree")
        # Every child comes after its parent, so in reverse each child's leaf
        # count is known before its parent's.
        n_left, n_right, leaves = [0] * n, [0] * n, [1] * n
        for node_id in reversed(range(n)):
            left = lefts[node_id]
            if left is not None:
                n_left[node_id], n_right[node_id] = leaves[left], leaves[rights[node_id]]
                leaves[node_id] = n_left[node_id] + n_right[node_id]
        self._parent, self._left, self._right = parents, lefts, rights
        self._n_left, self._n_right = n_left, n_right
        self._label, self._bias, self._weights = labels, biases, weights
        self.root = 0 if n else None
        self.max_depth = max_depth

    def _add_node(self, label: str | None, parent: int | None) -> int:
        """For insertion: append a node with no children as the root, parent's
        left child, or its right child once it has a left one; index a leaf."""
        node_id = len(self._parent)
        self._parent.append(parent)
        self._left.append(None)
        self._right.append(None)
        self._n_left.append(0)
        self._n_right.append(0)
        self._label.append(label)
        self._bias.append(0.0)
        self._weights.append(None)
        if parent is None:
            self.root = node_id
        elif self._left[parent] is None:
            self._left[parent] = node_id
        else:
            self._right[parent] = node_id
        if label is not None:
            self.leaf_index[label] = node_id
        return node_id

    @property
    def nodes(self) -> _Nodes:
        """Every node as a NodeView, by node id: read-only, each built on access."""
        return _Nodes(self)

    @property
    def n_labels(self) -> int:
        return len(self.leaf_index)

    def path_to(self, y: str) -> list[tuple[int, int]]:
        """Internal nodes from root toward y's leaf, each with its direction
        bit (0 left, 1 right)."""
        node_id = self.leaf_index.get(y)
        if node_id is None:
            raise UnknownLabelError(y)
        parents, rights = self._parent, self._right
        steps: list[tuple[int, int]] = []
        cur = node_id
        parent = parents[cur]
        while parent is not None:
            steps.append((parent, 1 if rights[parent] == cur else 0))
            cur = parent
            parent = parents[cur]
        steps.reverse()
        return steps

    # Estimator interface used by the evaluation harness.
    def score(self, x: SparseVector, y: str) -> float:
        """Estimated P(y | x); labels never seen score 0.

        The first call on an x object climbs from y's leaf, keeps the raws
        learn uses, and multiplies the estimates from the root down. A later
        call on the same x object, with no update between them, swaps in a
        prefix dict, node id -> product of the estimates from the root down
        to it, and climbs from y's leaf to the nearest node in it, cur. If
        cur's subtree has no more leaves than the dict has entries, the call
        evaluates every internal node below cur; otherwise it walks back
        down y's path. Either way each node is evaluated once per x and
        stores both children's products, each multiplied from the root down
        as in the first call. The dict starts from the root alone (README,
        "Every label of one x"). A call evaluates at most
        max(len(path_to(y)), len(dict)) nodes, and all n labels of one x at
        most n - 1 + max_depth.
        """
        leaf = self.leaf_index.get(y)
        if leaf is None:
            return 0.0
        parents, rights, biases, weights_of = self._parent, self._right, self._bias, self._weights
        memo = self._memo
        if memo is None or memo[0] is not x or memo[1] != self.updates:
            # Climb from y's leaf, then multiply from the root down.
            pairs = tuple(zip(x.indices, x.values))
            raws, factors = [], []
            cur, node_id = leaf, parents[leaf]
            while node_id is not None:
                r = biases[node_id]
                weights = weights_of[node_id]
                for i, v in pairs:
                    w = weights.get(i)
                    if w is not None:
                        r += w * v
                raws.append(r)
                f = r if 0.0 <= r <= 1.0 else clip01(r)
                factors.append(f if rights[node_id] == cur else 1.0 - f)
                cur, node_id = node_id, parents[node_id]
            self._memo = (x, self.updates, y, raws)
            return math.prod(reversed(factors), start=1.0)
        if len(memo) == 4:
            memo = self._memo = (x, memo[1], {self.root: 1.0})
        prefix = memo[2]
        q = prefix.get(leaf)
        if q is not None:
            return q
        # The nodes to evaluate, popped from the end: y's path from cur, the
        # nearest node in the dict, down to y's parent.
        todo = []
        cur = parents[leaf]
        while cur not in prefix:
            todo.append(cur)
            cur = parents[cur]
        todo.append(cur)
        # No node below cur is in the dict yet. Its subtree has one internal
        # node fewer than it has leaves; with no more leaves than the dict
        # has entries, the calls on this x have already paid for it, so
        # evaluate all of it.
        lefts, n_lefts, n_rights = self._left, self._n_left, self._n_right
        fill = n_lefts[cur] + n_rights[cur] <= len(prefix)
        if fill:
            todo = [cur]
        # One tuple per call: a fill, or the second call's walk, evaluates
        # many nodes.
        pairs = tuple(zip(x.indices, x.values))
        while todo:
            node_id = todo.pop()
            r = biases[node_id]
            weights = weights_of[node_id]
            for i, v in pairs:
                w = weights.get(i)
                if w is not None:
                    r += w * v
            f = r if 0.0 <= r <= 1.0 else clip01(r)
            q = prefix[node_id]
            left, right = lefts[node_id], rights[node_id]
            prefix[left] = q * (1.0 - f)
            prefix[right] = q * f
            if fill:  # a side with one leaf is a leaf
                if n_lefts[node_id] > 1:
                    todo.append(left)
                if n_rights[node_id] > 1:
                    todo.append(right)
        return prefix[leaf]

    predict = score

    def learn(self, x: SparseVector, y: str) -> None:
        """One online step on (x, y). Right after score(x, y) on the same x
        object, with no update between, the nodes step from the memo's raw
        scores; for another known label, train_known climbs y's path and
        scores x at each node; a new label is inserted."""
        memo = self._memo
        if memo and memo[0] is x and memo[1] == self.updates and len(memo) == 4 and memo[2] == y:
            self.train_known(x, y, memo[3])
        elif y in self.leaf_index:
            self.train_known(x, y)
        else:
            self.insert_label(x, y)

    def train_known(self, x: SparseVector, y: str, raws=None) -> None:
        """Update the regressors along y's path; y must already be a leaf.

        It climbs from y's leaf and steps each node on the way: a step reads
        only its node's regressor and x, so the order leaves the result as it
        was. raws, when given, are the nodes' raw scores of x since the last
        update, in climb order: y's parent first, the root last.
        """
        cur = self.leaf_index.get(y)
        if cur is None:
            raise UnknownLabelError(y)
        parents, rights, biases = self._parent, self._right, self._bias
        weights_of, rate = self._weights, self.learning_rate
        pairs = tuple(zip(x.indices, x.values))
        depth, node_id = 0, parents[cur]
        while node_id is not None:
            go_right = rights[node_id] == cur
            raw = raws[depth] if raws else None
            depth += 1
            weights = weights_of[node_id]
            if raw is None:
                raw = biases[node_id]
                for i, v in pairs:
                    w = weights.get(i)
                    if w is not None:
                        raw += w * v
            if (delta := rate * (go_right - raw)) != 0.0:
                if not -math.inf < delta < math.inf:
                    raise ValueError(f"regressor diverged: step {delta} is not finite")
                for i, v in pairs:
                    weights[i] = weights.get(i, 0.0) + delta * v
                biases[node_id] += delta
            cur, node_id = node_id, parents[node_id]
        self.updates += depth
        self.last_example_updates = depth

    def insert_label(self, x: SparseVector, y: str) -> int:
        """Add a new leaf for y, training every regressor passed; returns its id."""
        if y in self.leaf_index:
            raise ValueError(f"label already present: {y}")
        path: list[int] = []
        if self.root is None:
            leaf_id = self._add_node(y, None)
        else:
            lefts, rights, n_lefts, n_rights = self._left, self._right, self._n_left, self._n_right
            biases, weights_of = self._bias, self._weights
            rate, alpha = self.learning_rate, self.alpha
            pairs = tuple(zip(x.indices, x.values))
            coin = self._rng.random if self.policy == "random" else None
            cur = self.root
            while (left := lefts[cur]) is not None:
                weights = weights_of[cur]
                raw = biases[cur]
                for i, v in pairs:
                    w = weights.get(i)
                    if w is not None:
                        raw += w * v
                p = raw if 0.0 <= raw <= 1.0 else clip01(raw)
                if coin:
                    go_right = 1 if coin() < 0.5 else 0
                else:
                    go_right = insert_direction(p, n_lefts[cur], n_rights[cur], alpha)
                # p == 1/2 counts as preferring left, matching the tie-break.
                if go_right != (p > 0.5):
                    self.disagreement_count += 1
                if (delta := rate * (go_right - raw)) != 0.0:
                    if not -math.inf < delta < math.inf:
                        raise ValueError(f"regressor diverged: step {delta} is not finite")
                    for i, v in pairs:
                        weights[i] = weights.get(i, 0.0) + delta * v
                    biases[cur] += delta
                path.append(cur)
                if go_right:
                    n_rights[cur] += 1
                    cur = rights[cur]
                else:
                    n_lefts[cur] += 1
                    cur = left
            # Split the reached leaf into two new leaves, its label left and y
            # right, and step the node toward y's side.
            path.append(cur)
            self._add_node(self._label[cur], cur)
            leaf_id = self._add_node(y, cur)
            self._label[cur] = None
            n_lefts[cur] = n_rights[cur] = 1
            # A fresh node's raw score is 0.0, so the step toward 1 is the
            # learning rate itself, added to 0.0 weights and bias.
            weights_of[cur] = {i: 0.0 + rate * v for i, v in pairs}
            biases[cur] = 0.0 + rate
            self.max_depth = max(self.max_depth, len(path))
        # One update per internal node on the new leaf's path.
        self.updates += len(path)
        self.last_example_updates = len(path)
        self.last_insert_path = path
        return leaf_id

    def preorder(self) -> list[tuple[int, int]]:
        """Every node as (node id, depth), each parent before its children and
        the left subtree before the right: the model file's record order."""
        lefts, rights = self._left, self._right
        order: list[tuple[int, int]] = []
        stack = [] if self.root is None else [(self.root, 0)]
        while stack:
            node_id, depth = stack.pop()
            order.append((node_id, depth))
            left = lefts[node_id]
            if left is not None:
                stack.append((rights[node_id], depth + 1))
                stack.append((left, depth + 1))
        return order

    def depth_stats(self) -> DepthStats:
        """Leaves per depth, counted by one preorder traversal."""
        lefts = self._left
        histogram: dict[int, int] = {}
        for node_id, depth in self.preorder():
            if lefts[node_id] is None:
                histogram[depth] = histogram.get(depth, 0) + 1
        return DepthStats(
            n_leaves=sum(histogram.values()),
            max_depth=max(histogram, default=0),
            total_leaf_depth=sum(depth * count for depth, count in histogram.items()),
            depth_histogram=histogram,
        )

    def structure_signature(self) -> tuple:
        """Preorder shape-and-label fingerprint, regressor state excluded."""
        lefts, labels, n_lefts, n_rights = self._left, self._label, self._n_left, self._n_right
        return tuple(
            ("leaf", labels[i]) if lefts[i] is None else ("internal", n_lefts[i], n_rights[i])
            for i, _ in self.preorder()
        )
