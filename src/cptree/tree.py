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

from .features import SparseVector, clip01
from .regressor import LinearRegressor


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


class _Node:
    """Only internal nodes carry leaf counts (n_left, n_right). No example
    steps a leaf's regressor; the node keeps it when the leaf splits."""

    __slots__ = ("left", "right", "label", "reg", "n_left", "n_right", "parent")

    def __init__(self, label, reg, parent):
        self.left = None
        self.right = None
        self.label = label
        self.reg = reg
        self.parent = parent

    @property
    def is_leaf(self) -> bool:
        return self.left is None


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

    score, which is also predict, changes no model state but keeps a memo
    for the x object it last saw, valid while updates is unchanged (see
    regressors_changed). After the first call on an x it holds y and the raw
    score of x at each node on y's path, in climb order, and no path: learn
    right after score(x, y), with the same x object and y, climbs again and
    steps each node from its stored value instead of scoring x again. A later
    call on that x swaps in a dict of prefix products, so scoring every
    label of one x evaluates each internal node once; once the dict holds
    as many entries as a subtree off y's path has leaves, a call fills that
    whole subtree in one traversal. The memo is one tuple and the dict
    holds only final products, so score may run concurrently between
    training phases: a caller on another x replaces the tuple without
    touching the dict a caller on this x still holds.

    A node whose regressor is exactly a LinearRegressor is scored and
    stepped by the tree itself, in each path walk: its raw score adds x's
    features in x's order, and its step keeps LinearRegressor.update's
    rules, so scores and weights are the ones its methods give, bit for bit.
    Only the first step of a leaf that insertion splits calls update.
    Every other regressor, a subclass included, goes through its own raw and
    update: the oracle stand-ins of install_oracle_regressors and any
    regressor_factory's own class work as they did.
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
        self._memo = None  # (x, updates, y, raws), then (x, updates, prefix dict)

    @classmethod
    def balanced(
        cls,
        labels: Sequence[str],
        learning_rate: float = 0.1,
        regressor_factory: Callable[[], LinearRegressor] | None = None,
    ) -> "CondProbTree":
        """Build a fixed balanced tree over labels known up front (untrained).

        Labels occupy leaves left to right; later online inserts still work and
        follow the objective at alpha = 1. A repeated label raises ValueError.
        """
        tree = cls(alpha=1.0, learning_rate=learning_rate, regressor_factory=regressor_factory)

        def records(lo: int, hi: int):
            if hi - lo == 1:
                yield labels[lo], None
            else:
                yield None, None
                mid = lo + (hi - lo + 1) // 2
                yield from records(lo, mid)
                yield from records(mid, hi)

        if labels:
            tree._build_preorder(records(0, len(labels)))
        return tree

    def _build_preorder(self, records) -> None:
        """Fill this empty tree from its nodes in preorder, each given as
        (label, regressor): label None for an internal node, regressor None
        for a fresh one. A node's id is its record number.

        Raises ValueError on a repeated label and on records that go on
        after the tree is complete or end inside a subtree.
        """
        nodes, leaf_index, factory = self.nodes, self.leaf_index, self._factory
        # A node's parent is the last internal node whose right child has not
        # come yet.
        waiting: list[int] = []
        for node_id, (label, reg) in enumerate(records):
            if waiting:
                parent = waiting[-1]
                if nodes[parent].left is None:
                    nodes[parent].left = node_id
                else:
                    nodes[parent].right = node_id
                    waiting.pop()
            elif node_id:
                raise ValueError("node records continue after the tree is complete")
            else:
                parent, self.root = None, node_id
            nodes.append(_Node(label, factory() if reg is None else reg, parent))
            if label is None:
                waiting.append(node_id)
            elif label in leaf_index:
                raise ValueError(f"label {label!r} appears twice")
            else:
                leaf_index[label] = node_id
        if waiting:
            raise ValueError("node records end inside a subtree")
        # Every child comes after its parent, so in reverse each child's leaf
        # count is known before its parent's.
        leaves = [1] * len(nodes)
        for node_id in reversed(range(len(nodes))):
            node = nodes[node_id]
            if node.left is not None:
                node.n_left, node.n_right = leaves[node.left], leaves[node.right]
                leaves[node_id] = node.n_left + node.n_right

    def _add_node(self, label: str | None, parent: int | None) -> int:
        """Append a node with a fresh regressor; index it if a leaf."""
        node_id = len(self.nodes)
        self.nodes.append(_Node(label, self._factory(), parent))
        if label is not None:
            self.leaf_index[label] = node_id
        return node_id

    @property
    def n_labels(self) -> int:
        return len(self.leaf_index)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf, counted by depth_stats() on every read."""
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

    # Estimator interface used by the evaluation harness.
    def score(self, x: SparseVector, y: str) -> float:
        """Estimated P(y | x); labels never seen score 0.

        The first call on an x object climbs from y's leaf, keeps the raws
        learn uses, and multiplies the estimates from the root down. A later
        call on the same x object, with no update between them, swaps in a
        prefix dict, node id -> product of the estimates from the root down
        to it, and climbs from y's leaf to the nearest node in it, cur. If
        cur's subtree has no more leaves than the dict has entries, the call
        evaluates every internal node below cur, which costs fewer
        evaluations than the dict's entries did; otherwise it walks back
        down y's path. Either way each node's regressor is evaluated once
        per x and stores both children's products, and every product
        multiplies from the root down, as the first call's does. The dict
        starts from the root alone, so the second call never fills: seeding
        it from the first call's path slowed the second call and the 99th
        percentile of an a10_online closed loop (README, "Every label of one
        x"). A call evaluates at most max(len(path_to(y)), len(dict)) nodes,
        and all n labels of one x at most n - 1 + max_depth.
        """
        leaf = self.leaf_index.get(y)
        if leaf is None:
            return 0.0
        nodes = self.nodes
        memo = self._memo
        if memo is None or memo[0] is not x or memo[1] != self.updates:
            # Climb from y's leaf, then multiply from the root down.
            pairs = tuple(zip(x.indices, x.values))
            raws, factors = [], []
            cur, node_id = leaf, nodes[leaf].parent
            while node_id is not None:
                node = nodes[node_id]
                reg = node.reg
                if type(reg) is LinearRegressor:
                    r = reg.bias
                    weights = reg.weights
                    for i, v in pairs:
                        w = weights.get(i)
                        if w is not None:
                            r += w * v
                else:
                    r = reg.raw(x)
                raws.append(r)
                f = r if 0.0 <= r <= 1.0 else clip01(r)
                factors.append(f if node.right == cur else 1.0 - f)
                cur, node_id = node_id, node.parent
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
        cur = nodes[leaf].parent
        while cur not in prefix:
            todo.append(cur)
            cur = nodes[cur].parent
        todo.append(cur)
        # No node below cur is in the dict yet. Its subtree has one internal
        # node fewer than it has leaves; with no more leaves than the dict
        # has entries, the calls on this x have already paid for it, so
        # evaluate all of it.
        node = nodes[cur]
        fill = node.n_left + node.n_right <= len(prefix)
        if fill:
            todo = [cur]
        # One tuple per call: a fill, or the second call's walk, evaluates
        # many nodes.
        pairs = tuple(zip(x.indices, x.values))
        while todo:
            node_id = todo.pop()
            node = nodes[node_id]
            reg = node.reg
            if type(reg) is LinearRegressor:
                r = reg.bias
                weights = reg.weights
                for i, v in pairs:
                    w = weights.get(i)
                    if w is not None:
                        r += w * v
            else:
                r = reg.raw(x)
            f = r if 0.0 <= r <= 1.0 else clip01(r)
            q = prefix[node_id]
            prefix[node.left] = q * (1.0 - f)
            prefix[node.right] = q * f
            if fill:  # a side with one leaf is a leaf
                if node.n_left > 1:
                    todo.append(node.left)
                if node.n_right > 1:
                    todo.append(node.right)
        return prefix[leaf]

    predict = score

    def regressors_changed(self) -> None:
        """Drop the score memo. Call after swapping or editing a node's
        regressor by hand: the memo trusts that regressors change only by
        learning, which bumps updates."""
        self._memo = None

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
        nodes = self.nodes
        pairs = tuple(zip(x.indices, x.values))
        depth, node_id = 0, nodes[cur].parent
        while node_id is not None:
            node = nodes[node_id]
            go_right = node.right == cur
            cur, node_id = node_id, node.parent
            raw = raws[depth] if raws else None
            depth += 1
            reg = node.reg
            if type(reg) is not LinearRegressor:
                reg.update(x, 1.0 if go_right else 0.0, raw)
                continue
            weights = reg.weights
            if raw is None:
                raw = reg.bias
                for i, v in pairs:
                    w = weights.get(i)
                    if w is not None:
                        raw += w * v
            if (delta := reg.learning_rate * (go_right - raw)) != 0.0:
                if not -math.inf < delta < math.inf:
                    raise ValueError(f"regressor diverged: step {delta} is not finite")
                for i, v in pairs:
                    weights[i] = weights.get(i, 0.0) + delta * v
                reg.bias += delta
        self.updates += depth
        self.last_example_updates = depth

    def insert_label(self, x: SparseVector, y: str) -> int:
        """Add a new leaf for y, training every regressor passed; returns its id."""
        if y in self.leaf_index:
            raise ValueError(f"label already present: {y}")
        path: list[int] = []
        if self.root is None:
            self.root = leaf_id = self._add_node(y, None)
        else:
            nodes = self.nodes
            pairs = tuple(zip(x.indices, x.values))
            coin = self._rng.random if self.policy == "random" else None
            alpha = self.alpha
            cur = self.root
            node = nodes[cur]
            while node.left is not None:
                reg = node.reg
                plain = type(reg) is LinearRegressor
                if plain:
                    weights = reg.weights
                    raw = reg.bias
                    for i, v in pairs:
                        w = weights.get(i)
                        if w is not None:
                            raw += w * v
                else:
                    raw = reg.raw(x)
                p = raw if 0.0 <= raw <= 1.0 else clip01(raw)
                if coin:
                    go_right = 1 if coin() < 0.5 else 0
                else:
                    go_right = insert_direction(p, node.n_left, node.n_right, alpha)
                # p == 1/2 counts as preferring left, matching the tie-break.
                if go_right != (p > 0.5):
                    self.disagreement_count += 1
                if not plain:
                    reg.update(x, float(go_right), raw)
                elif (delta := reg.learning_rate * (go_right - raw)) != 0.0:
                    if not -math.inf < delta < math.inf:
                        raise ValueError(f"regressor diverged: step {delta} is not finite")
                    for i, v in pairs:
                        weights[i] = weights.get(i, 0.0) + delta * v
                    reg.bias += delta
                path.append(cur)
                if go_right:
                    node.n_right += 1
                    cur = node.right
                else:
                    node.n_left += 1
                    cur = node.left
                node = nodes[cur]
            # Split the reached leaf into fresh leaves, old label left and y right;
            # the node keeps the leaf's unstepped regressor and learns y lies right.
            path.append(cur)
            node.left = self._add_node(node.label, cur)
            node.right = leaf_id = self._add_node(y, cur)
            node.label = None
            node.n_left = node.n_right = 1
            node.reg.update(x, 1.0)
        # One update per internal node on the new leaf's path.
        self.updates += len(path)
        self.last_example_updates = len(path)
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
        """Leaves per depth, counted by one preorder traversal."""
        nodes = self.nodes
        histogram: dict[int, int] = {}
        for node_id, depth in self.preorder():
            if nodes[node_id].is_leaf:
                histogram[depth] = histogram.get(depth, 0) + 1
        return DepthStats(
            n_leaves=sum(histogram.values()),
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
