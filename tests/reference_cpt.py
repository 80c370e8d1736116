"""A reference conditional probability tree, written straight from the paper.

Recursive node objects and plain dict regressors, with no caches, no node
ids and no counters: the differential tests in ``test_reference_cpt.py``
hold ``cptree.CondProbTree`` to it bit for bit. The only thing shared with
the package is ``insert_objective``, the paper's insertion score.
"""

from __future__ import annotations

import random

from cptree.tree import insert_objective


class Regressor:
    """Squared-loss linear regressor: score ``bias + sum(w * v)``, clipped."""

    def __init__(self, eta: float):
        self.eta = eta
        self.w: dict[int, float] = {}
        self.bias = 0.0

    def raw(self, x) -> float:
        total = self.bias
        for i, v in zip(x.indices, x.values):  # index order, as stored in x
            if i in self.w:
                total += self.w[i] * v
        return total

    def predict(self, x) -> float:
        return min(1.0, max(0.0, self.raw(x)))

    def update(self, x, target: float) -> None:
        step = self.eta * (target - self.raw(x))
        if step == 0.0:
            return
        for i, v in zip(x.indices, x.values):
            self.w[i] = self.w.get(i, 0.0) + step * v
        self.bias += step

    def copy(self) -> "Regressor":
        dup = Regressor(self.eta)
        dup.w = dict(self.w)
        dup.bias = self.bias
        return dup


class Node:
    def __init__(self, reg: Regressor, label: str | None = None):
        self.reg = reg
        self.label = label
        self.left: Node | None = None
        self.right: Node | None = None
        self.n_left = 0
        self.n_right = 0

    def path(self, y: str) -> list[tuple["Node", int]] | None:
        """Nodes from here down to y's leaf, each with the side taken; the
        leaf itself comes last, with side 0."""
        if self.left is None:
            return [(self, 0)] if self.label == y else None
        for side, child in ((0, self.left), (1, self.right)):
            below = child.path(y)
            if below is not None:
                return [(self, side)] + below
        return None

    def preorder(self) -> list["Node"]:
        if self.left is None:
            return [self]
        return [self] + self.left.preorder() + self.right.preorder()


class ReferenceCPT:
    """Online CPT: ``learn`` returns how many regressors it updated."""

    def __init__(self, alpha: float, eta: float, policy: str = "online", seed: int = 0):
        self.alpha = alpha
        self.eta = eta
        self.policy = policy
        self.coin = random.Random(seed)
        self.root: Node | None = None

    def path(self, y: str):
        return None if self.root is None else self.root.path(y)

    def predict(self, x, y: str) -> float:
        path = self.path(y)
        if path is None:
            return 0.0
        q = 1.0
        for node, side in path[:-1]:  # root to leaf
            f = node.reg.predict(x)
            q *= f if side else 1.0 - f
        return q

    def learn(self, x, y: str) -> int:
        path = self.path(y)
        if path is not None:  # known label: its path learns its sides, its leaf 0
            for node, side in path:
                node.reg.update(x, float(side))
            return len(path)
        if self.root is None:
            self.root = Node(Regressor(self.eta), y)
            self.root.reg.update(x, 0.0)
            return 1
        return self._insert(self.root, x, y)

    def _insert(self, node: Node, x, y: str) -> int:
        if node.left is None:
            # Split: the old label moves left with a copy of the leaf's
            # regressor from before this example; the node keeps the
            # regressor and learns that y lies right.
            node.left = Node(node.reg.copy(), node.label)
            node.right = Node(Regressor(self.eta), y)
            node.label = None
            node.n_left = node.n_right = 1
            node.right.reg.update(x, 0.0)
            node.reg.update(x, 1.0)
            return 2
        if self.policy == "random":
            right = self.coin.random() < 0.5
        else:  # ties go left
            p = node.reg.predict(x)
            right = insert_objective(p, node.n_left, node.n_right, self.alpha) > 0.0
        node.reg.update(x, float(right))
        if right:
            node.n_right += 1
            return 1 + self._insert(node.right, x, y)
        node.n_left += 1
        return 1 + self._insert(node.left, x, y)

    def structure_signature(self) -> tuple:
        nodes = [] if self.root is None else self.root.preorder()
        return tuple(
            ("leaf", n.label) if n.left is None else ("internal", n.n_left, n.n_right)
            for n in nodes
        )
