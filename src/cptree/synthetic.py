"""Synthetic tasks with known conditionals, and exact regret against them.

A synthetic task carries its full conditional table over a finite context
set, so expected losses and regrets are exact enumerations rather than
samples. The oracle estimator and the oracle node regressors answer the
task's true probabilities, for checking the tree's bounds in isolation from
learning error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import Estimator
from .features import DEFAULT_HASH_BITS, Example, SparseVector, from_tokens
from .tree import CondProbTree


@dataclass
class SyntheticTask:
    """Finite-context generator with known ground-truth conditionals.

    Every context is rendered to a fixed sparse vector, so expectations over
    the joint distribution reduce to exact sums over (context, label) cells.
    """

    labels: list[str]
    context_tokens: list[list[str]]
    conditional: np.ndarray  # [contexts, labels], rows sum to 1
    context_probs: np.ndarray  # [contexts], sums to 1
    hash_bits: int = DEFAULT_HASH_BITS
    seed: int = 0
    features: list[SparseVector] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.conditional = np.asarray(self.conditional, dtype=np.float64)
        self.context_probs = np.asarray(self.context_probs, dtype=np.float64)
        c, n = self.conditional.shape
        if len(self.context_tokens) != c or len(self.labels) != n:
            raise ValueError("table shape does not match labels/contexts")
        if not ((self.conditional >= 0.0).all() and (self.context_probs >= 0.0).all()):
            raise ValueError("conditional and context probabilities must not be negative")
        if not np.allclose(self.conditional.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("conditional rows must sum to 1")
        if not math.isclose(float(self.context_probs.sum()), 1.0, abs_tol=1e-12):
            raise ValueError("context probabilities must sum to 1")
        self.features = [
            from_tokens([(tok, 1.0) for tok in toks], self.hash_bits)
            for toks in self.context_tokens
        ]
        self._label_pos = {y: j for j, y in enumerate(self.labels)}
        self._key_to_context = {
            fv.key_bytes(): i for i, fv in enumerate(self.features)
        }

    @property
    def context_count(self) -> int:
        return len(self.context_tokens)

    @property
    def label_count(self) -> int:
        return len(self.labels)

    def context_of(self, x: SparseVector) -> int:
        ctx = self._key_to_context.get(x.key_bytes())
        if ctx is None:
            raise KeyError("vector does not match any task context")
        return ctx

    def label_pos(self, y: str) -> int | None:
        return self._label_pos.get(y)

    def example(self, context: int, label_index: int) -> Example:
        return Example(self.features[context], self.labels[label_index])

    def sample(self, m: int, seed: int | None = None) -> list[Example]:
        rng = np.random.default_rng(self.seed if seed is None else seed)
        contexts = rng.choice(self.context_count, size=m, p=self.context_probs)
        # Inverse-CDF sampling per context keeps this linear in m even for
        # very large label sets.
        uniform = rng.random(m)
        cum = np.cumsum(self.conditional, axis=1)
        label_idx = np.empty(m, dtype=np.int64)
        for c in np.unique(contexts):
            mask = contexts == c
            label_idx[mask] = np.searchsorted(cum[c], uniform[mask], side="right")
        np.minimum(label_idx, self.label_count - 1, out=label_idx)
        return [self.example(int(c), int(j)) for c, j in zip(contexts, label_idx)]

    def oracle_score_loss(self) -> float:
        """Exact expected progressive loss of an estimator scoring true P(y|x)."""
        p = self.conditional
        per_context = (p * (1.0 - p) ** 2).sum(axis=1)
        return float(self.context_probs @ per_context)

    @classmethod
    def random(
        cls,
        contexts: int,
        labels: int,
        seed: int = 0,
        concentration: float = 1.0,
        hash_bits: int = DEFAULT_HASH_BITS,
    ) -> "SyntheticTask":
        """Dirichlet conditionals over uniform contexts."""
        if contexts < 1:
            raise ValueError(f"contexts must be at least 1, got {contexts}")
        rng = np.random.default_rng(seed)
        table = rng.dirichlet([concentration] * labels, size=contexts)
        return cls(
            labels=[f"L{j}" for j in range(labels)],
            context_tokens=[[f"ctx={i}"] for i in range(contexts)],
            conditional=table,
            context_probs=np.full(contexts, 1.0 / contexts),
            hash_bits=hash_bits,
            seed=seed,
        )

    @classmethod
    def clustered(
        cls,
        groups: int = 8,
        contexts_per_group: int = 4,
        labels_per_group: int = 8,
        skew: float = 1.0,
        noise: float = 0.1,
        seed: int = 0,
        hash_bits: int = DEFAULT_HASH_BITS,
    ) -> "SyntheticTask":
        """Skewed task where each context draws mostly from one label group.

        Contexts share a group token, so estimators that route by features can
        discover the group structure. Context frequencies and within-group
        label weights follow power laws with the given skew exponent.
        """
        if min(groups, contexts_per_group, labels_per_group) < 1:
            raise ValueError("groups, contexts_per_group and labels_per_group must be at least 1")
        rng = np.random.default_rng(seed)
        n_ctx = groups * contexts_per_group
        n_lab = groups * labels_per_group
        labels = [f"L{j}" for j in range(n_lab)]
        tokens = []
        table = np.zeros((n_ctx, n_lab))
        for i in range(n_ctx):
            g = i % groups
            tokens.append([f"ctx={i}", f"grp={g}"])
            ranks = np.arange(1, labels_per_group + 1, dtype=np.float64)
            weights = ranks ** (-skew)
            rng.shuffle(weights)
            row = np.full(n_lab, noise / n_lab)
            block = slice(g * labels_per_group, (g + 1) * labels_per_group)
            row[block] += (1.0 - noise) * weights / weights.sum()
            table[i] = row / row.sum()
        ctx_weights = np.arange(1, n_ctx + 1, dtype=np.float64) ** (-skew)
        rng.shuffle(ctx_weights)
        return cls(
            labels=labels,
            context_tokens=tokens,
            conditional=table,
            context_probs=ctx_weights / ctx_weights.sum(),
            hash_bits=hash_bits,
            seed=seed,
        )

    @classmethod
    def crossed(
        cls,
        side: int = 8,
        peak: float = 0.75,
        row: float = 0.2,
        noise: float = 0.05,
        skew: float = 1.0,
        seed: int = 0,
        hash_bits: int = DEFAULT_HASH_BITS,
    ) -> "SyntheticTask":
        """Two-factor task whose conditionals are not linear in the features.

        Contexts and labels both live on a side x side grid; a context (i, j)
        carries only its row and column tokens, while probability mass peaks
        on the matching label (i, j). Subset probabilities therefore involve
        row-by-column interactions a linear model cannot represent exactly,
        so per-node regret never vanishes and tree structure keeps mattering
        no matter how long training runs.
        """
        rng = np.random.default_rng(seed)
        n = side * side
        labels = [f"L{a}x{b}" for a in range(side) for b in range(side)]
        tokens = [[f"A{i}", f"B{j}"] for i in range(side) for j in range(side)]
        col_weights = np.arange(1, side + 1, dtype=np.float64) ** (-skew)
        col_weights /= col_weights.sum()
        table = np.zeros((n, n))
        for i in range(side):
            for j in range(side):
                c = i * side + j
                p = np.full(n, noise / n)
                block = slice(i * side, (i + 1) * side)
                p[block] += row * col_weights
                p[i * side + j] += peak
                table[c] = p / p.sum()
        ctx_weights = np.arange(1, n + 1, dtype=np.float64) ** (-skew)
        rng.shuffle(ctx_weights)
        return cls(
            labels=labels,
            context_tokens=tokens,
            conditional=table,
            context_probs=ctx_weights / ctx_weights.sum(),
            hash_bits=hash_bits,
            seed=seed,
        )


class OracleEstimator:
    """Scores the task's true conditional probability; never learns."""

    def __init__(self, task: SyntheticTask):
        self.task = task
        self.updates = 0

    def score(self, x: SparseVector, y: str) -> float:
        j = self.task.label_pos(y)
        if j is None:
            return 0.0
        return float(self.task.conditional[self.task.context_of(x), j])

    def learn(self, x: SparseVector, y: str) -> None:
        pass


def node_conditionals(
    tree: CondProbTree, task: SyntheticTask
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per-node truth under the task: reach mass and right-branch probability.

    Returns (reach, right) where reach[node][ctx] is the probability that the
    true label lies under the node given the context, and right[node][ctx] is
    the conditional probability of its right subtree given the node is reached
    (0 where the node is unreachable). Labels absent from the tree carry no
    mass. Keys cover internal nodes only.
    """
    reach: dict[int, np.ndarray] = {}
    right: dict[int, np.ndarray] = {}
    nodes = tree.nodes
    # Leaf masses per context, then aggregate bottom-up.
    masses: dict[int, np.ndarray] = {}
    for node_id, _ in reversed(tree.preorder()):
        node = nodes[node_id]
        if node.is_leaf:
            j = task.label_pos(node.label)
            if j is None:
                masses[node_id] = np.zeros(task.context_count)
            else:
                masses[node_id] = task.conditional[:, j].copy()
        else:
            left_mass = masses[node.left]
            right_mass = masses[node.right]
            total = left_mass + right_mass
            masses[node_id] = total
            reach[node_id] = total
            with np.errstate(invalid="ignore", divide="ignore"):
                cond = np.where(total > 0.0, right_mass / np.where(total > 0, total, 1.0), 0.0)
            right[node_id] = cond
    return reach, right


class OracleNodeRegressor:
    """Frozen regressor answering a node's true conditional per context."""

    def __init__(self, task: SyntheticTask, right_probs: np.ndarray):
        self.task = task
        self.right_probs = right_probs
        self.update_count = 0

    def predict(self, x: SparseVector) -> float:
        return float(self.right_probs[self.task.context_of(x)])

    def update(self, x: SparseVector, target: float) -> None:
        pass

    def copy(self) -> "OracleNodeRegressor":
        return OracleNodeRegressor(self.task, self.right_probs)


def install_oracle_regressors(tree: CondProbTree, task: SyntheticTask) -> None:
    """Replace every internal node's regressor with the true conditional."""
    _, right = node_conditionals(tree, task)
    for node_id, probs in right.items():
        tree.nodes[node_id].reg = OracleNodeRegressor(task, probs)


def true_regret(estimator: Estimator, task: SyntheticTask) -> float:
    """Exact E[(P(y|x) - Q(y|x))^2] under the task's joint distribution."""
    total = 0.0
    for c in range(task.context_count):
        x = task.features[c]
        weight_c = float(task.context_probs[c])
        if weight_c == 0.0:
            continue
        for j, y in enumerate(task.labels):
            p = float(task.conditional[c, j])
            if p == 0.0:
                continue
            q = estimator.score(x, y)
            total += weight_c * p * (p - q) ** 2
    return total


def node_regret(tree: CondProbTree, task: SyntheticTask) -> dict[int, float]:
    """Per-internal-node squared loss under the distribution induced at it.

    Each node sees (x, branch) pairs drawn from the joint conditioned on the
    true label lying beneath it; unreachable nodes get regret 0.
    """
    reach, right = node_conditionals(tree, task)
    out: dict[int, float] = {}
    ctx_probs = task.context_probs
    for node_id in reach:
        weights = ctx_probs * reach[node_id]
        mass = float(weights.sum())
        if mass == 0.0:
            out[node_id] = 0.0
            continue
        reg = tree.nodes[node_id].reg
        sq = 0.0
        for c in range(task.context_count):
            w = float(weights[c])
            if w == 0.0:
                continue
            f = reg.predict(task.features[c])
            sq += w * (f - float(right[node_id][c])) ** 2
        out[node_id] = sq / mass
    return out
