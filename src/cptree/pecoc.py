"""Probability estimation with Hadamard subset codes.

A code matrix turns an n-label problem into one subset-membership regression
per row; a label's probability is decoded as a shifted average of the row
predictions. The k-way tree arranges size-k codes at the nodes of a balanced
k-ary tree, interpolating between the binary label tree (k = 2) and the flat
decoder (k >= n, depth 1), which is PecocModel: one code over all labels.
"""

from __future__ import annotations

from typing import Sequence

from .features import SparseVector, clip01
from .regressor import RegressorBlock

MAX_CODE_EXPONENT = 16  # practical cap: codes up to 65536 columns
# The code columns one KWayTree keeps, in bytes: every column of a k <= 1024 tree.
COLUMN_MEMO_BYTES = 1 << 20


def code_column(size: int, column: int) -> list[int]:
    """One column of the size x size code (size a power of two), as 0/1 ints.

    Entry (row, column) is 1 - popcount(row & column) mod 2: the doubling
    recursion [[C, C], [C, 1-C]] from [[1, 1], [1, 0]]. The code is
    symmetric, so column c is also row c.
    """
    return list(_column_bytes(size, column))


# Swaps the bytes 0 and 1: the complement of a 0/1 column.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _column_bytes(size: int, column: int) -> bytes:
    """code_column(size, column) as bytes, built by doubling: row r + 2^j
    differs from row r < 2^j only in bit j of column, so each step appends the
    rows so far, flipped when column has that bit set."""
    bits = b"\x01"
    half = 1
    while half < size:
        bits += bits.translate(_FLIP) if column & half else bits
        half <<= 1
    return bits


def hadamard_code(t: int) -> list[list[int]]:
    """Binary 2^t x 2^t code, as a list of rows: all-ones first row, every
    other row half ones, and any two distinct non-first rows agreeing on
    exactly half the columns.
    """
    if not 1 <= t <= MAX_CODE_EXPONENT:
        raise ValueError(f"code exponent must be in [1, {MAX_CODE_EXPONENT}], got {t}")
    size = 1 << t
    return [code_column(size, row) for row in range(size)]


def decode_probability(bits: Sequence[int], row_values: Sequence[float]) -> float:
    """Decode one label's probability estimate from per-row subset predictions.

    bits is the label's code column: bits[i] is 1 when the label lies in the
    subset of row i. row_values[i] estimates P(label in subset of row i | x);
    row 0 is the trivial all-labels subset and is conventionally pinned to 1.
    The result is exact when the row values are exact, but may fall outside
    [0, 1] otherwise; callers clip as needed. The terms are added left to
    right in a plain loop: from Python 3.12 the builtin sum() compensates
    float rounding, and a score would then depend on the interpreter.
    """
    agree = 0.0
    for b, v in zip(bits, row_values, strict=True):
        agree += v if b else 1.0 - v
    return 2.0 * (agree / len(bits)) - 1.0


def decode_loss_bound(row_errors: Sequence[float]) -> float:
    """Worst-case squared decode error given per-row estimation errors.

    row_errors[0] belongs to the trivial row and must be 0; the bound averages
    the squared errors of the remaining n - 1 rows and is tight when they are
    all equal (in the label's subset orientation).
    """
    n = len(row_errors)
    if n < 2:
        raise ValueError("need at least two rows")
    if row_errors[0] != 0.0:
        raise ValueError("the trivial row has no estimation error; errors[0] must be 0")
    mean_square = sum(e * e for e in row_errors[1:]) / (n - 1)
    return 4.0 * ((n - 1) / n) ** 2 * mean_square


def loss_multiplier(n: int, k: int) -> float:
    """Squared-loss multiplier of a k-way code tree over n labels.

    At k = 2 this is (log2 n)^2, matching the binary tree's depth-squared
    factor; at k = n it is 4((n-1)/n)^2, the flat decoder's constant.
    """
    if k < 2 or k & (k - 1):
        raise ValueError(f"k must be a power of two >= 2, got {k}")
    if n < k:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    e = _levels(n, k)
    if k**e != n:
        raise ValueError(f"n must be a power of k, got n={n}, k={k}")
    return 4.0 * e**2 * ((k - 1) / k) ** 2


def _levels(n: int, k: int) -> int:
    """Smallest e >= 1 with k**e >= n: the levels of a k-way code over n labels."""
    e = 1
    while k**e < n:
        e += 1
    return e


class KWayTree:
    """Balanced k-ary tree with a size-k code and k - 1 regressors per node.

    Labels occupy leaf slots in arrival order; slots are padded up to a power
    of k with dummies that never train or predict. Each node estimates the
    probability of each of its children conditioned on reaching the node, and
    a label's estimate is the product of the clipped per-node child estimates
    along its path, costing (k - 1) * depth regressor touches per example.
    A node's k - 1 regressors always score and step on the same x, so they
    are stored as one RegressorBlock: one pass over x per node evaluation or
    step, one lookup per feature for all k - 1 rows. A node steps all its
    rows or, when one step is not finite, none of them.
    score keeps a one-entry memo for the x object it last saw: for every
    node it has evaluated since the last learn, the raw scores of x, their
    clipped values and the child estimates decoded from them. learn is the
    only call that changes a regressor, and it clears the memo. Scoring every
    label of one x so evaluates and clips each node and decodes each child
    once, and learn(x, y) with the same x object steps from the raw scores
    on y's path. predict is score without the memo of x: it reads nothing
    from it and writes nothing to it.
    Each code column a node decodes or steps with is built by doubling and
    kept as bytes, keyed by child digit, up to COLUMN_MEMO_BYTES per tree; past
    that a column is rebuilt on each use. A column depends only on k and the
    digit, so the kept columns are never cleared.
    """

    def __init__(self, labels: Sequence[str], k: int, learning_rate: float = 0.1):
        if k < 2 or k & (k - 1):
            raise ValueError(f"k must be a power of two >= 2, got {k}")
        if k > 1 << MAX_CODE_EXPONENT:
            raise ValueError(f"k must be at most {1 << MAX_CODE_EXPONENT}, got {k}")
        # Slots fill in arrival order and are never freed: the next is len(label_map).
        self.label_map = {y: s for s, y in enumerate(labels)}
        if len(self.label_map) != len(labels):
            raise ValueError("duplicate labels")
        if not self.label_map:
            raise ValueError("need at least one label")
        self.k = k
        self.depth = _levels(self.n_labels, k)
        self.capacity = k**self.depth
        self.learning_rate = learning_rate
        # Regressors per internal node, keyed by (level, node index), created
        # lazily so dummy-only subtrees cost nothing.
        self._node_regs: dict[tuple[int, int], RegressorBlock] = {}
        self.updates = 0
        # (x, {(level, index): (raw scores of x, row values for decoding,
        # {digit: child estimate})}) of score; learn clears it.
        self._memo = None
        # {digit: code column of the digit, as bytes}; see _bits.
        self._columns: dict[int, bytes] = {}

    @property
    def n_labels(self) -> int:
        return len(self.label_map)

    def regressors_at(self, level: int, index: int) -> RegressorBlock:
        key = (level, index)
        block = self._node_regs.get(key)
        if block is None:
            block = self._node_regs[key] = RegressorBlock(self.k - 1, self.learning_rate)
        return block

    def _path(self, slot: int) -> list[tuple[int, int, int]]:
        """(level, node index, child digit) from the root to the slot's leaf."""
        steps = []
        block = self.capacity
        index = 0
        for level in range(self.depth):
            block //= self.k
            digit = (slot // block) % self.k
            steps.append((level, index, digit))
            index = index * self.k + digit
        return steps

    # Children are mapped to code columns in reverse order so that at k = 2
    # the single trained row targets the later child, the same convention as
    # the binary tree's right-subtree regressor. Any fixed mapping would do.
    def _column(self, digit: int) -> int:
        return self.k - 1 - digit

    def _bits(self, digit: int) -> bytes:
        """Code column _column(digit), kept while the kept columns fit."""
        bits = self._columns.get(digit)
        if bits is None:
            bits = _column_bytes(self.k, self._column(digit))
            if (len(self._columns) + 1) * self.k <= COLUMN_MEMO_BYTES:
                self._columns[digit] = bits
        return bits

    def learn(self, x: SparseVector, y: str) -> None:
        memo = self._memo
        self._memo = None
        # Nodes that score evaluated on this x object since the last learn.
        nodes = memo[1] if memo is not None and memo[0] is x else {}
        slot = self.label_map.get(y)
        if slot is None:
            if self.n_labels >= self.capacity:
                raise ValueError(f"label capacity {self.capacity} exhausted; cannot add {y!r}")
            slot = self.label_map[y] = self.n_labels
        for level, index, digit in self._path(slot):
            # The trained rows' targets: the column without its all-ones row.
            targets = self._bits(digit)[1:]
            raws = nodes.get((level, index), (None,))[0]
            self.regressors_at(level, index).update(x, targets, raws)
        self.updates += (self.k - 1) * self.depth

    def _child_estimate(self, rows: list[float], digit: int) -> float:
        """The estimate of child digit from a node's row values: the pinned
        all-ones row's 1.0, then each trained row's clipped raw score."""
        if self.k == 2:
            # With one trained row the decode reduces exactly to that row's
            # prediction (column 0, all ones) or its complement (column 1).
            r = rows[1]
            return r if self._column(digit) == 0 else 1.0 - r
        return clip01(decode_probability(self._bits(digit), rows))

    def _raws(self, key: tuple[int, int], x: SparseVector) -> list[float]:
        block = self._node_regs.get(key)
        # An untouched node has no block yet; a fresh one would score 0.
        return block.raws(x) if block is not None else [0.0] * (self.k - 1)

    def score(self, x: SparseVector, y: str) -> float:
        """Product of per-node child estimates; labels never seen score 0."""
        slot = self.label_map.get(y)
        if slot is None:
            return 0.0
        memo = self._memo
        if memo is None or memo[0] is not x:
            memo = self._memo = (x, {})
        nodes = memo[1]
        q = 1.0
        for level, index, digit in self._path(slot):
            key = (level, index)
            node = nodes.get(key)
            if node is None:
                raws = self._raws(key, x)
                node = nodes[key] = (raws, [1.0, *map(clip01, raws)], {})
            estimates = node[2]
            p = estimates.get(digit)
            if p is None:
                p = estimates[digit] = self._child_estimate(node[1], digit)
            q *= p
        return q

    def predict(self, x: SparseVector, y: str) -> float:
        """score(x, y), from a walk of y's path that leaves the memo as it is."""
        slot = self.label_map.get(y)
        if slot is None:
            return 0.0
        q = 1.0
        for level, index, digit in self._path(slot):
            rows = [1.0, *map(clip01, self._raws((level, index), x))]
            q *= self._child_estimate(rows, digit)
        return q


class PecocModel(KWayTree):
    """Flat subset-code estimator: a depth-1 k-way tree whose one code spans
    every label.

    The fan-out k is the label count padded to the next power of two; spare
    columns act as dummy labels that never receive training data and are
    never predicted. One regressor is trained per non-trivial row (the
    all-ones row is pinned to probability 1 and excluded from training).
    """

    def __init__(self, labels: Sequence[str], learning_rate: float = 0.1):
        if len(labels) > 1 << MAX_CODE_EXPONENT:
            raise ValueError(f"at most {1 << MAX_CODE_EXPONENT} labels, got {len(labels)}")
        super().__init__(labels, 1 << _levels(len(labels), 2), learning_rate)

    # Columns follow slot order: label slot s decodes with code column s.
    def _column(self, digit: int) -> int:
        return digit
