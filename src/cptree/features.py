"""Hashed sparse feature vectors and the example type shared by every estimator.

Feature tokens are mapped into a fixed-size index space by a deterministic
hash, so millions of per-node regressors fit in RAM and the same token always
lands in the same bucket across processes and runs. Collisions alias
additively, which is the usual hashing-trick trade-off.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable

MIN_HASH_BITS = 10
MAX_HASH_BITS = 30
DEFAULT_HASH_BITS = 18


def hash_feature(token: bytes | str, hash_bits: int = DEFAULT_HASH_BITS) -> int:
    """Map a feature token to a stable index in [0, 2**hash_bits).

    Uses blake2b rather than Python's builtin hash() so the mapping survives
    interpreter restarts and PYTHONHASHSEED.
    """
    if not MIN_HASH_BITS <= hash_bits <= MAX_HASH_BITS:
        raise ValueError(
            f"hash_bits must be in [{MIN_HASH_BITS}, {MAX_HASH_BITS}], got {hash_bits}"
        )
    if isinstance(token, str):
        token = token.encode("utf-8")
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "little") & ((1 << hash_bits) - 1)


@dataclass(frozen=True)
class SparseVector:
    """Canonical sparse vector: strictly increasing indices, finite values.

    Immutable, so instances can be shared freely between threads.
    """

    indices: tuple[int, ...]
    values: tuple[float, ...]
    hash_bits: int = DEFAULT_HASH_BITS

    def __post_init__(self) -> None:
        if not MIN_HASH_BITS <= self.hash_bits <= MAX_HASH_BITS:
            raise ValueError(f"hash_bits out of range: {self.hash_bits}")
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have equal length")
        limit = 1 << self.hash_bits
        prev = -1
        for i in self.indices:
            if not prev < i < limit:
                raise ValueError(f"indices must be strictly increasing in [0, {limit})")
            prev = i
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite feature value: {v}")

    def __len__(self) -> int:
        return len(self.indices)

    def pairs(self) -> Iterable[tuple[int, float]]:
        return zip(self.indices, self.values)

    def squared_norm(self) -> float:
        return sum(v * v for v in self.values)

    def key_bytes(self) -> bytes:
        """Exact byte serialization, usable as a lookup key for this vector."""
        parts = [struct.pack("<II", self.hash_bits, len(self.indices))]
        for i, v in zip(self.indices, self.values):
            parts.append(struct.pack("<Id", i, v))
        return b"".join(parts)


def canonicalize(
    entries: Iterable[tuple[int, float]], hash_bits: int = DEFAULT_HASH_BITS
) -> SparseVector:
    """Sort entries by index, sum duplicates, and drop exact zeros."""
    acc: dict[int, float] = {}
    for i, v in entries:
        fv = float(v)
        if not math.isfinite(fv):
            raise ValueError(f"non-finite value for index {i}: {v}")
        acc[i] = acc.get(i, 0.0) + fv
    kept = sorted(i for i, v in acc.items() if v != 0.0)
    return SparseVector(tuple(kept), tuple(acc[i] for i in kept), hash_bits)


def from_tokens(
    tokens: Iterable[tuple[str, float]], hash_bits: int = DEFAULT_HASH_BITS
) -> SparseVector:
    """Hash (token, weight) pairs into a canonical sparse vector."""
    return canonicalize(
        ((hash_feature(tok, hash_bits), w) for tok, w in tokens), hash_bits
    )


@dataclass(frozen=True)
class Example:
    """One observation: a hashed feature vector and its label token."""

    x: SparseVector
    y: str

    def __post_init__(self) -> None:
        if not self.y:
            raise ValueError("label must be a nonempty token")


def clip01(value: float) -> float:
    """Clamp to [0, 1]; probabilities are kept in range by construction."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value
