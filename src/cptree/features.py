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
from typing import Iterable, Iterator

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
        indices, values = self.indices, self.values
        if len(indices) != len(values):
            raise ValueError("indices and values must have equal length")
        limit = 1 << self.hash_bits
        # Indices that increase from -1 stay below the limit if the last
        # one does. A step that does not increase fails that check too.
        prev = -1
        for i in indices:
            if not prev < i:
                prev = limit
                break
            prev = i
        if not prev < limit:
            raise ValueError(f"indices must be strictly increasing in [0, {limit})")
        # One float sum screens the values: it is finite only if every value
        # is. A sum that is not, or that cannot add a value, sends us to the
        # scan, which names the bad value; finite values whose sum overflows
        # pass it.
        try:
            finite = math.isfinite(sum(values, 0.0))
        except (TypeError, ArithmeticError):
            finite = False
        if not finite:
            for v in values:
                if not math.isfinite(v):
                    raise ValueError(f"non-finite feature value: {v}")

    def __len__(self) -> int:
        return len(self.indices)

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
    isfinite = math.isfinite
    for i, v in entries:
        fv = float(v)
        if not isfinite(fv):
            raise ValueError(f"non-finite value for index {i}: {v}")
        # Storing a first value as is, not added to 0.0, can change only
        # the sign of a zero, and zeros are dropped below.
        acc[i] = acc[i] + fv if i in acc else fv
    if not all(acc.values()):
        acc = {i: v for i, v in acc.items() if v}
    indices = sorted(acc)
    return SparseVector(tuple(indices), tuple(map(acc.__getitem__, indices)), hash_bits)


# One token -> index dict per hash_bits, so that blake2b runs once per
# distinct token in a process and a repeated token gets the same int object.
# A full dict is cleared; the cap holds a 20k-token vocabulary with room to
# spare. Entries are pure functions of their token, so threads that share a
# dict, or a clear between them, change no result.
_INDEX_CACHE_CAP = 1 << 15
_index_caches: dict[int, dict] = {
    bits: {} for bits in range(MIN_HASH_BITS, MAX_HASH_BITS + 1)
}


def _indexed(
    tokens: Iterable[tuple[str, float]], hash_bits: int
) -> Iterator[tuple[int, float]]:
    # An unusable hash_bits gets a throwaway dict, and hash_feature or
    # SparseVector rejects it.
    cache = _index_caches.get(hash_bits, {})
    for token, weight in tokens:
        try:
            index = cache.get(token)
        except (TypeError, ValueError):  # a bytearray, a writable memoryview
            index = hash_feature(token, hash_bits)
        if index is None:
            index = hash_feature(token, hash_bits)
            if len(cache) >= _INDEX_CACHE_CAP:
                cache.clear()
            cache[token] = index
        yield index, weight


def from_tokens(
    tokens: Iterable[tuple[str, float]], hash_bits: int = DEFAULT_HASH_BITS
) -> SparseVector:
    """Hash (token, weight) pairs into a canonical sparse vector.

    Each token is hashed on its way into canonicalize, so a bad weight is
    reported before any later token is looked at.
    """
    return canonicalize(_indexed(tokens, hash_bits), hash_bits)


@dataclass(frozen=True)
class Example:
    """One observation: a hashed feature vector and its label token."""

    x: SparseVector
    y: str

    def __post_init__(self) -> None:
        if not self.y:
            raise ValueError("label must be a nonempty token")


def clip01(value: float) -> float:
    """Clamp to [0, 1]; NaN is no probability and raises ValueError."""
    if 0.0 <= value <= 1.0:
        return value
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    raise ValueError(f"cannot clip {value} to a probability")
