import math
import random
from collections import Counter

import pytest

from cptree import (
    Example,
    LinearRegressor,
    SparseVector,
    canonicalize,
    clip01,
    from_tokens,
    hash_feature,
)


def test_hash_is_deterministic_on_empty_token():
    # Frozen so accidental hash-family changes (which would break saved
    # models) show up immediately.
    assert hash_feature("", 18) == 42724
    assert hash_feature(b"", 18) == 42724


def test_hash_range_and_str_bytes_agreement():
    for bits in (10, 18, 30):
        for token in ("word", "a:b", "", "x" * 100):
            idx = hash_feature(token, bits)
            assert 0 <= idx < 2**bits
            assert idx == hash_feature(token.encode("utf-8"), bits)


def test_hash_bits_domain():
    for bits in (4, 9, 31, 0, -1):
        with pytest.raises(ValueError):
            hash_feature("word", bits)


def test_hash_is_pure():
    rng = random.Random(3)
    tokens = ["t%d" % rng.getrandbits(40) for _ in range(200)]
    first = [hash_feature(t) for t in tokens]
    for _ in range(50):
        assert [hash_feature(t) for t in tokens] == first


def test_hash_spreads_uniformly():
    # 1e5 distinct random tokens into 2^18 buckets; with ~0.38 expected
    # tokens per bucket the worst occupied bucket should stay within 5x the
    # mean over occupied buckets (Poisson-like collision profile).
    rng = random.Random(1234)
    tokens = set()
    while len(tokens) < 100_000:
        tokens.add(
            "tok-" + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=12))
        )
    loads = Counter(hash_feature(t, 18) for t in tokens)
    mean_occupied = len(tokens) / len(loads)
    assert max(loads.values()) <= 5 * mean_occupied


def test_canonicalize_sorts():
    v = canonicalize([(3, 1.0), (1, 2.0)])
    assert list(v.pairs()) == [(1, 2.0), (3, 1.0)]


def test_canonicalize_merges_duplicates():
    v = canonicalize([(1, 1.0), (1, 2.0)])
    assert list(v.pairs()) == [(1, 3.0)]


def test_canonicalize_drops_zeros():
    assert len(canonicalize([(1, 0.0)])) == 0
    assert len(canonicalize([(1, 1.0), (1, -1.0)])) == 0


def test_canonicalize_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            canonicalize([(1, bad)])


def test_canonicalize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        entries = [(rng.randrange(1000), rng.uniform(-2, 2)) for _ in range(rng.randrange(12))]
        once = canonicalize(entries)
        again = canonicalize(list(once.pairs()))
        assert once == again


def test_dot_matches_naive_sum_over_raw_entries():
    rng = random.Random(12)
    for _ in range(200):
        entries = [(rng.randrange(50), rng.uniform(-2, 2)) for _ in range(rng.randrange(15))]
        weights = {i: rng.uniform(-1, 1) for i in range(50)}
        naive = sum(w * v for i, v in entries for w in [weights[i]])
        reg = LinearRegressor()
        reg.weights = weights
        assert math.isclose(reg.raw(canonicalize(entries)), naive, abs_tol=1e-12)


def test_sparse_vector_invariants():
    with pytest.raises(ValueError):
        SparseVector((2, 1), (1.0, 1.0))  # not increasing
    with pytest.raises(ValueError):
        SparseVector((1, 1), (1.0, 1.0))  # duplicate
    with pytest.raises(ValueError):
        SparseVector((-1,), (1.0,))
    with pytest.raises(ValueError):
        SparseVector((1 << 18,), (1.0,), hash_bits=18)  # out of range
    with pytest.raises(ValueError):
        SparseVector((0,), (float("nan"),))


def test_key_bytes_distinguishes_vectors():
    a = from_tokens([("u", 1.0)])
    b = from_tokens([("v", 1.0)])
    c = from_tokens([("u", 2.0)])
    assert a.key_bytes() == from_tokens([("u", 1.0)]).key_bytes()
    assert len({a.key_bytes(), b.key_bytes(), c.key_bytes()}) == 3


def test_example_rejects_empty_label():
    with pytest.raises(ValueError):
        Example(from_tokens([("u", 1.0)]), "")


def test_clip01():
    assert clip01(-0.5) == 0.0
    assert clip01(1.7) == 1.0
    assert clip01(0.25) == 0.25


def test_clip01_rejects_nan():
    with pytest.raises(ValueError):
        clip01(math.nan)
