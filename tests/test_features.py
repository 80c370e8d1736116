import math
import random
import re
import sys
import threading
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cptree.features as features
from cptree import (
    Example,
    LinearRegressor,
    SparseVector,
    canonicalize,
    clip01,
    from_tokens,
    hash_feature,
    read_example_file,
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
    assert list(zip(v.indices, v.values)) == [(1, 2.0), (3, 1.0)]


def test_canonicalize_merges_duplicates():
    v = canonicalize([(1, 1.0), (1, 2.0)])
    assert list(zip(v.indices, v.values)) == [(1, 3.0)]


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
        again = canonicalize(list(zip(once.indices, once.values)))
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
    out_of_order = re.escape("indices must be strictly increasing in [0, 262144)")
    for indices, values, message in [
        ((2, 1), (1.0, 1.0), out_of_order),  # not increasing
        ((1, 1), (1.0, 1.0), out_of_order),  # duplicate
        ((-1,), (1.0,), out_of_order),
        ((0, 1 << 18), (1.0, 1.0), out_of_order),  # out of range
        ((0, 1, 5), (1.0, float("nan"), 1.0), "non-finite feature value: nan"),
        ((0, 1), (1e308, float("inf")), "non-finite feature value: inf"),
        ((0, 1), (-float("inf"), 1.0), "non-finite feature value: -inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SparseVector(indices, values)


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


def _outcome(make, *args):
    """repr of what make(*args) returns, or the type and text of what it raises."""
    try:
        return repr(make(*args))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "a:b", "", "é", b"a", b"", b"\xff"]),
    st.text(max_size=3),
    st.binary(max_size=3),
)
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, -3.5, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(st.tuples(_TOKENS, _WEIGHTS), max_size=12),
    hash_bits=st.sampled_from([10, 18, 30]),
    cap=st.sampled_from([None, 4]),
)
def test_cached_from_tokens_equals_hashing_every_token(tokens, hash_bits, cap):
    # from_tokens runs twice: the second time every token it kept hits.
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:  # an empty dict so small that 5 distinct tokens clear it
            mp.setattr(features, "_INDEX_CACHE_CAP", cap)
            mp.setattr(features, "_index_caches", {hash_bits: {}})
        expected = _outcome(
            canonicalize, [(hash_feature(t, hash_bits), w) for t, w in tokens], hash_bits)
        assert _outcome(from_tokens, tokens, hash_bits) == expected
        assert _outcome(from_tokens, tokens, hash_bits) == expected
        if cap is not None:
            assert len(features._index_caches[hash_bits]) <= cap


def test_second_parse_of_a_file_hashes_nothing_and_shares_indices(tmp_path, monkeypatch):
    stream = tmp_path / "stream.txt"
    stream.write_text(
        "".join(f"y{i} | only-here-{i} only-here-{i + 1}:0.5 shared\n" for i in range(50)),
        encoding="utf-8",
    )
    hashed = []
    monkeypatch.setattr(features, "hash_feature",
                        lambda token, bits: hashed.append(token) or hash_feature(token, bits))
    first = list(read_example_file(stream))
    assert len(hashed) == len(set(hashed)) >= 51
    hashed.clear()
    second = list(read_example_file(stream))
    assert hashed == []
    assert [ex.x for ex in second] == [ex.x for ex in first]
    for a, b in zip(first, second):
        assert all(i is j for i, j in zip(a.x.indices, b.x.indices))


def test_unhashable_and_subclassed_tokens_hash_as_their_bytes():
    class Name(str):
        pass

    assert from_tokens([(bytearray(b"ab"), 1.0)]) == from_tokens([(b"ab", 1.0)])
    assert from_tokens([(memoryview(bytearray(b"ab")), 1.0)]) == from_tokens([("ab", 1.0)])
    assert from_tokens([(Name("ab"), 2.0), ("ab", 1.0)]) == from_tokens([("ab", 3.0)])


def test_from_tokens_reports_the_first_fault():
    with pytest.raises(ValueError, match=r"^hash_bits out of range: 5$"):
        from_tokens([], 5)
    with pytest.raises(ValueError, match=r"^hash_bits must be in \[10, 30\], got 5$"):
        from_tokens([("a", 1.0)], 5)
    # A bad weight is reported before a later token that cannot be hashed.
    with pytest.raises(ValueError, match=r"^non-finite value for index \d+: nan$"):
        from_tokens([("a", math.nan), (5, 1.0)])


def test_finite_values_whose_sum_overflows_are_accepted():
    v = SparseVector((0, 1, 2), (1e308, 1e308, -1.0))
    assert v.values == (1e308, 1e308, -1.0)
    assert canonicalize([(3, 1e308), (1, 1e308)]).values == (1e308, 1e308)
    with pytest.raises(ValueError, match="^non-finite feature value: inf$"):
        canonicalize([(1, 1e308), (1, 1e308)])  # a merged value that overflows


def test_threads_sharing_the_cache_get_the_uncached_vectors(monkeypatch):
    # Four threads, a dict cleared at every fifth new token and a 1 us
    # switch interval: any interleaving of lookups, inserts and clears
    # must leave every vector as hashing each token would make it.
    monkeypatch.setattr(features, "_INDEX_CACHE_CAP", 4)
    batches = [[[(f"t{(w * 7 + j * 3 + k) % 40}", 0.5 + k) for k in range(6)] for j in range(60)]
               for w in range(4)]
    expected = [[canonicalize([(hash_feature(t), v) for t, v in toks]) for toks in batch]
                for batch in batches]
    results = [None] * len(batches)

    def work(w):
        results[w] = [from_tokens(toks) for _ in range(5) for toks in batches[w]]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    for w, got in enumerate(results):
        assert got == expected[w] * 5


def test_values_the_screen_cannot_add_get_the_per_value_check():
    with pytest.raises(TypeError, match="^must be real number, not str$"):
        SparseVector((0,), ("abc",))
    with pytest.raises(OverflowError, match="^int too large to convert to float$"):
        SparseVector((0, 1), (10**400, -(10**400)))
    assert SparseVector((0, 1), (Decimal(1), 1.0)).values == (Decimal(1), 1.0)
