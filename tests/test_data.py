import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cptree.data as data
import cptree.features as features
from cptree import (
    Example,
    ParseError,
    canonicalize,
    format_example_line,
    from_tokens,
    parse_example_line,
    read_example_file,
    read_examples,
)
from cptree.features import hash_feature


def test_basic_line():
    example = parse_example_line("ad42 | w:0.5 q:1.5")
    assert example.y == "ad42"
    assert len(example.x) == 2
    assert set(example.x.values) == {0.5, 1.5}


def test_default_weight_is_one():
    example = parse_example_line("c | tok")
    assert example.y == "c"
    assert list(zip(example.x.indices, example.x.values)) == [(hash_feature("tok"), 1.0)]


def test_empty_label_is_rejected():
    with pytest.raises(ParseError):
        parse_example_line("| tok")


def test_missing_separator_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_example_line("no separator here", line_number=17)
    assert "line 17" in str(err.value)


def test_multi_token_label_is_rejected():
    with pytest.raises(ParseError):
        parse_example_line("two tokens | f")


def test_non_numeric_weight_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_example_line("y | tok:heavy", line_number=3)
    assert "line 3" in str(err.value)


def test_colons_inside_feature_names():
    example = parse_example_line("y | a:b:1.5")
    assert list(zip(example.x.indices, example.x.values)) == [(hash_feature("a:b"), 1.5)]
    with pytest.raises(ParseError):
        parse_example_line("y | :1.5")


def test_no_features_is_allowed():
    example = parse_example_line("y |")
    assert len(example.x) == 0


def test_duplicate_features_merge():
    example = parse_example_line("y | tok tok tok:2")
    assert list(zip(example.x.indices, example.x.values)) == [(hash_feature("tok"), 4.0)]


def test_round_trip_through_formatting():
    line = format_example_line("lbl", [("alpha", 1.0), ("beta", 0.25)])
    assert line == "lbl | alpha beta:0.25"
    example = parse_example_line(line)
    assert example.y == "lbl"
    assert len(example.x) == 2


@pytest.mark.parametrize(
    "label, features",
    [
        ("lbl", [("alpha", 1.0), ("beta", 0.25)]),
        ("y", [("a:2", 1.0)]),
        ("y", [("a:b", 1.0), ("a:b:c", -0.5)]),
        ("y", [(":x", 1.0), ("x:", 3.0)]),
        ("a:b", []),
    ],
    ids=["plain", "numeric-suffix", "inner-colons", "edge-colons", "colon-label"],
)
def test_formatted_lines_parse_back_to_their_inputs(label, features):
    example = parse_example_line(format_example_line(label, features))
    assert example.y == label
    assert example.x == from_tokens(features)


@pytest.mark.parametrize(
    "label, features",
    [("", []), ("a b", []), ("a\tb", []), ("a|b", []),
     ("y", [("", 1.0)]), ("y", [("f g", 1.0)]), ("y", [("f\ng", 2.0)]),
     ("y", [("a", math.nan)]), ("y", [("a", math.inf)]), ("y", [("a", -math.inf)])],
    ids=["empty-label", "spaced-label", "tabbed-label", "piped-label",
         "empty-name", "spaced-name", "newline-name",
         "nan-weight", "inf-weight", "minus-inf-weight"],
)
def test_unparseable_labels_and_names_are_not_formatted(label, features):
    with pytest.raises(ValueError):
        format_example_line(label, features)


def test_reader_skips_blank_lines_and_numbers_errors():
    lines = ["a | f", "", "   ", "b | g:2"]
    assert [e.y for e in read_examples(lines)] == ["a", "b"]
    with pytest.raises(ParseError) as err:
        list(read_examples(["a | f", "broken"]))
    assert "line 2" in str(err.value)


def test_parser_never_crashes_on_mutated_lines():
    rng = random.Random(41)
    alphabet = "ab|:. 01\t-+e"
    base = "label | f1:1.0 f2 g:0.5"
    for _ in range(10_000):
        chars = list(base)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(chars))
            action = rng.random()
            if action < 0.4:
                chars[pos] = rng.choice(alphabet)
            elif action < 0.7:
                chars.insert(pos, rng.choice(alphabet))
            else:
                del chars[pos]
        line = "".join(chars)
        try:
            example = parse_example_line(line)
            assert example.y
        except ParseError:
            pass  # rejected cleanly


# --- the feature-text memo ---------------------------------------------------

def _uncached_parse(line, hash_bits):
    """parse_example_line without either cache: split every token, then hash
    each name as canonicalize reaches it, each fault as a ParseError."""
    label, tail = data._split_label(line, None)
    pairs = []
    for token in tail.split():
        name, colon, weight = token.rpartition(":")
        if not colon:
            pairs.append((weight, 1.0))
        elif not name:
            raise ParseError(f"feature name missing in {token!r}")
        else:
            try:
                pairs.append((name, float(weight)))
            except ValueError:
                raise ParseError(f"non-numeric weight {weight!r} in {token!r}") from None
    try:
        # A generator, as in from_tokens: each name is hashed only when
        # canonicalize has checked the weights before it.
        return Example(canonicalize(((hash_feature(n, hash_bits), w) for n, w in pairs),
                                    hash_bits), label)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _outcome(parse, line, hash_bits):
    """repr of the parsed example, or the text of the ParseError raised."""
    try:
        return repr(parse(line, hash_bits))
    except ParseError as exc:
        return "ParseError", str(exc)


def _fresh(caches):
    return {bits: {} for bits in caches}


_WIDE_LINES = [
    "L17 | ctx=3:0.25 grp=3:0.25 w647:0.25 w12:0.25 w9:0.25 w13001:0.25",
    "L2 | ctx=40:0.25 grp=8:0.25 w12:0.25 w647:0.25 w5:0.25 w88:0.25 w9:0.25",
    "L900 | ctx=3:0.25 grp=3:0.25 w1:0.25 w2:0.25 w3:0.25 w4:0.25 w5:0.25 w6:0.25",
]
_ODD_TOKENS = ["a", "a:", ":1", "a:b:2", "a:nan", "a:1e999", "a:0", "a:-0.0", "a:1",
               "a:-1", "b:0.5", "b:-0.5", "a:b", ":", "a::2", "w647:0.25", "w12:0.25",
               "\ud800", "\ud800:2"]  # a lone surrogate cannot be encoded, so not hashed


@st.composite
def _mutated_wide_lines(draw):
    chars = list(draw(st.sampled_from(_WIDE_LINES)))
    for _ in range(draw(st.integers(0, 5))):
        pos = draw(st.integers(0, len(chars)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        char = draw(st.sampled_from("aw|:. 01\t-+en\ud800"))
        if action == "insert" or pos == len(chars):
            chars.insert(pos, char)
        elif action == "replace":
            chars[pos] = char
        else:
            del chars[pos]
    return "".join(chars)


_TOKEN_LINES = st.lists(st.sampled_from(_ODD_TOKENS), max_size=12).map(
    lambda tokens: " ".join(["y", "|", *tokens]))


@settings(max_examples=300, deadline=None)
@given(line=st.one_of(_mutated_wide_lines(), _TOKEN_LINES),
       hash_bits=st.sampled_from([10, 18, 30, 5]))
@example(line="y | a:nan \ud800", hash_bits=18)
@example(line="y | \ud800 a:", hash_bits=18)
def test_memoized_parse_equals_parsing_without_caches(line, hash_bits):
    # The same feature text under another label must come out relabelled.
    relabelled = "other |" + line.partition("|")[2]
    expected = [_outcome(_uncached_parse, text, hash_bits) for text in (line, relabelled)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_features_memos", _fresh(data._features_memos))
        mp.setattr(features, "_index_caches", _fresh(features._index_caches))
        for _ in range(2):  # cold, then warm
            assert [_outcome(parse_example_line, text, hash_bits)
                    for text in (line, relabelled)] == expected
        # A full memo takes nothing new, and still answers what it holds.
        mp.setattr(data, "_FEATURES_MEMO_CAP", 0)
        mp.setattr(data, "_features_memos", _fresh(data._features_memos))
        assert [_outcome(parse_example_line, text, hash_bits)
                for text in (line, relabelled)] == expected
        assert not any(data._features_memos.values())


def test_memos_are_per_hash_bits():
    for bits in (30, 10, 30):
        assert parse_example_line("y | memo-bits:2", bits).x.indices == (
            hash_feature("memo-bits", bits),)


def test_faults_are_not_memoized_and_hash_bits_is_checked_with_a_warm_memo(monkeypatch):
    monkeypatch.setattr(data, "_features_memos", _fresh(data._features_memos))
    for _ in range(2):
        with pytest.raises(ParseError, match=r"^non-finite value for index \d+: nan$"):
            parse_example_line("y | b a:nan \ud800")
        with pytest.raises(ParseError, match=r"^'utf-8' codec can't encode"):
            parse_example_line("y | b \ud800 a:nan")
        with pytest.raises(ParseError, match=r"^line 4: non-numeric weight '' in 'd:'$"):
            parse_example_line("y | a:nan b d: :2", line_number=4)
    assert not data._features_memos[18]
    parse_example_line("y | a b:2")
    # The memo for 18 bits knows " a b:2" now; other hash_bits must not reach it.
    with pytest.raises(ParseError, match=r"^hash_bits must be in \[10, 30\], got 5$"):
        parse_example_line("y | a b:2", 5)
    with pytest.raises(TypeError):
        parse_example_line("y | a b:2", 18.0)


def test_second_parse_of_a_file_parses_no_features_and_shares_vectors(tmp_path, monkeypatch):
    stream = tmp_path / "stream.txt"
    stream.write_text(
        "".join(f"y{i} | memo-{i}:0.5 memo-{i + 1}:0.5 memo-shared\n" for i in range(50)),
        encoding="utf-8",
    )
    monkeypatch.setattr(data, "_features_memos", _fresh(data._features_memos))
    parsed = []
    parse = data._parse_features
    monkeypatch.setattr(data, "_parse_features",
                        lambda tail, *rest: parsed.append(tail) or parse(tail, *rest))
    first = list(read_example_file(stream))
    assert len(parsed) == len(set(parsed)) == 50
    parsed.clear()
    second = list(read_example_file(stream))
    assert parsed == []
    assert [ex.y for ex in second] == [ex.y for ex in first]
    assert all(a.x is b.x for a, b in zip(first, second))


def test_threads_sharing_the_memo_get_the_uncached_examples(monkeypatch):
    # Four threads share a memo that fills after 8 feature texts, under a
    # 1 us switch interval: any interleaving of lookups and inserts must
    # leave every example as parsing without caches makes it.
    monkeypatch.setattr(data, "_features_memos", _fresh(data._features_memos))
    monkeypatch.setattr(data, "_FEATURES_MEMO_CAP", 8)
    batches = [[f"y{j} | " + " ".join(f"t{(w * 7 + j * 3 + k) % 40}:{0.5 + k}" for k in range(6))
                for j in range(60)] for w in range(4)]
    expected = [[_uncached_parse(line, 18) for line in batch] for batch in batches]
    results = [None] * len(batches)

    def work(w):
        results[w] = [parse_example_line(line) for _ in range(5) for line in batches[w]]

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
    assert len(data._features_memos[18]) <= 8 + len(batches)
