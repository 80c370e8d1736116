import math
import random

import pytest

from cptree import ParseError, format_example_line, from_tokens, parse_example_line, read_examples
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
