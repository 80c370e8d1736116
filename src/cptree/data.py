"""Text-line example format: ``<label> | <feature>[:<weight>] ...``.

One example per line. The label is a single non-whitespace token, features are
whitespace-separated tokens with an optional numeric weight after the last
colon (default 1.0). Feature tokens are hashed at parse time, so downstream
consumers only ever see canonical sparse vectors.

A line's vector is a pure function of its feature text (all after the '|')
and hash_bits, so the parser memoizes it: a text seen before, as on every
line of a re-read file, costs one dict lookup and gives back the same
immutable SparseVector. A new text is parsed as without the memo.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

from .features import DEFAULT_HASH_BITS, MAX_HASH_BITS, MIN_HASH_BITS, Example
from .features import SparseVector, from_tokens


class ParseError(ValueError):
    """Malformed example line; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _split_label(line: str, line_number: int | None) -> tuple[str, str]:
    """The label of an example line and the feature text after its '|'."""
    head, sep, tail = line.partition("|")
    if not sep:
        raise ParseError("missing '|' separator", line_number)
    label_tokens = head.split()
    if not label_tokens:
        raise ParseError("empty label", line_number)
    if len(label_tokens) > 1:
        raise ParseError(f"label must be a single token, got {head!r}", line_number)
    return label_tokens[0], tail


# The feature-text memos, one per hash_bits. A full memo takes no new
# entries; one entry of a 32-token line holds about 2.8 KB, so a full memo
# of such lines about 11 MB. Entries are pure functions of their text, so
# threads that share a memo change no result.
_FEATURES_MEMO_CAP = 1 << 12
_features_memos: dict[int, dict[str, SparseVector]] = {
    bits: {} for bits in range(MIN_HASH_BITS, MAX_HASH_BITS + 1)
}


def parse_example_line(
    line: str, hash_bits: int = DEFAULT_HASH_BITS, line_number: int | None = None
) -> Example:
    label, tail = _split_label(line, line_number)
    # Any hash_bits but a usable int gets a throwaway memo, so that parsing
    # rejects it as it would without the memo.
    memo = _features_memos.get(hash_bits, {}) if type(hash_bits) is int else {}
    x = memo.get(tail)
    if x is None:
        x = _parse_features(tail, hash_bits, line_number)
        if len(memo) < _FEATURES_MEMO_CAP:
            memo[tail] = x
    return Example(x, label)


def _parse_features(tail: str, hash_bits: int, line_number: int | None) -> SparseVector:
    """The vector of a line's feature text; a fault raises ParseError."""
    pairs: list[tuple[str, float]] = []
    for token in tail.split():
        name, colon, raw_weight = token.rpartition(":")
        if not colon:  # no weight: rpartition leaves the whole token last
            name, weight = raw_weight, 1.0
        elif not name:
            raise ParseError(f"feature name missing in {token!r}", line_number)
        else:
            try:
                weight = float(raw_weight)
            except ValueError:
                raise ParseError(
                    f"non-numeric weight {raw_weight!r} in {token!r}", line_number
                ) from None
        pairs.append((name, weight))
    try:
        return from_tokens(pairs, hash_bits)
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from None


def format_example_line(label: str, features: Iterable[tuple[str, float]]) -> str:
    """The line that parse_example_line reads back as (label, features).

    A name containing ':' always carries its weight, since the parser takes
    the text after the last colon as the weight.
    """
    if label.split() != [label] or "|" in label:
        raise ValueError(f"label must be one token without '|', got {label!r}")
    parts = [label, "|"]
    for name, weight in features:
        if name.split() != [name]:
            raise ValueError(f"feature name must be one token, got {name!r}")
        if not math.isfinite(weight):
            raise ValueError(f"feature weight must be finite, got {weight!r}")
        parts.append(name if weight == 1.0 and ":" not in name else f"{name}:{weight!r}")
    return " ".join(parts)


def _numbered(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) for each line that is not blank."""
    for i, line in enumerate(lines, start=1):
        if line.strip():
            yield i, line


def read_examples(
    lines: Iterable[str], hash_bits: int = DEFAULT_HASH_BITS
) -> Iterator[Example]:
    """Parse an iterable of lines, skipping blank ones."""
    for i, line in _numbered(lines):
        yield parse_example_line(line, hash_bits, line_number=i)


def read_example_file(
    path: str | os.PathLike, hash_bits: int = DEFAULT_HASH_BITS
) -> Iterator[Example]:
    with open(path, "r", encoding="utf-8") as handle:
        yield from read_examples(handle, hash_bits)


def read_label_file(path: str | os.PathLike) -> Iterator[str]:
    """The label of each example line of the file at path, in order.

    Features are neither parsed nor hashed, so only a fault in the '|' or
    the label raises, with parse_example_line's ParseError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in _numbered(handle):
            yield _split_label(line, i)[0]
