"""Text-line example format: ``<label> | <feature>[:<weight>] ...``.

One example per line. The label is a single non-whitespace token, features are
whitespace-separated tokens with an optional numeric weight after the last
colon (default 1.0). Feature tokens are hashed at parse time, so downstream
consumers only ever see canonical sparse vectors.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

from .features import DEFAULT_HASH_BITS, Example, from_tokens


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


def parse_example_line(
    line: str, hash_bits: int = DEFAULT_HASH_BITS, line_number: int | None = None
) -> Example:
    label, tail = _split_label(line, line_number)
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
        x = from_tokens(pairs, hash_bits)
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from None
    return Example(x, label)


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
