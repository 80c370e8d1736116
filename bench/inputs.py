"""Seeded input generators for the benchmark workloads.

They use numpy and the standard library only and call no cptree code, so a
change to the package's own synthetic tasks or line formatter cannot change
the inputs that a parent commit and a change are both measured on. Every
generated input carries its sha256, which the run records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def sha256_bytes(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _sample_rows(rng: np.random.Generator, cum: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw from cum[row] for each entry of rows."""
    out = np.empty(rows.size, dtype=np.int64)
    uniform = rng.random(rows.size)
    for r in np.unique(rows):
        mask = rows == r
        out[mask] = np.searchsorted(cum[r], uniform[mask], side="right")
    np.minimum(out, cum.shape[1] - 1, out=out)
    return out


@dataclass
class A10Inputs:
    """The A10 shape: Dirichlet conditionals, uniform contexts, 1 token per x."""

    labels: list[str]
    context_tokens: list[str]
    stream: list[tuple[int, str]]  # (context, label) in arrival order
    queries: list[tuple[int, str]]  # sampled (context, label) pairs
    score_all_contexts: list[int]
    sha256: dict[str, str] = field(default_factory=dict)


def a10_inputs(seed: int, contexts: int, labels: int, examples: int,
               queries: int, score_all: int) -> A10Inputs:
    rng = np.random.default_rng([seed, 10])
    table = rng.dirichlet(np.ones(labels), size=contexts)
    cum = np.cumsum(table, axis=1)
    names = [f"L{j}" for j in range(labels)]
    tokens = [f"ctx={i}" for i in range(contexts)]

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        ctx = rng.integers(0, contexts, size=m)
        return ctx, _sample_rows(rng, cum, ctx)

    s_ctx, s_lab = draw(examples)
    q_ctx, q_lab = draw(queries)
    picks = rng.choice(contexts, size=score_all, replace=False)
    inputs = A10Inputs(
        labels=names,
        context_tokens=tokens,
        stream=[(c, names[j]) for c, j in zip(s_ctx.tolist(), s_lab.tolist())],
        queries=[(c, names[j]) for c, j in zip(q_ctx.tolist(), q_lab.tolist())],
        score_all_contexts=sorted(picks.tolist()),
    )
    inputs.sha256 = {
        "table": sha256_bytes(table.astype("<f8").tobytes()),
        "stream": sha256_bytes(s_ctx.astype("<i8").tobytes() + s_lab.astype("<i8").tobytes()),
        "queries": sha256_bytes(q_ctx.astype("<i8").tobytes() + q_lab.astype("<i8").tobytes()),
        "score_all": sha256_bytes(np.asarray(inputs.score_all_contexts, "<i8").tobytes()),
    }
    return inputs


@dataclass
class WideShape:
    """Clustered labels with bag-of-words lines of fixed squared norm."""

    groups: int = 32
    labels_per_group: int = 32
    contexts_per_group: int = 8
    vocab: int = 20_000
    words: int = 30
    zipf: float = 1.1
    noise: float = 0.1
    weight: float = 0.25

    @property
    def labels(self) -> list[str]:
        return [f"L{j}" for j in range(self.groups * self.labels_per_group)]


class WideStream:
    """Text lines ``label | ctx=i:w grp=g:w w<v>:w ...``.

    Each context belongs to one label group and draws 90% of its labels from
    that group (Zipf weights, shuffled per context) and 10% uniformly. Each
    line carries its 2 context tokens plus `words` distinct words drawn by a
    Zipf law over the vocabulary and rotated by the group, all with the same
    weight, so every line has ||x||^2 = (words + 2) * weight^2.
    """

    def __init__(self, shape: WideShape, seed: int):
        self.shape = shape
        self.rng = np.random.default_rng([seed, 32])
        s = shape
        n_labels = s.groups * s.labels_per_group
        n_ctx = s.groups * s.contexts_per_group
        ranks = np.arange(1, s.labels_per_group + 1, dtype=np.float64) ** -1.0
        table = np.full((n_ctx, n_labels), s.noise / n_labels)
        for i in range(n_ctx):
            g = i % s.groups
            w = self.rng.permutation(ranks)
            table[i, g * s.labels_per_group:(g + 1) * s.labels_per_group] += (
                (1.0 - s.noise) * w / w.sum()
            )
        table /= table.sum(axis=1, keepdims=True)
        self.cum = np.cumsum(table, axis=1)
        zipf = np.arange(1, s.vocab + 1, dtype=np.float64) ** -s.zipf
        self.word_cum = np.cumsum(zipf / zipf.sum())
        self.n_ctx = n_ctx

    def _words(self) -> list[int]:
        s = self.shape
        chosen: dict[int, None] = {}
        while len(chosen) < s.words:
            draws = np.searchsorted(self.word_cum, self.rng.random(3 * s.words), side="right")
            for d in np.minimum(draws, s.vocab - 1).tolist():
                chosen.setdefault(d, None)
                if len(chosen) == s.words:
                    break
        return list(chosen)

    def lines(self, m: int) -> list[str]:
        s = self.shape
        ctx = self.rng.integers(0, self.n_ctx, size=m)
        lab = _sample_rows(self.rng, self.cum, ctx)
        w = repr(s.weight)
        shift = s.vocab // s.groups
        out = []
        for c, j in zip(ctx.tolist(), lab.tolist()):
            g = c % s.groups
            toks = [f"ctx={c}:{w}", f"grp={g}:{w}"]
            toks.extend(f"w{(d + g * shift) % s.vocab}:{w}" for d in self._words())
            out.append(f"L{j} | " + " ".join(toks))
        return out


def text_sha256(lines: list[str]) -> str:
    return sha256_bytes(("\n".join(lines) + "\n").encode("utf-8"))
