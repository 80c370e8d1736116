"""The benchmark's tracer patches cptree names by attribute; every one of
them must exist and must be put back exactly when tracing ends."""

import sys
from pathlib import Path

from cptree import KWayTree, from_tokens

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _tracer():
    sys.path.insert(0, BENCH)
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(BENCH)
    return Tracer()


def test_tracer_uninstall_restores_every_patched_attribute():
    tracer = _tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original, wrapper in patches:
            assert vars(owner)[attr] is wrapper is not original
    finally:
        tracer.uninstall()
    for owner, attr, original, _ in patches:
        assert vars(owner)[attr] is original


def test_kway_scores_decode_through_the_patched_module_function():
    # The traced pecoc.decode_* metrics count calls of the module global; a
    # decode that bypassed it would read as zero decodes.
    tree = KWayTree(["A", "B", "C"], 4)
    x = from_tokens([("f", 1.0)])
    tree.learn(x, "B")
    tracer = _tracer()
    tracer.install()
    try:
        tree.score(x, "B")
    finally:
        tracer.uninstall()
    assert tracer.cur["pecoc.decode"][0] == 1
