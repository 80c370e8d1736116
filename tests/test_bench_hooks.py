"""The benchmark's tracer patches cptree names by attribute; every one of
them must exist and must be put back exactly when tracing ends."""

import sys
from pathlib import Path

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
