"""The benchmark's tracer patches cptree names by attribute; every one of
them must exist and must be put back exactly when tracing ends. The
benchmark's reads of a tree's nodes must count what they counted."""

import sys
from pathlib import Path

from cptree import CondProbTree, KWayTree, ModelConfig, from_tokens, load_model, save_model
from cptree.synthetic import SyntheticTask

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _bench_module(name: str):
    sys.path.insert(0, BENCH)
    try:
        return __import__(name)
    finally:
        sys.path.remove(BENCH)


def _tracer():
    return _bench_module("tracing").Tracer()


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


def test_bench_tree_reads_count_internal_weights_and_every_node(tmp_path):
    # workloads reports regressor.weights_stored from every node's reg.weights
    # and tree.nodes from len(tree.nodes), on a trained and a loaded tree.
    tree_weights = _bench_module("workloads")._tree_weights
    task = SyntheticTask.random(contexts=8, labels=40, seed=3)
    tree = CondProbTree(alpha=0.5)
    for example in task.sample(600, seed=4):
        tree.learn(example.x, example.y)
    path = tmp_path / "model.bin"
    save_model(path, "cpt-online", ModelConfig(alpha=0.5), tree)
    loaded = load_model(path).estimator
    for t in (tree, loaded):
        assert tree_weights(t) == sum(len(w) for w in t._weights if w is not None) > 0
        assert len(t.nodes) == 2 * t.n_labels - 1 == 79
    assert tree_weights(loaded) == tree_weights(tree)
