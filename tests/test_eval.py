import dataclasses
import math
import random

import numpy as np
import pytest

from cptree import (
    CondProbTree,
    EmptyStreamError,
    Example,
    KWayTree,
    LinearRegressor,
    OneAgainstAll,
    TableBaseline,
    equivalent_labels,
    grid_search,
    hoeffding_halfwidth,
    progressive_validate,
)
from cptree import pecoc
from cptree.features import SparseVector
from cptree.regressor import RegressorBlock
from cptree.synthetic import (
    OracleEstimator,
    SyntheticTask,
    install_oracle_regressors,
    node_regret,
    true_regret,
)
from _support import CallRecorder, ContextRegressor, count_calls, tiny_task, vec


class FixedScore:
    def __init__(self, value):
        self.value = value
        self.updates = 0

    def score(self, x, y):
        return self.value

    def learn(self, x, y):
        pass


def toy_stream(m=10):
    return [Example(vec(("a", 1.0)), "y") for _ in range(m)]


# --- progressive validation -------------------------------------------------

def test_perfect_scorer_has_zero_loss():
    report = progressive_validate(toy_stream(), FixedScore(1.0))
    assert report.mean_sq_loss == 0.0
    assert report.equivalent == 1.0


def test_null_scorer_has_unit_loss():
    report = progressive_validate(toy_stream(), FixedScore(0.0))
    assert report.mean_sq_loss == 1.0
    assert math.isinf(report.equivalent)


def test_empty_stream_is_an_error():
    with pytest.raises(EmptyStreamError):
        progressive_validate([], FixedScore(1.0))


def test_every_example_is_scored_before_it_is_learned():
    recorder = CallRecorder()
    progressive_validate(toy_stream(25), recorder)
    assert recorder.calls == ["score", "learn"] * 25


def test_freeze_disables_learning():
    recorder = CallRecorder()
    progressive_validate(toy_stream(10), recorder, learn=False)
    assert recorder.calls == ["score"] * 10


def counted_evaluations(calls: list[int]):
    """A regressor factory whose LinearRegressors count, in calls[0], the
    one-argument get calls on their weights: a node evaluation, whether the
    tree computes it inline or through raw, makes one per feature of x. A
    step's get(i, 0.0) is not counted."""

    class Weights(dict):
        def get(self, key, *default):
            if not default:
                calls[0] += 1
            return super().get(key, *default)

    def factory():
        reg = LinearRegressor()
        reg.weights = Weights()
        return reg

    return factory


def test_tree_learns_from_the_raw_values_its_score_computed():
    # One raw per node on y's path, taken by score and reused by learn, or
    # taken by insertion's descent: as many raws as updates per example.
    stream = tiny_task(contexts=4, labels=12, seed=5).sample(400, seed=6)
    calls = [0]
    tree = CondProbTree(alpha=0.5, regressor_factory=counted_evaluations(calls))
    seen = []

    def watched():
        for example in stream:
            start = calls[0]
            yield example
            seen.append(((calls[0] - start) / len(example.x.indices), tree.last_example_updates))

    progressive_validate(watched(), tree)
    assert len(seen) == 400 and tree.n_labels == 12
    assert sum(raws for raws, _ in seen) > 0
    assert all(raws == updates for raws, updates in seen), seen


def test_kway_tree_learns_from_the_raw_values_its_score_computed(monkeypatch):
    task = tiny_task(contexts=4, labels=12, seed=5)
    stream = task.sample(300, seed=6)
    tree = KWayTree(task.labels, 4)
    for example in stream:  # every node on a label's path now has regressors
        tree.learn(example.x, example.y)
    updates = tree.updates
    # One evaluation of each node on y's path, taken by score and reused by
    # learn, for the k - 1 updates at that node.
    calls = count_calls(monkeypatch, RegressorBlock, "raws")
    progressive_validate(stream, tree)
    assert calls[0] * (tree.k - 1) == tree.updates - updates == 300 * 3 * tree.depth


def test_tree_scores_every_label_of_one_x_with_each_node_evaluated_once():
    # The first predict on an x walks its label's path; later ones on the
    # same x object evaluate each internal node at most once between them.
    task = tiny_task(contexts=4, labels=24, seed=5)
    calls = [0]
    tree = CondProbTree(alpha=0.5, regressor_factory=counted_evaluations(calls))
    for example in task.sample(600, seed=6):
        tree.learn(example.x, example.y)
    n = tree.n_labels
    x = task.features[1]
    start = calls[0]
    scores = [tree.predict(x, y) for y in tree.leaf_index]
    evaluations = (calls[0] - start) / len(x.indices)
    assert n == 24 and abs(math.fsum(scores) - 1.0) <= 1e-12
    assert 0 < evaluations <= n - 1 + tree.max_depth


def counted_tree(calls: list[int]) -> tuple[SyntheticTask, CondProbTree]:
    task = tiny_task(contexts=4, labels=24, seed=5)
    tree = CondProbTree(alpha=0.5, regressor_factory=counted_evaluations(calls))
    for example in task.sample(600, seed=6):
        tree.learn(example.x, example.y)
    return task, tree


def fresh(x: SparseVector) -> SparseVector:
    """An equal x that no memo has seen."""
    return SparseVector(x.indices, x.values, x.hash_bits)


def test_tree_second_call_on_an_x_evaluates_at_most_its_label_path():
    # The dict starts from the root alone, whose subtree it has not paid for.
    calls = [0]
    task, tree = counted_tree(calls)
    labels = list(tree.leaf_index)
    for first in labels[:3]:
        for y in labels:
            x = fresh(task.features[2])
            tree.predict(x, first)
            start = calls[0]
            tree.predict(x, y)
            assert (calls[0] - start) / len(x.indices) <= len(tree.path_to(y))


def test_tree_call_evaluates_at_most_its_path_or_the_dict_entries_before_it():
    calls = [0]
    task, tree = counted_tree(calls)
    n, rng, filled = tree.n_labels, random.Random(7), 0
    for round_ in range(6):
        labels = list(tree.leaf_index)
        rng.shuffle(labels)
        x = fresh(task.features[round_ % 4])
        begin = calls[0]
        for y in labels:
            memo = tree._memo
            stored = len(memo[2]) if memo and memo[0] is x and len(memo) == 3 else 1
            start = calls[0]
            tree.predict(x, y)
            evaluations = (calls[0] - start) / len(x.indices)
            path = len(tree.path_to(y))
            assert evaluations <= max(path, stored)
            filled += evaluations > path
        assert (calls[0] - begin) / len(x.indices) <= n - 1 + tree.max_depth
    assert filled  # some call filled a subtree off its label's path


def test_tree_fills_a_subtree_that_the_dict_has_paid_for():
    calls = [0]
    task, tree = counted_tree(calls)
    x = task.features[1]
    labels = list(tree.leaf_index)
    tree.predict(x, labels[0])
    for y in labels[1:]:
        prefix = tree._memo[2] if len(tree._memo) == 3 else {tree.root: 1.0}
        cur = tree.nodes[tree.leaf_index[y]].parent
        while cur not in prefix:
            cur = tree.nodes[cur].parent
        node = tree.nodes[cur]
        leaves, stored = node.n_left + node.n_right, len(prefix)
        tree.predict(x, y)
        if 3 <= leaves <= stored:
            break
    else:
        pytest.fail("no label's nearest stored node had a subtree the dict paid for")
    under = [z for z in labels if cur in {node_id for node_id, _ in tree.path_to(z)}]
    assert len(under) == leaves
    start = calls[0]
    scores = [tree.predict(x, z).hex() for z in under]
    assert calls[0] == start
    # Filled products are the ones a first call's path walk gives, bit for bit.
    assert scores == [tree.predict(fresh(x), z).hex() for z in under]


def test_kway_tree_scores_every_label_of_one_x_with_each_node_evaluated_once(monkeypatch):
    task = tiny_task(contexts=4, labels=12, seed=5)
    tree = KWayTree(task.labels, 4)
    for example in task.sample(300, seed=6):
        tree.learn(example.x, example.y)
    internal = {step[:2] for slot in tree.label_map.values() for step in tree._path(slot)}
    calls = count_calls(monkeypatch, RegressorBlock, "raws")
    for y in tree.label_map:
        tree.score(task.features[1], y)
    assert len(internal) == 4  # the root and the 3 children its 12 labels fill
    assert calls[0] <= len(internal)


def test_kway_tree_decodes_each_child_of_one_x_once(monkeypatch):
    task = tiny_task(contexts=4, labels=12, seed=5)
    tree = KWayTree(task.labels, 4)
    for example in task.sample(300, seed=6):
        tree.learn(example.x, example.y)
    children = {step for slot in tree.label_map.values() for step in tree._path(slot)}
    x = task.features[1]
    expected = [tree.score(dataclasses.replace(x), y).hex() for y in tree.label_map]
    calls = count_calls(monkeypatch, pecoc, "decode_probability")
    scores = [tree.score(x, y).hex() for y in tree.label_map]
    assert len(children) == 3 + 12  # the root's 3 filled children, then the 12 labels
    assert calls[0] <= len(children) and scores == expected
    # learn changes the rows and clears the memo: the same x object decodes again.
    tree.learn(x, task.labels[3])
    expected = [tree.score(dataclasses.replace(x), y).hex() for y in tree.label_map]
    start = calls[0]
    assert [tree.score(x, y).hex() for y in tree.label_map] == expected != scores
    assert 0 < calls[0] - start <= len(children)


def test_oracle_loss_matches_closed_form_within_ci():
    task = SyntheticTask.random(contexts=6, labels=10, seed=31)
    report = progressive_validate(task.sample(20_000, seed=32), OracleEstimator(task))
    assert abs(report.mean_sq_loss - task.oracle_score_loss()) <= report.ci_halfwidth


# --- interval and equivalent-labels helpers ----------------------------------

def test_hoeffding_values():
    assert math.isclose(hoeffding_halfwidth(20_000, 0.05), 0.0096032279, abs_tol=1e-9)
    assert math.isclose(hoeffding_halfwidth(10_000_000, 0.05), 0.0004294694, abs_tol=1e-9)


def test_hoeffding_quadruple_sample_halves_width():
    for m in (13, 500, 20_000):
        assert hoeffding_halfwidth(4 * m) == hoeffding_halfwidth(m) / 2


def test_hoeffding_domain():
    with pytest.raises(ValueError):
        hoeffding_halfwidth(0)
    with pytest.raises(ValueError):
        hoeffding_halfwidth(10, 1.5)


def test_equivalent_labels_reference_values():
    expected = {
        0.812: 10.11,
        0.7742: 8.32,
        0.7725: 8.25,
        0.7632: 7.91,
        0.665: 5.42,
    }
    for loss, value in expected.items():
        assert abs(equivalent_labels(loss) - value) <= 0.01


def test_equivalent_labels_edges():
    assert equivalent_labels(0.0) == 1.0
    for bad in (1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            equivalent_labels(bad)


# --- exact regret ------------------------------------------------------------

def test_true_regret_of_oracle_is_zero():
    task = tiny_task(contexts=5, labels=7, seed=33)
    assert true_regret(OracleEstimator(task), task) == 0.0


def test_true_regret_of_single_cell_perturbation():
    task = tiny_task(contexts=4, labels=6, seed=34)
    delta = 0.05

    class OffByDelta(OracleEstimator):
        def score(self, x, y):
            q = super().score(x, y)
            if self.task.context_of(x) == 2 and y == self.task.labels[3]:
                return q + delta
            return q

    expected = float(task.context_probs[2] * task.conditional[2, 3]) * delta**2
    assert math.isclose(true_regret(OffByDelta(task), task), expected, abs_tol=1e-15)


def test_true_regret_of_tree_with_oracle_nodes():
    task = tiny_task(contexts=4, labels=8, seed=35)
    tree = CondProbTree.balanced(task.labels)
    install_oracle_regressors(tree, task)
    assert true_regret(tree, task) < 1e-12


def test_node_regret_zero_for_oracle_nodes():
    task = tiny_task(contexts=4, labels=8, seed=36)
    tree = CondProbTree.balanced(task.labels)
    install_oracle_regressors(tree, task)
    assert all(v < 1e-18 for v in node_regret(tree, task).values())


def test_node_regret_zero_for_uniform_task_with_half_regressors():
    task = SyntheticTask(
        labels=["a", "b", "c", "d"],
        context_tokens=[["c0"], ["c1"]],
        conditional=np.full((2, 4), 0.25),
        context_probs=np.array([0.5, 0.5]),
    )
    tree = CondProbTree.balanced(task.labels)
    install_oracle_regressors(tree, task)  # every conditional is exactly 1/2
    for node_id, regret in node_regret(tree, task).items():
        assert regret == 0.0
        probs = tree.nodes[node_id].reg.right_probs
        assert np.allclose(probs, 0.5)


@pytest.mark.parametrize(
    "conditional, context_probs",
    [([[0.5, 0.5], [1.25, -0.25]], [0.5, 0.5]), ([[0.5, 0.5], [0.5, 0.5]], [1.5, -0.5])],
    ids=["conditional", "context-probs"],
)
def test_synthetic_task_rejects_a_negative_probability(conditional, context_probs):
    # Each row and the context weights still sum to 1.
    with pytest.raises(ValueError, match="negative"):
        SyntheticTask(["a", "b"], [["c0"], ["c1"]], conditional, context_probs)


def test_node_regret_of_unreachable_subtree_is_zero():
    # Labels c and d have zero mass everywhere, so the node above them is
    # never reached and its regret is defined as 0.
    task = SyntheticTask(
        labels=["a", "b", "c", "d"],
        context_tokens=[["c0"], ["c1"]],
        conditional=np.array([[0.6, 0.4, 0.0, 0.0], [0.3, 0.7, 0.0, 0.0]]),
        context_probs=np.array([0.5, 0.5]),
    )
    tree = CondProbTree.balanced(task.labels)
    install_oracle_regressors(tree, task)
    regrets = node_regret(tree, task)
    dead_leaf = tree.leaf_index["c"]
    dead_node = tree.nodes[dead_leaf].parent
    assert regrets[dead_node] == 0.0


def test_node_regret_localizes_a_perturbation():
    task = SyntheticTask(
        labels=["a", "b", "c", "d"],
        context_tokens=[["c0"], ["c1"]],
        conditional=np.full((2, 4), 0.25),
        context_probs=np.array([0.5, 0.5]),
    )
    tree = CondProbTree.balanced(task.labels)
    install_oracle_regressors(tree, task)
    delta = 0.1
    target = tree.root
    by_key = {
        task.features[c].key_bytes(): 0.5 + delta for c in range(task.context_count)
    }
    tree.set_regressor(target, ContextRegressor(by_key))
    regrets = node_regret(tree, task)
    assert math.isclose(regrets[target], delta**2, abs_tol=1e-15)
    for node_id, regret in regrets.items():
        if node_id != target:
            assert regret == 0.0


# --- baselines -----------------------------------------------------------------

def test_table_baseline_matches_brute_force_counts():
    rng = random.Random(37)
    xs = [vec((f"ctx{i}", 1.0)) for i in range(5)]
    labels = ["u", "v", "w"]
    for _ in range(1000):
        table = TableBaseline()
        stream = [
            (rng.choice(xs), rng.choice(labels)) for _ in range(rng.randrange(1, 30))
        ]
        for x, y in stream:
            table.learn(x, y)
        x, y = rng.choice(xs), rng.choice(labels)
        seen = [(a.key_bytes(), b) for a, b in stream]
        hits = seen.count((x.key_bytes(), y))
        total = sum(1 for k, _ in seen if k == x.key_bytes())
        expected = hits / total if total else 0.0
        assert table.score(x, y) == expected


def test_table_baseline_unseen_pair_scores_zero():
    table = TableBaseline()
    table.learn(vec(("p", 1.0)), "u")
    assert table.score(vec(("p", 1.0)), "other") == 0.0
    assert table.score(vec(("q", 1.0)), "u") == 0.0


def test_one_against_all_touches_every_known_label():
    rng = random.Random(38)
    oaa = OneAgainstAll(0.1)
    labels = [f"y{i}" for i in range(30)]
    for step in range(400):
        y = rng.choice(labels)
        before = oaa.updates
        oaa.learn(vec(("f", 1.0)), y)
        assert oaa.updates - before == len(oaa.regressors)


def test_one_against_all_scores_with_the_label_regressor():
    oaa = OneAgainstAll(0.5)
    x = vec(("f", 1.0))
    for _ in range(200):
        oaa.learn(x, "hot")
    assert oaa.score(x, "hot") > 0.95
    assert oaa.score(x, "never") == 0.0


# --- grid search -----------------------------------------------------------------

def test_grid_search_single_point():
    task = tiny_task(contexts=3, labels=4, seed=39)
    best, reports = grid_search(
        lambda eta: OneAgainstAll(eta), [{"eta": 0.1}], task.sample(50, seed=40)
    )
    assert best == {"eta": 0.1}
    assert len(reports) == 1


def test_grid_search_finds_the_fast_learning_rate():
    # Deterministic per-context labels; eta = 0.5 makes each node update land
    # exactly on its target for unit one-hot inputs, so it dominates a tiny
    # rate on progressive loss.
    xs = [vec(("c0", 1.0)), vec(("c1", 1.0))]
    stream = [Example(xs[i % 2], f"L{i % 2}") for i in range(400)]
    grid = [{"eta": 0.01}, {"eta": 0.5}, {"eta": 0.05}]
    best, reports = grid_search(
        lambda eta: CondProbTree(alpha=1.0, learning_rate=eta), grid, stream
    )
    assert best == {"eta": 0.5}
    assert len(reports) == len(grid)
    assert min(r.mean_sq_loss for r in reports) == reports[1].mean_sq_loss


def test_grid_search_tie_break_prefers_earlier_entry():
    stream = toy_stream(5)
    best, reports = grid_search(
        lambda value: FixedScore(value), [{"value": 1.0}, {"value": 1.0}], stream
    )
    assert best == {"value": 1.0}
    assert reports[0].mean_sq_loss == reports[1].mean_sq_loss


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ValueError):
        grid_search(lambda: None, [], toy_stream())
