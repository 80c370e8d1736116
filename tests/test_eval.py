import math
import random

import numpy as np
import pytest

from cptree import (
    CondProbTree,
    EmptyStreamError,
    Example,
    OneAgainstAll,
    TableBaseline,
    equivalent_labels,
    grid_search,
    hoeffding_halfwidth,
    progressive_validate,
)
from cptree.synthetic import (
    OracleEstimator,
    SyntheticTask,
    install_oracle_regressors,
    node_regret,
    true_regret,
)
from _support import CallRecorder, ContextRegressor, tiny_task, vec


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
    tree.nodes[target].reg = ContextRegressor(by_key)
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
