import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptree import (
    CondProbTree,
    CorruptTreeError,
    UnknownLabelError,
    insert_direction,
    insert_objective,
    max_depth_bound,
    max_side_fraction,
    total_depth_bound,
)
from cptree.synthetic import install_oracle_regressors

from _support import ConstantRegressor, product_bounds, tiny_task, vec


X = vec(("q", 1.0))


def grown(labels, alpha=1.0, factory=None, x=X):
    tree = CondProbTree(alpha=alpha, regressor_factory=factory)
    for y in labels:
        tree.learn(x, y)
    return tree


# --- paths -----------------------------------------------------------------

def test_path_of_single_label_is_empty():
    tree = grown(["only"])
    assert tree.path_to("only") == []


def test_path_in_two_leaf_tree():
    tree = grown(["a", "b"])
    assert tree.path_to("b") == [(tree.root, 1)]
    assert tree.path_to("a") == [(tree.root, 0)]


def test_path_to_leftmost_in_balanced_four_leaf_tree():
    tree = CondProbTree.balanced(["a", "b", "c", "d"])
    directions = [step for _, step in tree.path_to("a")]
    assert directions == [0, 0]
    assert len(tree.path_to("d")) == 2


def test_unknown_label_raises_in_path_and_train():
    tree = grown(["a", "b"])
    with pytest.raises(UnknownLabelError):
        tree.path_to("zzz")
    with pytest.raises(UnknownLabelError):
        tree.train_known(X, "zzz")


# --- prediction ------------------------------------------------------------

def test_single_label_tree_predicts_one():
    tree = grown(["only"])
    assert tree.predict(X, "only") == 1.0


def test_unknown_label_scores_zero():
    tree = grown(["a", "b"])
    assert tree.predict(X, "zzz") == 0.0


def test_uninformative_nodes_give_uniform_estimates():
    tree = CondProbTree.balanced(
        ["a", "b", "c", "d"], regressor_factory=lambda: ConstantRegressor(0.5)
    )
    estimates = [tree.predict(X, y) for y in "abcd"]
    assert estimates == [0.25] * 4
    assert sum(estimates) == 1.0


def test_oracle_node_regressors_recover_true_conditionals():
    task = tiny_task(contexts=4, labels=8, seed=2)
    tree = CondProbTree.balanced(task.labels)
    install_oracle_regressors(tree, task)
    for c in range(task.context_count):
        x = task.features[c]
        total = 0.0
        for j, y in enumerate(task.labels):
            q = tree.predict(x, y)
            assert abs(q - task.conditional[c, j]) < 1e-12
            total += q
        assert abs(total - 1.0) < 1e-9


# --- training --------------------------------------------------------------

def test_training_left_label_sends_zero_target_to_root():
    tree = grown(["a", "b"], factory=lambda: ConstantRegressor(0.0))
    root_reg = tree.nodes[tree.root].reg
    root_reg.targets.clear()
    tree.train_known(X, "a")
    assert root_reg.targets == [0.0]


def test_training_rightmost_label_in_balanced_four_leaf_tree():
    tree = CondProbTree.balanced(
        ["a", "b", "c", "d"], regressor_factory=lambda: ConstantRegressor(0.0)
    )
    tree.train_known(X, "d")
    internal_targets = [
        t
        for node in tree.nodes
        if not node.is_leaf
        for t in node.reg.targets
    ]
    leaf_targets = [
        t for node in tree.nodes if node.is_leaf for t in node.reg.targets
    ]
    assert internal_targets == [1.0, 1.0]
    assert leaf_targets == [0.0]
    assert tree.last_example_updates == 3


def test_repeated_training_raises_the_label_estimate_monotonically():
    tree = grown(["a", "b", "c", "d"], alpha=1.0)
    x = vec(("ctx", 1.0))
    last = tree.predict(x, "c")
    for _ in range(400):
        tree.train_known(x, "c")
        cur = tree.predict(x, "c")
        assert cur >= last - 1e-12
        last = cur
    assert last > 0.99


# --- insertion rule --------------------------------------------------------

def test_objective_is_zero_at_symmetry_and_ties_go_left():
    for alpha in (0.1, 0.5, 1.0):
        assert insert_objective(0.5, 7, 7, alpha) == 0.0
        assert insert_direction(0.5, 7, 7, alpha) == 0


def test_objective_balances_perfectly_at_alpha_one():
    assert insert_objective(0.9, 4, 2, 1.0) == 1.0
    assert insert_direction(0.9, 4, 2, 1.0) == 1  # toward the smaller side


def test_objective_hand_value():
    assert insert_objective(1.0, 1, 1, 0.5) == 0.5
    assert insert_direction(1.0, 1, 1, 0.5) == 1


def test_forced_direction_under_imbalance():
    # Once one side holds more than the occupancy fraction, the next label is
    # forced to the other side no matter what the regressor says.
    rng = random.Random(9)
    for _ in range(2000):
        alpha = rng.choice([0.1, 0.3, 0.6, 0.9, 1.0])
        kappa = max_side_fraction(alpha)
        total = rng.randrange(2, 500)
        right = rng.randrange(1, total)
        left = total - right
        if right / total > kappa:
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert insert_direction(p, left, right, alpha) == 0
        if left / total > kappa:
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert insert_direction(p, left, right, alpha) == 1


def test_first_label_forms_bare_root_leaf():
    tree = CondProbTree()
    tree.learn(X, "first")
    assert tree.n_labels == 1
    assert tree.nodes[tree.root].is_leaf
    assert tree.max_depth == 0


def test_second_label_splits_root_old_left_new_right():
    factory_calls = []

    def factory():
        reg = ConstantRegressor(0.0)
        factory_calls.append(reg)
        return reg

    tree = CondProbTree(regressor_factory=factory)
    tree.learn(X, "old")
    tree.learn(X, "new")
    root = tree.nodes[tree.root]
    assert not root.is_leaf
    assert (root.n_left, root.n_right) == (1, 1)
    assert tree.nodes[root.left].label == "old"
    assert tree.nodes[root.right].label == "new"
    # The promoted node's regressor received (x, 1) after being copied left.
    assert root.reg.targets[-1] == 1.0
    assert tree.nodes[root.left].reg.targets == []
    assert tree.nodes[root.right].reg.targets == [0.0]


def test_alpha_one_builds_perfectly_balanced_trees():
    rng = random.Random(10)
    for n in (3, 7, 16, 64, 100, 1024):
        tree = CondProbTree(alpha=1.0)
        for i in range(n):
            x = vec((f"f{rng.randrange(6)}", rng.uniform(-2, 2)))
            tree.learn(x, f"y{i}")
        assert tree.depth_stats().max_depth == math.ceil(math.log2(n))


def test_alpha_one_shape_ignores_features():
    labels = [f"y{i}" for i in range(33)]
    rng = random.Random(11)
    shapes = []
    for trial in range(2):
        tree = CondProbTree(alpha=1.0)
        for y in labels:
            x = vec((f"f{rng.randrange(20)}", rng.uniform(-3, 3)))
            tree.learn(x, y)
        shapes.append(tree.structure_signature())
    assert shapes[0] == shapes[1]


def test_random_policy_stream_keeps_one_leaf_per_label():
    rng = random.Random(12)
    tree = CondProbTree(policy="random", seed=99)
    labels = [f"y{i}" for i in range(40)]
    for _ in range(600):
        tree.learn(vec((f"f{rng.randrange(5)}", 1.0)), rng.choice(labels))
    assert tree.n_labels == len({y for y in labels})
    tree.depth_stats()  # recount must agree


def test_side_occupancy_bound_nonstrict():
    # Provable form of the per-node occupancy invariant: after every
    # insertion each internal node satisfies L, R <= kN + (1 - k). Equality
    # is reached whenever a tie splits a node sitting exactly at the
    # boundary (every balanced node at alpha = 1), so the strict form is
    # unattainable; acceptance gate A05 asserts the same tight bound and
    # requires that it is reached.
    rng = random.Random(13)
    for _ in range(800):
        alpha = rng.choice([0.1, 0.3, 0.6, 0.9, 1.0])
        kappa = max_side_fraction(alpha)
        tree = CondProbTree(alpha=alpha)
        adversarial = rng.random() < 0.5
        fixed = vec(("adv", 1.0))
        for i in range(rng.randrange(3, 40)):
            x = fixed if adversarial else vec((f"f{rng.randrange(4)}", rng.uniform(-2, 2)))
            tree.learn(x, f"y{i}")
            for node_id in tree.last_insert_path:
                node = tree.nodes[node_id]
                total = node.n_left + node.n_right
                cap = kappa * total + (1.0 - kappa)
                # The 1e-9 slack absorbs rounding in cap only (alpha = 0.5,
                # N = 7 gives 4.999999999999999 for a side of 5). Leaf counts
                # are integers, so it cannot hide a real violation.
                assert node.n_left <= cap + 1e-9 and node.n_right <= cap + 1e-9


def test_disagreements_never_exceed_total_leaf_depth():
    rng = random.Random(14)
    for trial in range(50):
        alpha = rng.choice([0.3, 0.6, 0.9])
        tree = CondProbTree(alpha=alpha)
        for i in range(rng.randrange(5, 60)):
            tree.learn(vec((f"f{rng.randrange(3)}", rng.uniform(-2, 2))), f"y{i}")
        assert tree.disagreement_count <= tree.depth_stats().total_leaf_depth


def test_per_example_update_budget():
    rng = random.Random(15)
    tree = CondProbTree(alpha=0.6)
    kappa = max_side_fraction(0.6)
    labels = [f"y{i}" for i in range(150)]
    for step in range(2000):
        y = rng.choice(labels) if rng.random() < 0.7 else f"y{rng.randrange(150)}"
        tree.learn(vec((f"f{rng.randrange(6)}", 1.0)), y)
        if tree.n_labels >= 2:
            assert tree.last_example_updates <= max_depth_bound(tree.n_labels, kappa) + 1


def test_diverging_learning_raises_before_any_prediction_leaves_unit_interval():
    # eta 0.5 on a feature of weight 30 multiplies each error by -449.5.
    tree = CondProbTree(learning_rate=0.5)
    x = vec(("f", 30.0))
    with pytest.raises(ValueError, match="regressor diverged"):
        for i in range(200):
            tree.learn(x, "AB"[i % 2])
            for y in "AB":
                assert 0.0 <= tree.predict(x, y) <= 1.0


# --- structural statistics ---------------------------------------------------

def test_depth_stats_of_single_leaf():
    tree = grown(["a"])
    stats = tree.depth_stats()
    assert (stats.n_leaves, stats.max_depth, stats.total_leaf_depth) == (1, 0, 0)


def test_depth_stats_of_perfect_four_leaf_tree():
    tree = CondProbTree.balanced(["a", "b", "c", "d"])
    stats = tree.depth_stats()
    assert stats.max_depth == 2
    assert stats.total_leaf_depth == 8
    assert stats.depth_histogram == {2: 4}


def test_depth_stats_detects_corrupted_counts():
    tree = grown(["a", "b", "c", "d", "e"])
    root = tree.nodes[tree.root]
    root.n_left += 1
    with pytest.raises(CorruptTreeError):
        tree.depth_stats()


def _check_preorder(tree):
    order = tree.preorder()
    assert sorted(node_id for node_id, _ in order) == list(range(len(tree.nodes)))
    position = {node_id: pos for pos, (node_id, _) in enumerate(order)}
    depth = dict(order)
    for node_id, d in order:
        node = tree.nodes[node_id]
        if node.parent is None:
            assert node_id == tree.root and d == 0
        else:
            assert position[node.parent] < position[node_id]
            assert d == depth[node.parent] + 1
        if not node.is_leaf:
            # The left subtree fills the positions right after its parent; a
            # subtree with n leaves has 2n - 1 nodes, then the right child.
            assert position[node.left] == position[node_id] + 1
            assert position[node.right] == position[node_id] + 2 * node.n_left
    leaf_depths = {y: len(tree.path_to(y)) for y in tree.leaf_index}
    assert leaf_depths == {y: depth[leaf] for y, leaf in tree.leaf_index.items()}
    stats = tree.depth_stats()
    assert stats.max_depth == max(leaf_depths.values(), default=0)
    assert stats.total_leaf_depth == sum(leaf_depths.values())
    assert stats.depth_histogram == Counter(leaf_depths.values())


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)), max_size=80),
    policy=st.sampled_from(["online", "random"]),
    alpha=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_preorder_of_grown_trees(stream, policy, alpha):
    tree = CondProbTree(alpha=alpha, policy=policy, seed=7)
    for label, feature in stream:
        tree.learn(vec((f"f{feature}", 1.0)), f"y{label}")
    _check_preorder(tree)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 70))
def test_preorder_of_balanced_trees(n):
    _check_preorder(CondProbTree.balanced([f"y{i}" for i in range(n)]))


# --- bounds -----------------------------------------------------------------

def test_side_fraction_values():
    assert max_side_fraction(1.0) == 0.5
    assert math.isclose(max_side_fraction(0.5), 2.0 / 3.0, abs_tol=1e-15)
    assert max_side_fraction(1e-3) > 0.999  # approaches 1 as alpha -> 0
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            max_side_fraction(bad)


def test_depth_bound_values():
    assert max_depth_bound(1024, 0.5) == 12.0
    assert max_depth_bound(2, 0.5) == 3.0
    assert math.isclose(max_depth_bound(729, 2.0 / 3.0), 18.257067748, abs_tol=1e-6)
    with pytest.raises(ValueError):
        max_depth_bound(1, 0.5)


def test_total_depth_bound_values():
    assert math.isclose(total_depth_bound(2, 0.5), 2.0, abs_tol=1e-12)
    assert math.isclose(total_depth_bound(16, 0.5), 64.0, abs_tol=1e-9)
    assert math.isclose(total_depth_bound(9, 2.0 / 3.0), 31.067684241, abs_tol=1e-5)
    with pytest.raises(ValueError):
        total_depth_bound(16, 0.2)


def test_product_error_bounds_on_random_paths():
    # Chained estimates: the product error is bounded by the tight slab sum,
    # the loose additive sum, and depth^2 times the mean squared step error.
    rng = np.random.default_rng(16)
    for _ in range(2000):
        d = int(rng.integers(1, 8))
        p = rng.uniform(0, 1, size=d)
        q = rng.uniform(0, 1, size=d)
        gap, tight, loose = product_bounds(p, q)
        assert gap <= tight + 1e-12
        assert tight <= loose + 1e-12
        assert gap**2 <= d**2 * float(np.mean((q - p) ** 2)) + 1e-12
