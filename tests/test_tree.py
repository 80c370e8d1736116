import dataclasses
import gc
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptree import (
    CondProbTree,
    LinearRegressor,
    ModelConfig,
    UnknownLabelError,
    insert_direction,
    insert_objective,
    max_depth_bound,
    max_side_fraction,
    progressive_validate,
    total_depth_bound,
)
from cptree.model_io import load_model, save_model

from _support import (
    ConstantRegressor,
    check_leaf_counts,
    install_oracle_weights,
    product_bounds,
    tiny_task,
    vec,
)
from reference_cpt import ReferenceCPT


X = vec(("q", 1.0))


def grown(labels, alpha=1.0, x=X):
    tree = CondProbTree(alpha=alpha)
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
    tree = CondProbTree.balanced(["a", "b", "c", "d"])
    for node_id, weights in enumerate(tree._weights):
        if weights is not None:
            tree._bias[node_id] = 0.5  # and no weight: every node scores 1/2
    estimates = [tree.predict(X, y) for y in "abcd"]
    assert estimates == [0.25] * 4
    assert sum(estimates) == 1.0


def test_oracle_node_regressors_recover_true_conditionals():
    task = tiny_task(contexts=4, labels=8, seed=2)
    tree = CondProbTree.balanced(task.labels)
    install_oracle_weights(tree, task)
    for c in range(task.context_count):
        x = task.features[c]
        total = 0.0
        for j, y in enumerate(task.labels):
            q = tree.predict(x, y)
            assert abs(q - task.conditional[c, j]) < 1e-12
            total += q
        assert abs(total - 1.0) < 1e-9


def _trained_with_walked_values():
    """A trained tree over two contexts, and every (context, label) value of
    the path walk, which a call on a fresh copy of x gives."""
    task = tiny_task(contexts=2, labels=24, seed=3)
    tree = CondProbTree(alpha=0.5)
    for example in task.sample(600, seed=4):
        tree.learn(example.x, example.y)
    walked = {
        (c, y): tree.predict(dataclasses.replace(x), y)
        for c, x in enumerate(task.features)
        for y in tree.leaf_index
    }
    return task, tree, walked


class _Interrupting(dict):
    """A node's weight dict whose next get first runs interrupt(), as a
    thread switch inside a walk would."""

    interrupt = None

    def get(self, key, *default):
        interrupt, self.interrupt = self.interrupt, None
        if interrupt is not None:
            interrupt()
        return super().get(key, *default)


def test_predict_on_another_x_in_mid_walk_leaves_the_memo_right():
    task, tree, walked = _trained_with_walked_values()
    x, other = task.features
    labels = list(tree.leaf_index)
    target = max(labels, key=lambda y: len(tree.path_to(y)))
    deepest = tree.path_to(target)[-1][0]
    interrupting = tree._weights[deepest] = _Interrupting(tree._weights[deepest])
    interrupting.interrupt = lambda: [tree.predict(other, y) for y in labels]
    side = tree.path_to(target)[0][1]
    start = next(y for y in labels if tree.path_to(y)[0][1] != side)
    tree.predict(x, start)
    tree.predict(x, start)  # x's memo holds the products on start's path, on the root's other side
    # Mid-walk, another caller scores every label of other, replacing the memo.
    assert tree.predict(x, target) == walked[0, target]
    assert interrupting.interrupt is None
    for c, y in [(1, y) for y in labels] + [(0, y) for y in labels]:
        assert tree.predict(task.features[c], y) == walked[c, y], (c, y)


def test_concurrent_predict_callers_get_the_path_walk_values():
    # Threads share the memo: some score the same x object, others replace
    # it with their own.
    task, tree, walked = _trained_with_walked_values()
    labels = list(tree.leaf_index)
    wrong = []

    def caller(seed):
        rng = random.Random(seed)
        for _ in range(40):
            c = rng.randrange(task.context_count)
            for y in rng.sample(labels, len(labels)):
                if tree.predict(task.features[c], y) != walked[c, y]:
                    wrong.append((c, y))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# --- training --------------------------------------------------------------

def test_training_left_label_sends_zero_target_to_root():
    tree = grown(["a", "b"])
    root = tree.nodes[tree.root].reg
    raw = root.raw(X)
    tree.train_known(X, "a")
    # One step toward target 0: the bias falls by the rate times the raw.
    assert 0.0 < raw < 1.0
    assert tree.nodes[tree.root].reg.bias == root.bias + 0.1 * (0.0 - raw) < root.bias


def test_training_rightmost_label_in_balanced_four_leaf_tree():
    tree = CondProbTree.balanced(["a", "b", "c", "d"])
    tree.train_known(X, "d")
    path = {node_id for node_id, _ in tree.path_to("d")}
    # Each node on d's path scored 0.0 and stepped toward target 1 by the
    # rate; the left child is off the path and stays fresh.
    internal_biases = [(node_id in path, node.reg.bias)
                       for node_id, node in enumerate(tree.nodes) if not node.is_leaf]
    leaf_states = [(node.reg.bias, node.reg.weights) for node in tree.nodes if node.is_leaf]
    assert sorted(internal_biases) == [(False, 0.0), (True, 0.1), (True, 0.1)]
    assert leaf_states == [(0.0, {})] * 4  # no example steps a leaf, which holds no regressor
    assert tree.last_example_updates == 2


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


def test_default_balanced_tree_steps_at_rate_one_tenth():
    tree = CondProbTree.balanced(["a", "b"])
    tree.learn(X, "b")
    root = tree.nodes[tree.root].reg
    # One step from zero toward target 1: 0.1 * (1 - 0) on the bias and on q.
    assert root.bias == 0.1
    assert root.weights == {X.indices[0]: 0.1}
    assert tree.predict(X, "b") == 0.2


def test_learning_and_progressive_validation_build_no_path_list(monkeypatch):
    # Both climb from y's leaf; path_to stays for callers outside the walks.
    calls = []
    path_to = CondProbTree.path_to
    monkeypatch.setattr(CondProbTree, "path_to",
                        lambda tree, y: calls.append(y) or path_to(tree, y))
    examples = tiny_task(contexts=4, labels=16, seed=8).sample(400, seed=9)
    learned, validated = CondProbTree(alpha=0.5), CondProbTree(alpha=0.5)
    for example in examples:
        learned.learn(example.x, example.y)
    progressive_validate(examples, validated)
    assert calls == []
    assert learned.n_labels == 16 and learned.updates > 400
    assert validated.structure_signature() == learned.structure_signature()


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
    tree = CondProbTree()
    tree.learn(X, "old")
    tree.learn(X, "new")
    root = tree.nodes[tree.root]
    assert not root.is_leaf
    assert (root.n_left, root.n_right) == (1, 1)
    assert tree.nodes[root.left].label == "old"
    assert tree.nodes[root.right].label == "new"
    # The split node's fresh regressor learned (x, 1): one step of rate * v
    # from 0.0. The leaves hold none, and no example steps them.
    assert (root.reg.bias, dict(root.reg.weights)) == (0.0 + 0.1, {X.indices[0]: 0.0 + 0.1 * 1.0})
    assert tree.nodes[root.left].reg.weights == {}
    assert tree.nodes[root.right].reg.weights == {}


def test_a_grown_tree_adds_no_collected_object_per_label():
    # The nodes live in the tree's lists and a leaf holds no regressor, so a
    # label adds list entries, floats and a weight dict of ints and floats,
    # none of which the garbage collector tracks.
    xs = [vec((f"f{i}", 1.0)) for i in range(64)]
    labels = [f"y{i}" for i in range(2000)]
    tree = CondProbTree(alpha=0.5)
    gc.collect()
    before = len(gc.get_objects())
    for i, y in enumerate(labels):
        tree.learn(xs[i % len(xs)], y)
    gc.collect()
    assert len(gc.get_objects()) - before <= 20
    assert tree.n_labels == 2000 and len(tree.nodes) == 3999
    assert all(tree._weights[leaf] is None for leaf in tree.leaf_index.values())


def test_nodes_are_read_only():
    tree = grown(["a", "b"])
    root = tree.nodes[tree.root]
    with pytest.raises(AttributeError):
        root.reg = ConstantRegressor(0.5)
    with pytest.raises(AttributeError):
        root.reg.bias = 1.0
    weights, leaf = dict(root.reg.weights), tree.nodes[tree.leaf_index["a"]]
    with pytest.raises(TypeError):
        root.reg.weights[0] = 1.0
    with pytest.raises(TypeError):
        leaf.reg.weights[0] = 1.0
    assert root.reg.weights == weights == tree._weights[tree.root] and leaf.reg.weights == {}
    with pytest.raises(TypeError):
        tree.nodes[tree.root] = root
    with pytest.raises(IndexError):
        tree.nodes[3]
    assert tree.nodes[tree.root] == root and tree.nodes[-1] == tree.nodes[2]


@settings(max_examples=100, deadline=None)
@given(
    stream=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)), max_size=60),
    policy=st.sampled_from(["online", "random"]),
    alpha=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_max_depth_is_kept_by_insertion_and_by_the_loader(tmp_path_factory, stream, policy,
                                                          alpha):
    tree = CondProbTree(alpha=alpha, policy=policy, seed=7)
    for label, feature in stream:
        tree.learn(vec((f"f{feature}", 1.0)), f"y{label}")
        assert tree.max_depth == tree.depth_stats().max_depth
    path = tmp_path_factory.getbasetemp() / "depth.bin"
    save_model(path, f"cpt-{policy}", ModelConfig(alpha=alpha, seed=7), tree)
    loaded = load_model(path).estimator
    assert loaded.max_depth == loaded.depth_stats().max_depth == tree.max_depth


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
    check_leaf_counts(tree)


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


def test_a_tie_at_one_half_goes_left_and_is_no_disagreement():
    tree = grown(["a", "b"], alpha=0.5)
    tree._bias[tree.root], tree._weights[tree.root] = 0.5, {}  # the root scores 1/2
    tree.learn(X, "c")
    root = tree.nodes[tree.root]
    # At the root p = 1/2 with one leaf a side: the objective is 0, so "c"
    # goes left, which agrees with a regressor that has no preference.
    assert (root.n_left, root.n_right) == (2, 1)
    assert tree.nodes[root.right].label == "b"
    assert tree.disagreement_count == 0


def test_alpha_outside_the_unit_interval_is_rejected():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="alpha must be in"):
            CondProbTree(alpha=bad)


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


# --- inline node arithmetic -------------------------------------------------
#
# The walks score and step each node's bias and weight dict themselves. The
# reference CPT (reference_cpt.py) keeps a regressor object per node and goes
# through its raw, predict and update.

def _twin_ops(seed):
    """A stream of (op, x, y) over a few multi-feature x objects of weights
    other than 1 and a growing label set: score then learn, learn alone,
    and a score-all of one x, twice over so the second reads prefixes."""
    rng = random.Random(seed)
    xs = [vec(*((f"f{rng.randrange(12)}", rng.choice([0.25, -0.5, 0.75, 1.5]))
                for _ in range(rng.randrange(1, 5))))
          for _ in range(8)]
    ops = []
    for i in range(500):
        x = rng.choice(xs)
        y = f"y{rng.randrange(min(3 + i // 8, 40))}"
        ops.append((rng.choice(["score-learn", "score-learn", "learn", "score-all"]), x, y))
    return ops


def _reference_states(ref):
    """Each node of the reference in preorder, as _node_states gives a tree's."""
    return [(node.label, (node.reg.bias if node.reg else 0.0).hex(),
             {i: w.hex() for i, w in (node.reg.w if node.reg else {}).items()})
            for node in ref.root.preorder()]


@pytest.mark.parametrize("mode", ["cpt-online", "cpt-random", "cpt-fixed"])
def test_inline_node_arithmetic_matches_the_regressor_methods(mode):
    rate = 0.15
    if mode == "cpt-fixed":
        labels = [f"y{i}" for i in range(10)]
        tree, ref = CondProbTree.balanced(labels, rate), ReferenceCPT.balanced(labels, rate)
    else:
        tree = CondProbTree(alpha=0.5, learning_rate=rate, policy=mode[4:], seed=3)
        ref = ReferenceCPT(0.5, rate, mode[4:], seed=3)
    scores = 0
    for op, x, y in _twin_ops(seed=11):
        if op == "learn":
            asked = []
        elif op == "score-learn":
            asked = [y]
        else:
            asked = list(tree.leaf_index) * 2
        for label in asked:
            assert tree.score(x, label).hex() == ref.predict(x, label).hex(), (op, label)
        scores += len(asked)
        if op != "score-all":
            tree.learn(x, y)
            ref.learn(x, y)
    assert tree.n_labels == 40 and scores > 1000
    assert tree.structure_signature() == ref.structure_signature()
    states = _node_states(tree)
    assert [states[node_id] for node_id, _ in tree.preorder()] == _reference_states(ref)


@pytest.mark.parametrize("scored", [False, True])
def test_inline_step_of_zero_touches_no_weight(scored):
    # The split step gives the root bias 1.0, so x = g:1 then steps it by
    # exactly 0 toward "B": no weight for g may appear.
    tree = CondProbTree(learning_rate=1.0)
    g = vec(("g", 1.0))
    tree.learn(vec(), "A")
    tree.learn(vec(), "B")
    if scored:
        assert tree.score(g, "B") == 1.0
    tree.learn(g, "B")
    root = tree.nodes[tree.root].reg
    assert (root.bias, root.weights) == (1.0, {})


def test_inline_divergence_raises_where_the_regressor_methods_do():
    # The repro of the divergence test above. Over two labels the root steps
    # as a LinearRegressor stepped through the same targets does: the split
    # steps it toward 1, then each example toward its side. Both refuse the
    # same step and keep the same state.
    tree, reg = CondProbTree(learning_rate=0.5), LinearRegressor(0.5)
    x = vec(("f", 30.0))
    diverged = "regressor diverged: step .* is not finite"
    with pytest.raises(ValueError, match=diverged):
        for i in range(200):
            tree.learn(x, "AB"[i % 2])
            for y in "AB":
                tree.predict(x, y)
    with pytest.raises(ValueError, match=diverged):
        for j in range(1, 200):  # the first example makes the root a leaf
            reg.update(x, float(j % 2))
    assert i == j and tree.updates == i - 1
    # A weight may have overflowed before the refused step, so the states
    # compare by float.hex.
    assert _node_states(tree)[tree.root][1:] == (
        reg.bias.hex(), {k: w.hex() for k, w in reg.weights.items()})
    # A step that is not finite in the middle of y's path: the climb steps
    # from y's leaf up, so the node below has stepped, and the refused node
    # and the root above it are as they were.
    for scored in (False, True):
        tree = CondProbTree.balanced("abcdefgh", 0.5)
        x = vec(("f", 10.0))
        _, (mid, _), (low, _) = tree.path_to("b")
        tree._weights[mid][x.indices[0]] = 1e308  # raw(x) is inf
        before = _node_states(tree)
        if scored:
            assert tree.score(x, "b") == 0.0
        with pytest.raises(ValueError, match="regressor diverged: step -inf is not finite"):
            tree.learn(x, "b")
        after = _node_states(tree)
        assert [i for i in range(len(after)) if after[i] != before[i]] == [low]
        assert tree.updates == 0


def _node_states(tree):
    """Each node's label, bias and weights, by float.hex."""
    return [(node.label, node.reg.bias.hex(), {i: w.hex() for i, w in node.reg.weights.items()})
            for node in tree.nodes]


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


def test_balanced_tree_over_no_label_is_empty():
    tree = CondProbTree.balanced([])
    assert tree.root is None and len(tree.nodes) == 0
    stats = tree.depth_stats()
    assert (stats.n_leaves, stats.max_depth, stats.total_leaf_depth,
            stats.depth_histogram) == (0, 0, 0, {})


def test_balanced_tree_rejects_a_repeated_label():
    with pytest.raises(ValueError, match="label 'a' appears twice"):
        CondProbTree.balanced(["a", "b", "a"])


def test_balanced_tree_puts_the_larger_half_of_each_node_on_the_left():
    for n in range(1, 301):
        labels = [f"y{i}" for i in range(n)]
        tree = CondProbTree.balanced(labels)
        check_leaf_counts(tree)
        nodes = tree.nodes
        order = [nodes[node_id] for node_id, _ in tree.preorder()]
        assert [node.label for node in order if node.is_leaf] == labels
        for node in order:
            if not node.is_leaf:
                assert node.n_left == (node.n_left + node.n_right + 1) // 2, n


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
    assert stats.max_depth == max(leaf_depths.values(), default=0) == tree.max_depth
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
    check_leaf_counts(tree)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 70))
def test_preorder_of_balanced_trees(n):
    tree = CondProbTree.balanced([f"y{i}" for i in range(n)])
    _check_preorder(tree)
    check_leaf_counts(tree)


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
