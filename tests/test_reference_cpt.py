"""Differential tests: CondProbTree against the reference CPT of reference_cpt.py.

Random streams over up to 40 labels and 1-4 features, for every alpha of the
grid and both policies. After every example the two trees must have updated
the same number of regressors; at the end they must have the same shape,
the same regressor state node by node and bit-identical predictions.
KWayTree and PecocModel, whose nodes store their rows as one block, are
checked the same way against twins whose nodes are separate regressors, on
those streams and on streams of up to 24 features per x.
"""

import dataclasses
import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptree import (
    CondProbTree,
    KWayTree,
    ModelConfig,
    PecocModel,
    from_tokens,
    load_model,
    save_model,
)

from _support import RowListKWayTree, RowListPecocModel, row_state
from reference_cpt import ReferenceCPT, Regressor

ETA = 0.1
VALUES = (None, -1.5, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0)  # None: feature absent


def features(code: int, n_features: int):
    """Feature j takes VALUES[digit j of code in base 8]; at least one is set.

    One integer per x keeps generation cheap. With |v| <= 2 on at most 4
    features the step eta * (|x|^2 + 1) stays below 2, so learning converges.
    """
    digits = [code // 8**j % 8 for j in range(n_features)]
    return from_tokens([(f"f{j}", VALUES[d]) for j, d in enumerate(digits) if d])


@st.composite
def streams(draw):
    n_labels = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    length = draw(st.integers(1, 120))  # drawn first, so long streams are common
    example = st.tuples(st.integers(1, 8**n_features - 1), st.integers(0, n_labels - 1))
    stream = draw(st.lists(example, min_size=length, max_size=length))
    return n_labels, [(features(code, n_features), f"y{label}") for code, label in stream]


@settings(max_examples=200, deadline=None)
@given(
    drawn=streams(),
    alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    policy=st.sampled_from(["online", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_matches_reference(drawn, alpha, policy, seed):
    n_labels, stream = drawn
    tree = CondProbTree(alpha=alpha, learning_rate=ETA, policy=policy, seed=seed)
    ref = ReferenceCPT(alpha, ETA, policy, seed)
    updates = 0
    for x, y in stream:
        tree.learn(x, y)
        count = ref.learn(x, y)
        assert tree.last_example_updates == count
        updates += count
    assert tree.updates == updates
    assert tree.structure_signature() == ref.structure_signature()
    for (node_id, _), ref_node in zip(tree.preorder(), ref.root.preorder(), strict=True):
        reg = tree.nodes[node_id].reg
        # A reference leaf holds no regressor; the tree's must stay fresh.
        ref_reg = ref_node.reg or Regressor(ETA)
        assert reg.weights == ref_reg.w, node_id
        assert reg.bias == ref_reg.bias, node_id
    for x in list(dict.fromkeys(x for x, _ in stream))[:8]:  # the first 8 distinct
        for label in range(n_labels + 1):  # the last label is never seen
            y = f"y{label}"
            assert tree.predict(x, y).hex() == ref.predict(x, y).hex(), y


# --- every label of one x -----------------------------------------------------
#
# From the second call on the x object it last saw, predict's memo keeps the
# products along the paths it has walked. Scoring every label of one x, in any
# order, with learning and calls on an equal but distinct x in between, must
# still give the reference's value bit for bit.
@settings(max_examples=100, deadline=None)
@given(
    drawn=streams(),
    alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    policy=st.sampled_from(["online", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_of_every_label_matches_reference(drawn, alpha, policy, seed):
    n_labels, stream = drawn
    tree = CondProbTree(alpha=alpha, learning_rate=ETA, policy=policy, seed=seed)
    ref = ReferenceCPT(alpha, ETA, policy, seed)
    rng = random.Random(seed)
    labels = [f"y{label}" for label in range(n_labels + 1)]  # the last is never seen
    for i, (x, y) in enumerate(stream):
        tree.learn(x, y)
        ref.learn(x, y)
        if i % 8 != 7 and i != len(stream) - 1:
            continue
        # Pass 1 learns once on this x object at a random point of the
        # order; pass 2 leaves the model as it is and must sum to 1.
        for learn_at in (rng.randrange(len(labels)), None):
            order = rng.sample(labels, len(labels))
            scores = []
            for j, label in enumerate(order):
                if j == learn_at:
                    other = rng.choice(stream)[1]
                    tree.learn(x, other)
                    ref.learn(x, other)
                if rng.random() < 0.2:
                    twin = dataclasses.replace(x)
                    assert tree.predict(twin, label).hex() == ref.predict(twin, label).hex()
                q = tree.predict(x, label)
                assert q.hex() == ref.predict(x, label).hex(), label
                scores.append(q)
        assert abs(math.fsum(scores) - 1.0) <= 1e-12


# --- score, then learn --------------------------------------------------------
#
# score keeps a memo of y's path and its raw scores, which the next learn(x, y)
# steps from. Each example below runs one of six call orders on an estimator
# that scores before it learns, while a twin makes the same learning calls
# with no score of the same x object. The two must end bit for bit the same.
PLAIN, EQUAL_X, OTHER_X, OTHER_LABEL, UPDATE_BETWEEN, SCORE_ALL = range(6)
ORDERS = st.lists(st.integers(PLAIN, SCORE_ALL), min_size=120, max_size=120)


def _asked(x, y, order, other):
    """The (x, y) that order scores: (other x, y), (x, other label) or (x, y)."""
    return (other[0] if order == OTHER_X else x), (other[1] if order == OTHER_LABEL else y)


def _score_then_learn(scored, plain, x, y, order, other, update):
    """score, then learn, on scored; the same learning calls on plain.

    other is another (x, y) of the stream. PLAIN scores (x, y). EQUAL_X then
    learns from an equal but distinct x. OTHER_X and OTHER_LABEL score the
    other x or the other label instead. UPDATE_BETWEEN runs update(est, x,
    other label) on both estimators between the score and the learn.
    Returns the score.
    """
    q = scored.score(*_asked(x, y, order, other))
    if order == UPDATE_BETWEEN:
        update(scored, x, other[1])
        update(plain, x, other[1])
    scored.learn(dataclasses.replace(x) if order == EQUAL_X else x, y)
    plain.learn(x, y)
    return q


def _score_all_then_learn(scored, plain, x, y, other, labels, i):
    """SCORE_ALL: every label of the other x, then of x, each in a rotated
    order, then learn(x, y) on both. Each score of x must equal the twin's
    for an equal but distinct x, which its learn(x, y) does not reuse."""
    shift = i % max(len(labels), 1)
    labels = labels[shift:] + labels[:shift]
    twin = dataclasses.replace(x)
    expected = [plain.score(twin, label).hex() for label in labels]
    for label in labels:
        scored.score(other[0], label)
    assert [scored.score(x, label).hex() for label in labels] == expected
    scored.learn(x, y)
    plain.learn(x, y)


def _train_or_insert(tree, x, y):
    """The tree's own training calls, which leave the score's memo in place."""
    if y in tree.leaf_index:
        tree.train_known(x, y)
    else:
        tree.insert_label(x, y)


def _saved(directory, mode, config, estimator) -> bytes:
    path = directory / f"{mode}.bin"
    save_model(path, mode, config, estimator)
    return path.read_bytes()


def _state(reg) -> tuple:
    return reg.bias.hex(), sorted((i, w.hex()) for i, w in reg.weights.items())


@settings(max_examples=100, deadline=None)
@given(
    drawn=streams(),
    orders=ORDERS,
    alpha=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    policy=st.sampled_from(["online", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_learns_the_same_after_a_score(tmp_path_factory, drawn, orders, alpha, policy, seed):
    _, stream = drawn
    scored, plain = (
        CondProbTree(alpha=alpha, learning_rate=ETA, policy=policy, seed=seed) for _ in range(2)
    )
    for i, ((x, y), order) in enumerate(zip(stream, orders)):
        other = stream[(7 * i + 3) % len(stream)]
        if order == SCORE_ALL:
            _score_all_then_learn(scored, plain, x, y, other, list(scored.leaf_index), i)
        else:
            # The twin scores a copy of the asked x, which keeps it memo-free:
            # no learn of the twin meets that copy.
            asked, label = _asked(x, y, order, other)
            expected = plain.predict(dataclasses.replace(asked), label)
            q = _score_then_learn(scored, plain, x, y, order, other, _train_or_insert)
            assert q.hex() == expected.hex()
        assert scored.last_example_updates == plain.last_example_updates
    assert scored.structure_signature() == plain.structure_signature()
    states = [[_state(node.reg) for node in tree.nodes] for tree in (scored, plain)]
    assert states[0] == states[1]
    directory = tmp_path_factory.mktemp("cpt")
    mode = f"cpt-{policy}"
    config = ModelConfig(alpha=alpha, eta=ETA, seed=seed)
    assert _saved(directory, mode, config, scored) == _saved(directory, mode, config, plain)


@settings(max_examples=100, deadline=None)
@given(drawn=streams(), orders=ORDERS, k=st.sampled_from([2, 4, 16]), known=st.integers(1, 40))
def test_kway_tree_learns_the_same_after_a_score(tmp_path_factory, drawn, orders, k, known):
    _, stream = drawn
    # The first labels are given up front; the rest take free slots as they arrive.
    scored, plain = (KWayTree([f"y{i}" for i in range(known)], k, ETA) for _ in range(2))
    stream = [(x, f"y{int(y[1:]) % scored.capacity}") for x, y in stream]
    for i, ((x, y), order) in enumerate(zip(stream, orders)):
        other = stream[(7 * i + 3) % len(stream)]
        if order == SCORE_ALL:
            _score_all_then_learn(scored, plain, x, y, other, list(scored.label_map), i)
        else:
            # KWayTree changes only in learn, which takes the memo with it.
            _score_then_learn(scored, plain, x, y, order, other, KWayTree.learn)
    assert scored.label_map == plain.label_map
    assert scored.updates == plain.updates
    # The model bytes hold every node's key, biases and weights bit for bit.
    directory = tmp_path_factory.mktemp("kway")
    config = ModelConfig(k=k, eta=ETA)
    assert _saved(directory, "kway", config, scored) == _saved(directory, "kway", config, plain)


# --- block nodes against separate row regressors --------------------------------
#
# A KWayTree node keeps its k - 1 rows in one RegressorBlock. Its twin here
# keeps them as k - 1 LinearRegressors, the layout the block replaces. After
# every example each node's raw scores, by float.hex, must be equal; at the
# end, so must the nonzero weights of every row read back (a block row also
# holds 0.0 for the block's features it never stepped on), every node's raws
# on the stream's first x objects, the model bytes (the twin saves through
# RowList's block view), and the bytes of the saved file loaded and saved
# again. With one label in the stream, the rows whose code bit is 0 for it
# never step.
def _node_raws(est, x) -> dict:
    return {key: [raw.hex() for raw in node.raws(x)] for key, node in est._node_regs.items()}


NEVER_STEPPING = (2, [(features(9, 2), "y1"), (features(3, 2), "y1")] * 3)


@settings(max_examples=100, deadline=None)
@example(drawn=NEVER_STEPPING, k=16, known=1)
@example(drawn=NEVER_STEPPING, k=None, known=3)
@given(drawn=streams(), k=st.sampled_from([2, 4, 16, None]), known=st.integers(1, 40))
def test_block_nodes_match_separate_row_regressors(tmp_path_factory, drawn, k, known):
    # k None: a PecocModel over the known labels.
    _, stream = drawn
    labels = [f"y{i}" for i in range(known)]
    if k is None:
        mode, config = "pecoc", ModelConfig(eta=ETA)
        block, rows = PecocModel(labels, ETA), RowListPecocModel(labels, ETA)
    else:
        mode, config = "kway", ModelConfig(k=k, eta=ETA)
        block, rows = KWayTree(labels, k, ETA), RowListKWayTree(labels, k, ETA)
    stream = [(x, f"y{int(y[1:]) % block.capacity}") for x, y in stream]
    for x, y in stream:
        block.learn(x, y)
        rows.learn(x, y)
        assert _node_raws(block, x) == _node_raws(rows, x)
    assert sorted(block._node_regs) == sorted(rows._node_regs)
    for key, node in block._node_regs.items():
        twin = rows._node_regs[key]
        assert [row_state(reg) for reg in node] == [row_state(reg) for reg in twin]
    for x in list(dict.fromkeys(x for x, _ in stream))[:8]:
        assert _node_raws(block, x) == _node_raws(rows, x)
    directory = tmp_path_factory.mktemp(mode)
    saved = _saved(directory, mode, config, block)
    assert saved == _saved(directory, mode, config, rows)
    loaded = load_model(directory / f"{mode}.bin").estimator
    assert _saved(directory, mode, config, loaded) == saved


# Wide x: up to 24 features per x from a vocabulary of up to 48, so raws
# meets its eight- and four-feature passes, and many new features of one
# update share a value, whose new row update builds once and copies. With
# |v| <= 0.5 on at most 24 features, ||x||^2 <= 6 and eta * (||x||^2 + 1)
# stays below 2, so learning converges.
WIDE_VALUES = (-0.25, 0.25, 0.5)


@st.composite
def wide_streams(draw):
    n_labels = draw(st.integers(1, 40))
    vocab = draw(st.integers(1, 48))
    length = draw(st.integers(1, 60))
    x = st.dictionaries(st.integers(0, vocab - 1), st.sampled_from(WIDE_VALUES),
                        min_size=1, max_size=24)
    example = st.tuples(x, st.integers(0, n_labels - 1))
    stream = draw(st.lists(example, min_size=length, max_size=length))
    return n_labels, [(from_tokens([(f"f{j}", v) for j, v in pairs.items()]), f"y{label}")
                      for pairs, label in stream]


@settings(max_examples=100, deadline=None)
@given(drawn=wide_streams(), k=st.sampled_from([2, 4, 16, None]), known=st.integers(1, 40))
def test_block_nodes_match_separate_row_regressors_on_wide_x(tmp_path_factory, drawn, k, known):
    test_block_nodes_match_separate_row_regressors.hypothesis.inner_test(
        tmp_path_factory, drawn, k, known)
