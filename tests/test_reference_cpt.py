"""Differential tests: CondProbTree against the reference CPT of reference_cpt.py.

Random streams over up to 40 labels and 1-4 features, for every alpha of the
grid and both policies. After every example the two trees must have updated
the same number of regressors; at the end they must have the same shape,
the same regressor state node by node and bit-identical predictions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cptree import CondProbTree, from_tokens

from reference_cpt import ReferenceCPT

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
        assert reg.weights == ref_node.reg.w, node_id
        assert reg.bias == ref_node.reg.bias, node_id
    for x in list(dict.fromkeys(x for x, _ in stream))[:8]:  # the first 8 distinct
        for label in range(n_labels + 1):  # the last label is never seen
            y = f"y{label}"
            assert tree.predict(x, y).hex() == ref.predict(x, y).hex(), y
