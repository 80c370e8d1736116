"""Grow a conditional probability tree online and inspect what it learned.

The tree starts empty, discovers labels as they arrive, and keeps both
training and prediction logarithmic in the number of labels.
"""

import numpy as np

from cptree import (
    CondProbTree,
    max_depth_bound,
    max_side_fraction,
    total_depth_bound,
)
from cptree.synthetic import SyntheticTask

task = SyntheticTask.clustered(groups=6, contexts_per_group=4, labels_per_group=8, seed=1)
print(f"task: {task.context_count} contexts, {task.label_count} labels")

tree = CondProbTree(alpha=0.8, learning_rate=0.08)
for example in task.sample(20_000, seed=2):
    tree.learn(example.x, example.y)

stats = tree.depth_stats()
side = max_side_fraction(tree.alpha)
print(f"\nlabels seen:        {stats.n_leaves}")
print(f"max depth:          {stats.max_depth}")
print(f"depth bound:        {max_depth_bound(stats.n_leaves, side):.2f}")
print(f"total leaf depth:   {stats.total_leaf_depth}")
print(f"total depth bound:  {total_depth_bound(stats.n_leaves, side):.2f}")
print(f"disagreements:      {tree.disagreement_count} (cannot exceed total leaf depth)")
print(f"leaves per depth:   {dict(sorted(stats.depth_histogram.items()))}")

# Per-context estimates form a (near-)distribution over the labels; show the
# most frequent context, which has seen the most training data.
c = int(np.argmax(task.context_probs))
x = task.features[c]
estimates = np.array([tree.predict(x, y) for y in task.labels])
truth = task.conditional[c]
print(f"\ncontext {c}: sum of estimates = {estimates.sum():.4f}")
top = np.argsort(truth)[::-1][:5]
print("label      true P    estimate")
for j in top:
    print(f"{task.labels[j]:<9}  {truth[j]:.4f}    {estimates[j]:.4f}")

# At alpha = 1 insertion ignores the features entirely and the tree is
# perfectly balanced: 2^j labels sit at depth exactly j.
balanced = CondProbTree(alpha=1.0)
for i in range(256):
    balanced.learn(task.features[i % task.context_count], f"fresh-{i}")
print(f"\nalpha=1 over 256 fresh labels: max depth = {balanced.depth_stats().max_depth}")
