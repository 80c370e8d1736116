"""Why the tree exists: per-example cost stays logarithmic as labels grow.

One-against-all must touch one regressor per known label on every example;
the tree touches one per tree level. This script watches both counters as a
stream introduces more and more labels.
"""

import time

from cptree import CondProbTree, OneAgainstAll
from cptree.synthetic import SyntheticTask

task = SyntheticTask.random(contexts=32, labels=2_000, seed=11, concentration=2.0)
examples = task.sample(6_000, seed=12)

tree = CondProbTree(alpha=1.0, learning_rate=0.1)
oaa = OneAgainstAll(0.1)

print(f"{'examples':>9} {'labels':>7} {'tree upd/ex':>12} {'oaa upd/ex':>11}")
checkpoint = 500
tree_since, oaa_since = 0, 0
for i, example in enumerate(examples, start=1):
    before_tree, before_oaa = tree.updates, oaa.updates
    tree.learn(example.x, example.y)
    oaa.learn(example.x, example.y)
    tree_since += tree.updates - before_tree
    oaa_since += oaa.updates - before_oaa
    if i % checkpoint == 0:
        print(
            f"{i:>9} {tree.n_labels:>7} {tree_since / checkpoint:>12.1f}"
            f" {oaa_since / checkpoint:>11.1f}"
        )
        tree_since, oaa_since = 0, 0

# The tree alone handles a much larger stream comfortably.
big = SyntheticTask.random(contexts=64, labels=10_000, seed=13)
stream = big.sample(100_000, seed=14)
start = time.perf_counter()
big_tree = CondProbTree(alpha=1.0, learning_rate=0.1)
worst = 0
for example in stream:
    big_tree.learn(example.x, example.y)
    worst = max(worst, big_tree.last_example_updates)
elapsed = time.perf_counter() - start
print(
    f"\n100k examples over {big_tree.n_labels} labels in {elapsed:.1f}s;"
    f" worst per-example updates = {worst},"
    f" final depth = {big_tree.depth_stats().max_depth}"
)
