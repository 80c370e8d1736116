"""Subset-code probability decoding, from flat codes to k-way code trees.

Each non-trivial code row defines one "is the label in this half?" regression
problem; decoding averages the row agreements. More rows per node means more
computation but a smaller worst-case loss multiplier.
"""

import numpy as np

from cptree import (
    KWayTree,
    decode_loss_bound,
    decode_probability,
    from_tokens,
    hadamard_code,
    loss_multiplier,
)

code = np.array(hadamard_code(2))
print("code for 4 labels:")
print(code)

# With exact row estimates the decode recovers the distribution exactly.
rng = np.random.default_rng(0)
p = rng.dirichlet(np.ones(4))
rows = code.astype(float) @ p
decoded = [decode_probability(code[:, y], rows) for y in range(4)]
print(f"\ntrue P   : {np.round(p, 6)}")
print(f"decoded  : {np.round(decoded, 6)}")

# Uniform row errors hit the worst case exactly.
delta = 0.05
signs = np.where(code[:, 2] == 1, 1.0, -1.0)
signs[0] = 0.0
noisy = rows + delta * signs
realized = (decode_probability(code[:, 2], noisy) - p[2]) ** 2
errors = np.array([0.0, delta, delta, delta])
print(f"\nrealized squared error: {realized:.6f}")
print(f"worst-case bound:       {decode_loss_bound(errors):.6f}")

# Computation / robustness trade-off across fan-outs.
n = 256
print(f"\nn = {n}:")
print("  k   regressors/example   loss multiplier")
k = 2
while k <= n:
    depth = 1
    cap = k
    while cap < n:
        cap *= k
        depth += 1
    if cap == n:
        print(f"{k:>3}   {(k - 1) * depth:>18}   {loss_multiplier(n, k):>15.4f}")
    k *= 2

# A k-way tree is the middle ground: codes of size k at each node.
labels = [f"item-{i}" for i in range(64)]
tree = KWayTree(labels, k=4, learning_rate=0.3)
x_hot = from_tokens([("query", 1.0)])
for _ in range(300):
    tree.learn(x_hot, "item-7")
print(f"\nk=4 tree over 64 labels: depth {tree.depth}, "
      f"{tree.k - 1} regressors per node")
print(f"after 300 examples of item-7: score = {tree.score(x_hot, 'item-7'):.4f}")
