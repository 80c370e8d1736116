"""Progressive validation: score first, then learn, one pass over the stream.

Compares the tree against the standard baselines on a skewed synthetic task
with known ground truth, so the unavoidable loss is known exactly.
"""

from cptree import (
    CondProbTree,
    OneAgainstAll,
    TableBaseline,
    equivalent_labels,
    grid_search,
    progressive_validate,
)
from cptree.synthetic import OracleEstimator, SyntheticTask, true_regret

task = SyntheticTask.crossed(seed=7)
examples = task.sample(8_000, seed=8)
print(f"task: {task.context_count} contexts, {task.label_count} labels")
print(f"best achievable progressive loss: {task.oracle_score_loss():.4f}\n")

estimators = {
    "oracle": OracleEstimator(task),
    "table": TableBaseline(),
    "one-against-all": OneAgainstAll(0.2),
    "tree (alpha=0.75)": CondProbTree(alpha=0.75, learning_rate=0.2),
    "tree (random)": CondProbTree(learning_rate=0.2, policy="random", seed=7),
}
print(f"{'estimator':<18} {'loss':>7} {'ci':>7} {'equiv':>6} {'upd/ex':>7}")
for name, estimator in estimators.items():
    report = progressive_validate(examples, estimator)
    print(
        f"{name:<18} {report.mean_sq_loss:>7.4f} {report.ci_halfwidth:>7.4f}"
        f" {report.equivalent:>6.2f} {report.updates_per_example:>7.1f}"
    )

# Against a task with known conditionals the regret is an exact enumeration,
# not an estimate.
tree = CondProbTree(alpha=0.75, learning_rate=0.2)
for example in examples:
    tree.learn(example.x, example.y)
print(f"\nexact regret of the trained tree: {true_regret(tree, task):.5f}")
print(f"exact regret of the oracle:       {true_regret(OracleEstimator(task), task):.5f}")

# Learning-rate selection by progressive loss on the stream itself.
grid = [{"eta": 0.5}, {"eta": 0.1}, {"eta": 0.05}, {"eta": 0.01}]
best, reports = grid_search(
    lambda eta: CondProbTree(alpha=0.75, learning_rate=eta), grid, examples[:4_000]
)
print("\nlearning-rate grid:")
for params, report in zip(grid, reports):
    marker = " <- selected" if params == best else ""
    print(f"  eta={params['eta']:<5} loss={report.mean_sq_loss:.4f}{marker}")

print(f"\na uniform guess over E labels with loss 0.64 is E = {equivalent_labels(0.64):.2f}")
