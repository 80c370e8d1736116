"""Acceptance gates for the whole package.

Each criterion prints one PASS/FAIL line on the real stdout (bypassing
capture) so the gate status is always visible in the test log. Criterion A05
has two halves: insertion is forced toward the smaller side of any node whose
split exceeds kappa = max_side_fraction(alpha), and, as a consequence, every
node keeps max(L, R) <= kappa*N + (1 - kappa) after every insertion. That
bound is tight: insert_direction sends ties left, so a node sitting exactly
on the boundary (kappa*(N - 1) an integer) grows to equality, and at
alpha = 1 every 3-leaf tree already has a 2 : 1 split against a cap of 2.
The gate therefore asserts the non-strict bound with zero violations and also
requires boundary hits, so it fails if the cap is broken or if it is loose.
"""

import itertools
import math
import random
import re
import sys
import time

import numpy as np
import pytest

from cptree import (
    CondProbTree,
    KWayTree,
    OneAgainstAll,
    decode_loss_bound,
    decode_probability,
    equivalent_labels,
    hadamard_code,
    insert_direction,
    loss_multiplier,
    max_depth_bound,
    max_side_fraction,
    progressive_validate,
)
from cptree.synthetic import SyntheticTask, node_conditionals, node_regret, true_regret

from _support import ACCEPTANCE_LINES, vec

ALPHA_GRID = (0.1, 0.3, 0.6, 0.9, 1.0)


# Every A-line after its criterion, as recorded at commit 3c3517e, with the
# timings ("in 3.7s") masked. The criteria are deterministic, so a line that
# moves shows a change of behaviour even where its gate still passes. A10's
# max updates/example was re-recorded, 15 -> 14, when leaves stopped taking
# their always-zero step.
PINNED_LINES = {
    "A01 path-product error bound":
        "PASS 0 violations required, got 0 over 2240000 checks in <n>s",
    "A02 tight/loose bound ordering":
        "PASS gap<=tight violations 0, tight<=loose violations 0",
    "A03 subset-code decode suite":
        "PASS oracle error 5.56e-16 (<1e-12), bound violations 0, equality gap 2.34e-17 (<1e-9)",
    "A04 code invariants to size 64": "PASS 0 violations",
    "A05 forced direction at imbalanced nodes": "PASS 0 violations over 30765 forced states",
    "A05 occupancy bound after every insertion":
        "PASS violations by alpha {0.1: 0, 0.3: 0, 0.6: 0, 0.9: 0, 1.0: 0};"
        " boundary hits by alpha {0.1: 0, 0.3: 0, 0.6: 0, 0.9: 0, 1.0: 39051};"
        " first hit (alpha, side, N, cap) = (1.0, 2, 3, 2.0);"
        " alpha=0.5 tie (L, R, cap) at N=4 = (3, 1, 3.0)",
    "A06 depth bound and balanced exactness":
        "PASS 0 bound violations over 10000 trees; 0 non-exact balanced depths",
    "A07 total leaf depth n*log2(n) at alpha=1": "PASS 0 mismatches for n up to 2^14",
    "A08 equivalent-labels reference table": "PASS max deviation 0.0090 (<=0.01)",
    "A09 k=2 consistency and multiplier identities":
        "PASS 0 prediction mismatches; 0 identity failures",
    "A10 logarithmic training cost at scale":
        "PASS n=9998, max updates/example 14 <= 17, trained 100k examples in <n>s;"
        " one-against-all reached 2563 updates/example",
    "A11 policy ordering on a skewed task":
        "PASS online 0.4800 <= balanced 0.5396 <= random 0.5439 (mean over 10 seeds)",
    "A12 public-corpus reproduction": "SKIP optional; corpus not bundled in this environment",
    "A13 depth-scaled regret bound on trained trees":
        "PASS 0 violations required, got 0 of 120 checkpoints and 0 of 491520 (x, y) terms;"
        " regret/bound median 0.0796, max 0.1037 in <n>s",
}


def banner(criterion: str, ok: bool, detail: str = "", status: str | None = None) -> None:
    status = status or ("PASS" if ok else "FAIL")
    line = f"[{criterion}] {status} {detail}".rstrip()
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    masked = re.sub(r"\bin \d+(\.\d+)?s\b", "in <n>s", f"{status} {detail}".rstrip())
    assert masked == PINNED_LINES[criterion], f"{criterion} moved from its pinned line"


# --- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def perturbation_results():
    """Perturb tree node estimates 10^4 times and collect bound violations."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    draws = 10_000
    product_violations = 0
    tight_violations = 0
    order_violations = 0
    checked = 0
    for n_labels in (4, 8, 16):
        task = SyntheticTask.random(contexts=8, labels=n_labels, seed=n_labels)
        tree = CondProbTree.balanced(task.labels)
        _, right = node_conditionals(tree, task)
        internal_ids = sorted(right)
        node_pos = {nid: k for k, nid in enumerate(internal_ids)}
        true_right = np.stack([right[nid] for nid in internal_ids])  # (nodes, ctx)
        noise = rng.uniform(-0.4, 0.4, size=(draws, len(internal_ids), task.context_count))
        perturbed = np.clip(true_right[None, :, :] + noise, 0.0, 1.0)
        for ctx in range(task.context_count):
            for y in task.labels:
                steps = tree.path_to(y)
                d = len(steps)
                p_dir = np.empty(d)
                q_dir = np.empty((draws, d))
                for i, (nid, go_right) in enumerate(steps):
                    p = true_right[node_pos[nid], ctx]
                    q = perturbed[:, node_pos[nid], ctx]
                    p_dir[i] = p if go_right else 1.0 - p
                    q_dir[:, i] = q if go_right else 1.0 - q
                p_prod = float(np.prod(p_dir))
                q_prod = np.prod(q_dir, axis=1)
                gap = np.abs(q_prod - p_prod)
                mean_sq = np.mean((q_dir - p_dir[None, :]) ** 2, axis=1)
                product_violations += int((gap**2 > d**2 * mean_sq + 1e-12).sum())
                mx = np.maximum(q_dir, p_dir[None, :])
                tight = np.zeros(draws)
                for i in range(d):
                    rest = np.prod(np.delete(mx, i, axis=1), axis=1)
                    tight += np.abs(q_dir[:, i] - p_dir[i]) * rest
                loose = np.abs(q_dir - p_dir[None, :]).sum(axis=1)
                tight_violations += int((gap > tight + 1e-12).sum())
                order_violations += int((tight > loose + 1e-12).sum())
                checked += draws
    return {
        "product_violations": product_violations,
        "tight_violations": tight_violations,
        "order_violations": order_violations,
        "checked": checked,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def insertion_fuzz():
    """10^4 online insertion streams across the alpha grid.

    After every insertion, checks each node whose counts changed against the
    occupancy bound max(L, R) <= kappa*N + (1 - kappa), counting violations
    and boundary hits (nodes at exactly the cap, reached when a tie at a
    node on the boundary goes left) per alpha. Also records final depth
    statistics for the depth-bound criterion.
    """
    rng = random.Random(202)
    streams_per_alpha = 2_000
    violations = {a: 0 for a in ALPHA_GRID}
    boundary_hits = {a: 0 for a in ALPHA_GRID}
    depth_records = []
    first_hit = None
    for alpha in ALPHA_GRID:
        kappa = max_side_fraction(alpha)
        for _ in range(streams_per_alpha):
            tree = CondProbTree(alpha=alpha, learning_rate=0.3)
            n = rng.randrange(3, 28)
            adversarial = rng.random() < 0.5
            fixed_x = vec(("adv", 1.0))
            inserted = 0
            step = 0
            while inserted < n:
                step += 1
                if inserted >= 2 and rng.random() < 0.25:
                    # Known-label training moves the regressors between inserts.
                    tree.train_known(
                        fixed_x if adversarial else vec((f"f{rng.randrange(4)}", rng.uniform(-2, 2))),
                        f"y{rng.randrange(inserted)}",
                    )
                    continue
                x = fixed_x if adversarial else vec((f"f{rng.randrange(4)}", rng.uniform(-2, 2)))
                tree.learn(x, f"y{inserted}")
                inserted += 1
                for node_id in tree.last_insert_path:
                    node = tree.nodes[node_id]
                    total = node.n_left + node.n_right
                    cap = kappa * total + (1.0 - kappa)
                    big = max(node.n_left, node.n_right)
                    # The 1e-9 slack absorbs rounding in cap only (alpha = 0.5,
                    # N = 7 gives 4.999999999999999 for a side of 5). Leaf
                    # counts are integers, so it cannot hide a real violation.
                    if big > cap + 1e-9:
                        violations[alpha] += 1
                    elif abs(big - cap) <= 1e-9:
                        boundary_hits[alpha] += 1
                        if first_hit is None:
                            first_hit = (alpha, big, total, cap)
            stats = tree.depth_stats()
            depth_records.append((alpha, stats.n_leaves, stats.max_depth))
    return {
        "violations": violations,
        "boundary_hits": boundary_hits,
        "depths": depth_records,
        "first_hit": first_hit,
    }


# --- criteria ------------------------------------------------------------------


def test_a01_product_error_bound(perturbation_results):
    r = perturbation_results
    ok = r["product_violations"] == 0 and r["elapsed"] < 30.0
    banner(
        "A01 path-product error bound",
        ok,
        f"0 violations required, got {r['product_violations']}"
        f" over {r['checked']} checks in {r['elapsed']:.1f}s",
    )
    assert r["product_violations"] == 0
    assert r["elapsed"] < 30.0


def test_a02_tight_and_loose_bounds_order(perturbation_results):
    r = perturbation_results
    ok = r["tight_violations"] == 0 and r["order_violations"] == 0
    banner(
        "A02 tight/loose bound ordering",
        ok,
        f"gap<=tight violations {r['tight_violations']},"
        f" tight<=loose violations {r['order_violations']}",
    )
    assert r["tight_violations"] == 0
    assert r["order_violations"] == 0


def test_a03_subset_code_decode_suite():
    rng = np.random.default_rng(303)
    worst_exact = 0.0
    for t, n in ((1, 2), (2, 4), (3, 8), (4, 16)):
        code = np.array(hadamard_code(t), dtype=np.float64)
        for _ in range(100):
            p = rng.dirichlet(np.ones(n))
            rows = code @ p
            for y in range(n):
                worst_exact = max(worst_exact, abs(decode_probability(code[:, y], rows) - p[y]))
    bound_violations = 0
    for _ in range(10_000):
        t = int(rng.integers(1, 5))
        n = 2**t
        code = np.array(hadamard_code(t), dtype=np.float64)
        p = rng.dirichlet(np.ones(n))
        errors = rng.uniform(-0.25, 0.25, size=n)
        errors[0] = 0.0
        y = int(rng.integers(n))
        realized = (decode_probability(code[:, y], code @ p + errors) - p[y]) ** 2
        if realized > decode_loss_bound(errors) + 1e-12:
            bound_violations += 1
    worst_equality = 0.0
    for t in (1, 2, 3, 4):
        n = 2**t
        code = np.array(hadamard_code(t), dtype=np.float64)
        p = rng.dirichlet(np.ones(n))
        y = int(rng.integers(n))
        signs = np.where(code[:, y] == 1, 1.0, -1.0)
        signs[0] = 0.0
        delta = 0.04
        realized = (decode_probability(code[:, y], code @ p + delta * signs) - p[y]) ** 2
        errors = np.full(n, delta)
        errors[0] = 0.0
        worst_equality = max(worst_equality, abs(realized - decode_loss_bound(errors)))
    ok = worst_exact < 1e-12 and bound_violations == 0 and worst_equality < 1e-9
    banner(
        "A03 subset-code decode suite",
        ok,
        f"oracle error {worst_exact:.2e} (<1e-12),"
        f" bound violations {bound_violations}, equality gap {worst_equality:.2e} (<1e-9)",
    )
    assert worst_exact < 1e-12
    assert bound_violations == 0
    assert worst_equality < 1e-9


def test_a04_code_invariants_up_to_64():
    bad = 0
    for t in range(1, 7):
        code = np.array(hadamard_code(t))
        size = 2**t
        if not (code[0] == 1).all():
            bad += 1
        for i in range(1, size):
            if int(code[i].sum()) != size // 2:
                bad += 1
        for i, j in itertools.combinations(range(1, size), 2):
            if int((code[i] == code[j]).sum()) != size // 2:
                bad += 1
    banner("A04 code invariants to size 64", bad == 0, f"{bad} violations")
    assert bad == 0


def test_a05_forced_direction_under_imbalance():
    rng = random.Random(404)
    trials = 0
    bad = 0
    for _ in range(10_000):
        alpha = rng.choice(ALPHA_GRID)
        kappa = max_side_fraction(alpha)
        total = rng.randrange(2, 2_000)
        right = rng.randrange(1, total)
        left = total - right
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            if right / total > kappa:
                trials += 1
                if insert_direction(p, left, right, alpha) != 0:
                    bad += 1
            elif left / total > kappa:
                trials += 1
                if insert_direction(p, left, right, alpha) != 1:
                    bad += 1
    banner(
        "A05 forced direction at imbalanced nodes",
        bad == 0,
        f"{bad} violations over {trials} forced states",
    )
    assert bad == 0


def test_a05_strict_occupancy_bound(insertion_fuzz):
    # The rule keeps max(L, R) <= kappa*N + (1 - kappa): by the forced
    # direction, a side grows only while it holds at most kappa*(N - 1)
    # leaves. The bound is tight, so the strict form cannot hold: at
    # alpha = 1 every 3-leaf tree has a side of 2 against a cap of 2. Zero
    # violations catch a broken cap; required boundary hits catch a loose one.
    violations = insertion_fuzz["violations"]
    hits = insertion_fuzz["boundary_hits"]

    # Deterministic tie: with p = 0 at alpha = 0.5 (kappa = 2/3) the root
    # holds 2 : 1 before the fourth insert, the objective is exactly 0, the
    # tie goes left and the root reaches 3 : 1 against a cap of 3. The root
    # is set to score 0 before that insert.
    kappa = max_side_fraction(0.5)
    tree = CondProbTree(alpha=0.5)
    x = vec(("adv", 1.0))
    for i in range(3):
        tree.learn(x, f"y{i}")
    tree._bias[tree.root], tree._weights[tree.root] = 0.0, {}
    tree.learn(x, "y3")
    root = tree.nodes[tree.root]
    tie_case = (root.n_left, root.n_right, kappa * 4 + (1.0 - kappa))

    bound_held = sum(violations.values()) == 0
    hit_at_alpha_1 = hits[1.0] > 0
    tie_on_cap = tie_case[:2] == (3, 1) and abs(tie_case[2] - 3.0) <= 1e-9
    detail = (
        f"violations by alpha {violations}; boundary hits by alpha {hits};"
        f" first hit (alpha, side, N, cap) = {insertion_fuzz['first_hit']};"
        f" alpha=0.5 tie (L, R, cap) at N=4 = {tie_case}"
    )
    banner(
        "A05 occupancy bound after every insertion",
        bound_held and hit_at_alpha_1 and tie_on_cap,
        detail,
    )
    assert bound_held, detail
    assert hit_at_alpha_1, "no node reached the cap at alpha=1: " + detail
    assert tie_on_cap, "alpha=0.5 tie did not reach the cap: " + detail


def test_a06_depth_bound_on_all_fuzz_runs(insertion_fuzz):
    over = 0
    for alpha, n, depth in insertion_fuzz["depths"]:
        if n >= 2 and depth > max_depth_bound(n, max_side_fraction(alpha)):
            over += 1
    rng = random.Random(505)
    exact_bad = 0
    for j in range(1, 11):
        n = 2**j
        tree = CondProbTree(alpha=1.0)
        for i in range(n):
            tree.learn(vec((f"f{rng.randrange(7)}", rng.uniform(-2, 2))), f"y{i}")
        if tree.depth_stats().max_depth != j:
            exact_bad += 1
    ok = over == 0 and exact_bad == 0
    banner(
        "A06 depth bound and balanced exactness",
        ok,
        f"{over} bound violations over {len(insertion_fuzz['depths'])} trees;"
        f" {exact_bad} non-exact balanced depths",
    )
    assert over == 0
    assert exact_bad == 0


def test_a07_total_leaf_depth_at_full_balance():
    rng = random.Random(606)
    bad = 0
    for j in range(1, 15):
        n = 2**j
        tree = CondProbTree(alpha=1.0)
        for i in range(n):
            tree.learn(vec((f"f{rng.randrange(5)}", 1.0)), f"y{i}")
        if tree.depth_stats().total_leaf_depth != n * j:
            bad += 1
    banner(
        "A07 total leaf depth n*log2(n) at alpha=1",
        bad == 0,
        f"{bad} mismatches for n up to 2^14",
    )
    assert bad == 0


def test_a08_equivalent_labels_reference_table():
    expected = {
        0.812: 10.11,
        0.7742: 8.32,
        0.7725: 8.25,
        0.7632: 7.91,
        0.665: 5.42,
    }
    worst = max(abs(equivalent_labels(loss) - value) for loss, value in expected.items())
    banner(
        "A08 equivalent-labels reference table",
        worst <= 0.01,
        f"max deviation {worst:.4f} (<=0.01)",
    )
    assert worst <= 0.01


def test_a09_binary_kway_consistency():
    labels = [f"y{i}" for i in range(16)]
    cpt = CondProbTree.balanced(labels, learning_rate=0.25)
    kway = KWayTree(labels, 2, learning_rate=0.25)
    rng = random.Random(707)
    xs = [vec((f"f{i}", 1.0), ("w", rng.uniform(0.2, 1.8))) for i in range(8)]
    for _ in range(800):
        x, y = rng.choice(xs), rng.choice(labels)
        cpt.learn(x, y)
        kway.learn(x, y)
    mismatches = sum(
        1 for x in xs for y in labels if cpt.predict(x, y) != kway.score(x, y)
    )
    multiplier_bad = 0
    for n in (4, 16, 64, 256, 1024):
        if loss_multiplier(n, 2) != math.log2(n) ** 2:
            multiplier_bad += 1
    for n in (2, 4, 8, 16, 64):
        if loss_multiplier(n, n) != 4 * ((n - 1) / n) ** 2:
            multiplier_bad += 1
    ok = mismatches == 0 and multiplier_bad == 0
    banner(
        "A09 k=2 consistency and multiplier identities",
        ok,
        f"{mismatches} prediction mismatches; {multiplier_bad} identity failures",
    )
    assert mismatches == 0
    assert multiplier_bad == 0


def test_a10_logarithmic_complexity_at_scale():
    task = SyntheticTask.random(contexts=64, labels=10_000, seed=42)
    examples = task.sample(100_000, seed=43)
    tree = CondProbTree(alpha=1.0, learning_rate=0.1)
    start = time.perf_counter()
    max_updates = 0
    for example in examples:
        tree.learn(example.x, example.y)
        if tree.last_example_updates > max_updates:
            max_updates = tree.last_example_updates
    elapsed = time.perf_counter() - start
    kappa = max_side_fraction(1.0)
    budget = math.ceil(math.log2(10_000) / math.log2(1.0 / kappa)) + 3
    # The same stream drives one-against-all on a prefix; its per-example
    # update count must equal the number of labels seen, i.e. grow with n.
    oaa = OneAgainstAll(0.1)
    oaa_law_holds = True
    for example in examples[:3_000]:
        before = oaa.updates
        oaa.learn(example.x, example.y)
        if oaa.updates - before != len(oaa.regressors):
            oaa_law_holds = False
            break
    ok = (
        max_updates <= budget
        and elapsed < 120.0
        and oaa_law_holds
        and len(oaa.regressors) > 1_000
        and tree.n_labels > 9_900
    )
    banner(
        "A10 logarithmic training cost at scale",
        ok,
        f"n={tree.n_labels}, max updates/example {max_updates} <= {budget},"
        f" trained 100k examples in {elapsed:.1f}s;"
        f" one-against-all reached {len(oaa.regressors)} updates/example",
    )
    assert max_updates <= budget
    assert elapsed < 120.0
    assert oaa_law_holds
    assert tree.n_labels > 9_900


def test_a11_seed_averaged_policy_ordering():
    losses = {"online": [], "balanced": [], "random": []}
    for seed in range(10):
        task = SyntheticTask.crossed(seed=seed)
        examples = task.sample(6_000, seed=seed + 1_000)
        runs = {
            "online": CondProbTree(alpha=0.75, learning_rate=0.2),
            "balanced": CondProbTree(alpha=1.0, learning_rate=0.2),
            "random": CondProbTree(alpha=0.5, learning_rate=0.2, policy="random", seed=seed),
        }
        for name, est in runs.items():
            losses[name].append(progressive_validate(examples, est).mean_sq_loss)
    online = float(np.mean(losses["online"]))
    balanced = float(np.mean(losses["balanced"]))
    rand = float(np.mean(losses["random"]))
    ok = online <= balanced <= rand
    banner(
        "A11 policy ordering on a skewed task",
        ok,
        f"online {online:.4f} <= balanced {balanced:.4f} <= random {rand:.4f}"
        " (mean over 10 seeds)",
    )
    assert online <= balanced <= rand


def test_a12_external_corpus_reproduction():
    banner(
        "A12 public-corpus reproduction",
        True,
        "optional; corpus not bundled in this environment",
        status="SKIP",
    )
    pytest.skip("optional criterion: external corpus not available offline")


def _regret_and_bound(tree, task) -> tuple[float, float, int]:
    """(true regret, its depth-scaled bound, violated terms) of a tree that
    holds every label of task.

    Weighting A01's pointwise form (Q - P)^2 <= d * sum over y's path of
    (q_n - p_n)^2 by P(x, y) and summing gives true_regret(tree) <= d_max *
    sum over nodes of mass_n * node_regret_n, where mass_n is node n's
    context-weighted reach. Each (x, y) term is checked too, with d_max as
    its d. On A11's trees the sum holds with about ten times to spare, so a
    score that drops a path factor, or a bound without d_max, breaks terms
    well before it breaks the sum.
    """
    reach, right = node_conditionals(tree, task)
    d_max = tree.max_depth
    regrets = node_regret(tree, task)
    bound = d_max * sum(float(task.context_probs @ reach[n]) * regrets[n] for n in reach)
    nodes = tree.nodes
    estimates = {n: [nodes[n].reg.predict(x) for x in task.features] for n in reach}
    paths = {y: [n for n, _ in tree.path_to(y)] for y in task.labels}
    violations = 0
    terms = 0.0  # the bound again, summed term by term
    for c, x in enumerate(task.features):
        for j, y in enumerate(task.labels):
            p = float(task.conditional[c, j])
            term = d_max * sum((estimates[n][c] - float(right[n][c])) ** 2 for n in paths[y])
            violations += (tree.score(x, y) - p) ** 2 > term
            terms += float(task.context_probs[c]) * p * term
    assert math.isclose(terms, bound, rel_tol=1e-9), (terms, bound)
    return true_regret(tree, task), bound, violations


def test_a13_depth_scaled_regret_bound():
    # A11's streams and policies, checked every 1,500 examples once every
    # label has arrived: a label the tree has not seen scores 0, and the
    # true conditionals at its nodes no longer multiply to P(y | x).
    start = time.perf_counter()
    checkpoints = violations = bad_terms = terms = 0
    ratios = []  # regret / bound
    for seed in range(10):
        task = SyntheticTask.crossed(seed=seed)
        examples = task.sample(6_000, seed=seed + 1_000)
        runs = (
            CondProbTree(alpha=0.75, learning_rate=0.2),
            CondProbTree(alpha=1.0, learning_rate=0.2),
            CondProbTree(alpha=0.5, learning_rate=0.2, policy="random", seed=seed),
        )
        for est in runs:
            for n, example in enumerate(examples, 1):
                est.learn(example.x, example.y)
                if n % 1_500 == 0 and est.n_labels == task.label_count:
                    regret, bound, bad = _regret_and_bound(est, task)
                    checkpoints += 1
                    violations += regret > bound
                    bad_terms += bad
                    terms += task.context_count * task.label_count
                    ratios.append(regret / bound)
    ok = violations == bad_terms == 0 and checkpoints == 120
    banner(
        "A13 depth-scaled regret bound on trained trees",
        ok,
        f"0 violations required, got {violations} of {checkpoints} checkpoints"
        f" and {bad_terms} of {terms} (x, y) terms; regret/bound median"
        f" {np.median(ratios):.4f}, max {max(ratios):.4f} in {time.perf_counter() - start:.1f}s",
    )
    assert violations == bad_terms == 0
    assert checkpoints == 120  # every label arrives before the first checkpoint
