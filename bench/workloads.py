"""The three benchmark workloads.

Each function takes a run.Run, builds its inputs from the run's seed, runs
its measured window, checks every output, and records its metrics. Calls
into cptree go through module attributes (``evaluation.progressive_validate``,
``model_io.save_model``) so that a traced run sees them. One process runs
one workload on one thread; CLI subprocesses run one at a time.

The machine the benchmark was tuned on changes speed by up to a quarter
over stretches of a few seconds. So every workload splits its window into
rounds and takes a share of every metric's samples in each round: no metric
comes from one stretch of the run.
"""

from __future__ import annotations

import csv
import hashlib
import math
import resource
import statistics
import struct
import time

import cptree.data as data
import cptree.evaluation as evaluation
import cptree.features as features
import cptree.model_io as model_io
import cptree.pecoc as pecoc
import cptree.tree as cpt

import inputs

median = statistics.median


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


TINY_WIDE = inputs.WideShape(groups=4, labels_per_group=8, contexts_per_group=2, vocab=400)

SIZES = {
    "a10_online": {
        "full": dict(contexts=64, labels=10_000, examples=100_000, rounds=20, loads=5,
                     queries=4096, score_all=10),
        "tiny": dict(contexts=8, labels=300, examples=3000, rounds=4, loads=2,
                     queries=256, score_all=2),
    },
    "wide_cli": {
        "full": dict(shape=inputs.WideShape(), train=2000, test=1000, rounds=5,
                     queries=1000, score_all=10),
        "tiny": dict(shape=TINY_WIDE, train=300, test=150, rounds=2, queries=100,
                     score_all=2),
    },
    "kway_wide": {
        "full": dict(shape=inputs.WideShape(), examples=2000, rounds=10, setups=5,
                     queries=1000, score_all=5),
        "tiny": dict(shape=TINY_WIDE, examples=150, rounds=3, setups=3, queries=100,
                     score_all=3),
    },
}

KWAY_K = 16

# Each workload's pace kernel (see run.Pace): its table sizes, and its usual
# time on the 2-core machine the benchmark was tuned on. The sizes were
# chosen by measurement: a cache-resident table tracks the in-process
# workloads best, whose figures vary least with it; wide_cli's mix of short
# processes and lookups in large weight dicts slows less than that table
# when the machine slows, and is tracked best by half of each.
PACE = {
    "a10_online": ((512,), 0.8e-3),
    "wide_cli": ((512, 1 << 15), 2.6e-3),
    "kway_wide": ((512,), 0.8e-3),
}


class CheckedScores:
    """Estimator proxy for progressive validation that counts scores outside
    [0, 1]; NaN fails the range test too."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.bad = 0
        self.learn = estimator.learn

    @property
    def updates(self):
        return self.estimator.updates

    def score(self, x, y):
        q = self.estimator.score(x, y)
        if not 0.0 <= q <= 1.0:
            self.bad += 1
        return q


def _bad_scores(scores) -> int:
    return sum(1 for q in scores if not 0.0 <= q <= 1.0)


class Grow:
    """Progressive validation (score, then learn) of one fresh estimator and
    learn-only training of another, on the same stream, one chunk per round.

    With a budget, no learn call may make more regressor updates than that.
    A traced run also runs each chunk untraced on a third estimator; the
    tracing overhead is the ratio of the two times.
    """

    def __init__(self, run, make, examples, chunks: int, budget: int | None = None):
        self.run = run
        self.examples = examples
        self.step = -(-len(examples) // chunks)
        self.budget = budget
        self.pv = make()
        self.trained = make()
        self.checked = CheckedScores(self.pv)
        if run.tracer:
            with run.untraced():
                self.baseline = CheckedScores(make())
        self.pv_time: list = []
        self.train_time: list = []
        self.base_time: list = []
        self.loss = self.updates = 0.0
        self.m = self.over = 0

    def chunk(self, r: int) -> None:
        run = self.run
        chunk = self.examples[r * self.step:(r + 1) * self.step]
        if not chunk:
            return
        if run.tracer:
            with run.untraced(), run.timed(self.base_time):
                evaluation.progressive_validate(chunk, self.baseline)
        with run.phase("pv"), run.timed(self.pv_time):
            report = evaluation.progressive_validate(run.stream(chunk), self.checked)
        self.m += report.m
        self.loss += report.mean_sq_loss * report.m
        self.updates += report.updates_per_example * report.m
        trained, budget = self.trained, self.budget
        learn = trained.learn
        with run.phase("train"), run.timed(self.train_time):
            if budget is None:
                for ex in run.stream(chunk):
                    learn(ex.x, ex.y)
            else:
                for ex in run.stream(chunk):
                    learn(ex.x, ex.y)
                    if trained.last_example_updates > budget:
                        self.over += 1

    def finish(self) -> None:
        """Record pv_eps, train_eps and sq_loss over all chunks."""
        run, m = self.run, self.m
        run.check(m, self.checked.bad, "progressive-validation score outside [0, 1]")
        run.check(1, int(m != len(self.examples)), "progressive validation skipped examples")
        run.check(1, int(not 0.0 <= self.loss / m <= 1.0), "sq_loss outside [0, 1]")
        if self.budget is not None:
            run.check(m, self.over, f"updates per example above the budget {self.budget}")
        run.metric("pv_eps", m / sum(run.paced(self.pv_time)), "ex/s")
        run.metric("train_eps", m / sum(run.paced(self.train_time)), "ex/s")
        run.metric("sq_loss", self.loss / m, "mse")

    @property
    def overhead(self) -> float:
        if not self.run.tracer:
            return 0.0
        return sum(self.run.paced(self.pv_time)) / sum(self.run.paced(self.base_time))


def _score_all(run, predict, x, labels, sums_to_one: bool, into: list) -> None:
    """Score every label for one x; appends the time it took to into."""
    with run.timed(into):
        scores = [predict(x, y) for y in labels]
    run.check(len(scores), _bad_scores(scores), "score-all score outside [0, 1]")
    if sums_to_one:
        run.check(1, int(not abs(math.fsum(scores) - 1.0) <= 1e-9),
                  "score-all does not sum to 1 within 1e-9")


class ClosedLoop:
    """One caller scoring (x, y) pairs back to back, with no think time.

    A block is one pass over the pairs. Percentiles are taken per block and
    the run reports their median over blocks, so a burst of interference
    from other processes moves one block's figures, not the run's.
    """

    def __init__(self, run, pairs):
        self.run = run
        self.pairs = pairs
        self.predict = None
        self.blocks: list[tuple[float, float, int, int]] = []  # start, end, p50 ns, p99 ns
        self.calls = 0
        self.bad = 0

    def until(self, end: float) -> None:
        """Run whole blocks until the clock passes end; at least one.

        An untimed pass over the first eighth of the pairs comes first: the
        work between rounds evicts the model from the caches, which a
        long-lived caller would not see.
        """
        clock = time.perf_counter_ns
        tracer = self.run.tracer
        predict = self.predict
        pace = self.run.pace
        for x, y in self.pairs[:len(self.pairs) // 8]:
            predict(x, y)
        while True:
            pace.probe()
            start = time.perf_counter()
            latencies = []
            for x, y in self.pairs:
                if tracer:
                    tracer.example += 1
                t0 = clock()
                q = predict(x, y)
                latencies.append(clock() - t0)
                if not 0.0 <= q <= 1.0:
                    self.bad += 1
            end_block = time.perf_counter()
            latencies.sort()
            self.blocks.append((start, end_block, percentile(latencies, 50),
                                percentile(latencies, 99)))
            self.calls += len(latencies)
            if end_block >= end:
                pace.probe()
                return

    def finish(self) -> None:
        run = self.run
        run.check(self.calls, self.bad, "predict score outside [0, 1]")
        p50, p99 = [], []
        for t0, t1, q50, q99 in self.blocks:
            scale = run.pace.factor(t0, t1)
            p50.append(q50 * scale)
            p99.append(q99 * scale)
        run.metric("predict_us_p50", median(p50) / 1e3, "us")
        run.metric("predict_us_p99", median(p99) / 1e3, "us")
        run.notes["predict_samples"] = (
            f"{self.calls} calls in {len(self.blocks)} blocks of {len(self.pairs)}"
        )


def _share(r: int, rounds: int, total: int) -> range:
    """Indices of the samples, out of total, that round r of rounds takes."""
    return range(math.ceil(r * total / rounds), math.ceil((r + 1) * total / rounds))


def _window(run, rounds: int, step, loop: ClosedLoop) -> None:
    """Split the measured window into equal rounds.

    Each round runs step(r), its share of every other sample, which also
    sets loop.predict; closed-loop blocks then fill the round.
    """
    start = time.perf_counter()
    for r in range(rounds):
        step(r)
        with run.phase("query"):
            loop.until(start + (run.deadline - start) * (r + 1) / rounds)
    loop.finish()


def _save_bytes(run, name: str, mode: str, config, estimator) -> bytes:
    path = run.work / name
    model_io.save_model(path, mode, config, estimator)
    return path.read_bytes()


def _tree_weights(tree) -> int:
    return sum(len(node.reg.weights) for node in tree.nodes)


def _train(estimator, examples):
    for ex in examples:
        estimator.learn(ex.x, ex.y)
    return estimator


def a10_online(run) -> None:
    size = SIZES["a10_online"][run.size]
    inp = inputs.a10_inputs(run.seed, size["contexts"], size["labels"], size["examples"],
                            size["queries"], size["score_all"])
    run.inputs.update(inp.sha256)
    config = model_io.ModelConfig(alpha=1.0, eta=0.1)

    def make():
        return cpt.CondProbTree(alpha=1.0, learning_rate=0.1)

    with run.phase("setup"):
        xs = [features.from_tokens([(tok, 1.0)]) for tok in inp.context_tokens]
        examples = [features.Example(xs[c], y) for c, y in inp.stream]
    # The frozen model the queries use, trained before the window opens.
    with run.untraced():
        reference = _train(make(), examples)
        ref_bytes = _save_bytes(run, "a10-ref.bin", "cpt-online", config, reference)
    run.record_model("cpt-online", ref_bytes)

    n = len(inp.labels)
    budget = math.ceil(math.log2(n) / math.log2(1.0 / cpt.max_side_fraction(1.0))) + 3
    pairs = [(xs[c], y) for c, y in inp.queries]
    rounds = size["rounds"]
    loop = ClosedLoop(run, pairs)
    loads, score_all = [], []

    run.start_clock()
    grow = Grow(run, make, examples, rounds, budget)

    def step(r: int) -> None:
        grow.chunk(r)
        for i in _share(r, rounds, size["loads"]):
            with run.phase("load"), run.timed(loads):
                loaded = model_io.load_model(run.work / "a10-ref.bin").estimator
            loop.predict = loaded.predict
            if i == 0:
                pack = struct.Struct("<d").pack
                differ = sum(1 for x, y in pairs
                             if pack(loaded.predict(x, y)) != pack(reference.predict(x, y)))
                run.check(len(pairs), differ, "prediction after load_model is not bit-identical")
        for i in _share(r, rounds, size["score_all"]):
            with run.phase("query"):
                x = xs[inp.score_all_contexts[i]]
                _score_all(run, loop.predict, x, inp.labels, True, score_all)

    _window(run, rounds, step, loop)
    grow.finish()
    with run.phase("save"):
        pv_bytes = _save_bytes(run, "a10-pv.bin", "cpt-online", config, grow.pv)
        trained_bytes = _save_bytes(run, "a10-train.bin", "cpt-online", config, grow.trained)
    run.check(2, (pv_bytes != ref_bytes) + (trained_bytes != ref_bytes),
              "model trained with scoring, or learn-only in chunks, differs from the reference")
    run.metric("setup_s", median(run.paced(loads)), "s")
    run.metric("score_all_ms", median(run.paced(score_all)) * 1e3, "ms")
    run.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    run.notes["model_bytes"] = len(ref_bytes)
    run.notes["max_depth"] = reference.max_depth
    if run.tracer:
        run.report_layers(grow.m, grow.overhead, {
            "weights_stored": _tree_weights(grow.pv),
            "tree_updates_per_example": grow.updates / grow.m,
            "max_depth": grow.pv.max_depth,
            "nodes": len(grow.pv.nodes),
            "bytes": len(pv_bytes),
        })


def _read_report(path) -> dict:
    """The single row of a cptree report TSV, or {} if there is not exactly one."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle, delimiter="\t"))
    except FileNotFoundError:
        return {}
    return rows[0] if len(rows) == 1 else {}


def _loop_seconds(run, evals) -> list[float]:
    """Progressive-validation time each eval report gives, at the reference
    pace of the call it came from."""
    return [float(row.get("seconds", "nan")) * run.pace.factor(*interval)
            for interval, row in evals]


def wide_cli(run) -> None:
    size = SIZES["wide_cli"][run.size]
    shape = size["shape"]
    stream = inputs.WideStream(shape, run.seed)
    files = {"train": stream.lines(size["train"]), "test": stream.lines(size["test"])}
    files["one"] = files["test"][:1]
    paths = {}
    for name, lines in files.items():
        paths[name] = run.work / f"wide-{name}.txt"
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        run.inputs[name] = inputs.text_sha256(lines)

    def evaluate(model, test: str, *flags, traced=None):
        """One cptree eval call, checked; returns ((start, end), report row)."""
        report = run.work / f"wide-report-{test}.tsv"
        report.unlink(missing_ok=True)
        interval, _ = run.cli(["eval", "--model", str(model), "--test", str(paths[test]),
                               "--report", str(report), *flags], traced=traced)
        row = _read_report(report)
        lines = len(files[test])
        run.check(1, int(row.get("examples") != str(lines)),
                  f"eval report examples {row.get('examples')!r} != {lines} lines")
        loss = float(row.get("sq_loss", "nan"))
        run.check(1, int(not 0.0 <= loss <= 1.0), "eval sq_loss outside [0, 1]")
        return interval, row

    trains, evals, untraced, setups, score_all = [], [], [], [], []
    models = set()
    queries: list = []
    loop = ClosedLoop(run, queries)
    state = {}
    model = run.work / "wide-model.bin"

    run.start_clock()

    def step(r: int) -> None:
        model.unlink(missing_ok=True)
        with run.phase("train"):
            interval, _ = run.cli(["train", "--mode", "cpt-online", "--alpha", "0.75", "--eta",
                                   "0.1", "--train", str(paths["train"]), "--model", str(model)])
        trains.append(interval)
        models.add(hashlib.sha256(model.read_bytes() if model.exists() else b"").hexdigest())
        if run.tracer:
            untraced.append(evaluate(model, "test", traced=False))
        with run.phase("pv"):
            interval, row = evaluate(model, "test")
        evals.append((interval, row))
        with run.phase("setup"):
            setups.append(evaluate(model, "one", "--freeze")[0])
        if r == 0:
            with run.phase("load"):
                state["bytes"] = model.read_bytes()
                state["model"] = model_io.load_model(model).estimator
                resaved = _save_bytes(run, "wide-resaved.bin", "cpt-online",
                                      model_io.ModelConfig(alpha=0.75, eta=0.1), state["model"])
            run.check(1, int(resaved != state["bytes"]),
                      "load then save does not reproduce the model bytes")
            with run.phase("query"):
                parsed = data.read_examples(files["test"][:size["queries"]])
                queries.extend((ex.x, ex.y) for ex in parsed)
            loop.predict = state["model"].predict
        for i in _share(r, size["rounds"], size["score_all"]):
            with run.phase("query"):
                _score_all(run, loop.predict, queries[i][0], shape.labels, True, score_all)

    _window(run, size["rounds"], step, loop)
    run.check(1, int(len(models) != 1), "repeated cptree train wrote different model bytes")
    run.record_model("cpt-online", state["bytes"])
    rows = [row for _, row in evals]
    losses = {row.get("sq_loss") for row in rows}
    run.check(1, int(len(losses) != 1), "repeated cptree eval reported different losses")
    # Rates per round, then their median: one round spoiled by a burst of
    # other work on the machine does not move the run's figure.
    eval_s = _loop_seconds(run, evals)
    run.metric("pv_eps", size["test"] / median(eval_s), "ex/s")
    run.metric("train_eps", size["train"] / median(run.paced(trains)), "ex/s")
    run.metric("sq_loss", float(rows[0].get("sq_loss", "nan")), "mse")
    run.metric("setup_s", median(run.paced(setups)), "s")
    run.metric("score_all_ms", median(run.paced(score_all)) * 1e3, "ms")
    # The CLI processes are the ones a user runs; report their peak.
    run.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    loaded = state["model"]
    run.notes["model_bytes"] = len(state["bytes"])
    run.notes["max_depth"] = loaded.max_depth
    if run.tracer:
        overhead = sum(eval_s) / sum(_loop_seconds(run, untraced))
        run.report_layers(size["test"] * size["rounds"], overhead, {
            "weights_stored": _tree_weights(loaded),
            "tree_updates_per_example": float(rows[0]["updates_per_example"]),
            "max_depth": loaded.max_depth,
            "nodes": len(loaded.nodes),
            "bytes": len(state["bytes"]),
        })


def kway_wide(run) -> None:
    size = SIZES["kway_wide"][run.size]
    shape = size["shape"]
    lines = inputs.WideStream(shape, run.seed).lines(size["examples"])
    run.inputs["stream"] = inputs.text_sha256(lines)
    config = model_io.ModelConfig(k=KWAY_K, eta=0.1)

    def make():
        return pecoc.KWayTree(shape.labels, k=KWAY_K, learning_rate=0.1)

    setups = []

    def set_up() -> None:
        """Parse the stream and build the estimator: all that precedes its first answer."""
        with run.phase("setup"), run.timed(setups):
            list(data.read_examples(lines))
            make()

    with run.phase("setup"):
        examples = list(data.read_examples(lines))
    # The frozen model the queries use, trained before the window opens.
    with run.untraced():
        reference = _train(make(), examples)
    pairs = [(ex.x, ex.y) for ex in examples[:size["queries"]]]
    rounds = size["rounds"]
    loop = ClosedLoop(run, pairs)
    loop.predict = reference.score
    score_all = []

    run.start_clock()
    grow = Grow(run, make, examples, rounds)

    def step(r: int) -> None:
        grow.chunk(r)
        for _ in _share(r, rounds, size["setups"]):
            set_up()
        for i in _share(r, rounds, size["score_all"]):
            with run.phase("query"):
                _score_all(run, reference.score, pairs[i][0], shape.labels, False, score_all)

    _window(run, rounds, step, loop)
    grow.finish()
    per_example = (KWAY_K - 1) * reference.depth
    for est in (reference, grow.pv, grow.trained):
        run.check(1, int(est.updates != per_example * len(examples)),
                  f"updates per example != (k-1)*depth = {per_example}")
    # Model bytes only for the determinism checks, outside every timed and
    # traced phase: this workload measures no model I/O.
    with run.untraced():
        ref_bytes = _save_bytes(run, "kway-ref.bin", "kway", config, reference)
        pv_bytes = _save_bytes(run, "kway-pv.bin", "kway", config, grow.pv)
        trained_bytes = _save_bytes(run, "kway-train.bin", "kway", config, grow.trained)
    run.check(2, (pv_bytes != ref_bytes) + (trained_bytes != ref_bytes),
              "model trained with scoring, or learn-only in chunks, differs from the reference")
    run.record_model("kway", ref_bytes)
    run.metric("setup_s", median(run.paced(setups)), "s")
    run.metric("score_all_ms", median(run.paced(score_all)) * 1e3, "ms")
    run.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    if run.tracer:
        weights = sum(len(reg.weights) for regs in grow.pv._node_regs.values() for reg in regs)
        run.report_layers(grow.m, grow.overhead, {"weights_stored": weights})
