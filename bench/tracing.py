"""Per-layer tracing installed from outside the package.

A traced run replaces, for its own duration, the names through which callers
reach each layer: module globals such as ``cptree.data.from_tokens`` (the name
``parse_example_line`` resolves) and class attributes such as
``LinearRegressor.raw`` (the name every instance call resolves). Calls made
about once per example become spans; the microsecond-scale calls (regressor
raw/update, feature hashing, code decoding, path walks) only add to counts
and busy time, since one span each would mean millions of spans.

Every wrapped call, span or counter, adds its duration to the enclosing
frame, so a frame's self time is its duration minus the time of the calls
nested in it. Phases are top-level spans: whatever a phase spends outside
any layer is its self time, which the run reports as the remainder, and the
layer self times plus the phase remainders add up to the traced wall time.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

# Span records: span id, parent span id, example id, name id, start ns,
# end ns, self ns. Span id 0 is the implicit root.
RECORD_FIELDS = ("span", "parent", "example", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records = array("q")
        # phase -> name -> [calls, inclusive ns, self ns, feature entries]
        self.stats: dict[str, dict[str, list[int]]] = {}
        self.cur = self.stats.setdefault("-", {})
        self.max_updates = 0
        self.insert_decisions = 0
        self.disagreements = 0
        self.example = 0
        self._next_span = 1
        self._open = [0]
        self._child = [0]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- bookkeeping -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stat(self, name: str) -> list[int]:
        stat = self.cur.get(name)
        if stat is None:
            stat = self.cur[name] = [0, 0, 0, 0]
        return stat

    def counter(self, name: str, fn, feature_arg: bool = False):
        """Wrap fn so each call adds to counts and busy time, with no span."""
        clock = time.perf_counter_ns
        child = self._child
        stat_of = self._stat

        if feature_arg:
            def wrapper(owner, x, *rest):
                child.append(0)
                t0 = clock()
                try:
                    return fn(owner, x, *rest)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    child[-1] += dt
                    stat = stat_of(name)
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - inner
                    stat[3] += len(x)
        else:
            def wrapper(*args, **kwargs):
                child.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    child[-1] += dt
                    stat = stat_of(name)
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - inner
        return wrapper

    def span(self, name: str, fn, starts_example: bool = False, after=None):
        """Wrap fn so each call records one span; after(owner) runs on return."""
        clock = time.perf_counter_ns
        child = self._child
        opened = self._open
        records = self.records
        stat_of = self._stat
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if starts_example:
                tracer.example += 1
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = opened[-1]
            opened.append(sid)
            child.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child.pop()
                opened.pop()
                dt = t1 - t0
                child[-1] += dt
                stat = stat_of(name)
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                records.extend((sid, parent, tracer.example, nid, t0, t1, dt - inner))
            if after is not None:
                after(args[0])
            return result
        return wrapper

    @contextmanager
    def phase(self, name: str):
        """Top-level span that also scopes the counters to this phase."""
        outer = self.cur
        self.cur = self.stats.setdefault(name, {})
        sid = self._next_span
        self._next_span = sid + 1
        parent = self._open[-1]
        self._open.append(sid)
        self._child.append(0)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            inner = self._child.pop()
            self._open.pop()
            dt = t1 - t0
            self._child[-1] += dt
            stat = self._stat("phase")
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - inner
            self.records.extend(
                (sid, parent, self.example, self._name_id("phase." + name), t0, t1, dt - inner)
            )
            self.cur = outer

    def stream(self, examples):
        """Yield examples, giving each the next example id."""
        for example in examples:
            self.example += 1
            yield example

    def add_covered(self, name: str, ns: int) -> None:
        """Account ns spent in name, outside any wrapped call, as covered time."""
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += ns
        stat[2] += ns
        self._child[-1] += ns

    def absorb(self, summary: dict) -> None:
        """Merge a child process's counters into the current phase.

        The child's covered time is added to the enclosing frame, so only
        the child's uncovered time (interpreter start and exit) stays in the
        phase remainder.
        """
        for name, values in summary["stats"].items():
            stat = self._stat(name)
            for i, v in enumerate(values):
                stat[i] += v
        self._child[-1] += summary["covered_ns"]
        self.max_updates = max(self.max_updates, summary["max_updates"])
        self.insert_decisions += summary["insert_decisions"]
        self.disagreements += summary["disagreements"]

    def summary(self) -> dict:
        """Counters of a single-phase run, as absorb() expects them."""
        return {
            "stats": self.stats["-"],
            "covered_ns": self._child[0],
            "max_updates": self.max_updates,
            "insert_decisions": self.insert_decisions,
            "disagreements": self.disagreements,
        }

    def write_spans(self, path) -> int:
        """Write every span as one TSV row; returns the number of spans."""
        rows = len(RECORD_FIELDS)
        recs = self.records
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("\t".join(RECORD_FIELDS) + "\n")
            for i in range(0, len(recs), rows):
                row = recs[i:i + rows].tolist()
                row[3] = names[row[3]]
                out.write("\t".join(map(str, row)) + "\n")
        return len(recs) // rows

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public calls into each cptree layer, as their callers resolve them."""
        import sys

        import cptree.data as data
        import cptree.evaluation as evaluation
        import cptree.features as features
        import cptree.model_io as model_io
        import cptree.pecoc as pecoc
        from cptree.regressor import LinearRegressor
        from cptree.tree import CondProbTree

        def after_learn(tree) -> None:
            if tree.last_example_updates > self.max_updates:
                self.max_updates = tree.last_example_updates

        insert_label = CondProbTree.insert_label

        def traced_insert(tree, x, y):
            before = tree.disagreement_count
            leaf = insert_label(tree, x, y)
            # The last node on the path is the split leaf, where no
            # direction is chosen.
            self.insert_decisions += max(len(tree.last_insert_path) - 1, 0)
            self.disagreements += tree.disagreement_count - before
            return leaf

        from_tokens = self.span("features.from_tokens", features.from_tokens)
        pv = self.span("evaluation.progressive_validate", evaluation.progressive_validate)
        save = self.span("model_io.save", model_io.save_model)
        load = self.span("model_io.load", model_io.load_model)
        targets = [
            (data, "parse_example_line",
             self.span("data.parse", data.parse_example_line, starts_example=True)),
            (data, "from_tokens", from_tokens),
            (features, "from_tokens", from_tokens),
            (features, "canonicalize", self.span("features.canonicalize", features.canonicalize)),
            (features, "hash_feature", self.counter("features.hash", features.hash_feature)),
            (LinearRegressor, "raw", self.counter("regressor.raw", LinearRegressor.raw, True)),
            (LinearRegressor, "update",
             self.counter("regressor.update", LinearRegressor.update, True)),
            (CondProbTree, "score", self.span("tree.score", CondProbTree.score)),
            (CondProbTree, "predict", self.span("tree.predict", CondProbTree.predict)),
            (CondProbTree, "learn", self.span("tree.learn", CondProbTree.learn, after=after_learn)),
            (CondProbTree, "train_known", self.span("tree.train_known", CondProbTree.train_known)),
            (CondProbTree, "insert_label", self.span("tree.insert", traced_insert)),
            (CondProbTree, "path_to", self.counter("tree.path", CondProbTree.path_to)),
            (pecoc.KWayTree, "score", self.span("pecoc.score", pecoc.KWayTree.score)),
            (pecoc.KWayTree, "learn", self.span("pecoc.learn", pecoc.KWayTree.learn)),
            (pecoc, "decode_probability",
             self.counter("pecoc.decode", pecoc.decode_probability)),
            (evaluation, "progressive_validate", pv),
            (model_io, "save_model", save),
            (model_io, "load_model", load),
        ]
        cli = sys.modules.get("cptree.cli")
        if cli is not None:
            targets += [
                (cli, "progressive_validate", pv),
                (cli, "save_model", save),
                (cli, "load_model", load),
            ]
        for owner, attr, wrapper in targets:
            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run the body with every wrapper removed."""
        saved = list(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            for owner, attr, _, wrapper in saved:
                setattr(owner, attr, wrapper)
            self._patches = saved


def _totals(tracer: Tracer, phases=None) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for phase, stats in tracer.stats.items():
        if phases is not None and phase not in phases:
            continue
        for name, values in stats.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v
    return out


def layer_self_ms(tracer: Tracer) -> dict[str, float]:
    """Self time per layer over the whole traced run; 'remainder' is the time
    the phases spent outside every layer. The values sum to the traced wall."""
    out: dict[str, float] = {}
    for name, values in _totals(tracer).items():
        layer = "remainder" if name == "phase" else name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + values[2] / 1e6
    return out


def layer_metrics(tracer: Tracer, pv_examples: int, overhead: float, facts: dict) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Per-call times are self times averaged over every traced call; the
    per-example counts and the evaluation times are taken over the
    progressive-validation phase ("pv") alone. facts carries what the run read off its final
    model: nodes, max_depth, weights_stored, updates_per_example, bytes.
    """
    every = _totals(tracer)
    pv = _totals(tracer, {"pv"})
    none = [0, 0, 0, 0]

    def calls(t, *names):
        return sum(t.get(n, none)[0] for n in names)

    def ns(t, index, *names):
        return sum(t.get(n, none)[index] for n in names)

    def per_call(t, name, scale=1e3):
        c = calls(t, name)
        return ns(t, 2, name) / c / scale if c else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = pv_examples
    raw_update = ("regressor.raw", "regressor.update")
    metrics = {
        "data.parse_us": (per_call(every, "data.parse"), "us"),
        "features.hash_calls": (ratio(calls(every, "features.hash"),
                                      calls(every, "features.from_tokens")), "count"),
        "features.hash_us": (per_call(every, "features.hash"), "us"),
        "features.canonicalize_us": (per_call(every, "features.canonicalize"), "us"),
        "regressor.raw_calls": (ratio(calls(pv, "regressor.raw"), m), "count"),
        "regressor.update_calls": (ratio(calls(pv, "regressor.update"), m), "count"),
        "regressor.raw_us": (per_call(every, "regressor.raw"), "us"),
        "regressor.update_us": (per_call(every, "regressor.update"), "us"),
        "regressor.nnz_per_call": (ratio(ns(every, 3, *raw_update), calls(every, *raw_update)),
                                   "count"),
        "regressor.weights_stored": (facts.get("weights_stored", 0), "count"),
        "tree.path_us": (per_call(every, "tree.path"), "us"),
        "tree.predict_us": (per_call(every, "tree.predict"), "us"),
        "tree.train_known_us": (per_call(every, "tree.train_known"), "us"),
        "tree.insert_us": (per_call(every, "tree.insert"), "us"),
        "tree.insert_share": (ratio(calls(every, "tree.insert"), calls(every, "tree.learn")),
                              "ratio"),
        "tree.updates_per_example": (facts.get("tree_updates_per_example", 0.0), "count"),
        "tree.max_updates_per_example": (tracer.max_updates, "count"),
        "tree.max_depth": (facts.get("max_depth", 0), "count"),
        "tree.nodes": (facts.get("nodes", 0), "count"),
        "tree.disagreement_rate": (ratio(tracer.disagreements, tracer.insert_decisions),
                                   "ratio"),
        "pecoc.score_us": (per_call(every, "pecoc.score"), "us"),
        "pecoc.learn_us": (per_call(every, "pecoc.learn"), "us"),
        "pecoc.decode_calls": (ratio(calls(every, "pecoc.decode"), calls(every, "pecoc.score")),
                               "count"),
        "pecoc.decode_us": (per_call(every, "pecoc.decode"), "us"),
        "evaluation.score_us": (ratio(ns(pv, 1, "tree.score", "pecoc.score"), m) / 1e3, "us"),
        "evaluation.learn_us": (ratio(ns(pv, 1, "tree.learn", "pecoc.learn"), m) / 1e3, "us"),
        "evaluation.loop_self_us": (ratio(ns(pv, 2, "evaluation.progressive_validate"), m)
                                    / 1e3, "us"),
        "model_io.save_ms": (per_call(every, "model_io.save", 1e6), "ms"),
        "model_io.load_ms": (per_call(every, "model_io.load", 1e6), "ms"),
        "model_io.bytes": (facts.get("bytes", 0), "bytes"),
        "cli.import_s": (per_call(every, "cli.import", 1e9), "s"),
        "cli.self_s": (per_call(every, "cli.main", 1e9), "s"),
        "trace.overhead": (overhead, "ratio"),
        "trace.remainder_share": (ratio(ns(every, 2, "phase"), ns(every, 1, "phase")), "ratio"),
    }
    return metrics
