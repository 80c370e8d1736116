"""cptree benchmark: one workload per process, results as one JSON line.

Usage, from the repository root:

    python3 bench/run.py --workload a10_online --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 installs wrappers
around every layer's public calls and reports the per-layer metrics
instead. --size tiny shrinks every input for a smoke run. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the lines
before it give every metric by name and unit, the run metadata, and any
failed check. BENCHMARK.json lists the metrics, and bench/README.md says
how to read them.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("a10_online", "wide_cli", "kway_wide")


def import_package():
    """Import cptree from this checkout's src/, and nowhere else."""
    if not (SRC / "cptree" / "__init__.py").is_file():
        raise SystemExit(f"error: no cptree package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cptree

    if Path(cptree.__file__).resolve().parent != (SRC / "cptree").resolve():
        raise SystemExit(f"error: imported cptree from {cptree.__file__}, not {SRC}")
    return cptree


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cptree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Pace:
    """How fast the machine runs right now, read off a fixed kernel.

    The shared machine the benchmark was tuned on runs the same code up to
    1.8 times slower for stretches of seconds to minutes, longer than a run,
    and compute-bound code slows more than code that waits on memory. So the
    run times a small kernel between its samples: dict lookups with float
    arithmetic, like the regressors' inner loop, over one or more tables
    (workloads.PACE gives each workload's sizes). It calls no cptree code,
    so a change to cptree cannot move it. Every time the benchmark reports
    is a time at the reference pace: the measured time times reference_s
    (the kernel's usual time on that machine) over the kernel's median time
    within WINDOW_S of the sample.
    """

    WINDOW_S = 1.0
    LOOKUPS = 8192

    def __init__(self, tables: tuple[int, ...], reference_s: float) -> None:
        self.reference_s = reference_s
        rng = random.Random(0)
        self._work = []
        for entries in tables:
            table: dict[int, float] = {}
            while len(table) < entries:
                table[rng.randrange(1 << 18)] = rng.random()
            keys = list(table)
            order = [keys[rng.randrange(entries)] for _ in range(self.LOOKUPS // len(tables))]
            self._work.append((table, order))
        self._times: list[float] = []
        self._seconds: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        total = 0.0
        for table, order in self._work:
            for key in order:
                v = table.get(key)
                if v is not None:
                    total += v * 1.5
        t1 = time.perf_counter()
        self._times.append((t0 + t1) / 2)
        self._seconds.append(t1 - t0)

    def factor(self, t0: float, t1: float) -> float:
        """Reference pace over the pace measured within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self._times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self._times, t1 + self.WINDOW_S)
        near = self._seconds[lo:hi]
        if not near:
            i = min(range(len(self._times)), key=lambda j: abs(self._times[j] - t0))
            near = self._seconds[i:i + 1]
        return self.reference_s / statistics.median(near)

    def notes(self) -> dict:
        q = statistics.quantiles(self._seconds, n=4) if len(self._seconds) > 1 else [0, 0, 0]
        return {"probes": len(self._seconds), "kernel_ms_q1_q2_q3": [round(v * 1e3, 4) for v in q]}


class Run:
    """State of one benchmark run: checks, metrics, metadata, tracing."""

    def __init__(self, workload: str, seed: int, seconds: int, size: str, trace: bool,
                 pace: Pace):
        from tracing import Tracer

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, object] = {}
        self.inputs: dict[str, str] = {}
        self.models: dict[str, str] = {}
        self.src_sha = source_sha256()
        self.work = WORK / f"{workload}-{size}"
        self.pace = pace
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.deadline = time.perf_counter() + seconds
        self._cli_calls = 0

    # -- checks and results ---------------------------------------------

    def check(self, attempted: int, failed: int, what: str) -> None:
        """Count attempted operations and those whose output failed a check."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what} ({failed} of {attempted})")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def report_layers(self, pv_examples: int, overhead: float, facts: dict) -> None:
        """Per-layer metrics of a traced run, and its spans written to a file."""
        from tracing import layer_metrics, layer_self_ms

        self.tracer.uninstall()
        for name, (value, unit) in layer_metrics(self.tracer, pv_examples, overhead,
                                                 facts).items():
            self.layers[name] = (float(value), unit)
        self.notes["layer_self_ms"] = {k: round(v, 3) for k, v in
                                       sorted(layer_self_ms(self.tracer).items())}
        path = self.work / "trace-spans.tsv"
        self.notes["spans"] = f"{self.tracer.write_spans(path)} in {path.relative_to(ROOT)}"

    @contextmanager
    def timed(self, into: list):
        """Append the (start, end) of the body to into, with pace probes around it."""
        self.pace.probe()
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        self.pace.probe()
        into.append((t0, t1))

    def paced(self, intervals) -> list[float]:
        """Durations of (start, end) intervals at the reference pace."""
        return [(t1 - t0) * self.pace.factor(t0, t1) for t0, t1 in intervals]

    def start_clock(self) -> None:
        """Start the measured window of --seconds; fill loops run until it ends.

        The objects built so far (inputs, reference models) are frozen out of
        the cyclic collector, so its passes in the window scan what the
        measured code allocates, not the benchmark's own set-up.
        """
        gc.collect()
        gc.freeze()
        self.deadline = time.perf_counter() + self.seconds

    def phase(self, name: str):
        return self.tracer.phase(name) if self.tracer else nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def stream(self, examples):
        return self.tracer.stream(examples) if self.tracer else examples

    def record_model(self, label: str, raw: bytes) -> str:
        """Record a model's sha256 and check it against earlier runs.

        Runs of the same source on the same inputs must write the same
        bytes; the digests of earlier runs in this checkout are kept in
        .bench_work/model_digests.json.
        """
        digest = hashlib.sha256(raw).hexdigest()
        self.models[label] = digest
        inputs_sha = hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode()).hexdigest()
        key = ":".join((self.src_sha, self.workload, self.size, inputs_sha, label))
        registry = WORK / "model_digests.json"
        known = json.loads(registry.read_text()) if registry.exists() else {}
        previous = known.get(key)
        self.check(1, int(previous is not None and previous != digest),
                   f"model {label} differs from an earlier run on the same source and inputs")
        if previous is None:
            known[key] = digest
            tmp = registry.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
            os.replace(tmp, registry)
        return digest

    # -- subprocesses ------------------------------------------------------

    def cli(self, args: list[str], traced: bool | None = None):
        """Run one cptree CLI command; returns its (start, end) and the completed process.

        With tracing on, the command runs under bench/traced_cli.py, which
        installs the same wrappers in the child and hands back its counters.
        """
        traced = self.tracer is not None if traced is None else traced
        if traced:
            self._cli_calls += 1
            prefix = self.work / f"trace-cli-{self._cli_calls}"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(prefix), *args]
        else:
            cmd = [sys.executable, "-m", "cptree.cli", *args]
        interval = []
        with self.timed(interval):
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=150)
        self.check(1, int(done.returncode != 0),
                   f"cptree {args[0]} exited {done.returncode}: {done.stderr.strip()[-300:]}")
        if traced and done.returncode == 0:
            with open(f"{prefix}.json", encoding="utf-8") as handle:
                self.tracer.absorb(json.load(handle))
        return interval[0], done

    # -- output ------------------------------------------------------------

    def metadata(self) -> dict:
        import numpy

        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "size": self.size,
            "trace": self.tracer is not None,
            "git_sha": git_sha(),
            "src_sha256": self.src_sha,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "inputs_sha256": self.inputs,
            "models_sha256": self.models,
        }

    def finish(self) -> dict:
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        meta = self.metadata()
        print(f"workload {self.workload}  seed {self.seed}  size {self.size}"
              f"  trace {int(self.tracer is not None)}")
        shown = self.layers if self.tracer else self.metrics
        if self.tracer:
            for name, (value, unit) in self.metrics.items():
                print(f"  (traced) {name:<23} {value:>16.6g} {unit}")
        for name, (value, unit) in shown.items():
            print(f"  {name:<32} {value:>16.6g} {unit}")
        print(f"  {'error_rate':<32} {error_rate:>16.6g} failed/attempted"
              f" ({self.failed}/{self.attempted})")
        self.notes["pace"] = self.pace.notes()
        for key, value in self.notes.items():
            print(f"  note {key}: {value}")
        for failure in self.failures:
            print(f"  FAILED {failure}")
        print("meta " + json.dumps(meta, sort_keys=True))
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
        }
        saved = dict(result, error_rate=error_rate, notes=self.notes,
                     failures=self.failures, meta=meta)
        out = WORK / "results"
        out.mkdir(parents=True, exist_ok=True)
        name = f"{self.workload}-{self.size}-seed{self.seed}-trace{int(self.tracer is not None)}"
        (out / f"{name}.json").write_text(json.dumps(saved, indent=1, sort_keys=True))
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_package()
    import workloads

    run = Run(args.workload, args.seed, args.seconds, args.size, bool(args.trace),
              Pace(*workloads.PACE[args.workload]))
    if run.tracer:
        run.tracer.install()
    getattr(workloads, args.workload)(run)
    result = run.finish()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
