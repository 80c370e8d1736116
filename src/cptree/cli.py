"""Command-line front end: train, eval, compare, tradeoff, inspect, synth."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .data import format_example_line, read_example_file, read_label_file
from .evaluation import EvalReport, progressive_validate
from .model_io import (LABELED_MODES, MODES, ModelConfig, build_estimator, check_config,
                       check_config_fits, load_model, save_model)
from .pecoc import KWayTree, loss_multiplier
from .regressor import check_learning_rate
from .tree import CondProbTree, max_depth_bound, max_side_fraction, total_depth_bound

REPORT_COLUMNS = ("mode", "examples", "sq_loss", "ci", "equivalent",
                  "updates_per_example", "seconds")


class CliError(Exception):
    """User-facing error; printed to stderr with a nonzero exit."""


def _check_output_path(flag: str, path) -> None:
    """Refuse an output path that cannot be written: an empty one, one that
    is a directory or one whose directory does not exist. Called before any
    work; creates no file."""
    if path is None:
        return
    if not path:
        raise CliError(f"{flag} is an empty path")
    if os.path.isdir(path):
        raise CliError(f"{flag} {path} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise CliError(f"{flag} {path}: directory {folder} does not exist")


def _check_delta(args) -> None:
    if not 0.0 < args.delta < 1.0:
        raise ValueError(f"--delta must be in (0, 1), got {args.delta}")


def _config_from_args(args) -> ModelConfig:
    """The run's config. --passes and --delta are checked here, before any
    model is trained."""
    if args.passes < 1:
        raise ValueError(f"--passes must be at least 1, got {args.passes}")
    _check_delta(args)
    return ModelConfig(
        alpha=args.alpha,
        eta=args.eta,
        hash_bits=args.bits,
        passes=args.passes,
        k=getattr(args, "k", 0) or 0,
        delta=args.delta,
        seed=args.seed,
    )


def _new_estimator(mode: str, cfg: ModelConfig, path):
    """A fresh estimator for mode; labeled modes get the labels of the stream
    at path, in first-seen order."""
    labels = ()
    if mode in LABELED_MODES:
        # Each of these estimators refuses a bad rate when it is built; the
        # same check here refuses it before the label pass.
        check_learning_rate(cfg.eta)
        labels = list(dict.fromkeys(read_label_file(path)))
    return build_estimator(mode, cfg, labels)


def _train_estimator(mode: str, cfg: ModelConfig, train_path, check=None):
    est = _new_estimator(mode, cfg, train_path)
    if check:  # after the estimator's own checks, before any example is read
        check(cfg)
    # Later passes see only labels the first one inserted: a tree keeps its shape.
    for _ in range(cfg.passes):
        for example in read_example_file(train_path, cfg.hash_bits):
            est.learn(example.x, example.y)
    return est


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.4f}"
    return str(value)


def _emit_report(rows: list[tuple], report_path, out) -> None:
    header = "\t".join(REPORT_COLUMNS)
    lines = [header]
    for row in rows:
        lines.append("\t".join(_format_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    widths = [max(len(col), 10) for col in REPORT_COLUMNS]
    print("  ".join(col.rjust(w) for col, w in zip(REPORT_COLUMNS, widths)), file=out)
    for row in rows:
        cells = [_format_cell(v).rjust(w) for v, w in zip(row, widths)]
        print("  ".join(cells), file=out)


def _report_row(mode: str, report: EvalReport) -> tuple:
    return (
        mode,
        report.m,
        report.mean_sq_loss,
        report.ci_halfwidth,
        report.equivalent,
        report.updates_per_example,
        report.wall_time,
    )


def cmd_train(args, out) -> int:
    _check_output_path("--model", args.model)
    cfg = _config_from_args(args)
    # A config save_model would refuse is refused before training. A bad
    # eta is refused first, with the estimator's own message: by a labeled
    # mode before its label pass, by the others when they are built.
    check_config_fits(cfg)
    est = _train_estimator(args.mode, cfg, args.train, check_config)
    save_model(args.model, args.mode, cfg, est)
    print(f"trained mode={args.mode} -> {args.model}", file=out)
    return 0


def cmd_eval(args, out) -> int:
    _check_output_path("--report", args.report)
    _check_delta(args)
    loaded = load_model(args.model)
    if args.mode and args.mode != loaded.mode:
        raise CliError(
            f"model was trained with mode {loaded.mode}, not {args.mode}"
        )
    stream = read_example_file(args.test, loaded.config.hash_bits)
    report = progressive_validate(
        stream, loaded.estimator, learn=not args.freeze, delta=args.delta
    )
    _emit_report([_report_row(loaded.mode, report)], args.report, out)
    return 0


def cmd_compare(args, out) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if len(modes) < 1:
        raise CliError("--modes must list at least one mode")
    for mode in modes:
        if mode not in MODES:
            raise CliError(f"unknown mode: {mode}")
    _check_output_path("--report", args.report)
    cfg = _config_from_args(args)
    rows = []
    for mode in modes:
        start = time.perf_counter()
        if args.train:
            est = _train_estimator(mode, cfg, args.train)
        else:
            est = _new_estimator(mode, cfg, args.test)
        stream = read_example_file(args.test, cfg.hash_bits)
        report = progressive_validate(stream, est, delta=args.delta)
        report.wall_time = time.perf_counter() - start
        rows.append(_report_row(mode, report))
    _emit_report(rows, args.report, out)
    return 0


def cmd_tradeoff(args, out) -> int:
    ks = [int(v) for v in args.k_list.split(",") if v.strip()]
    if not ks:
        raise CliError("--k-list must contain at least one value")
    _check_output_path("--report", args.report)
    lines = ["k\tregressors_per_example\tmultiplier"]
    print("         k  regressors/example  multiplier", file=out)
    for k in ks:
        try:
            multiplier = loss_multiplier(args.n, k)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        depth = round(math.log(args.n) / math.log(k))
        per_example = (k - 1) * depth
        lines.append(f"{k}\t{per_example}\t{multiplier!r}")
        print(f"{k:>10}  {per_example:>18}  {multiplier:>10.4f}", file=out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return 0


def cmd_inspect(args, out) -> int:
    loaded = load_model(args.model)
    est = loaded.estimator
    if isinstance(est, CondProbTree):
        stats = est.depth_stats()
        n = stats.n_leaves
        print(f"mode: {loaded.mode}", file=out)
        print(f"labels: {n}", file=out)
        print(f"max depth: {stats.max_depth}", file=out)
        print(f"total leaf depth: {stats.total_leaf_depth}", file=out)
        print(f"disagreements: {est.disagreement_count}", file=out)
        if n >= 2:
            side = max_side_fraction(est.alpha)
            depth_cap = max_depth_bound(n, side)
            total_cap = total_depth_bound(n, side)
            verdict = "OK" if stats.max_depth <= depth_cap else "FAIL"
            print(f"depth bound: {depth_cap:.4f} [{verdict}]", file=out)
            print(
                f"total depth bound: {total_cap:.4f}"
                f" (ratio {stats.total_leaf_depth / total_cap:.4f})",
                file=out,
            )
        histogram = " ".join(
            f"{d}:{c}" for d, c in sorted(stats.depth_histogram.items())
        )
        print(f"leaves per depth: {histogram}", file=out)
        return 0
    if isinstance(est, KWayTree):  # kway, or pecoc: a depth-1 k-way tree
        print(f"mode: {loaded.mode}", file=out)
        print(f"labels: {est.n_labels}", file=out)
        print(f"k: {est.k}", file=out)
        print(f"depth: {est.depth}", file=out)
        print(f"slots: {est.capacity}", file=out)
        print(f"regressors per node: {est.k - 1}", file=out)
        print(f"active nodes: {len(est._node_regs)}", file=out)
        return 0
    raise CliError(f"inspect requires a tree model, got mode {loaded.mode}")


def cmd_synth(args, out) -> int:
    from .synthetic import SyntheticTask

    _check_output_path("--out", args.out)
    # Sizes are split evenly over the groups, so each must cover every group.
    clustered = args.task == "clustered"
    if clustered and args.groups < 1:
        raise ValueError(f"--groups must be at least 1, got {args.groups}")
    least = args.groups if clustered else 1
    for flag, size in (("--contexts", args.contexts), ("--labels", args.labels)):
        if size < least:
            per_group = " (one per group)" if clustered else ""
            raise ValueError(f"{flag} must be at least {least}{per_group}, got {size}")
    if clustered:
        task = SyntheticTask.clustered(
            groups=args.groups,
            contexts_per_group=args.contexts // args.groups,
            labels_per_group=args.labels // args.groups,
            skew=args.skew,
            noise=args.noise,
            seed=args.seed,
            hash_bits=args.bits,
        )
    else:
        task = SyntheticTask.random(
            contexts=args.contexts,
            labels=args.labels,
            seed=args.seed,
            hash_bits=args.bits,
        )
    emit_seed = args.emit_seed if args.emit_seed is not None else args.seed + 1
    examples = task.sample(args.examples, seed=emit_seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        for example in examples:
            context = task.context_of(example.x)
            tokens = [(tok, 1.0) for tok in task.context_tokens[context]]
            handle.write(format_example_line(example.y, tokens) + "\n")
    print(
        f"wrote {len(examples)} examples over {task.label_count} labels"
        f" to {args.out}",
        file=out,
    )
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="insertion aggressiveness in (0, 1]")
    parser.add_argument("--eta", type=float, default=0.1, help="learning rate")
    parser.add_argument("--bits", type=int, default=18, help="feature hash bits")
    parser.add_argument("--passes", type=int, default=1,
                        help="training passes; passes > 1 freeze tree structure")
    parser.add_argument("--k", type=int, default=0, help="fan-out for kway mode")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="confidence parameter for intervals")
    parser.add_argument("--seed", type=int, default=0, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cptree",
        description="Conditional probability estimation over large label sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a text stream")
    p_train.add_argument("--mode", required=True, choices=MODES)
    p_train.add_argument("--train", required=True, help="training stream path")
    p_train.add_argument("--model", required=True, help="output model path")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="progressively validate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--test", required=True, help="evaluation stream path")
    p_eval.add_argument("--report", default=None, help="write a TSV report here")
    p_eval.add_argument("--mode", default=None, choices=MODES,
                        help="assert the model was trained with this mode")
    p_eval.add_argument("--freeze", action="store_true",
                        help="disable learning during evaluation")
    p_eval.add_argument("--delta", type=float, default=0.05)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="run several modes on one stream")
    p_cmp.add_argument("--modes", required=True,
                       help="comma-separated list of modes")
    p_cmp.add_argument("--train", default=None, help="optional training stream")
    p_cmp.add_argument("--test", required=True)
    p_cmp.add_argument("--report", default=None)
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_trade = sub.add_parser(
        "tradeoff", help="computation vs loss-multiplier curve over k"
    )
    p_trade.add_argument("--n", type=int, required=True, help="label count")
    p_trade.add_argument("--k-list", required=True,
                         help="comma-separated fan-outs, each a power of two")
    p_trade.add_argument("--report", default=None)
    p_trade.set_defaults(func=cmd_tradeoff)

    p_inspect = sub.add_parser("inspect", help="print tree statistics")
    p_inspect.add_argument("--model", required=True)
    p_inspect.set_defaults(func=cmd_inspect)

    p_synth = sub.add_parser("synth", help="emit a synthetic example stream")
    p_synth.add_argument("--task", choices=("random", "clustered"), default="random")
    p_synth.add_argument("--contexts", type=int, default=32)
    p_synth.add_argument("--labels", type=int, default=64)
    p_synth.add_argument("--groups", type=int, default=8)
    p_synth.add_argument("--skew", type=float, default=1.0)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--examples", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--emit-seed", type=int, default=None,
                         help="sampling seed; defaults to seed + 1")
    p_synth.add_argument("--bits", type=int, default=18)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
