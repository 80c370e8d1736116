import io

import pytest

import cptree.data as data
from cptree import (
    ParseError,
    build_estimator,
    from_tokens,
    load_model,
    parse_example_line,
    read_example_file,
    read_sections,
)
from cptree.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_report(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    return header, rows


@pytest.fixture()
def streams(tmp_path):
    train = tmp_path / "train.txt"
    test = tmp_path / "test.txt"
    write_lines(
        train,
        ["A | c0", "B | c1", "A | c0", "B | c1", "A | c0 c1:0.5", "B | c1 c0:0.25"],
    )
    write_lines(test, ["A | c0", "B | c1", "A | c0", "B | c1"])
    return train, test


def test_train_eval_round_trip(streams, tmp_path):
    train, test = streams
    model = tmp_path / "m.bin"
    report = tmp_path / "r.tsv"
    code, _ = run_cli("train", "--mode", "cpt-online", "--train", str(train),
                      "--model", str(model), "--eta", "0.3")
    assert code == 0 and model.exists()
    code, _ = run_cli("eval", "--model", str(model), "--test", str(test),
                      "--report", str(report))
    assert code == 0
    header, rows = read_report(report)
    assert header == ["mode", "examples", "sq_loss", "ci", "equivalent",
                      "updates_per_example", "seconds"]
    assert rows[0]["mode"] == "cpt-online"
    assert rows[0]["examples"] == "4"
    assert 0.0 <= float(rows[0]["sq_loss"]) <= 1.0


def test_small_stream_builds_the_forced_structure(streams, tmp_path):
    train, _ = streams
    small = tmp_path / "small.txt"
    write_lines(small, ["A | f", "B | g", "A | f"])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "cpt-online", "--train", str(small),
                   "--model", str(model))[0] == 0
    tree = load_model(model).estimator
    assert tree.n_labels == 2
    assert sum(1 for node in tree.nodes if not node.is_leaf) == 1
    code, text = run_cli("inspect", "--model", str(model))
    assert code == 0
    assert "labels: 2" in text and "max depth: 1" in text


def test_training_is_deterministic(streams, tmp_path):
    train, _ = streams
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for path in (a, b):
        assert run_cli("train", "--mode", "cpt-random", "--train", str(train),
                       "--model", str(path), "--seed", "7")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_are_deterministic_up_to_timing(streams, tmp_path):
    train, test = streams
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(model))
    reports = []
    for name in ("r1.tsv", "r2.tsv"):
        path = tmp_path / name
        run_cli("eval", "--model", str(model), "--test", str(test),
                "--report", str(path))
        _, rows = read_report(path)
        reports.append([{k: v for k, v in row.items() if k != "seconds"}
                        for row in rows])
    assert reports[0] == reports[1]


def test_second_pass_freezes_structure_but_not_weights(streams, tmp_path):
    train, _ = streams
    one, two = tmp_path / "p1.bin", tmp_path / "p2.bin"
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(one), "--passes", "1")
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(two), "--passes", "2")
    _, _, structure_one, weights_one = read_sections(one)
    _, _, structure_two, weights_two = read_sections(two)
    assert structure_one == structure_two
    assert weights_one != weights_two


def test_oaa_model_holds_one_regressor_per_label(tmp_path):
    train = tmp_path / "train.txt"
    labels = [f"y{i}" for i in range(9)]
    write_lines(train, [f"{y} | f{i % 3}" for i, y in enumerate(labels)])
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "oaa", "--train", str(train), "--model", str(model))
    assert len(load_model(model).estimator.regressors) == 9


def test_compare_emits_one_row_per_mode(streams, tmp_path):
    train, test = streams
    report = tmp_path / "cmp.tsv"
    code, _ = run_cli("compare", "--modes", "oaa,cpt-online,table",
                      "--train", str(train), "--test", str(test),
                      "--report", str(report))
    assert code == 0
    _, rows = read_report(report)
    assert [row["mode"] for row in rows] == ["oaa", "cpt-online", "table"]


def test_compare_single_mode(streams, tmp_path):
    _, test = streams
    report = tmp_path / "cmp.tsv"
    assert run_cli("compare", "--modes", "table", "--test", str(test),
                   "--report", str(report))[0] == 0
    _, rows = read_report(report)
    assert len(rows) == 1


def test_compare_update_costs_on_a_hundred_label_stream(tmp_path):
    # All 100 labels appear early, then repeats dominate: the flat baseline
    # spends roughly one update per known label per example while the tree
    # stays within ceil(log2 100) + 2 = 9.
    labels = [f"y{i}" for i in range(100)]
    lines = [f"{y} | f{i % 7}" for i, y in enumerate(labels)]
    lines += [f"{labels[i % 100]} | f{i % 7}" for i in range(1900)]
    stream = tmp_path / "stream.txt"
    write_lines(stream, lines)
    report = tmp_path / "cmp.tsv"
    code, _ = run_cli("compare", "--modes", "oaa,cpt-online", "--alpha", "1.0",
                      "--test", str(stream), "--report", str(report))
    assert code == 0
    _, rows = read_report(report)
    by_mode = {row["mode"]: row for row in rows}
    assert 90.0 <= float(by_mode["oaa"]["updates_per_example"]) <= 100.0
    assert float(by_mode["cpt-online"]["updates_per_example"]) <= 9.0


def test_tradeoff_values(tmp_path):
    report = tmp_path / "curve.tsv"
    code, text = run_cli("tradeoff", "--n", "16", "--k-list", "2,4,16",
                         "--report", str(report))
    assert code == 0
    rows = [line.split("\t") for line in report.read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "4", "16"]
    assert [int(r[1]) for r in rows] == [4, 6, 15]
    assert [float(r[2]) for r in rows] == [16.0, 9.0, 3.515625]


def test_tradeoff_rejects_bad_fanout():
    assert run_cli("tradeoff", "--n", "16", "--k-list", "3")[0] == 1


def test_inspect_balanced_eight_labels(tmp_path):
    train = tmp_path / "train.txt"
    write_lines(train, [f"y{i} | f{i}" for i in range(8)])
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "cpt-fixed", "--train", str(train),
            "--model", str(model))
    code, text = run_cli("inspect", "--model", str(model))
    assert code == 0
    assert "max depth: 3" in text
    assert "depth bound: 5.0000 [OK]" in text


def test_reloaded_fixed_tree_keeps_alpha_one(tmp_path):
    # A fixed tree is balanced at alpha = 1 whatever --alpha says; if a reload
    # took the configured alpha instead, new labels would land elsewhere.
    train = tmp_path / "train.txt"
    write_lines(train, [f"y{i} | f{i % 3}" for i in range(8)])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "cpt-fixed", "--train", str(train),
                   "--model", str(model))[0] == 0
    loaded = load_model(model)
    assert loaded.config.alpha == 0.5
    assert loaded.estimator.alpha == 1.0
    in_memory = build_estimator("cpt-fixed", loaded.config, [f"y{i}" for i in range(8)])
    for example in read_example_file(train):
        in_memory.learn(example.x, example.y)
    for i in range(40):
        x = from_tokens([(f"g{i % 5}", 1.0)])
        for tree in (in_memory, loaded.estimator):
            tree.learn(x, f"new{i}")
    assert in_memory.structure_signature() == loaded.estimator.structure_signature()


def test_inspect_single_label_model(tmp_path):
    train = tmp_path / "train.txt"
    write_lines(train, ["only | f"])
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(model))
    code, text = run_cli("inspect", "--model", str(model))
    assert code == 0 and "max depth: 0" in text


def test_inspect_kway_model(tmp_path):
    train = tmp_path / "train.txt"
    write_lines(train, [f"y{i} | f{i}" for i in range(5)])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "kway", "--k", "4", "--train", str(train),
                   "--model", str(model))[0] == 0
    code, text = run_cli("inspect", "--model", str(model))
    assert code == 0
    assert text.splitlines() == [
        "mode: kway", "labels: 5", "k: 4", "depth: 2", "slots: 16",
        "regressors per node: 3", "active nodes: 3",
    ]


def test_inspect_pecoc_model(tmp_path):
    train = tmp_path / "train.txt"
    write_lines(train, [f"y{i} | f{i}" for i in range(5)])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "pecoc", "--train", str(train),
                   "--model", str(model))[0] == 0
    code, text = run_cli("inspect", "--model", str(model))
    assert code == 0
    assert text.splitlines() == [
        "mode: pecoc", "labels: 5", "k: 8", "depth: 1", "slots: 8",
        "regressors per node: 7", "active nodes: 1",
    ]


def test_inspect_rejects_non_tree_models(streams, tmp_path):
    train, _ = streams
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "table", "--train", str(train), "--model", str(model))
    assert run_cli("inspect", "--model", str(model))[0] == 1


def test_frozen_eval_is_no_better_on_novel_labels(streams, tmp_path):
    train, _ = streams
    novel = tmp_path / "novel.txt"
    write_lines(novel, [f"new{i % 5} | c{i % 2}" for i in range(60)])
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(model))
    frozen_report = tmp_path / "frozen.tsv"
    online_report = tmp_path / "online.tsv"
    run_cli("eval", "--model", str(model), "--test", str(novel),
            "--report", str(frozen_report), "--freeze")
    run_cli("eval", "--model", str(model), "--test", str(novel),
            "--report", str(online_report))
    _, frozen_rows = read_report(frozen_report)
    _, online_rows = read_report(online_report)
    assert float(frozen_rows[0]["sq_loss"]) >= float(online_rows[0]["sq_loss"])
    assert float(frozen_rows[0]["sq_loss"]) == 1.0  # never learns the new labels


def test_mode_mismatch_is_a_config_error(streams, tmp_path, capsys):
    train, test = streams
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "oaa", "--train", str(train), "--model", str(model))
    assert run_cli("eval", "--model", str(model), "--test", str(test),
                   "--mode", "cpt-online")[0] == 1
    assert "mode" in capsys.readouterr().err


def test_empty_test_stream_is_an_error(streams, tmp_path, capsys):
    train, _ = streams
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(model))
    assert run_cli("eval", "--model", str(model), "--test", str(empty))[0] == 1
    assert "empty" in capsys.readouterr().err


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    write_lines(bad, ["ok | f", "broken line without pipe"])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "cpt-online", "--train", str(bad),
                   "--model", str(model))[0] == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["kway", "pecoc", "cpt-fixed"])
@pytest.mark.parametrize("passes", [1, 2])
def test_labeled_modes_parse_each_line_once_per_pass(mode, passes, streams, monkeypatch, tmp_path):
    train, _ = streams
    parsed = []
    original = data.parse_example_line
    monkeypatch.setattr(data, "parse_example_line",
                        lambda line, *args, **kw: parsed.append(line) or original(line, *args, **kw))
    assert run_cli("train", "--mode", mode, "--k", "2", "--passes", str(passes),
                   "--train", str(train), "--model", str(tmp_path / "m.bin"))[0] == 0
    assert len(parsed) == 6 * passes


@pytest.mark.parametrize("mode", ["kway", "pecoc", "cpt-fixed", "cpt-online"])
@pytest.mark.parametrize("bad", ["no separator", "  | f", "A B | f"],
                         ids=["separator", "empty-label", "two-token-label"])
def test_label_faults_keep_their_parse_error(mode, bad, tmp_path, capsys):
    # A blank line still counts: the fault is on line 3.
    stream = tmp_path / "bad.txt"
    write_lines(stream, ["A | f", "", bad])
    with pytest.raises(ParseError) as err:
        parse_example_line(bad, line_number=3)
    assert run_cli("train", "--mode", mode, "--k", "2", "--train", str(stream),
                   "--model", str(tmp_path / "m.bin"))[0] == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "m.bin").exists()


def test_missing_input_file_is_reported(tmp_path, capsys):
    assert run_cli("train", "--mode", "cpt-online", "--train",
                   str(tmp_path / "nope.txt"), "--model",
                   str(tmp_path / "m.bin"))[0] == 1
    assert "error" in capsys.readouterr().err


def test_nan_learning_rate_is_a_one_line_error(streams, tmp_path, capsys):
    train, _ = streams
    assert run_cli("train", "--mode", "cpt-online", "--train", str(train),
                   "--model", str(tmp_path / "m.bin"), "--eta", "nan")[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "learning_rate" in err


def test_diverging_training_is_a_one_line_error_and_writes_no_model(tmp_path, capsys):
    train = tmp_path / "train.txt"
    write_lines(train, [f"{'AB'[i % 2]} | f:30" for i in range(200)])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "cpt-online", "--train", str(train),
                   "--model", str(model), "--eta", "0.5")[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error: regressor diverged") and err.count("\n") == 1
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
    (["--k", "-1"], "k must be an integer in [0, 2**32), got -1"),
    (["--passes", "-2"], "--passes must be at least 1, got -2"),
    (["--passes", "0"], "--passes must be at least 1, got 0"),
    (["--delta", "1"], "--delta must be in (0, 1), got 1.0"),
], ids=["seed", "k", "passes-negative", "passes-zero", "delta"])
def test_train_refuses_a_config_it_cannot_save_and_writes_no_model(argv, message, streams,
                                                                   tmp_path, capsys):
    train, _ = streams
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "cpt-online", "--train", str(train),
                   "--model", str(model), *argv)[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()


def test_compare_refuses_zero_passes_before_training(streams, monkeypatch, capsys):
    train, test = streams
    monkeypatch.setattr("cptree.cli._train_estimator", lambda *args: pytest.fail("trained"))
    assert run_cli("compare", "--modes", "cpt-online", "--train", str(train),
                   "--test", str(test), "--passes", "0")[0] == 1
    assert capsys.readouterr().err == "error: --passes must be at least 1, got 0\n"


@pytest.mark.parametrize("delta", ["0", "1", "2", "-0.5", "nan"])
def test_delta_outside_the_unit_interval_is_refused_before_any_model(delta, streams,
                                                                     monkeypatch, capsys):
    train, test = streams
    for name in ("load_model", "_train_estimator", "_new_estimator"):
        monkeypatch.setattr(f"cptree.cli.{name}", lambda *args: pytest.fail("model touched"))
    message = f"error: --delta must be in (0, 1), got {float(delta)}\n"
    assert run_cli("eval", "--model", "m.bin", "--test", str(test), "--delta", delta)[0] == 1
    assert capsys.readouterr().err == message
    for extra in ([], ["--train", str(train)]):
        assert run_cli("compare", "--modes", "cpt-online,oaa", "--test", str(test),
                       *extra, "--delta", delta)[0] == 1
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_corrupt_node_kind_is_a_one_line_error(command, streams, tmp_path, capsys):
    train, test = streams
    model = tmp_path / "m.bin"
    run_cli("train", "--mode", "cpt-online", "--train", str(train),
            "--model", str(model))
    _, _, structure, weights = read_sections(model)
    # The structure section sits just before the weights section and its
    # length; the root's kind byte follows the 12-byte tree header.
    raw = bytearray(model.read_bytes())
    kind = len(raw) - len(weights) - 8 - len(structure) + 12
    assert raw[kind] == 0  # internal
    raw[kind] = 2
    model.write_bytes(bytes(raw))
    capsys.readouterr()
    argv = ["--model", str(model)]
    if command == "eval":
        argv += ["--test", str(test)]
    assert run_cli(command, *argv)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "unknown node kind 2" in err


def test_kway_requires_fanout(streams, tmp_path, capsys):
    train, _ = streams
    assert run_cli("train", "--mode", "kway", "--train", str(train),
                   "--model", str(tmp_path / "m.bin"))[0] == 1
    assert capsys.readouterr().err == "error: k must be a power of two >= 2, got 0\n"
    assert run_cli("train", "--mode", "kway", "--train", str(train),
                   "--model", str(tmp_path / "m.bin"), "--k", "2")[0] == 0


@pytest.mark.parametrize("mode, message", [
    ("pecoc", "need at least one label"),
    ("kway", "need at least one label"),
])
def test_labeled_mode_on_an_empty_stream_is_a_one_line_error(mode, message, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert run_cli("train", "--mode", mode, "--k", "4", "--train", str(empty),
                   "--model", str(tmp_path / "m.bin"))[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["pecoc", "kway"])
def test_one_label_stream_trains_and_evals(mode, tmp_path):
    stream = tmp_path / "one.txt"
    write_lines(stream, ["A | c0", "A | c1", "A | c0 c1:0.5"])
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", mode, "--k", "4", "--train", str(stream),
                   "--model", str(model))[0] == 0
    assert run_cli("eval", "--model", str(model), "--test", str(stream), "--freeze")[0] == 0
    loaded = load_model(model)
    assert loaded.estimator.n_labels == 1
    for example in read_example_file(stream, loaded.config.hash_bits):
        assert 0.0 < loaded.estimator.score(example.x, example.y) <= 1.0


def test_synth_emits_parseable_stream(tmp_path):
    out_path = tmp_path / "synth.txt"
    code, text = run_cli("synth", "--task", "clustered", "--contexts", "16",
                         "--labels", "32", "--examples", "500",
                         "--seed", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 500
    model = tmp_path / "m.bin"
    assert run_cli("train", "--mode", "cpt-online", "--train", str(out_path),
                   "--model", str(model))[0] == 0
    assert load_model(model).estimator.n_labels > 10


@pytest.mark.parametrize(
    "argv",
    [["--contexts", "0"],
     ["--task", "clustered", "--groups", "0"],
     ["--task", "clustered", "--noise", "2"]],
    ids=["no-contexts", "no-groups", "negative-table"],
)
def test_synth_rejects_a_task_that_is_not_a_distribution(argv, tmp_path, capsys):
    out_path = tmp_path / "synth.txt"
    assert run_cli("synth", *argv, "--examples", "10", "--out", str(out_path))[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["--task", "clustered", "--labels", "0"],
      "--labels must be at least 8 (one per group), got 0"),
     (["--task", "clustered", "--contexts", "0"],
      "--contexts must be at least 8 (one per group), got 0"),
     (["--labels", "0"], "--labels must be at least 1, got 0")],
    ids=["clustered-no-labels", "clustered-no-contexts", "random-no-labels"],
)
def test_synth_rejects_a_size_it_cannot_build(argv, message, tmp_path, capsys):
    out_path = tmp_path / "synth.txt"
    assert run_cli("synth", *argv, "--examples", "5", "--out", str(out_path))[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        run_cli("synth", "--examples", "200", "--seed", "11", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()
