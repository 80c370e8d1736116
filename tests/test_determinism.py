"""Byte-identical models across processes: a model must not depend on the
interpreter's string hash seed, which changes the iteration order of a set
or a frozenset of labels and every hash() of a str.

Each pytest process draws its own hash seed, so such a dependence would
otherwise show only as a golden test that fails on some runs. Here two fresh
interpreters, with PYTHONHASHSEED 0 and 1, train every mode on one stream
and must save the same bytes.
"""

from cptree.model_io import MODES

from _support import run_python

# Twelve labels, so that two hash seeds all but surely order a set of them
# differently.
STREAM = [f"L{i % 12} | c{i % 5} c{i * 7 % 3}:0.5" for i in range(60)]

# argv: train stream, work directory.
TRAIN_EVERY_MODE = """
import sys
from cptree.cli import main
from cptree.model_io import MODES

train, work = sys.argv[1:]
for mode in MODES:
    argv = ["train", "--mode", mode, "--k", "4", "--train", train, "--model", f"{work}/{mode}.bin"]
    assert main(argv) == 0, argv
"""


def _train_every_mode(train, work, hash_seed):
    work.mkdir()
    run_python("-c", TRAIN_EVERY_MODE, train, work, PYTHONHASHSEED=str(hash_seed))
    return {mode: (work / f"{mode}.bin").read_bytes() for mode in MODES}


def test_every_mode_saves_the_same_bytes_under_two_hash_seeds(tmp_path):
    train = tmp_path / "train.txt"
    train.write_text("\n".join(STREAM) + "\n", encoding="utf-8")
    first = _train_every_mode(train, tmp_path / "seed0", 0)
    second = _train_every_mode(train, tmp_path / "seed1", 1)
    assert [mode for mode in MODES if first[mode] != second[mode]] == []
