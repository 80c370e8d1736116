"""Start-up cost: the package and every estimator mode run without importing
numpy, which loads only with the synthetic tasks of ``cptree.synthetic``; and
the package's exports are the objects of their defining modules.

The start-up check runs in a fresh interpreter, since this test process has
imported numpy long before.
"""

import sys

import pytest

import cptree

from _support import run_python

STREAM = ["A | c0", "B | c1", "C | c2", "A | c0 c1:0.5", "B | c1 c2:0.25", "C | c2"]

# argv: train stream, test stream, work directory.
NUMPY_FREE_CHILD = """
import sys
from cptree.cli import main

train, test, work = sys.argv[1:]
runs = [
    ["compare", "--modes", "cpt-online,cpt-random,cpt-fixed,oaa,pecoc,table", "--test", test],
    ["tradeoff", "--n", "16", "--k-list", "2,4,16"],
]
for mode in ("cpt-online", "cpt-random", "cpt-fixed", "oaa", "pecoc", "kway", "table"):
    model = f"{work}/{mode}.bin"
    runs += [["train", "--mode", mode, "--k", "2", "--train", train, "--model", model],
             ["eval", "--model", model, "--test", test, "--freeze"]]
runs += [["inspect", "--model", f"{work}/{mode}.bin"] for mode in ("cpt-online", "kway")]
for argv in runs:
    assert main(argv) == 0, argv
import cptree
from cptree import *
assert "numpy" not in sys.modules, "numpy was imported"
"""


@pytest.fixture()
def stream(tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text("\n".join(STREAM) + "\n", encoding="utf-8")
    return path


def test_every_mode_and_tradeoff_run_without_numpy(stream, tmp_path):
    run_python("-c", NUMPY_FREE_CHILD, stream, stream, tmp_path)


# The one export that has no __module__ of its own.
CONSTANT_MODULES = {"DEFAULT_HASH_BITS": "cptree.features"}


def test_every_export_is_the_object_of_its_defining_module():
    wrong = []
    for name in cptree.__all__:
        value = getattr(cptree, name)
        module = CONSTANT_MODULES.get(name) or value.__module__
        if not module.startswith("cptree.") or getattr(sys.modules[module], name) is not value:
            wrong.append((name, module))
    assert wrong == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cptree import *", namespace)
    assert set(cptree.__all__) <= set(namespace)
    assert namespace["KWayTree"] is cptree.pecoc.KWayTree


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        cptree.NoSuchName
    assert not hasattr(cptree, "progressive")
