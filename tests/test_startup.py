"""Start-up cost: the tree, oaa and table modes run without importing numpy,
which loads only with the subset-code modes and the synthetic tasks; and the
package's lazy exports resolve to the objects of their defining modules.

The start-up checks run in fresh interpreters, since this test process has
imported numpy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cptree

ROOT = Path(__file__).resolve().parent.parent

STREAM = ["A | c0", "B | c1", "C | c2", "A | c0 c1:0.5", "B | c1 c2:0.25", "C | c2"]

# argv: train stream, test stream, work directory.
TREE_MODES_CHILD = """
import sys
from cptree.cli import main

train, test, work = sys.argv[1:]
cpt = work + "/cpt.bin"
runs = [
    ["train", "--mode", "cpt-online", "--train", train, "--model", cpt],
    ["eval", "--model", cpt, "--test", test, "--freeze"],
    ["inspect", "--model", cpt],
    ["compare", "--modes", "cpt-online,cpt-random,cpt-fixed,oaa,table", "--test", test],
]
for mode in ("oaa", "table"):
    model = f"{work}/{mode}.bin"
    runs += [["train", "--mode", mode, "--train", train, "--model", model],
             ["eval", "--model", model, "--test", test]]
for argv in runs:
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
"""

KWAY_CHILD = """
import sys
from cptree import load_model, read_example_file
from cptree.cli import main

train, work = sys.argv[1:]
model = work + "/kway.bin"
assert "numpy" not in sys.modules, "numpy was imported before kway ran"
assert main(["train", "--mode", "kway", "--k", "2", "--train", train, "--model", model]) == 0
assert "numpy" in sys.modules, "kway ran without numpy"
loaded = load_model(model)
example = next(read_example_file(train, loaded.config.hash_bits))
assert 0.0 < loaded.estimator.score(example.x, example.y) <= 1.0
"""


def _run_child(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.fixture()
def stream(tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text("\n".join(STREAM) + "\n", encoding="utf-8")
    return path


def test_tree_oaa_and_table_commands_run_without_numpy(stream, tmp_path):
    _run_child(TREE_MODES_CHILD, stream, stream, tmp_path)


def test_kway_imports_numpy_on_first_use(stream, tmp_path):
    _run_child(KWAY_CHILD, stream, tmp_path)


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
    assert namespace["SyntheticTask"] is cptree.synthetic.SyntheticTask
    assert namespace["KWayTree"] is cptree.pecoc.KWayTree


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        cptree.NoSuchName
    assert not hasattr(cptree, "progressive")
