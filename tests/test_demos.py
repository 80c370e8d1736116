"""Smoke test: the quick demos run to completion against the package in src/.

demos/04_scaling.py is left out; it takes about 16 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_online_tree.py", "02_subset_codes.py", "03_progressive_validation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
