"""Smoke test: the quick demos run to completion against the package in src/.

demos/04_scaling.py is left out; it takes about 16 s.
"""

import pytest

from _support import ROOT, run_python

DEMOS = ["01_online_tree.py", "02_subset_codes.py", "03_progressive_validation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    run_python(ROOT / "demos" / demo)
