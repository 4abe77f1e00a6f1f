"""Every demo script runs to the end without raising.

The demos are run in-process with runpy, so the package import is paid
once for all of them; their printed output goes to pytest's capture.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    runpy.run_path(str(path), run_name="__main__")
