"""Smoke test: each demo in demos/ runs to the end in-process."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    with np.printoptions():  # the demos set numpy's print options
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
