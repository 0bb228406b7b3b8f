"""Every script under demos/ runs to completion and prints its recorded
output, ``tests/demo_output/<name>.txt``, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUTS = ROOT / "tests" / "demo_output"


def test_every_demo_has_a_recorded_output():
    assert sorted(p.stem for p in OUTPUTS.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_prints_its_recorded_output(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout == (OUTPUTS / f"{script.stem}.txt").read_bytes()
