"""Every demo script runs to completion from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"04_train_synthetic.py"}


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_exits_zero(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
