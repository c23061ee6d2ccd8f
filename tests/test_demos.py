"""The narrative demos run to completion."""

import os
import subprocess
import sys

import pytest

import etsafe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(etsafe.__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
