"""Every script in demos/ runs to completion against the source tree and
prints exactly the stdout recorded in golden/demos/<script stem>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    stderr = proc.stderr.decode(errors="replace")
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert proc.stdout == (GOLDEN / f"{script.stem}.txt").read_bytes()
