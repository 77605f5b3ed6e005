"""The benchmark's own test: ``python -m pytest perfbench`` from the checkout root.

Runs the smoke mode, which drives every code path of a benchmark run on the
toy networks in seconds; it sets no timing gate.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
