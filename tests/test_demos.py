"""The demo scripts run to completion against the package in src/.

attack_gallery is left out: it takes about a minute, so it stays a
manual check (`PYTHONPATH=src python demos/attack_gallery.py`).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "claw_states",
    "timing_geometry",
    "proof_of_quantumness",
    "nonlocal_game_values",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
