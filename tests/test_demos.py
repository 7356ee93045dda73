"""Demo smoke tests: a demo runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_planted_recovery_demo_runs():
    # the one demo that calls `correlation_estimate`; it writes its
    # similarity matrices under demos/out/
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "planted_recovery.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "sign agreement on strong entries" in done.stdout
