"""Every demo runs to completion against the current API.

Nothing else runs the demos, so an API change that breaks one would go
unnoticed.  They run with RuntimeWarnings as errors, as the test suite does.  Each takes well under a second on a 2-vCPU host (the slowest,
minkowski_pairing, about 0.5 s; monotonicity, which runs the clipped
quadrature, about 0.25 s).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["surface_frames.py", "newton_tensors.py",
                                  "norms_and_duals.py", "sign_condition.py",
                                  "monotonicity.py", "minkowski_pairing.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
