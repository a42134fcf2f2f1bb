"""The benchmark's traced annulus run ends in one strictly valid result line.

`perfbench/run.py` promises one JSON object on the last line of standard
output.  The traced run alone prints the per-layer ratios and the quadrature
cell counts, and `json.dumps` writes a non-finite float as NaN or Infinity,
which is not JSON; so the line is parsed with non-finite constants rejected.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


def test_traced_annulus_run_prints_strict_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "annulus", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
