"""Benchmark runs end in one strictly valid result line.

`perfbench/run.py` promises one JSON object on the last line of standard
output.  The traced run alone prints the per-layer ratios and the quadrature
cell counts, and `json.dumps` writes a non-finite float as NaN or Infinity,
which is not JSON; so the line is parsed with non-finite constants rejected.
The pointwise workload calls the CLI's lemma check directly, so it runs with
and without the tracer.  The traced dual-scan run goes through the DualNorm
methods the tracer wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


def _assert_strict_result(workload: str, trace: int, seed: int = 1) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_traced_annulus_run_prints_strict_json():
    # the seed rotates every input of the cut-cell rule, so each seed checks
    # the clipped areas against their closed forms on other bits
    for seed in (1, 2, 3):
        _assert_strict_result("annulus", 1, seed)


@pytest.mark.parametrize("trace", [0, 1])
def test_pointwise_run_prints_strict_json(trace):
    _assert_strict_result("pointwise", trace)


def test_traced_dual_scan_run_prints_strict_json():
    _assert_strict_result("dual-scan", 1)
