"""Benchmark runs end in one strictly valid result line.

`perfbench/run.py` promises one JSON object on the last line of standard
output.  The traced run alone prints the per-layer ratios and the quadrature
cell counts, and `json.dumps` writes a non-finite float as NaN or Infinity,
which is not JSON; so the line is parsed with non-finite constants rejected.
The pointwise workload calls the CLI's lemma check directly, so it runs with
and without the tracer.  The traced dual-scan run goes through the DualNorm
methods the tracer wraps.  The tracer replaces each method it names in the
named class's own namespace, and each CLI check by name; a method moved to
a base class, or a renamed check, is caught without a run.
"""

import importlib
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


def test_tracer_names_what_each_class_and_the_cli_define():
    # tracer.py is compiled from its source, so nothing is written under perfbench/
    path = ROOT / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), tracer)
    cli = importlib.import_module("wulffkit.cli")
    for layer, classes in tracer["CLASS_METHODS"].items():
        module = importlib.import_module(f"wulffkit.{layer}")
        for name, methods in classes.items():
            own = vars(getattr(module, name))
            assert [m for m in methods if m not in own] == [], name
    assert [f for f in tracer["CLI_CHECKS"].values() if not callable(getattr(cli, f, None))] == []
