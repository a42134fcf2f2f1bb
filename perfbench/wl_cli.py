"""cli: the bundled scenarios through `wulffkit run`, each in a fresh interpreter.

A round runs identity-suite, hyperplane-equality and catenoid-euclidean
twice each (the seed is passed as --seed), then three exit-code probes.
Only the six scenario runs are timed, each as one unit of the stopwatch.
Outputs go to a temporary directory
under .perfbench-work/ in the checkout, removed at the end of the round.

Each probe exercises a documented part of the CLI contract that the
program does not keep today, so each is counted as a failed operation
until the program is fixed:

- nonspd: a quadratic matrix that is not SPD must exit 2 (config error);
- radius: a monotonicity check with a radius <= 0 beside a passing check
  must exit 1 and still write the passing check's CSV;
- dim: a dim-2 Euclidean gauge on a 3-D hyperplane must exit 2.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from common import BENCH, SRC, WORK, PassReport, run_child

SCENARIOS = ("identity-suite", "hyperplane-equality", "catenoid-euclidean")
ENERGY_TOL = 2e-4      # hyperplane-equality gnuplot energies vs closed forms, relative
FAST_QUAD = {"order": 4, "grid": 8, "max_depth": 5}
PROBES = {
    "nonspd": ({"norms": {"bad": {"family": "quadratic",
                                  "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                             [0.0, 0.0, -1.0]]}},
                "checks": []}, 2),
    "radius": ({"seed": 0, "quadrature": FAST_QUAD,
                "norms": {"e": {"family": "euclidean", "dim": 3}},
                "surfaces": {"p": {"kind": "hyperplane", "extent": 2.0}},
                "checks": [{"kind": "monotonicity", "name": "ok", "surface": "p",
                            "norm": "e", "radii": [0.4, 0.8]},
                           {"kind": "monotonicity", "name": "bad", "surface": "p",
                            "norm": "e", "radii": [-0.5, 0.5]}]}, 1),
    "dim": ({"quadrature": FAST_QUAD,
             "norms": {"e2": {"family": "euclidean", "dim": 2}},
             "surfaces": {"p": {"kind": "hyperplane"}},
             "checks": [{"kind": "monotonicity", "name": "mismatch", "surface": "p",
                         "norm": "e2", "radii": [0.4, 0.8]}]}, 2),
}
OPS_PER_ROUND = 2 * len(SCENARIOS) + len(PROBES)
# not rescaled: the reference kernel timed in the parent between children
# does not track them (the same six runs spread 0.047 raw, 0.119 rescaled)
NORMALIZE = False


def build(seed: int) -> dict:
    from wulffkit import cli
    cli_seed = int(np.random.default_rng(seed).integers(1 << 30))
    scenarios = {name: cli.Scenario(cli.load_config(name), seed=cli_seed) for name in SCENARIOS}
    return {"seed": cli_seed, "scenarios": scenarios}


def references(inp: dict) -> dict:
    """Normalized energies E(r)/r^2 on the hyperplane-equality plane.

    Euclidean: pi.  Quadratic A: F(nu) * area{x in plane: x^T A^-1 x < 1}
    = sqrt(nu.A nu) * pi / sqrt(det B), B = A^-1 restricted to the plane.
    """
    doc = json.loads((SRC / "wulffkit" / "scenarios" / "hyperplane-equality.json")
                     .read_text(encoding="utf-8"))
    nu = np.asarray(doc["surfaces"]["plane"]["normal"], dtype=float)
    nu = nu / np.linalg.norm(nu)
    A = np.asarray(doc["norms"]["aniso"]["matrix"], dtype=float)
    Q = np.linalg.svd(nu[None, :])[2][1:].T        # orthonormal basis of nu-perp
    B = Q.T @ np.linalg.inv(A) @ Q
    return {"plane-euclid": math.pi,
            "plane-aniso": math.sqrt(nu @ A @ nu) * math.pi / math.sqrt(np.linalg.det(B))}


def _scenario_argv(name: str, out: Path, seed: int, trace_file: Path | None) -> list[str]:
    args = ["run", "--config", name, "--out", str(out), "--seed", str(seed)]
    if trace_file is None:
        return [sys.executable, "-m", "wulffkit.cli", *args]
    return [sys.executable, str(BENCH / "cli_child.py"), str(trace_file), *args]


def _read_dir(path: Path) -> dict:
    if not path.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def run_pass(inp: dict, timed, trace_sums: dict | None = None) -> dict:
    """One round; `timed` (a common.Stopwatch) times each scenario run as one
    unit.  With trace_sums, the second copy of each scenario runs under the
    tracer and its sums are added to trace_sums."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runs, copy_s = {}, [0.0, 0.0]
        for name in SCENARIOS:
            for copy in (1, 2):
                out = work / f"{name}-{copy}"
                traced = trace_sums is not None and copy == 2
                trace_file = work / f"{name}.trace.json" if traced else None
                before = timed.normalized
                code, stdout, stderr, rss = timed(
                    lambda: run_child(_scenario_argv(name, out, inp["seed"], trace_file)))
                copy_s[copy - 1] += timed.normalized - before
                runs[(name, copy)] = {"code": code, "stdout": stdout, "stderr": stderr,
                                      "files": _read_dir(out), "rss_mb": rss}
                if trace_file is not None and trace_file.is_file():
                    for key, val in json.loads(trace_file.read_text()).items():
                        trace_sums[key] = trace_sums.get(key, 0.0) + val
        probes = {}
        for name, (doc, _) in PROBES.items():
            cfg = work / f"probe-{name}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            out = work / f"probe-{name}"
            code, _, stderr, _ = run_child(
                [sys.executable, "-m", "wulffkit.cli", "run", "--config", str(cfg),
                 "--out", str(out)])
            probes[name] = {"code": code, "stderr": stderr, "files": _read_dir(out)}
        return {"runs": runs, "probes": probes, "copy_s": copy_s,
                "rss_mb": max(r["rss_mb"] for r in runs.values())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:     # another round's directory is still there
            pass


def _csv_rows(data: bytes) -> list[dict]:
    lines = data.decode("utf-8").splitlines()
    return list(csv.DictReader(lines[1:]))      # line 0 is the report header


def _gnuplot_points(data: bytes) -> list[tuple[float, float]]:
    lines = data.decode("utf-8").splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("plot ")) + 1
    pts = []
    for ln in lines[start:]:
        if ln.strip() == "e":
            break
        r, e = ln.split()
        pts.append((float(r), float(e)))
    return pts


def check(inp: dict, refs: dict, out: dict) -> PassReport:
    rep = PassReport(ops=OPS_PER_ROUND)
    runs = out["runs"]
    for (name, copy), run in runs.items():
        check_run(rep, f"{name}#{copy}", run)
    for name in SCENARIOS:
        check_identical(rep, name, runs[(name, 1)]["files"], runs[(name, 2)]["files"])
    files = runs[("hyperplane-equality", 1)]["files"]
    for plot, exact in refs.items():
        data = files.get(f"{plot}.gnuplot")
        rep.expect(data is not None, f"hyperplane-equality: {plot}.gnuplot missing")
        if data is not None:
            check_energies(rep, plot, _gnuplot_points(data), exact)
    accuracy_from_csvs(rep, runs, refs)
    for name, probe in out["probes"].items():
        if not probe_ok(name, probe):
            rep.failed += 1
    return rep


def check_run(rep: PassReport, label: str, run: dict) -> None:
    """Exit 0, and every verdict line PASS."""
    rep.expect(run["code"] == 0, f"{label}: exit code {run['code']}: {run['stderr'][-300:]}")
    verdicts = [ln for ln in run["stdout"].splitlines() if ln.startswith("[")]
    rep.expect(bool(verdicts) and all(ln.startswith("[PASS ]") for ln in verdicts),
               f"{label}: verdicts {verdicts}")


def check_identical(rep: PassReport, name: str, first: dict, second: dict) -> None:
    rep.expect(bool(first) and sorted(first) == sorted(second),
               f"{name}: output files differ: {sorted(first)} vs {sorted(second)}")
    for fname in first:
        rep.expect(first[fname] == second.get(fname),
                   f"{name}: {fname} differs between the two runs")


def check_energies(rep: PassReport, plot: str, points, exact: float) -> None:
    rep.expect(bool(points), f"{plot}: no energies in the gnuplot script")
    for r, e in points:
        rel = abs(e - exact) / exact
        rep.expect(rel <= ENERGY_TOL,
                   f"{plot}: E({r})/r^2 = {e!r} vs closed form {exact!r} (relative {rel:.3e})")
        rep.rel_errors.append(rel)


# exact-zero identities in the CSVs: (scenario, file, filter, residual columns)
ZERO_RESIDUALS = (
    ("hyperplane-equality", "monotonicity.csv", None, ("residual",)),
    ("identity-suite", "lemmas.csv", None, ("residual",)),
    ("identity-suite", "symfunc.csv", None, ("residual",)),
    ("identity-suite", "norm_identities.csv", None,
     ("euler_max", "radial_max", "homogeneity_max")),
    ("identity-suite", "condition_s.csv", ("norm", "diag14"), ("fk_residual",)),
)


def accuracy_from_csvs(rep: PassReport, runs: dict, refs: dict) -> None:
    for scenario, fname, only, cols in ZERO_RESIDUALS:
        data = runs[(scenario, 1)]["files"].get(fname)
        rep.expect(data is not None, f"{scenario}: {fname} missing")
        if data is None:
            continue
        for row in _csv_rows(data):
            if only is None or row[only[0]] == only[1]:
                rep.rel_errors.extend(abs(float(row[c])) for c in cols)
    data = runs[("hyperplane-equality", 1)]["files"].get("monotonicity.csv")
    if data is not None:
        for row in _csv_rows(data):
            check_plane_bar(rep, row, refs[row["name"]])


def check_plane_bar(rep: PassReport, row: dict, energy: float) -> None:
    """On the plane both sides of the identity are exactly 0, so each side's
    size is its true error: the tolerance must cover both.  The bar is the
    tolerance relative to the exact normalized energy."""
    tol = float(row["tolerance"])
    for side in ("lhs", "rhs"):
        rep.expect(abs(float(row[side])) <= tol,
                   f"hyperplane-equality {row['name']} [{row['s']}, {row['r']}]: "
                   f"{side} {row[side]} outside tolerance {tol!r}")
    rep.bars.append(tol / energy)


def probe_ok(name: str, probe: dict) -> bool:
    """The behaviour the CLI contract documents for each probe."""
    want = PROBES[name][1]
    if probe["code"] != want or "Traceback" in probe["stderr"]:
        return False
    if name == "radius":
        data = probe["files"].get("monotonicity.csv")
        return data is not None and any(row["name"] == "ok" for row in _csv_rows(data))
    return True
