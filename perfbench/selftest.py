"""Shows that every check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs one real pass of each workload (one round for cli), confirms that its
checks accept the result, then feeds the checks copies of the result, each
perturbed by a small amount, and confirms that the check each perturbation
targets rejects it.  Exits 1 if a perturbation is not rejected by its check
or the unperturbed result is rejected.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace

import numpy as np

import common
import workloads


# Each case perturbs a copy of a real result and names a fragment of the
# message of the check it targets: that check, not just any check, must
# reject the copy.

# -- annulus -----------------------------------------------------------------

def annulus_cases():
    def disk_area(o):
        o["disk"].value *= 1 + 1e-3

    def ellipse_area(o):
        o["ellipse"].value *= 1 - 1e-3

    def estimate_too_small(o):      # the estimate no longer covers the true error
        o["disk"].error_estimate = 1e-9

    def chord_lhs(o):
        o["chord"] = replace(o["chord"], lhs=o["chord"].lhs * (1 + 1e-4))

    def chord_status(o):
        o["chord"] = replace(o["chord"], status="fail")

    def scan_not_monotone(o):
        e = np.array(o["scan"].normalized)
        e[-2] = e[-1] * (1 + 1e-3)
        o["scan"].normalized = e

    def scan_status(o):
        o["scan"].reports[0] = replace(o["scan"].reports[0], status="fail")

    def scan_residual(o):
        r = o["scan"].reports[0]
        o["scan"].reports[0] = replace(r, rhs=r.rhs + 1e-2)

    return [(disk_area, "disk: relative error"),
            (ellipse_area, "ellipse: relative error"),
            (estimate_too_small, "exceeds the estimate"),
            (chord_lhs, "chord: lhs off the closed form"),
            (chord_status, "chord: identity status"),
            (scan_not_monotone, "normalized energies decrease"),
            (scan_status, "scan: identity statuses"),
            (scan_residual, "scan: identity residual")]


# -- pointwise ----------------------------------------------------------------

def pointwise_cases():
    def suite(o):
        return o[next(k for k in o if k[0] == "suite")]

    def suite_floor(o):         # a residual the program would pass with a looser tolerance
        row = suite(o).rows[0]
        row["residual"], row["tolerance"] = 2e-4, 1e-3

    def suite_bar(o):           # a tolerance that no longer covers the residual
        row = suite(o).rows[0]
        row["tolerance"] = row["residual"] / 2

    def suite_verdict(o):
        suite(o).status = "fail"

    def divergence_residual(o):
        key = next(k for k in o if k[0] == "divergence")
        o[key] = 2e-4

    def codazzi(o):
        key = next(k for k in o if k[0] == "codazzi")
        o[key] = 2e-4

    def sphere_shape(o):
        S, H, Ha = o[("sphere-shape",)]
        o[("sphere-shape",)] = (S + 1e-5, H, Ha)

    def sphere_mean(o):
        S, H, Ha = o[("sphere-shape",)]
        o[("sphere-shape",)] = (S, H * (1 + 1e-5), Ha)

    def catenoid_mean(o):
        H, Ha = o[("catenoid-mean",)]
        o[("catenoid-mean",)] = (H + 1e-5, Ha)

    return [(suite_floor, "suite/sphere/normal: residual"),
            (suite_bar, "outside the program's tolerance"),
            (suite_verdict, "lemmas verdict fail"),
            (divergence_residual, "divergence/sphere/normal/0: residual"),
            (codazzi, "codazzi/sphere/normal: residual"),
            (sphere_shape, "sphere: shape operator"),
            (sphere_mean, "sphere: shape operator"),
            (catenoid_mean, "catenoid: Euclidean mean curvature")]


# -- dual-scan ----------------------------------------------------------------

def dual_scan_cases():
    def closed_form(o):
        q, u = o["quad"][0]
        o["quad"][0] = (q * (1 + 1e-5), u)

    def negated_maximizer(o):
        q, u = o["quartic"][0]
        o["quartic"][0] = (q, -u)

    def maximizer_off_unit(o):
        q, u = o["quartic"][1]
        o["quartic"][1] = (q, u * (1 + 1e-8))

    def dual_below_grid(o):
        q, u = o["quartic"][3]
        o["quartic"][3] = (q * (1 - 1e-9), u)

    def quad_condition(o):
        o["conds_quad"] = replace(o["conds_quad"], passed=False)

    def quad_pairing(o):
        o["conds_quad"] = replace(o["conds_quad"], max_fk_residual=1e-6)

    def quartic_condition(o):
        o["conds_quartic"] = replace(o["conds_quartic"], passed=True)

    def quartic_worst_pair(o):    # a pair that violates nothing
        w = o["conds_quartic"].worst
        o["conds_quartic"] = replace(o["conds_quartic"], worst=replace(w, v=w.u))

    def bidual(o):
        o["bidual"][0] = o["bidual"][0] * (1 + 1e-5)

    return [(closed_form, "numeric dual off the closed form"),
            (negated_maximizer, "quartic: <u*, v> differs from F°(v)"),
            (maximizer_off_unit, "quartic: F(u*) - 1"),
            (dual_below_grid, "quartic: F°(v) below the dense-grid maximum"),
            (quad_condition, "condition S reported violated"),
            (quad_pairing, "conds_quad: pairing residual"),
            (quartic_condition, "condition S reported to hold"),
            (quartic_worst_pair, "worst pair is no violation"),
            (bidual, "F°° off F")]


# -- cli ----------------------------------------------------------------------

def cli_cases():
    def exit_code(o):
        o["runs"][("catenoid-euclidean", 1)]["code"] = 1

    def verdict_line(o):
        run = o["runs"][("identity-suite", 2)]
        run["stdout"] = run["stdout"].replace("[PASS ]", "[FAIL ]", 1)

    def csv_byte(o):
        files = o["runs"][("identity-suite", 2)]["files"]
        data = bytearray(files["symfunc.csv"])
        data[-2] ^= 1
        files["symfunc.csv"] = bytes(data)

    def missing_file(o):
        o["runs"][("catenoid-euclidean", 2)]["files"].pop("equiaffine.csv")

    def gnuplot_energy(o):        # both copies, so the two runs still agree
        for copy_ in (1, 2):
            files = o["runs"][("hyperplane-equality", copy_)]["files"]
            lines = files["plane-euclid.gnuplot"].decode().splitlines()
            i = next(k for k, ln in enumerate(lines) if ln.startswith("plot ")) + 1
            r, e = lines[i].split()
            lines[i] = f"{r} {float(e) * (1 + 1e-3)!r}"
            files["plane-euclid.gnuplot"] = ("\n".join(lines) + "\n").encode()

    def plane_bar(o):             # a tolerance that no longer covers |lhs|
        for copy_ in (1, 2):
            files = o["runs"][("hyperplane-equality", copy_)]["files"]
            lines = files["monotonicity.csv"].decode().splitlines()
            head, cells = lines[1].split(","), lines[2].split(",")
            cells[head.index("tolerance")] = repr(abs(float(cells[head.index("lhs")])) / 2)
            lines[2] = ",".join(cells)
            files["monotonicity.csv"] = ("\n".join(lines) + "\n").encode()

    return [(exit_code, "catenoid-euclidean#1: exit code 1"),
            (verdict_line, "identity-suite#2: verdicts"),
            (csv_byte, "symfunc.csv differs between the two runs"),
            (missing_file, "catenoid-euclidean: output files differ"),
            (gnuplot_energy, "plane-euclid: E("),
            (plane_bar, "outside tolerance")]


SEED = 0                # seed of the real passes the cases perturb
CASES = {"annulus": annulus_cases, "pointwise": pointwise_cases,
         "dual-scan": dual_scan_cases, "cli": cli_cases}


def probe_cases() -> list[str]:
    """The probes are operations, not checks: a probe that behaves as the
    contract says must count as passed, one that does not as failed."""
    import wl_cli
    bad = []
    good = {"nonspd": {"code": 2, "stderr": "config error: ...", "files": {}},
            "dim": {"code": 2, "stderr": "config error: ...", "files": {}},
            "radius": {"code": 1, "stderr": "", "files": {
                "monotonicity.csv": b"# wulffkit-report v1\nname,s\nok,0.4\n"}}}
    for name, probe in good.items():
        if not wl_cli.probe_ok(name, probe):
            bad.append(f"probe {name}: contract behaviour counted as failed")
        broken = dict(probe, code=probe["code"] + 1)
        if wl_cli.probe_ok(name, broken):
            bad.append(f"probe {name}: wrong exit code counted as passed")
    if wl_cli.probe_ok("radius", {"code": 1, "stderr": "", "files": {}}):
        bad.append("probe radius: missing CSV counted as passed")
    return bad


def main() -> int:
    if not common.program_present():
        print("wulffkit sources not found under src/", file=sys.stderr)
        return 2
    common.add_src_to_path()
    failures = []
    for name, cases in CASES.items():
        wl = workloads.WORKLOADS[name]
        inp = wl.build(SEED)
        refs = wl.references(inp)
        out = wl.run_pass(inp, common.Stopwatch(wl.NORMALIZE))
        base = wl.check(inp, refs, out)
        if base.problems:
            failures.append(f"{name}: unperturbed result rejected: {base.problems[:3]}")
        for case, target in cases():
            perturbed = copy.deepcopy(out)
            case(perturbed)
            hits = [p for p in wl.check(inp, refs, perturbed).problems if target in p]
            print(f"{name:10s} {case.__name__:22s} "
                  + (f"rejected: {hits[0]}" if hits else f"NOT REJECTED by '{target}'"))
            if not hits:
                failures.append(f"{name}: perturbation {case.__name__} not rejected "
                                f"by the check '{target}'")
        if name == "cli":
            failures.extend(probe_cases())
    for f in failures:
        print(f"SELFTEST FAILED: {f}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
