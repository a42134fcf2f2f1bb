"""annulus: gauge-clipped quadrature and the annulus identity.

Four cases, each rotated as a whole by a seeded rotation R (surface and
gauge together, so the parameter-space problem, the work and the exact
answers do not depend on the seed):

- disk: area pi of {|x| < 1} on a plane, Euclidean dual gauge;
- ellipse: area pi/sqrt(det B) of {F° < 1} on the same plane for a
  quadratic gauge, with B = A^-1 restricted to the plane;
- chord: the offset-line monotonicity identity of criterion 5 against
  2 (sqrt(r^2-d^2)/r - sqrt(s^2-d^2)/s);
- scan: an 8-radius monotonicity scan on the transformed catenoid with its
  matching quadratic gauge.
"""

from __future__ import annotations

import math

import numpy as np

from common import PassReport, attempt, rotation

A_ELLIPSE = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]])
A_CATENOID = np.diag([1.0, 1.0, 4.0])
PLANE_EXTENT = 2.0
DISK_DEPTH = 8
CHORD = {"d": 0.5, "s": 0.6, "r": 1.0, "depth": 20}
SCAN = {"count": 8, "depth": 8, "v_max": 1.2}
OPS_PER_PASS = 4
# NumPy on arrays of 10^5 nodes does the work; the pure-Python reference
# kernel does not track its speed (the same ten runs spread 0.069 raw,
# 0.086 rescaled)
NORMALIZE = False
# accuracy floors, about 10x the errors measured at these settings; the
# program's own estimates (about 1e-2) would let a 1e-3 corruption through
AREA_TOL = 1e-5        # disk and ellipse, relative
CHORD_TOL = 1e-6       # chord formula, relative (criterion 5 uses 1e-6 absolute)
SCAN_RESIDUAL_TOL = 5e-3   # |lhs - rhs| of each annulus identity in the scan


def build(seed: int) -> dict:
    import wulffkit as wk
    from wulffkit import quadrature as qd
    from wulffkit import surfaces as sf
    rng = np.random.default_rng(seed)
    R3, R2 = rotation(rng, 3), rotation(rng, 2)
    A_ell = R3 @ A_ELLIPSE @ R3.T
    A_cat = R3 @ A_CATENOID @ R3.T
    F_cat = wk.MinkowskiNorm.quadratic(A_cat)
    return {
        "R3": R3, "A_ell": A_ell,
        "plane": sf.linear_image(sf.hyperplane(extent=PLANE_EXTENT), R3),
        "euclid_dual": wk.MinkowskiNorm.euclidean(3).dual(),
        "ellipse_dual": wk.MinkowskiNorm.quadratic(A_ell).dual(),
        "line": sf.linear_image(sf.line(offset=CHORD["d"], extent=4.0), R2),
        "euclid2": wk.MinkowskiNorm.euclidean(2),
        "catenoid": sf.linear_image(
            sf.transformed_catenoid(A_CATENOID, v_max=SCAN["v_max"]), R3),
        "cat_norm": F_cat,
        "cat_dual": F_cat.dual(),
        "q16": qd.ParamQuadrature(order=6, base_grid=16),
        "q12": qd.ParamQuadrature(order=6, base_grid=12),
    }


def references(inp: dict) -> dict:
    """Closed forms, computed from the inputs with NumPy alone."""
    Q = inp["R3"][:, :2]                       # orthonormal basis of the rotated plane
    B = Q.T @ np.linalg.inv(inp["A_ell"]) @ Q
    semi_axes = 1.0 / np.sqrt(np.linalg.eigvalsh(B))
    if semi_axes.max() >= PLANE_EXTENT:
        raise ValueError("ellipse does not fit inside the plane patch")
    d, s, r = CHORD["d"], CHORD["s"], CHORD["r"]
    return {"disk": math.pi,
            "ellipse": math.pi / math.sqrt(np.linalg.det(B)),
            "chord": 2.0 * (math.sqrt(r * r - d * d) / r - math.sqrt(s * s - d * d) / s)}


def run_pass(inp: dict, timed) -> dict:
    """One pass; `timed` (a common.Stopwatch) times each case as one unit."""
    from wulffkit import quadrature as qd
    from wulffkit import verify as vf

    def ones(fb):
        return np.ones(fb.x.shape[0])

    def scan():
        radii = vf.geometric_radii(inp["catenoid"], inp["cat_dual"], count=SCAN["count"])
        return vf.monotonicity_scan(inp["catenoid"], inp["cat_norm"], radii,
                                    dual=inp["cat_dual"], rule=inp["q12"],
                                    max_depth=SCAN["depth"])

    out = {}
    for case, gauge in (("disk", inp["euclid_dual"]), ("ellipse", inp["ellipse_dual"])):
        out[case] = timed(lambda g=gauge: attempt(lambda: qd.integrate_clipped(
            inp["plane"], ones,
            qd.ClippedRegionRule(gauge=g, s=0.0, r=1.0, max_depth=DISK_DEPTH), inp["q16"])))
    out["chord"] = timed(lambda: attempt(lambda: vf.monotonicity_identity(
        inp["line"], inp["euclid2"], CHORD["s"], CHORD["r"], rule=inp["q16"],
        max_depth=CHORD["depth"])))
    out["scan"] = timed(lambda: attempt(scan))
    return out


def check(inp: dict, refs: dict, out: dict) -> PassReport:
    rep = PassReport(ops=OPS_PER_PASS)
    for case in ("disk", "ellipse", "chord", "scan"):
        if isinstance(out[case], Exception):
            rep.failed += 1
            rep.problems.append(f"{case} raised {type(out[case]).__name__}: {out[case]}")
            continue
        if case == "chord":
            check_chord(rep, out[case], refs["chord"])
        elif case == "scan":
            check_scan(rep, out[case])
        else:
            check_area(rep, case, out[case].value, out[case].error_estimate, refs[case])
    return rep


def check_area(rep: PassReport, case: str, value: float, estimate: float, exact: float) -> None:
    """The closed form lies within the program's estimate, so the estimate
    covers the true error."""
    err = abs(value - exact)
    rep.expect(err <= estimate,
               f"{case}: |{value!r} - {exact!r}| = {err:.3e} exceeds the estimate {estimate:.3e}")
    rep.expect(err <= AREA_TOL * abs(exact),
               f"{case}: relative error {err / abs(exact):.3e} above {AREA_TOL:g}")
    rep.rel_errors.append(err / abs(exact))
    rep.bars.append(estimate / abs(value))
    rep.extra[f"estimate_over_error.{case}"] = estimate / max(err, 1e-300)


def check_chord(rep: PassReport, report, exact: float) -> None:
    rep.expect(report.status == "pass", f"chord: identity status {report.status}")
    errs = [abs(report.lhs - exact), abs(report.rhs - exact)]
    for side, err in zip(("lhs", "rhs"), errs):
        rep.expect(err <= min(report.tolerance, CHORD_TOL * abs(exact)),
                   f"chord: {side} off the closed form by {err:.3e} (tolerance "
                   f"{report.tolerance:.3e}, floor {CHORD_TOL:g} relative)")
        rep.rel_errors.append(err / abs(exact))
    rep.bars.append(report.tolerance / abs(exact))
    rep.extra["estimate_over_error.chord"] = report.tolerance / max(max(errs), 1e-300)


def check_scan(rep: PassReport, scan) -> None:
    """Every annulus identity passes, and the normalized energies do not
    decrease (the monotonicity the identity proves).

    The exact value of lhs - rhs is 0, so the residual itself enters the
    accuracy.  The scan's tolerances have no exact value to be checked
    against, so they do not enter tolerance_digits.
    """
    statuses = [r.status for r in scan.reports]
    rep.expect(all(s == "pass" for s in statuses), f"scan: identity statuses {statuses}")
    steps = np.diff(np.asarray(scan.normalized))
    rep.expect(bool(np.all(steps >= 0.0)),
               f"scan: normalized energies decrease by up to {-steps.min():.3e}")
    worst = max(r.residual for r in scan.reports)
    rep.expect(worst <= SCAN_RESIDUAL_TOL, f"scan: identity residual {worst:.3e}")
    rep.rel_errors.append(worst)
