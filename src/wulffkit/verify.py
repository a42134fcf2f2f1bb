"""Integral identity checks with quadrature-budgeted tolerances.

Every check produces an IdentityReport whose pass criterion is
residual <= 3 * tolerance, where the tolerance is the sum of the error
estimates of the constituent integrals.  Surfaces are never assumed
critical for the relevant energy: the sampled anisotropic (or affine) mean
curvature must stay below a threshold, otherwise the report is downgraded
to informational rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundaryInsideRegion, GaugeZero, NotClosed, NotEquiaffine,
                     OriginNotOnSurface)
from .norms import DualNorm, MinkowskiNorm
from .quadrature import (ClippedRegionRule, ParamQuadrature, _gauge_safe, integrate_clipped,
                         sublevel_energy)
from .surfaces import (TEST_VECTOR, ParametricPatch, TransversalField, _as_batch, _codazzi,
                       _codazzi_points, _divergence, _equiaffine, _frame_derivs,
                       _stencil_points, _unbatch, affine_tangential,
                       anisotropic_mean_curvature_batch,
                       constant_field, divergence_residuals_constant_position,
                       equiaffine_batch, position_field, product_rule_residual,
                       shape_products_asymmetry,
                       tangential_derivative_residuals)
from .symfunc import newton_tensors

PASS_FACTOR = 3.0
# the sampled max |H_F|, |H_xi| or |tau| above which a surface counts as not
# minimal, not affine minimal or not equiaffine, on a SAMPLE_GRID^n grid
MINIMALITY_TOL = 1e-5
SAMPLE_GRID = 9
# geometric_radii runs from 1.05 times the surface's smallest gauge value to
# 0.98 times its boundary gauge radius
_INNER_FACTOR, _OUTER_FACTOR = 1.05, 0.98
# the covector c of the product-rule check in frame_identity_suite, f = <c, x>
TEST_COVECTOR = (0.2, 0.5, -0.4)
# the angles of the periodic trapezoid rule for a planar tangent section
_SECTION_ANGLES = 1 << 13


@dataclass
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    status: str            # "pass" | "fail" | "info"
    flags: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _finish_report(name, lhs, rhs, tolerance, flags, metadata) -> IdentityReport:
    ok = abs(lhs - rhs) <= PASS_FACTOR * tolerance
    if flags:
        status = "info"
    else:
        status = "pass" if ok else "fail"
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, tolerance=tolerance,
                          status=status, flags=flags, metadata=metadata)


def _require_boundary_outside(patch: ParametricPatch, gauge, r: float) -> float:
    bnd = patch.boundary_gauge_radius(gauge)
    if bnd <= r:
        raise BoundaryInsideRegion(
            f"patch boundary reaches gauge radius {bnd:.6g} <= r = {r:.6g}")
    return bnd


def monotonicity_identity(patch: ParametricPatch, norm: MinkowskiNorm,
                          s: float, r: float, *, dual: DualNorm | None = None,
                          rule: ParamQuadrature = ParamQuadrature(),
                          max_depth: int = 10) -> IdentityReport:
    """Normalized-energy difference against the annulus kernel integral.

    lhs: E(r)/r^n - E(s)/s^n with E(t) the gauge energy inside {F° < t};
    rhs: integral of <grad F°(x), grad F(nu)> <x, nu> / F°(x)^{n+1} over the
    annulus.  Equality requires vanishing anisotropic mean curvature, which
    is verified by sampling, not assumed.  monotonicity_scan of the radii s, r.
    """
    return monotonicity_scan(patch, norm, (s, r), dual=dual, rule=rule,
                             max_depth=max_depth).reports[0]


def _minimality_flags(patch: ParametricPatch, norm: MinkowskiNorm) -> tuple[float, list[str]]:
    """max |H_F| over the sample grid, and the flag of a patch above
    MINIMALITY_TOL."""
    maxH = float(np.max(np.abs(
        anisotropic_mean_curvature_batch(norm, patch, patch.sample_grid(SAMPLE_GRID)))))
    return maxH, [f"not-minimal(max|H|={maxH:.3g})"] if maxH > MINIMALITY_TOL else []


def _annulus_scan(name: str, patch: ParametricPatch, gauge, radii, field_at, curvature, *,
                  rule: ParamQuadrature, max_depth: int) -> MonotonicityScan:
    """The annulus identity on each annulus (s, r) of radii r_1 < ... < r_K,

        E(r)/r^n - E(s)/s^n = integral over {s < phi < r} of
                              <x, nu> <grad phi(x), v> / phi(x)^{n+1},

    with E(t) the integral of a density over {phi < t}; field_at(fb) gives the
    density and the vector v at the points of fb from one evaluation.  The
    region of the bands {0 < phi < r_1}, {r_1 < phi < r_2}, ... checks the
    radii; then the patch boundary is checked, and curvature() samples the
    patch and gives the reports' flags and shared metadata.  One clipped pass
    over the region then gives each E(r_i) as a prefix sum of the bands and
    each annulus's rhs as the kernel over its own band.  The kernel is not
    used on the innermost band, which may hold the gauge's cone point x = 0:
    there phi = 0 with a zero gradient, and the kernel reads 0.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("radii must be a list of two or more levels")
    region = ClippedRegionRule(gauge=gauge, s=0.0, r=radii[-1], max_depth=max_depth,
                               splits=radii[:-1].tolist())
    _require_boundary_outside(patch, gauge, float(radii[-1]))
    flags, shared = curvature()
    n = patch.n

    def columns(fb):
        density, v = field_at(fb)
        phi, grad = _gauge_safe(gauge, fb.x)   # one ascent for a numeric dual
        num = np.einsum("md,md->m", fb.x, fb.nu) * np.einsum("md,md->m", grad, v)
        return np.column_stack([density, np.divide(num, phi ** (n + 1), out=np.zeros_like(num),
                                                   where=phi > 0.0)])

    res = integrate_clipped(patch, columns, region, rule)
    E, E_est = np.cumsum(res.value[:, 0]), res.prefix_estimate[:, 0]
    cells = _cell_counts(bands=res)
    reports = []
    for i, (s, r) in enumerate(zip(radii[:-1].tolist(), radii[1:].tolist())):
        lhs = E[i + 1] / r**n - E[i] / s**n
        tol = E_est[i + 1] / r**n + E_est[i] / s**n
        tol += res.error_estimate[i + 1, 1] + 1e-14 * (abs(lhs) + 1.0)
        reports.append(_finish_report(
            name, float(lhs), float(res.value[i + 1, 1]), float(tol), list(flags),
            {"surface": patch.name, **shared, "s": s, "r": r, "E_r": float(E[i + 1]),
             "E_s": float(E[i]), "depth": max_depth, "cells": cells}))
    return MonotonicityScan(radii=radii, normalized=E / radii**n, estimates=E_est / radii**n,
                            reports=reports)


def equiaffine_identity(patch: ParametricPatch, xi_field: TransversalField,
                        gauge, s: float, r: float, *,
                        rule: ParamQuadrature = ParamQuadrature(),
                        max_depth: int = 10) -> IdentityReport:
    """Transversal-density version of the monotonicity identity.

    lhs densities use <xi, nu>; the rhs kernel is
    <x, nu> <grad phi(x), xi> / phi(x)^{n+1}.  Requires sampled affine mean
    curvature below MINIMALITY_TOL for an asserted verdict.  Both sides come from
    one clipped pass over the bands {phi < s} and {s < phi < r}.
    """
    def curvature():
        eb = equiaffine_batch(patch, xi_field, patch.sample_grid(SAMPLE_GRID))
        maxH = float(np.max(np.abs(eb.affine_mean)))
        flags = [f"not-affine-minimal(max|H|={maxH:.3g})"] if maxH > MINIMALITY_TOL else []
        return flags, {"xi": xi_field.name, "max_abs_H_xi": maxH}

    def field_at(fb):
        xi = xi_field.at(fb)
        return np.einsum("md,md->m", xi, fb.nu), xi

    return _annulus_scan("equiaffine-monotonicity", patch, gauge, (s, r), field_at, curvature,
                         rule=rule, max_depth=max_depth).reports[0]


def pointwise_divergence_residual(patch: ParametricPatch, xi_field: TransversalField,
                                  gauge, p):
    """Residual of div_M [x^{top_xi} / (n phi^n)] against its closed form.

    The closed form keeps the affine-mean-curvature term,
      <x,nu><grad phi(x), xi>/phi^{n+1} + <x,nu> H_xi / (n phi^n),
    so the check is valid on non-minimal surfaces as well.  Takes one
    parameter point (n,), giving a float, or a batch (m, n), giving (m,).
    """
    P, single = _as_batch(p)
    eb = equiaffine_batch(patch, xi_field, P)
    fb, st = eb.frames, eb.stencil
    n = patch.n
    phi0, gp = gauge.eval_with_maximizer(fb.x)   # one ascent for a numeric dual
    if np.any(phi0 <= 1e-12):
        raise GaugeZero("gauge vanishes at the evaluation point")

    # the field x^{top_xi} / (n phi^n) on the decomposition's stencil
    V = (affine_tangential(st.x, eb.stencil_xi, st.nu)
         / (n * np.asarray(gauge.value(st.x))**n)[:, None])
    lhs = _divergence(_frame_derivs(V, fb), fb)
    xn = np.einsum("md,md->m", fb.x, fb.nu)
    rhs = (xn * np.einsum("md,md->m", gp, eb.xi) / phi0 ** (n + 1)
           + xn * eb.affine_mean / (n * phi0**n))
    return _unbatch(np.abs(lhs - rhs), single)


@dataclass
class CorollaryReport:
    energy: float
    bound: float
    section_measure: float
    ratio: float
    tolerance: float          # relative, from the quadrature estimates
    flags: list[str]
    metadata: dict

    @property
    def equality_within(self) -> float:
        return abs(self.ratio - 1.0)

    @property
    def strictly_above(self) -> bool:
        return self.ratio > 1.0 + 5.0 * self.tolerance


def _locate_origin(patch: ParametricPatch, origin_param) -> np.ndarray:
    """The parameter point of the origin: origin_param if given, else Gauss-Newton
    on chart(p) = 0 from the point of a 17^n grid nearest the origin."""
    if origin_param is not None:
        p0 = np.asarray(origin_param, dtype=float)
    else:
        G = patch.sample_grid(17)
        p0 = G[int(np.argmin(np.sum(patch.chart(G) ** 2, axis=1)))]
        for _ in range(50):
            # least-squares step of dchart(p0)^T dp = -chart(p0)
            X, T = patch.jet(p0[None])
            dp = np.linalg.lstsq(T[0].T, -X[0], rcond=None)[0]
            p0 = p0 + dp
            if np.linalg.norm(dp) <= 1e-15 * (1.0 + np.linalg.norm(p0)):
                break
    x0 = patch.chart(p0[None, :])[0]
    if np.linalg.norm(x0) > 1e-8:
        raise OriginNotOnSurface(
            f"nearest surface point to the origin is at distance {np.linalg.norm(x0):.3g}")
    return p0


def corollary_lower_bound(patch: ParametricPatch, norm: MinkowskiNorm, *,
                          dual: DualNorm | None = None,
                          rule: ParamQuadrature = ParamQuadrature(),
                          max_depth: int = 10, origin_param=None) -> CorollaryReport:
    """Energy of the patch inside the unit dual ball against the central
    tangent-section bound F(nu(0)) * |{F° < 1} ∩ T_0 M|.

    The energy is one clipped pass, which rule and max_depth govern.  The
    section measure is a polar integral over the frame at the origin, the
    independent route: see _section_measure.
    """
    dual = dual or norm.dual()
    p0 = _locate_origin(patch, origin_param)
    _require_boundary_outside(patch, dual, 1.0 - 1e-9)

    maxH, flags = _minimality_flags(patch, norm)

    energy = sublevel_energy(patch, norm, 1.0, dual, rule, max_depth)

    fb0 = patch.frames(p0[None])
    nu0 = fb0.nu[0]
    F0 = float(norm.value(nu0))
    section, section_est = _section_measure(dual, fb0.e[0])

    bound = F0 * section
    ratio = energy.value / bound
    rel_tol = (energy.error_estimate + F0 * section_est) / bound
    return CorollaryReport(
        energy=energy.value, bound=bound, section_measure=section,
        ratio=ratio, tolerance=rel_tol, flags=flags,
        metadata={"surface": patch.name, "norm": norm.label, "origin_param": p0,
                  "max_abs_H": maxH, "normal_at_origin": nu0,
                  "cells": _cell_counts(energy=energy)})


def _cell_counts(**results) -> dict:
    """Inside, cut and fallback cell counts of each named clipped integral."""
    return {name: res.cell_counts() for name, res in results.items()}


def _section_measure(dual, e) -> tuple[float, float]:
    """|{F° < 1} ∩ span e| for orthonormal rows e (n, d), n = 1 or 2, and its
    estimate, from one dual.value batch: 1/F°(t) + 1/F°(-t) on a line; on a
    plane, half the integral of F°(u)^-2 over the unit circle by the periodic
    trapezoid rule, estimated by its gap to the rule on every other angle.
    Both estimates add a round-off floor of 4 ulps of the measure."""
    if len(e) == 1:
        measure, gap = float(np.sum(1.0 / np.asarray(dual.value(np.array([e[0], -e[0]]))))), 0.0
    else:
        ang = np.arange(_SECTION_ANGLES) * (2.0 * np.pi / _SECTION_ANGLES)
        inv_sq = np.asarray(dual.value(np.outer(np.cos(ang), e[0])
                                       + np.outer(np.sin(ang), e[1]))) ** -2.0
        measure = float(np.pi * np.mean(inv_sq))
        gap = abs(measure - float(np.pi * np.mean(inv_sq[::2])))
    return measure, gap + 4.0 * float(np.spacing(measure))


def minkowski_formula(patch: ParametricPatch, xi_field: TransversalField, k: int, *,
                      rule: ParamQuadrature = ParamQuadrature()) -> IdentityReport:
    """Closed-surface pairing of normalized curvature orders k and k+1:

        integral <xi, nu> Hk~  =  - integral <x, nu> H(k+1)~.
    """
    return minkowski_formulas(patch, xi_field, (k,), rule=rule)[0]


def minkowski_formulas(patch: ParametricPatch, xi_field: TransversalField, ks, *,
                       rule: ParamQuadrature = ParamQuadrature()) -> list[IdentityReport]:
    """minkowski_formula for each order k of ks, all from one decomposition of
    each quadrature node set (the 2 len(ks) sides are columns of one integral)."""
    if not patch.closed:
        raise NotClosed(f"{patch.name} is not closed")
    n = patch.n
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError("no order k given")
    for k in ks:
        if not 0 <= k <= n - 1:
            raise ValueError(f"k must lie in 0..{n - 1}")
    eb = equiaffine_batch(patch, xi_field, patch.sample_grid(SAMPLE_GRID))
    max_tau = float(np.max(np.abs(eb.tau)))
    if max_tau > MINIMALITY_TOL:
        raise NotEquiaffine(f"max |tau| = {max_tau:.3g} exceeds {MINIMALITY_TOL:g}")

    binomials = np.array([math.comb(n, j) for j in range(max(ks) + 2)])

    def sides(fb):
        e = _equiaffine(xi_field, fb)
        xn = np.einsum("md,md->m", fb.x, fb.nu)
        # the normalized curvatures sigma_j / C(n, j), j = 0..max(ks) + 1
        h = newton_tensors(e.shape_op, max(ks) + 1)[1] / binomials
        return np.column_stack([col for k in ks
                                for col in (e.support * h[:, k], -xn * h[:, k + 1])])

    # the integrals on the rule's grid and on twice its cells per axis: the
    # finer values, and their difference as the estimate
    coarse, fine = (integrate_clipped(patch, sides, None, q).value
                    for q in (rule, ParamQuadrature(rule.order, 2 * rule.base_grid)))
    values = fine.tolist()
    estimates = (np.abs(fine - coarse) + 1e-15 * (np.abs(fine) + 1.0)).tolist()
    reports = []
    for i, k in enumerate(ks):
        (lhs, rhs), (est_l, est_r) = values[2 * i:2 * i + 2], estimates[2 * i:2 * i + 2]
        # grid refinement cannot see the finite-difference bias of the shape
        # operator (~1e-10 relative); give the tolerance that floor
        tol = est_l + est_r + 1e-9 * (abs(lhs) + abs(rhs) + 1.0)
        reports.append(_finish_report(
            f"minkowski-k{k}", lhs, rhs, tol, [],
            {"surface": patch.name, "xi": xi_field.name, "k": k, "max_tau": max_tau}))
    return reports


@dataclass
class MonotonicityScan:
    radii: np.ndarray
    normalized: np.ndarray       # E(r_i) / r_i^n
    estimates: np.ndarray        # normalized error estimates
    reports: list[IdentityReport]  # one identity report per adjacent annulus

    def non_decreasing(self) -> bool:
        slack = PASS_FACTOR * (self.estimates[1:] + self.estimates[:-1])
        return bool(np.all(np.diff(self.normalized) >= -slack))

    def max_relative_deviation(self) -> float:
        mean = float(np.mean(self.normalized))
        return float(np.max(np.abs(self.normalized - mean)) / abs(mean))


def monotonicity_scan(patch: ParametricPatch, norm: MinkowskiNorm, radii, *,
                      dual: DualNorm | None = None,
                      rule: ParamQuadrature = ParamQuadrature(),
                      max_depth: int = 10) -> MonotonicityScan:
    """Normalized energies at each radius plus identity reports per annulus,
    all from one clipped pass over the bands between consecutive radii."""
    def curvature():
        maxH, flags = _minimality_flags(patch, norm)
        return flags, {"norm": norm.label, "max_abs_H": maxH}

    return _annulus_scan("monotonicity", patch, dual or norm.dual(), radii,
                         lambda fb: norm.eval_with_maximizer(fb.nu), curvature,
                         rule=rule, max_depth=max_depth)


def geometric_radii(patch: ParametricPatch, gauge, count: int = 8) -> np.ndarray:
    """Geometrically spaced radii between the surface's smallest gauge value
    and the boundary gauge radius."""
    rmin, rmax = patch.gauge_range(gauge)
    rbnd = patch.boundary_gauge_radius(gauge)
    if not math.isfinite(rbnd):
        rbnd = rmax
    lo, hi = _INNER_FACTOR * rmin, _OUTER_FACTOR * rbnd
    if lo >= hi:
        raise ValueError("patch has no usable annulus for a radii scan")
    return np.geomspace(lo, hi, count)


def frame_identity_suite(patch: ParametricPatch, xi_field: TransversalField, *,
                         grid: int = 9, min_support: float = 0.05) -> dict:
    """Max residuals of the pointwise frame identities over a parameter grid.

    Grid points where |<xi, nu>| < min_support are skipped: the transversal
    decomposition is singular there and the identities do not apply.
    """
    P = patch.sample_grid(grid)
    fb = patch.frames(P)
    supp = np.einsum("md,md->m", xi_field.at(fb), fb.nu)
    keep = np.abs(supp) >= min_support
    if not keep.any():
        raise NotEquiaffine("no grid point is safely transversal")

    b = np.asarray(TEST_VECTOR, dtype=float)[: patch.dim]
    c = np.asarray(TEST_COVECTOR, dtype=float)[: patch.dim]

    # one decomposition for every kept point, from the grid's frames; its
    # stencil, on which the checks below difference their fields, is framed
    # in one call with the points of the Codazzi check
    kept = fb.rows(keep)
    st = _stencil_points(kept)
    framed = patch.frames(np.concatenate([st, _codazzi_points(kept.P)]))
    eb = _equiaffine(xi_field, kept, framed.rows(slice(len(st))))
    pos = tangential_derivative_residuals(position_field(), eb)
    const = tangential_derivative_residuals(constant_field(b), eb)
    div_b, div_x = divergence_residuals_constant_position(eb)
    product = product_rule_residual(lambda f: f.x @ c, position_field(), eb)
    sym_1, sym_2 = shape_products_asymmetry(eb)
    codazzi = _codazzi(xi_field, kept, framed.rows(slice(len(st), None)))
    residuals = {"tangential_derivative": (pos[0], const[0]),
                 "tangential_divergence": (pos[1], const[1]),
                 "div_constant": div_b, "div_position": div_x, "product_rule": product,
                 "shape_sym_1": sym_1, "shape_sym_2": sym_2, "codazzi": codazzi}
    out = {"grid_points": int(P.shape[0]), "kept_points": int(keep.sum())}
    out.update({key: float(np.max(res)) for key, res in residuals.items()})
    return out
