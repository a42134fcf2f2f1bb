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
from .quadrature import (ClippedRegionRule, ParamQuadrature, _gauge_safe,
                         integrate_clipped, integrate_with_estimate)
from .surfaces import (ParametricPatch, TransversalField, _as_batch, _divergence,
                       _equiaffine, _frame_derivs, _unbatch, affine_tangential,
                       anisotropic_mean_curvature_batch, codazzi_residual,
                       constant_field, divergence_residuals_constant_position,
                       equiaffine_batch, hyperplane, position_field,
                       product_rule_residual, shape_products_asymmetry,
                       tangential_derivative_residuals)
from .symfunc import normalized_curvature_batch

PASS_FACTOR = 3.0


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
                          max_depth: int = 10, minimality_tol: float = 1e-5,
                          grid: int = 9) -> IdentityReport:
    """Normalized-energy difference against the annulus kernel integral.

    lhs: E(r)/r^n - E(s)/s^n with E(t) the gauge energy inside {F° < t};
    rhs: integral of <grad F°(x), grad F(nu)> <x, nu> / F°(x)^{n+1} over the
    annulus.  Equality requires vanishing anisotropic mean curvature, which
    is verified by sampling, not assumed.  The scan of the two radii s, r:
    one clipped pass over the bands {F° < s} and {s < F° < r}.
    """
    if not 0.0 < s < r:
        raise ValueError("need 0 < s < r")
    return monotonicity_scan(patch, norm, (s, r), dual=dual, rule=rule, max_depth=max_depth,
                             minimality_tol=minimality_tol, grid=grid).reports[0]


def _max_abs_mean_curvature(patch: ParametricPatch, norm: MinkowskiNorm,
                            grid: int) -> float:
    """max |H_F| over the sample grid: the sampled minimality of the patch."""
    return float(np.max(np.abs(
        anisotropic_mean_curvature_batch(norm, patch, patch.sample_grid(grid)))))


def _annulus_pass(patch: ParametricPatch, gauge, density, kernel, radii, *,
                  rule: ParamQuadrature, max_depth: int):
    """One clipped pass of the columns (density, kernel) over the bands
    {0 < gauge < r_1}, {r_1 < gauge < r_2}, ... of radii r_1 < ... < r_K.

    Returns the density integrals E(r_i) inside each radius (prefix sums of
    the bands) with their estimates, the identity (lhs, rhs, tolerance) on
    each annulus (r_i, r_(i+1)), and the cell counts of the pass.  The kernel
    is not used on the innermost band, which may hold the gauge's cone point
    x = 0: there kernel(fb, phi, grad) sees phi = 0 and a zero gradient, and
    must stay finite.
    """
    radii = [float(t) for t in radii]
    n = patch.n

    def columns(fb):
        phi, grad = _gauge_safe(gauge, fb.x)   # one ascent for a numeric dual
        return np.column_stack([density(fb), kernel(fb, phi, grad)])

    res = integrate_clipped(
        patch, columns,
        ClippedRegionRule(gauge=gauge, s=0.0, r=radii[-1], max_depth=max_depth,
                          splits=radii[:-1]), rule)
    E, E_est = np.cumsum(res.value[:, 0]), res.prefix_estimate[:, 0]
    sides = []
    for i, (s, r) in enumerate(zip(radii[:-1], radii[1:])):
        lhs = E[i + 1] / r**n - E[i] / s**n
        tol = E_est[i + 1] / r**n + E_est[i] / s**n
        tol += res.error_estimate[i + 1, 1] + 1e-14 * (abs(lhs) + 1.0)
        sides.append((float(lhs), float(res.value[i + 1, 1]), float(tol)))
    return E, E_est, sides, _cell_counts(bands=res)


def _kernel_over(num: np.ndarray, phi: np.ndarray, n: int) -> np.ndarray:
    """num / phi^(n+1), and 0 at the cone point phi = 0."""
    return np.divide(num, phi ** (n + 1), out=np.zeros_like(num), where=phi > 0.0)


def equiaffine_identity(patch: ParametricPatch, xi_field: TransversalField,
                        gauge, s: float, r: float, *,
                        rule: ParamQuadrature = ParamQuadrature(),
                        max_depth: int = 10, mean_tol: float = 1e-5,
                        grid: int = 9) -> IdentityReport:
    """Transversal-density version of the monotonicity identity.

    lhs densities use <xi, nu>; the rhs kernel is
    <x, nu> <grad phi(x), xi> / phi(x)^{n+1}.  Requires sampled affine mean
    curvature below mean_tol for an asserted verdict.  Both sides come from
    one clipped pass over the bands {phi < s} and {s < phi < r}.
    """
    if not 0.0 < s < r:
        raise ValueError("need 0 < s < r")
    _require_boundary_outside(patch, gauge, r)

    flags = []
    eb = equiaffine_batch(patch, xi_field, patch.sample_grid(grid))
    maxH = float(np.max(np.abs(eb.affine_mean)))
    if maxH > mean_tol:
        flags.append(f"not-affine-minimal(max|H|={maxH:.3g})")

    n = patch.n

    def density(fb):
        return np.einsum("md,md->m", xi_field.at(fb), fb.nu)

    def kernel(fb, phi, gx):
        xn = np.einsum("md,md->m", fb.x, fb.nu)
        return _kernel_over(xn * np.einsum("md,md->m", gx, xi_field.at(fb)), phi, n)

    _, _, [(lhs, rhs, tol)], cells = _annulus_pass(patch, gauge, density, kernel, (s, r),
                                                   rule=rule, max_depth=max_depth)
    return _finish_report(
        "equiaffine-monotonicity", lhs, rhs, tol, flags,
        {"surface": patch.name, "xi": xi_field.name, "s": s, "r": r,
         "max_abs_H_xi": maxH, "depth": max_depth, "cells": cells})


def pointwise_divergence_residual(patch: ParametricPatch, xi_field: TransversalField,
                                  gauge, p, step: float = 1e-5):
    """Residual of div_M [x^{top_xi} / (n phi^n)] against its closed form.

    The closed form keeps the affine-mean-curvature term,
      <x,nu><grad phi(x), xi>/phi^{n+1} + <x,nu> H_xi / (n phi^n),
    so the check is valid on non-minimal surfaces as well.  Takes one
    parameter point (n,), giving a float, or a batch (m, n), giving (m,).
    """
    P, single = _as_batch(p)
    eb = equiaffine_batch(patch, xi_field, P, step=step)
    fb, st = eb.frames, eb.stencil
    n = patch.n
    phi0, gp = gauge.eval_with_maximizer(fb.x)   # one ascent for a numeric dual
    if np.any(phi0 <= 1e-12):
        raise GaugeZero("gauge vanishes at the evaluation point")

    # the field x^{top_xi} / (n phi^n) on the decomposition's stencil
    V = (affine_tangential(st.x, xi_field.at(st), st.nu)
         / (n * np.asarray(gauge.value(st.x))**n)[:, None])
    lhs = _divergence(_frame_derivs(V, fb, step), fb)
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


def _locate_origin(patch: ParametricPatch, origin_param, grid: int) -> np.ndarray:
    if origin_param is not None:
        p0 = np.asarray(origin_param, dtype=float)
    else:
        G = patch.sample_grid(max(grid, 17))
        d2 = np.sum(patch.chart(G) ** 2, axis=1)
        p0 = G[int(np.argmin(d2))]
        from scipy.optimize import minimize   # deferred: SciPy dominates the import time
        res = minimize(lambda q: float(np.sum(patch.chart(q[None, :])[0] ** 2)),
                       p0, method="Nelder-Mead",
                       options={"xatol": 1e-14, "fatol": 1e-28, "maxiter": 4000})
        p0 = res.x
    x0 = patch.chart(p0[None, :])[0]
    if np.linalg.norm(x0) > 1e-8:
        raise OriginNotOnSurface(
            f"nearest surface point to the origin is at distance {np.linalg.norm(x0):.3g}")
    return p0


def corollary_lower_bound(patch: ParametricPatch, norm: MinkowskiNorm, *,
                          dual: DualNorm | None = None,
                          rule: ParamQuadrature = ParamQuadrature(),
                          max_depth: int = 10, grid: int = 9,
                          minimality_tol: float = 1e-5,
                          origin_param=None) -> CorollaryReport:
    """Energy of the patch inside the unit dual ball against the central
    tangent-section bound F(nu(0)) * |{F° < 1} ∩ T_0 M|.

    The section measure is computed with the same clipped quadrature on a
    flat patch spanning the tangent space at the origin.
    """
    dual = dual or norm.dual()
    p0 = _locate_origin(patch, origin_param, grid)
    bnd = patch.boundary_gauge_radius(dual)
    if bnd < 1.0 - 1e-9:
        raise BoundaryInsideRegion(
            f"patch boundary enters the unit gauge ball (min gauge {bnd:.6g})")

    maxH = _max_abs_mean_curvature(patch, norm, grid)
    flags = [f"not-minimal(max|H|={maxH:.3g})"] if maxH > minimality_tol else []

    energy = integrate_clipped(
        patch, lambda fb: np.asarray(norm.value(fb.nu)),
        ClippedRegionRule(gauge=dual, s=0.0, r=1.0, max_depth=max_depth), rule)

    fb0 = patch.frames(p0[None])
    nu0 = fb0.nu[0]
    F0 = float(norm.value(nu0))
    section_patch = _tangent_section_patch(patch, nu0, fb0.e[0, 0], dual)
    section = integrate_clipped(
        section_patch, lambda fb: np.ones(fb.x.shape[0]),
        ClippedRegionRule(gauge=dual, s=0.0, r=1.0, max_depth=max_depth), rule)

    bound = F0 * section.value
    ratio = energy.value / bound
    rel_tol = (energy.error_estimate + F0 * section.error_estimate) / bound
    return CorollaryReport(
        energy=energy.value, bound=bound, section_measure=section.value,
        ratio=ratio, tolerance=rel_tol, flags=flags,
        metadata={"surface": patch.name, "norm": norm.label, "origin_param": p0,
                  "max_abs_H": maxH, "normal_at_origin": nu0,
                  "cells": _cell_counts(energy=energy, section=section)})


def _cell_counts(**results) -> dict:
    """Inside, cut and fallback cell counts of each named clipped integral."""
    return {name: res.cell_counts() for name, res in results.items()}


def _tangent_section_patch(patch: ParametricPatch, nu0, t, dual) -> ParametricPatch:
    """Flat patch spanning T_0 M, sized to contain the unit dual ball section.

    nu0 is the unit normal at the origin and t its first frame vector.
    """
    if patch.n == 2:
        plane = hyperplane(normal=nu0, origin=np.zeros(3), extent=1.0)
        ang = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        T = plane.dchart(np.zeros((1, 2)))[0]
        dirs = np.outer(np.cos(ang), T[0]) + np.outer(np.sin(ang), T[1])
        rho = 1.0 / np.asarray(dual.value(dirs))
        extent = 1.05 * float(np.max(rho))
        return hyperplane(normal=nu0, origin=np.zeros(3), extent=extent)
    # n == 1: the tangent line through the origin
    rho = max(1.0 / float(dual.value(t)), 1.0 / float(dual.value(-t)))
    extent = 1.05 * rho

    def chart(P):
        return P[:, 0:1] * t[None, :]

    def dchart(P):
        out = np.empty((P.shape[0], 1, 2))
        out[:, 0] = t
        return out

    def d2chart(P):
        return np.zeros((P.shape[0], 1, 1, 2))

    return ParametricPatch(1, chart, [(-extent, extent)], dchart_fn=dchart,
                           d2chart_fn=d2chart, name="tangent-line")


def minkowski_formula(patch: ParametricPatch, xi_field: TransversalField, k: int, *,
                      rule: ParamQuadrature = ParamQuadrature(),
                      tau_tol: float = 1e-5, grid: int = 9) -> IdentityReport:
    """Closed-surface pairing of normalized curvature orders k and k+1:

        integral <xi, nu> Hk~  =  - integral <x, nu> H(k+1)~.
    """
    return minkowski_formulas(patch, xi_field, (k,), rule=rule, tau_tol=tau_tol,
                              grid=grid)[0]


def minkowski_formulas(patch: ParametricPatch, xi_field: TransversalField, ks, *,
                       rule: ParamQuadrature = ParamQuadrature(),
                       tau_tol: float = 1e-5, grid: int = 9) -> list[IdentityReport]:
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
    eb = equiaffine_batch(patch, xi_field, patch.sample_grid(grid))
    max_tau = float(np.max(np.abs(eb.tau)))
    if max_tau > tau_tol:
        raise NotEquiaffine(f"max |tau| = {max_tau:.3g} exceeds {tau_tol:g}")

    def sides(fb):
        e = _equiaffine(xi_field, fb)
        xn = np.einsum("md,md->m", fb.x, fb.nu)
        h = {j: normalized_curvature_batch(e.shape_op, j)
             for j in {*ks, *(k + 1 for k in ks)}}
        return np.column_stack([col for k in ks
                                for col in (e.support * h[k], -xn * h[k + 1])])

    values, estimates = (a.tolist() for a in integrate_with_estimate(patch, sides, rule))
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

    def non_decreasing(self, slack_factor: float = PASS_FACTOR) -> bool:
        slack = slack_factor * (self.estimates[1:] + self.estimates[:-1])
        return bool(np.all(np.diff(self.normalized) >= -slack))

    def max_relative_deviation(self) -> float:
        mean = float(np.mean(self.normalized))
        return float(np.max(np.abs(self.normalized - mean)) / abs(mean))


def monotonicity_scan(patch: ParametricPatch, norm: MinkowskiNorm, radii, *,
                      dual: DualNorm | None = None,
                      rule: ParamQuadrature = ParamQuadrature(),
                      max_depth: int = 10, minimality_tol: float = 1e-5,
                      grid: int = 9) -> MonotonicityScan:
    """Normalized energies at each radius plus identity reports per annulus,
    all from one clipped pass over the bands between consecutive radii."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing with length >= 2")
    if radii[0] <= 0:
        raise ValueError("radii must be positive")
    dual = dual or norm.dual()
    _require_boundary_outside(patch, dual, float(radii[-1]))
    maxH = _max_abs_mean_curvature(patch, norm, grid)
    flags = [f"not-minimal(max|H|={maxH:.3g})"] if maxH > minimality_tol else []
    n = patch.n

    def density(fb):
        return np.asarray(norm.value(fb.nu))

    def kernel(fb, phi, gx):
        xn = np.einsum("md,md->m", fb.x, fb.nu)
        return _kernel_over(np.einsum("md,md->m", gx, norm.grad(fb.nu)) * xn, phi, n)

    E, E_est, sides, cells = _annulus_pass(patch, dual, density, kernel, radii, rule=rule,
                                           max_depth=max_depth)
    reports = [
        _finish_report("monotonicity", lhs, rhs, tol, list(flags),
                       {"surface": patch.name, "norm": norm.label, "s": float(radii[i]),
                        "r": float(radii[i + 1]), "max_abs_H": maxH, "E_r": float(E[i + 1]),
                        "E_s": float(E[i]), "depth": max_depth, "cells": cells})
        for i, (lhs, rhs, tol) in enumerate(sides)]
    return MonotonicityScan(radii=radii, normalized=E / radii**n, estimates=E_est / radii**n,
                            reports=reports)


def geometric_radii(patch: ParametricPatch, gauge, count: int = 8,
                    inner_factor: float = 1.05, outer_factor: float = 0.98) -> np.ndarray:
    """Geometrically spaced radii between the surface's smallest gauge value
    and the boundary gauge radius."""
    rmin, _ = patch.gauge_range(gauge)
    rbnd = patch.boundary_gauge_radius(gauge)
    if not math.isfinite(rbnd):
        _, rbnd = patch.gauge_range(gauge)
    lo, hi = inner_factor * rmin, outer_factor * rbnd
    if lo >= hi:
        raise ValueError("patch has no usable annulus for a radii scan")
    return np.geomspace(lo, hi, count)


def frame_identity_suite(patch: ParametricPatch, xi_field: TransversalField, *,
                         grid: int = 9, min_support: float = 0.05,
                         step: float = 1e-5,
                         test_vector=(0.3, -0.7, 0.55),
                         test_covector=(0.2, 0.5, -0.4)) -> dict:
    """Max residuals of the pointwise frame identities over a parameter grid.

    Grid points where |<xi, nu>| < min_support are skipped: the transversal
    decomposition is singular there and the identities do not apply.
    """
    P = patch.sample_grid(grid)
    fb = patch.frames(P)
    supp = np.einsum("md,md->m", xi_field.at(fb), fb.nu)
    kept = P[np.abs(supp) >= min_support]
    if kept.shape[0] == 0:
        raise NotEquiaffine("no grid point is safely transversal")

    b = np.asarray(test_vector, dtype=float)[: patch.dim]
    c = np.asarray(test_covector, dtype=float)[: patch.dim]

    # one decomposition for every kept point; the checks below difference
    # their fields on its stencil, framed once for all of them
    eb = equiaffine_batch(patch, xi_field, kept, step=step)
    pos = tangential_derivative_residuals(xi_field, position_field(), eb)
    const = tangential_derivative_residuals(xi_field, constant_field(b), eb)
    div_b, div_x = divergence_residuals_constant_position(xi_field, eb, b)
    product = product_rule_residual(xi_field, lambda f: f.x @ c, position_field(), eb)
    sym_1, sym_2 = shape_products_asymmetry(eb)
    codazzi = codazzi_residual(patch, xi_field, kept, inner_step=step)
    residuals = {"tangential_derivative": (pos[0], const[0]),
                 "tangential_divergence": (pos[1], const[1]),
                 "div_constant": div_b, "div_position": div_x, "product_rule": product,
                 "shape_sym_1": sym_1, "shape_sym_2": sym_2, "codazzi": codazzi}
    out = {"grid_points": int(P.shape[0]), "kept_points": int(kept.shape[0])}
    out.update({key: float(np.max(res)) for key, res in residuals.items()})
    return out
