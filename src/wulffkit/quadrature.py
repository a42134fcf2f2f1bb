"""Surface quadrature over parametric patches.

Plain integrals use tensor-product Gauss-Legendre rules on a uniform cell
grid.  Gauge-clipped integrals over {s < phi(x) < r} classify cells by
sampled gauge values plus a gradient-based variation bound: cells entirely
inside are integrated directly, cells entirely outside are dropped, and
straddling cells are bisected down to a depth limit, where a pointwise
indicator takes over.  Clipped results carry a conservative error estimate
(the full mass of the straddling leaf cells), which downstream identity
checks use as their tolerance unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surfaces import ParametricPatch


@dataclass(frozen=True)
class ParamQuadrature:
    """Gauss-Legendre points per axis per cell, and cells per axis."""
    order: int = 6
    base_grid: int = 16

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("quadrature order must be >= 2")
        if self.base_grid < 1:
            raise ValueError("base_grid must be >= 1")

    def refined(self, factor: int = 2) -> "ParamQuadrature":
        return ParamQuadrature(order=self.order, base_grid=self.base_grid * factor)


@dataclass(frozen=True)
class ClippedRegionRule:
    """Annular gauge region {s < phi < r} and the adaptive subdivision depth."""
    gauge: object            # needs .value(X) -> (m,) and .grad(X) -> (m, d)
    s: float
    r: float
    max_depth: int = 10

    def __post_init__(self):
        if not 0.0 <= self.s < self.r:
            raise ValueError("region radii must satisfy 0 <= s < r")


@dataclass
class ClippedResult:
    value: float
    error_estimate: float
    depth_exhausted: bool
    inside_cells: int
    leaf_cells: int


_ORIGIN_FLOOR = 1e-12


def _gauge_values_safe(gauge, X: np.ndarray) -> np.ndarray:
    """Gauge values with phi(0) = 0 filled in (1-homogeneous extension)."""
    small = np.einsum("md,md->m", X, X) < _ORIGIN_FLOOR * _ORIGIN_FLOOR
    if not np.any(small):
        return np.asarray(gauge.value(X), dtype=float)
    out = np.zeros(X.shape[0])
    if np.any(~small):
        out[~small] = np.asarray(gauge.value(X[~small]), dtype=float)
    return out


def _gauge_grads_safe(gauge, X: np.ndarray) -> np.ndarray:
    """Gauge gradients with rows at the origin zeroed (used only for
    variation bounds; neighboring samples dominate there)."""
    small = np.einsum("md,md->m", X, X) < _ORIGIN_FLOOR * _ORIGIN_FLOOR
    if not np.any(small):
        return np.atleast_2d(np.asarray(gauge.grad(X), dtype=float))
    out = np.zeros_like(X)
    if np.any(~small):
        out[~small] = np.atleast_2d(np.asarray(gauge.grad(X[~small]), dtype=float))
    return out


def _unit_nodes(order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor GL nodes/weights on the unit box [0,1]^n."""
    x, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (x + 1.0)
    w = 0.5 * w
    if n == 1:
        return t[:, None], w
    A, B = np.meshgrid(t, t, indexing="ij")
    WA, WB = np.meshgrid(w, w, indexing="ij")
    return (np.column_stack([A.ravel(), B.ravel()]), (WA * WB).ravel())


def _base_cells(patch: ParametricPatch, base_grid: int) -> tuple[np.ndarray, np.ndarray]:
    axes = [np.linspace(a, b, base_grid + 1) for a, b in patch.domain]
    if patch.n == 1:
        lo = axes[0][:-1][:, None]
        hi = axes[0][1:][:, None]
        return lo, hi
    L0, L1 = np.meshgrid(axes[0][:-1], axes[1][:-1], indexing="ij")
    H0, H1 = np.meshgrid(axes[0][1:], axes[1][1:], indexing="ij")
    return (np.column_stack([L0.ravel(), L1.ravel()]),
            np.column_stack([H0.ravel(), H1.ravel()]))


def _gl_sum(patch: ParametricPatch, f, lo: np.ndarray, hi: np.ndarray,
            order: int, region: ClippedRegionRule | None = None,
            absolute: bool = False):
    """Gauss-Legendre sum over a batch of cells; optional region indicator.

    f returns (m,) values, or (m, j) for j integrands on the same nodes.
    Returns (signed sum, absolute-mass sum): floats, or (j,) arrays.
    """
    if lo.shape[0] == 0:
        return 0.0, 0.0
    tn, tw = _unit_nodes(order, patch.n)
    q = tn.shape[0]
    total = mass = np.zeros(1)       # (j,) from the first chunk on
    chunk = max(1, 200_000 // q)
    for start in range(0, lo.shape[0], chunk):
        cl, ch = lo[start:start + chunk], hi[start:start + chunk]
        P = cl[:, None, :] + (ch - cl)[:, None, :] * tn[None, :, :]
        vol = np.prod(ch - cl, axis=1)
        W = (tw[None, :] * vol[:, None]).reshape(-1)
        fb = patch.frames(P.reshape(-1, patch.n))
        vals = np.asarray(f(fb), dtype=float)
        # (j, m): one contiguous row per integrand, so each integral is the
        # same dot product, bit for bit, as for that integrand alone
        rows = np.ascontiguousarray(vals.T).reshape(-1, len(W)) * fb.sqrt_g
        if region is not None:
            phi = _gauge_values_safe(region.gauge, fb.x)
            mask = ((phi > region.s) if region.s > 0.0 else (phi > 0.0)) \
                & (phi < region.r)
            total = total + _row_dots(W, np.where(mask, rows, 0.0))
        else:
            total = total + _row_dots(W, rows)
        if absolute:
            mass = mass + _row_dots(W, np.abs(rows))
    if vals.ndim == 1:
        return float(total[0]), float(mass[0])
    return total, mass


def _row_dots(W: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.dot(W, row) for each row of rows (j, m)."""
    return np.array([np.dot(W, row) for row in rows])


def integrate(patch: ParametricPatch, f, rule: ParamQuadrature = ParamQuadrature()):
    """Integral of f against the surface measure over the whole patch.

    f maps a FrameBatch of m nodes to (m,) values, or to (m, j) for j
    integrands sharing the nodes (and their frames); the result is a float,
    or a (j,) array.
    """
    lo, hi = _base_cells(patch, rule.base_grid)
    total, _ = _gl_sum(patch, f, lo, hi, rule.order)
    return total


def integrate_with_estimate(patch: ParametricPatch, f,
                            rule: ParamQuadrature = ParamQuadrature(),
                            factor: int = 2):
    """Integral plus a two-resolution error estimate (each a float, or a
    (j,) array for an (m, j) integrand, as in integrate)."""
    coarse = integrate(patch, f, rule)
    fine = integrate(patch, f, rule.refined(factor))
    return fine, abs(fine - coarse) + 1e-15 * (abs(fine) + 1.0)


_SAMPLE_OFFSETS_1D = np.array([[0.0], [0.5], [1.0]])
_SAMPLE_OFFSETS_2D = np.array([[i, j] for i in (0.0, 0.5, 1.0) for j in (0.0, 0.5, 1.0)])


def integrate_clipped(patch: ParametricPatch, f, region: ClippedRegionRule,
                      rule: ParamQuadrature = ParamQuadrature()) -> ClippedResult:
    """Adaptive integral of f over the patch portion with s < phi(x) < r."""
    gauge = region.gauge
    offsets = _SAMPLE_OFFSETS_1D if patch.n == 1 else _SAMPLE_OFFSETS_2D
    lo, hi = _base_cells(patch, rule.base_grid)

    inside_lo, inside_hi = [], []
    leaf_lo, leaf_hi = [], []

    for _depth in range(region.max_depth + 1):
        if lo.shape[0] == 0:
            break
        k = lo.shape[0]
        pts = lo[:, None, :] + (hi - lo)[:, None, :] * offsets[None, :, :]
        flat = pts.reshape(-1, patch.n)
        X = patch.chart(flat)
        phi = _gauge_values_safe(gauge, X).reshape(k, -1)
        dX = patch.dchart(flat)
        gphi = _gauge_grads_safe(gauge, X)
        # per-axis parameter derivative of phi(chart(.)), maxed over samples
        pgrad = np.abs(np.einsum("mnd,md->mn", dX, gphi)).reshape(k, -1, patch.n)
        Lax = pgrad.max(axis=1)
        extent = hi - lo
        var = Lax * extent
        # samples sit on a 3^n sub-grid: every cell point is within a quarter
        # cell of a sample per axis; factor 1.5 covers gradient growth inside
        V = 0.375 * var.sum(axis=1)
        delta = region.r * 1e-12

        phimin = phi.min(axis=1)
        phimax = phi.max(axis=1)
        above_ok = phimax + V < region.r - delta
        below_ok = (phimin - V > region.s + delta) if region.s > 0.0 \
            else np.ones_like(above_ok, dtype=bool)
        is_inside = above_ok & below_ok
        is_outside = (phimin - V > region.r) | \
            ((phimax + V < region.s) if region.s > 0.0 else np.zeros_like(above_ok, dtype=bool))
        straddle = ~(is_inside | is_outside)

        inside_lo.append(lo[is_inside])
        inside_hi.append(hi[is_inside])
        slo, shi = lo[straddle], hi[straddle]
        if _depth == region.max_depth:
            leaf_lo.append(slo)
            leaf_hi.append(shi)
            break
        lo, hi = _split_cells(slo, shi, var[straddle])

    inside_lo = np.vstack(inside_lo) if inside_lo else np.empty((0, patch.n))
    inside_hi = np.vstack(inside_hi) if inside_hi else np.empty((0, patch.n))
    leaf_lo = np.vstack(leaf_lo) if leaf_lo else np.empty((0, patch.n))
    leaf_hi = np.vstack(leaf_hi) if leaf_hi else np.empty((0, patch.n))

    val_in, _ = _gl_sum(patch, f, inside_lo, inside_hi, rule.order)
    val_leaf, mass_leaf = _gl_sum(patch, f, leaf_lo, leaf_hi, rule.order,
                                  region=region, absolute=True)
    return ClippedResult(value=val_in + val_leaf,
                         error_estimate=mass_leaf,
                         depth_exhausted=leaf_lo.shape[0] > 0,
                         inside_cells=inside_lo.shape[0],
                         leaf_cells=leaf_lo.shape[0])


def _split_cells(lo: np.ndarray, hi: np.ndarray,
                 var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisect straddling cells along the axes that drive the gauge variation.

    Axes whose variation is below 30% of the dominant axis are left alone,
    which keeps level-set-aligned bands from exploding into needless cells.
    """
    if lo.shape[0] == 0:
        return lo, hi
    mid = 0.5 * (lo + hi)
    n = lo.shape[1]
    if n == 1:
        return (np.vstack([lo, mid]), np.vstack([mid, hi]))
    vmax = var.max(axis=1)
    degenerate = vmax <= 0.0
    split = var >= 0.3 * np.where(vmax > 0, vmax, 1.0)[:, None]
    split[degenerate] = True
    split[np.arange(len(var)), np.argmax(var, axis=1)] = True

    los, his = [], []
    patterns = ((True, True), (True, False), (False, True))
    for p0, p1 in patterns:
        sel = (split[:, 0] == p0) & (split[:, 1] == p1)
        if not np.any(sel):
            continue
        l, h, m = lo[sel], hi[sel], mid[sel]
        pieces0 = [(l[:, 0], m[:, 0]), (m[:, 0], h[:, 0])] if p0 else [(l[:, 0], h[:, 0])]
        pieces1 = [(l[:, 1], m[:, 1]), (m[:, 1], h[:, 1])] if p1 else [(l[:, 1], h[:, 1])]
        for a0, b0 in pieces0:
            for a1, b1 in pieces1:
                los.append(np.column_stack([a0, a1]))
                his.append(np.column_stack([b0, b1]))
    return np.vstack(los), np.vstack(his)


def sublevel_energy(patch: ParametricPatch, norm, r: float, dual=None,
                    rule: ParamQuadrature = ParamQuadrature(),
                    max_depth: int = 10) -> ClippedResult:
    """Integral of F(nu) over the patch portion inside the dual-gauge ball of
    radius r (the normalizing energy of the monotonicity statement)."""
    if r <= 0:
        raise ValueError("radius must be positive")
    dual = dual or norm.dual()
    region = ClippedRegionRule(gauge=dual, s=0.0, r=r, max_depth=max_depth)
    return integrate_clipped(patch, lambda fb: np.asarray(norm.value(fb.nu)),
                             region, rule)
