"""Surface quadrature over parametric patches.

Plain integrals use tensor-product Gauss-Legendre rules on a uniform cell
grid.  A gauge-clipped integral over {s < phi(x) < r} classifies cells by
sampled values of psi = phi(chart(p)) plus a gradient-based variation
bound.  Cells entirely inside get the plain rule; cells entirely outside
are dropped.  A straddling cell is a cut cell when the sampled derivative
of psi along some parameter axis k (its height axis) keeps one sign with
margin: the level sets {psi = r} and {psi = s} are then graphs over the
other axes, and the region is integrated exactly up to the order of the
rule (R. I. Saye, SIAM J. Sci. Comput. 37 (2015) A993-A1019):

- on each k-face of a surface cell, the roots of psi = level split the
  cross-section axis into segments on which the region's bounds are smooth;
- Gauss-Legendre nodes on each segment give lines along k, on which a
  safeguarded Newton iteration finds the one root per level, and the
  Gauss-Legendre nodes of the line lie on the one interval where
  s < psi < r.

A curve cell is its own line.  The rules of order q and q - 1 are both
built; a cut cell where they disagree on the parameter area of the region
is too coarse for the curvature of its level sets and is halved along every
axis, as is a straddling cell without a height axis.  Only at the depth
limit does a pointwise indicator on the Gauss-Legendre nodes remain, as a
fallback.

The error estimate of a clipped integral is the sum over cut cells of the
difference between the two rules, plus a round-off floor on the absolute
mass of the integral, plus the full absolute mass of every fallback cell.
Cells entirely inside add nothing: when no cell straddles, the estimate is
exactly 0.  Downstream identity checks use the estimate as their tolerance
unit.
"""

from __future__ import annotations

import functools
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
    gauge: object            # needs .eval_with_maximizer(X) -> (m,), (m, d): value, gradient
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
    inside_cells: int
    leaf_cells: int          # straddling cells: cut cells plus fallback cells
    fallback_cells: int      # leaves at the depth limit with no height axis

    @property
    def depth_exhausted(self) -> bool:
        return self.fallback_cells > 0

    def cell_counts(self) -> dict:
        return {"inside": self.inside_cells, "cut": self.leaf_cells - self.fallback_cells,
                "fallback": self.fallback_cells}


_ORIGIN_FLOOR = 1e-12


def _gauge_safe(gauge, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauge values and gradients from one evaluation, with phi(0) = 0 (the
    1-homogeneous extension) and a zero gradient at the origin (it only
    enters variation bounds and height-axis tests, which it then fails)."""
    small = np.einsum("md,md->m", X, X) < _ORIGIN_FLOOR * _ORIGIN_FLOOR
    if not np.any(small):
        phi, grad = gauge.eval_with_maximizer(X)
        return np.asarray(phi, dtype=float), np.atleast_2d(np.asarray(grad, dtype=float))
    phi, grad = np.zeros(X.shape[0]), np.zeros_like(X)
    if np.any(~small):
        phi[~small], grad[~small] = gauge.eval_with_maximizer(X[~small])
    return phi, grad


def _psi(patch: ParametricPatch, gauge, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi = phi(chart(p)) and its parameter gradient (m, n) at points P (m, n)."""
    phi, grad = _gauge_safe(gauge, patch.chart(P))
    return phi, np.einsum("mnd,md->mn", patch.dchart(P), grad)


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]; read-only, because every
    call for this order shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _unit_nodes(order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor GL nodes/weights on the unit box [0,1]^n."""
    t, w = _gl(order)
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
            phi, _ = _gauge_safe(region.gauge, fb.x)
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


# classification samples: the 3^n grid of cell corners, edge midpoints and centre
_OFFSETS = {n: np.stack(np.meshgrid(*[(0.0, 0.5, 1.0)] * n, indexing="ij"),
                        axis=-1).reshape(-1, n) for n in (1, 2)}
# sample rows on the faces coord_k = lo_k and coord_k = hi_k of a surface cell,
# ordered along the other axis: (height axis k, face, 3)
_FACE_ROWS = np.array([[np.flatnonzero(_OFFSETS[2][:, k] == side) for side in (0.0, 1.0)]
                       for k in (0, 1)])
# corners of the unit box: child c of a halved cell takes the upper half of axis i
# where _CORNERS[n][c, i]
_CORNERS = {n: _OFFSETS[n][np.all(_OFFSETS[n] != 0.5, axis=1)] > 0.0 for n in (1, 2)}

_FACE_DEPTH = 30           # bisections of a k-face segment before a kink is placed mid-segment
_NEWTON_ITERS = 100        # safeguarded steps: Newton where it stays in the bracket, else bisection
_NEWTON_TOL = 1e-10        # a Newton step this small (times the bracket) ends the iteration
_ROUNDOFF = 1e-14          # round-off floor of the estimate, relative to the absolute mass
_AREA_TOL = 1e-12          # largest gap between the two rules' region areas in a kept cut cell,
                           # relative to the cell's parameter volume


def integrate_clipped(patch: ParametricPatch, f, region: ClippedRegionRule,
                      rule: ParamQuadrature = ParamQuadrature()) -> ClippedResult:
    """Adaptive integral of f (a FrameBatch of m nodes to (m,) values) over
    the patch portion with s < phi(x) < r."""
    n = patch.n
    offsets = _OFFSETS[n]
    lo, hi = _base_cells(patch, rule.base_grid)
    inside, fallback = [], []
    cut = [[], []]            # node sets (P, W, cell) of the rules of order q and q - 1
    n_cut = 0

    for depth in range(region.max_depth + 1):
        if lo.shape[0] == 0:
            break
        k = lo.shape[0]
        pts = lo[:, None, :] + (hi - lo)[:, None, :] * offsets[None, :, :]
        psi, G = _psi(patch, region.gauge, pts.reshape(-1, n))
        psi, G = psi.reshape(k, -1), G.reshape(k, -1, n)
        # samples sit on a 3^n sub-grid: every cell point is within a quarter
        # cell of a sample per axis; factor 1.5 covers gradient growth inside
        V = 0.375 * (np.abs(G).max(axis=1) * (hi - lo)).sum(axis=1)
        delta = region.r * 1e-12
        phimin, phimax = psi.min(axis=1), psi.max(axis=1)
        above_ok = phimax + V < region.r - delta
        below_ok = (phimin - V > region.s + delta) if region.s > 0.0 \
            else np.ones_like(above_ok, dtype=bool)
        is_inside = above_ok & below_ok
        is_outside = (phimin - V > region.r) | \
            ((phimax + V < region.s) if region.s > 0.0 else np.zeros_like(above_ok, dtype=bool))
        straddle = ~(is_inside | is_outside)
        inside.append((lo[is_inside], hi[is_inside]))

        margin = _sign_margin(G)                      # (k, n)
        axis = np.argmax(margin, axis=1)
        rest = straddle & (margin[np.arange(k), axis] <= 0.0)
        c = np.flatnonzero(straddle & ~rest)
        if c.size:
            nodes = _cut_nodes(patch, region, rule.order, lo[c], hi[c], axis[c], psi[c], G[c])
            # a cell whose two rules disagree on the parameter area of the
            # region is resolved too coarsely for its level sets: halve it
            area = [np.bincount(cell, weights=W, minlength=c.size) for _, W, cell in nodes]
            coarse = (np.abs(area[0] - area[1]) > _AREA_TOL * np.prod(hi[c] - lo[c], axis=1)) \
                & (depth < region.max_depth)
            number = np.cumsum(~coarse) - 1 + n_cut    # index of each kept cell
            for sets, (P, W, cell) in zip(cut, nodes):
                keep = ~coarse[cell]
                sets.append((P[keep], W[keep], number[cell[keep]]))
            n_cut += int(np.count_nonzero(~coarse))
            rest[c[coarse]] = True
        if depth == region.max_depth:
            fallback.append((lo[rest], hi[rest]))
            break
        lo, hi = _halve(lo[rest], hi[rest])

    ilo, ihi = (np.concatenate(a) for a in zip(*inside))
    flo, fhi = (np.concatenate(a) for a in zip(*fallback)) if fallback else \
        (np.empty((0, n)),) * 2
    val_in, mass_in = _gl_sum(patch, f, ilo, ihi, rule.order, absolute=True)
    val_cut, gap, mass_cut = _cut_sum(patch, f, cut, n_cut)
    val_fb, mass_fb = _gl_sum(patch, f, flo, fhi, rule.order, region=region, absolute=True)
    floor = _ROUNDOFF * (mass_in + mass_cut) if n_cut else 0.0
    return ClippedResult(value=val_in + val_cut + val_fb,
                         error_estimate=gap + floor + mass_fb,
                         inside_cells=ilo.shape[0],
                         leaf_cells=n_cut + flo.shape[0],
                         fallback_cells=flo.shape[0])


def _sign_margin(D: np.ndarray) -> np.ndarray:
    """How far samples of a derivative (axis 1 of D) keep one sign: the
    smallest magnitude, on the side of the sign they share, minus their
    spread; positive only if every sample has that sign with margin."""
    dmin, dmax = D.min(axis=1), D.max(axis=1)
    return np.maximum(dmin, -dmax) - (dmax - dmin)


def _halve(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2^n children of each cell, halved along every axis."""
    n = lo.shape[1]
    mid = 0.5 * (lo + hi)
    upper = _CORNERS[n][None, :, :]
    return (np.where(upper, mid[:, None, :], lo[:, None, :]).reshape(-1, n),
            np.where(upper, hi[:, None, :], mid[:, None, :]).reshape(-1, n))


def _cut_sum(patch: ParametricPatch, f, cut, n_cut: int) -> tuple[float, float, float]:
    """Integral of f over the cut cells from the rule of order q, the sum
    over cells of |I_q - I_{q-1}|, and the absolute mass of the integral.
    cut holds the node sets (P, W, cell) of each rule; f runs once on all."""
    if n_cut == 0:
        return 0.0, 0.0, 0.0
    (P, W, cell), (P1, W1, cell1) = ([np.concatenate(a) for a in zip(*sets)] for sets in cut)
    fb = patch.frames(np.concatenate([P, P1]))
    contrib = np.asarray(f(fb), dtype=float) * fb.sqrt_g * np.concatenate([W, W1])
    sums = np.bincount(np.concatenate([cell, cell1 + n_cut]), weights=contrib,
                       minlength=2 * n_cut)
    high = sums[:n_cut]
    mass = np.abs(contrib[:len(W)]).sum()
    return float(high.sum()), float(np.abs(high - sums[n_cut:]).sum()), float(mass)


def _cut_nodes(patch: ParametricPatch, region: ClippedRegionRule, order: int,
               lo: np.ndarray, hi: np.ndarray, axis: np.ndarray,
               psi: np.ndarray, G: np.ndarray):
    """Nodes (P, W, cell) of the rules of order q = `order` and q - 1 over the
    region within the cut cells (lo, hi) with height axes `axis`; W includes
    the parameter measure but not the area element.  psi and G are the
    classification samples of each cell."""
    c, n = lo.shape
    levels = [(region.r, 1.0)] + ([(region.s, -1.0)] if region.s > 0.0 else [])
    orders = (order, order - 1)
    # outer nodes: points of the cross-section (the axes other than k), each
    # the foot of a line along k
    if n == 1:
        outer = [(np.arange(c), lo.copy(), np.ones(c))] * 2
    else:
        seg_cell, seg_a, seg_b = _face_segments(patch, region.gauge, levels,
                                                lo, hi, axis, psi, G)
        outer = []
        for q in orders:
            t, w = _gl(q)
            cell = np.repeat(seg_cell, q)
            span = seg_b - seg_a
            P0 = lo[cell]
            P0[np.arange(len(cell)), 1 - axis[cell]] = (seg_a[:, None] + span[:, None] * t).ravel()
            outer.append((cell, P0, (span[:, None] * w).ravel()))
    line_cell = np.concatenate([o[0] for o in outer])
    P0 = np.concatenate([o[1] for o in outer])
    k = axis[line_cell]
    t_lo, t_hi = _line_intervals(patch, region.gauge, levels, P0, k,
                                 lo[line_cell, k], hi[line_cell, k])
    nodes = []
    start = 0
    for q, (cell, _, w_outer) in zip(orders, outer):
        # the lines of this rule that meet the region
        sl = np.arange(start, start + len(cell))
        start += len(cell)
        live = t_hi[sl] > t_lo[sl]
        sl, cell, w_outer = sl[live], cell[live], w_outer[live]
        t, w = _gl(q)
        length = t_hi[sl] - t_lo[sl]
        P = np.repeat(P0[sl], q, axis=0)
        P[np.arange(len(P)), np.repeat(k[sl], q)] = (t_lo[sl, None] + length[:, None] * t).ravel()
        nodes.append((P, (w_outer[:, None] * length[:, None] * w).ravel(), np.repeat(cell, q)))
    return nodes


def _line_intervals(patch: ParametricPatch, gauge, levels, P0: np.ndarray,
                    k: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The interval [t_lo, t_hi] of [a, b] where s < psi < r on each line
    P0 + (t - P0_k) e_k, psi being monotone along it."""
    m = len(k)
    rows = np.arange(m)
    ends = np.concatenate([P0, P0])
    ends[rows, k], ends[m + rows, k] = a, b
    psi_ends, _ = _gauge_safe(gauge, patch.chart(ends))
    psi_a, psi_b = psi_ends[:m], psi_ends[m:]
    # one root problem per line and level whose ends lie on both sides
    sel = [np.flatnonzero((psi_a < level) != (psi_b < level)) for level, _ in levels]
    idx = np.concatenate(sel)
    lev = np.concatenate([np.full(len(s), level) for s, (level, _) in zip(sel, levels)])
    roots = _roots(patch, gauge, P0[idx], k[idx], a[idx], b[idx],
                   psi_a[idx] - lev, psi_b[idx] - lev, lev)
    t_lo, t_hi = a.copy(), b.copy()
    start = 0
    for s, (level, sense) in zip(sel, levels):
        # sense +1 keeps psi < level (r), -1 keeps psi > level (s)
        t = np.full(m, np.nan)
        t[s] = roots[start:start + len(s)]
        start += len(s)
        in_a, in_b = sense * (psi_a - level) < 0.0, sense * (psi_b - level) < 0.0
        t_lo = np.maximum(t_lo, np.where(in_a, a, np.where(in_b, t, b)))
        t_hi = np.minimum(t_hi, np.where(in_b, b, np.where(in_a, t, a)))
    return t_lo, np.maximum(t_hi, t_lo)


def _face_segments(patch: ParametricPatch, gauge, levels, lo: np.ndarray,
                   hi: np.ndarray, axis: np.ndarray, psi: np.ndarray, G: np.ndarray):
    """Segments (cell, a, b) of the cross-section axis j = 1 - k of each
    surface cut cell, split where a level set crosses one of its two k-faces.

    Each (cell, face, level) starts as one face segment with the cell's three
    samples on that face.  A segment whose derivative along j keeps one sign
    holds a root exactly when its ends straddle the level; a segment whose
    samples all lie farther from the level than its variation bound holds
    none; any other is bisected, and at the depth limit its midpoint becomes
    the breakpoint.
    """
    c = lo.shape[0]
    j = 1 - axis
    cells = np.arange(c)
    # one face segment per (face, level, cell)
    seg_cell = np.tile(cells, 2 * len(levels))
    face = np.repeat(np.arange(2), len(levels) * c)
    lev = np.tile(np.repeat([level for level, _ in levels], c), 2)
    sample_rows = _FACE_ROWS[axis[seg_cell], face]                    # (p, 3)
    v = psi[seg_cell[:, None], sample_rows]
    d = G[seg_cell[:, None], sample_rows, j[seg_cell][:, None]]
    P = np.where(face[:, None] == 0, lo[seg_cell], hi[seg_cell])
    u0, u1 = lo[seg_cell, j[seg_cell]], hi[seg_cell, j[seg_cell]]

    breaks = []
    solve = []                # (cell, P, a, b, psi(a), psi(b), level) of segments with one root
    for depth in range(_FACE_DEPTH + 1):
        monotone = _sign_margin(d) > 0.0
        V = 0.375 * (u1 - u0) * np.abs(d).max(axis=1)
        cleared = (v.min(axis=1) - V > lev) | (v.max(axis=1) + V < lev)
        one_root = monotone & ((v[:, 0] < lev) != (v[:, 2] < lev))
        solve.append(tuple(x[one_root] for x in (seg_cell, P, u0, u1, v[:, 0], v[:, 2], lev)))
        open_ = ~(monotone | cleared)
        seg_cell, P, u0, u1, v, d, lev = (x[open_] for x in (seg_cell, P, u0, u1, v, d, lev))
        if depth == _FACE_DEPTH:
            breaks.append((seg_cell, 0.5 * (u0 + u1)))
        if depth == _FACE_DEPTH or seg_cell.size == 0:
            break
        # bisect: the two new samples of each segment are its quarter points
        jj = j[seg_cell]
        um = 0.5 * (u0 + u1)
        Q = np.concatenate([P, P])
        Q[np.arange(len(Q)), np.tile(jj, 2)] = np.concatenate([0.5 * (u0 + um), 0.5 * (um + u1)])
        vq, Gq = _psi(patch, gauge, Q)
        dq = Gq[np.arange(len(Q)), np.tile(jj, 2)]
        p = len(u0)
        v = np.concatenate([np.column_stack([v[:, 0], vq[:p], v[:, 1]]),
                            np.column_stack([v[:, 1], vq[p:], v[:, 2]])])
        d = np.concatenate([np.column_stack([d[:, 0], dq[:p], d[:, 1]]),
                            np.column_stack([d[:, 1], dq[p:], d[:, 2]])])
        u0, u1 = np.concatenate([u0, um]), np.concatenate([um, u1])
        seg_cell, P, lev = (np.concatenate([x, x]) for x in (seg_cell, P, lev))

    rc, rP, ra, rb, rva, rvb, rlev = (np.concatenate(x) for x in zip(*solve))
    roots = _roots(patch, gauge, rP, j[rc], ra, rb, rva - rlev, rvb - rlev, rlev)
    bcell = np.concatenate([cells, cells, rc] + [b[0] for b in breaks])
    bu = np.concatenate([lo[cells, j], hi[cells, j], roots] + [b[1] for b in breaks])
    order = np.lexsort((bu, bcell))
    bcell, bu = bcell[order], bu[order]
    keep = (bcell[1:] == bcell[:-1]) & (bu[1:] > bu[:-1])
    return bcell[:-1][keep], bu[:-1][keep], bu[1:][keep]


def _roots(patch: ParametricPatch, gauge, P: np.ndarray, axis: np.ndarray,
           a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
           level: np.ndarray) -> np.ndarray:
    """For each row, the root t in [a, b] of psi(P with coordinate `axis` set
    to t) = level, where fa and fb (psi - level at a and b) differ in sign.

    All rows iterate in lockstep: a Newton step where it stays inside the
    row's bracket, a bisection where it does not.  A row stops at an exact
    zero, at a Newton step below _NEWTON_TOL of its initial bracket (the next
    step would be below round-off), or when the bracket can shrink no more.
    """
    m = len(a)
    out = np.empty(m)
    idx = np.arange(m)
    P = P.copy()
    lo, hi, flo = a, b, fa
    tol = _NEWTON_TOL * (b - a)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(a - fa * (b - a) / (fb - fa), a, b)      # regula falsi start
        for _ in range(_NEWTON_ITERS):
            if idx.size == 0:
                break
            rows = np.arange(idx.size)
            P[rows, axis] = t
            val, grad = _psi(patch, gauge, P)
            g = val - level
            low = np.sign(g) == np.sign(flo)
            lo, flo, hi = np.where(low, t, lo), np.where(low, g, flo), np.where(low, hi, t)
            tn = t - g / grad[rows, axis]
            bisect = ~((tn > lo) & (tn < hi))
            tn = np.where(bisect, 0.5 * (lo + hi), tn)
            done = ((g == 0.0) | (~bisect & (np.abs(tn - t) <= tol))
                    | (hi - lo <= 4e-16 * (np.abs(lo) + np.abs(hi)) + 1e-300))
            out[idx[done]] = np.where(g == 0.0, t, tn)[done]
            keep = ~done
            idx, P, axis, lo, hi, flo, level, tol, t = (
                x[keep] for x in (idx, P, axis, lo, hi, flo, level, tol, tn))
    out[idx] = t
    return out


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
