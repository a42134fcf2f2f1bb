"""Surface quadrature over parametric patches.

Plain integrals use tensor-product Gauss-Legendre rules on a uniform cell
grid.  A gauge-clipped integral covers the region {s < phi(x) < r}, split
at levels s = l_0 < l_1 < ... < l_K = r into the bands
{l_b < phi(x) < l_(b+1)}; one pass integrates every band (one band when
there is no split).  At each depth one set of samples of psi = phi(chart(p))
plus a gradient-based variation bound classifies every cell against all
levels.  A cell entirely inside one band gets the plain rule and that
band's label; cells entirely outside are dropped.  A straddling cell is a
cut cell when the sampled derivative of psi along some parameter axis k
(its height axis) keeps one sign with margin: every level set {psi = l} is
then a graph over the other axes, and each band is integrated exactly up to
the order of the rule (R. I. Saye, SIAM J. Sci. Comput. 37 (2015)
A993-A1019):

- on each k-face of a surface cell, the roots of psi = l for every level
  the cell crosses split the cross-section axis into segments on which the
  bands' bounds are smooth; neighbouring cells share a face, and each face
  segment is solved once for all of them;
- Gauss-Legendre nodes on each segment give lines along k, on which a
  safeguarded Newton iteration finds the one root per level, and the sorted
  roots split the line into one interval per band, each carrying the
  Gauss-Legendre nodes of that band.

A curve cell is its own line.  The rules of order q and q - 1 are both
built; a cut cell where they disagree on the parameter area of any band is
too coarse for the curvature of its level sets and is halved along every
axis, as is a straddling cell without a height axis.  Only at the depth
limit does a pointwise indicator on the Gauss-Legendre nodes remain, as a
fallback.

The error estimate of a band is the sum over cut cells of the difference
between the two rules on that band, plus a round-off floor on the band's
absolute mass, plus the full absolute mass of every fallback cell.  Cells
entirely inside add nothing: when no cell straddles, the estimate is
exactly 0.  The estimate of a sum of the bands 0..i, an integral over
{s < phi < l_(i+1)}, takes the difference of the two rules per cut cell over
those bands together, not band by band; a cut cell whose samples put it
inside {s < phi < l_(i+1)} (cut by inner levels only) adds nothing to it,
as an inside cell would.  Downstream identity checks use the estimates as
their tolerance unit.
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
    """Annular gauge region {s < phi < r}, split into bands at the levels
    `splits` (strictly between s and r), and the adaptive subdivision depth."""
    gauge: object            # needs .eval_with_maximizer(X) -> (m,), (m, d): value, gradient
    s: float
    r: float
    max_depth: int = 10
    splits: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "splits", tuple(float(x) for x in self.splits))
        if not 0.0 <= self.s < self.r:
            raise ValueError("region radii must satisfy 0 <= s < r")
        if not np.all(np.diff(self.levels) > 0.0):
            raise ValueError("band splits must increase strictly between s and r")
        if (isinstance(self.max_depth, bool)
                or not isinstance(self.max_depth, (int, np.integer)) or self.max_depth < 0):
            raise ValueError(f"max_depth must be an integer >= 0, not {self.max_depth!r}")

    @property
    def levels(self) -> np.ndarray:
        """s, the splits and r: band b is {levels[b] < phi < levels[b + 1]}."""
        return np.array((self.s, *self.splits, self.r), dtype=float)


@dataclass
class ClippedResult:
    """Integrals over the bands of a region, with their error estimates.

    With one band (no splits) each entry is a float, or a (j,) array for j
    integrands; with K bands a (K,) or (K, j) array, row b for band b.
    """
    value: float | np.ndarray
    error_estimate: float | np.ndarray     # of each band's integral
    prefix_estimate: float | np.ndarray    # of the sum of bands 0..b, per b
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


def _columns(f, fb) -> tuple[np.ndarray, tuple]:
    """f on the nodes of fb times the area element, as rows (j, m), and the
    shape of f's value at one node: () or (j,).  Each row is contiguous, so
    each integral sums the same products, bit for bit, as for its integrand
    alone."""
    vals = np.asarray(f(fb), dtype=float)
    return np.ascontiguousarray(np.atleast_2d(vals.T)) * fb.sqrt_g, vals.shape[1:]


def _gl_sum(patch: ParametricPatch, f, lo: np.ndarray, hi: np.ndarray, order: int,
            band: np.ndarray | None = None, nbands: int = 1,
            region: ClippedRegionRule | None = None, absolute: bool = False):
    """Gauss-Legendre sums over a batch of cells, one per band.

    A node sums into the band of its cell (`band`, ascending; default all
    band 0), or, given `region`, into the band of its own gauge value, if
    any (the pointwise indicator of fallback cells).  f returns (m,) values,
    or (m, j) for j integrands on the same nodes.  Returns the signed sums
    and absolute masses, each (nbands, j) (given region, the mass of every
    node, (j,)), and f's shape at one node; with no cell, (0.0, 0.0, None).
    """
    if lo.shape[0] == 0:
        return 0.0, 0.0, None
    tn, tw = _unit_nodes(order, patch.n)
    q = tn.shape[0]
    total = mass = 0.0
    chunk = max(1, 200_000 // q)
    for start in range(0, lo.shape[0], chunk):
        cl, ch = lo[start:start + chunk], hi[start:start + chunk]
        P = cl[:, None, :] + (ch - cl)[:, None, :] * tn[None, :, :]
        vol = np.prod(ch - cl, axis=1)
        W = (tw[None, :] * vol[:, None]).reshape(-1)
        fb = patch.frames(P.reshape(-1, patch.n))
        rows, cols = _columns(f, fb)
        if region is not None:
            phi, _ = _gauge_safe(region.gauge, fb.x)
            levels = region.levels
            total = total + np.stack([
                _row_dots(W, np.where((phi > levels[b]) & (phi < levels[b + 1]), rows, 0.0))
                for b in range(nbands)])
            if absolute:
                mass = mass + _row_dots(W, np.abs(rows))
        else:
            if band is None:
                spans = [(0, len(W))]
            else:
                edges = np.searchsorted(np.repeat(band[start:start + chunk], q),
                                        np.arange(nbands + 1))
                spans = list(zip(edges[:-1], edges[1:]))
            total = total + np.stack([_row_dots(W[a:b], rows[:, a:b]) for a, b in spans])
            if absolute:
                mass = mass + np.stack([_row_dots(W[a:b], np.abs(rows[:, a:b]))
                                        for a, b in spans])
    return total, mass, cols


def _row_dots(W: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.dot(W, row) for each row of rows (j, m)."""
    return np.array([np.dot(W, row) for row in rows])


def _shaped(x: np.ndarray, cols: tuple):
    """Per-band sums (nbands, j) in the shape of f's value at one node (cols):
    for one band a float or a (j,) array, else an (nbands,) or (nbands, j)
    array."""
    x = np.array(x).reshape(x.shape[:1] + cols)
    x = x[0] if len(x) == 1 else x
    return float(x) if x.ndim == 0 else x


def integrate(patch: ParametricPatch, f, rule: ParamQuadrature = ParamQuadrature()):
    """Integral of f against the surface measure over the whole patch.

    f maps a FrameBatch of m nodes to (m,) values, or to (m, j) for j
    integrands sharing the nodes (and their frames); the result is a float,
    or a (j,) array.
    """
    lo, hi = _base_cells(patch, rule.base_grid)
    total, _, cols = _gl_sum(patch, f, lo, hi, rule.order)
    return _shaped(total, cols)


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
_CUT_CHUNK = 2048          # cut-cell nodes whose frames and integrand are held at a time
_AREA_TOL = 1e-12          # largest gap between the two rules' region areas in a kept cut cell,
                           # relative to the cell's parameter volume


def integrate_clipped(patch: ParametricPatch, f, region: ClippedRegionRule,
                      rule: ParamQuadrature = ParamQuadrature()) -> ClippedResult:
    """Adaptive integral of f over each band levels[b] < phi(x) < levels[b + 1]
    of the region, from one subdivision of the patch.  f maps a FrameBatch of
    m nodes to (m,) values, or to (m, j) for j integrands sharing the nodes."""
    n = patch.n
    offsets = _OFFSETS[n]
    levels = region.levels
    nb = len(levels) - 1
    lo, hi = _base_cells(patch, rule.base_grid)
    inside, fallback = [], []
    cut = [[], []]            # node sets (P, W, cell, band) of the rules of order q and q - 1
    # per cut cell, the first band b whose prefix {s < phi < l_(b+1)} holds
    # the whole cell (the band count if none)
    tops = []
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
        low, high = psi.min(axis=1) - V, psi.max(axis=1) + V
        # the one band a cell may lie inside: the lowest whose upper level it
        # clears; a lower level of 0 bounds nothing
        band = np.searchsorted(levels[1:] - delta, high, side="right")
        above_s = (low > region.s + delta) | (region.s == 0.0)
        base = levels[np.minimum(band, nb - 1)]
        is_inside = (band < nb) & ((low > base + delta) | (base == 0.0))
        is_outside = (low > region.r) | (high < region.s)
        straddle = ~(is_inside | is_outside)
        inside.append((lo[is_inside], hi[is_inside], band[is_inside]))

        margin = _sign_margin(G)                      # (k, n)
        axis = np.argmax(margin, axis=1)
        rest = straddle & (margin[np.arange(k), axis] <= 0.0)
        c = np.flatnonzero(straddle & ~rest)
        if c.size:
            # the levels that the samples of each cut cell do not clear
            crossed = (levels > 0.0) & (high[c, None] >= levels) & (low[c, None] <= levels)
            nodes = _cut_nodes(patch, region.gauge, levels, rule.order,
                               lo[c], hi[c], axis[c], psi[c], G[c], crossed)
            # a cell whose two rules disagree on the parameter area of a band
            # is resolved too coarsely for its level sets: halve it
            area = [np.bincount(b * c.size + cell, weights=W, minlength=nb * c.size)
                    .reshape(nb, c.size) for _, W, cell, b in nodes]
            coarse = np.any(np.abs(area[0] - area[1])
                            > _AREA_TOL * np.prod(hi[c] - lo[c], axis=1), axis=0) \
                & (depth < region.max_depth)
            number = np.cumsum(~coarse) - 1 + n_cut    # index of each kept cell
            for sets, (P, W, cell, b) in zip(cut, nodes):
                keep = ~coarse[cell]
                sets.append((P[keep], W[keep], number[cell[keep]], b[keep]))
            tops.append(np.where(above_s, band, nb)[c[~coarse]])
            n_cut += int(np.count_nonzero(~coarse))
            rest[c[coarse]] = True
        if depth == region.max_depth:
            fallback.append((lo[rest], hi[rest]))
            break
        lo, hi = _halve(lo[rest], hi[rest])

    ilo, ihi, iband = (np.concatenate(a) for a in zip(*inside))
    by_band = np.argsort(iband, kind="stable")
    flo, fhi = (np.concatenate(a) for a in zip(*fallback)) if fallback else \
        (np.empty((0, n)),) * 2
    val_in, mass_in, cols_in = _gl_sum(patch, f, ilo[by_band], ihi[by_band], rule.order,
                                       band=iband[by_band], nbands=nb, absolute=True)
    # one node set per rule, in ascending cell order, freeing the per-depth
    # lists before f runs
    cut = [[np.concatenate(a) for a in zip(*sets)] for sets in cut]
    val_cut, gap, prefix_gap, mass_cut, cols_cut = _cut_sum(
        patch, f, cut, np.concatenate(tops) if tops else np.empty(0, dtype=int), nb)
    val_fb, mass_fb, cols_fb = _gl_sum(patch, f, flo, fhi, rule.order, nbands=nb,
                                       region=region, absolute=True)
    cols = next((x for x in (cols_in, cols_cut, cols_fb) if x is not None), None)
    if cols is None:          # no cell meets the region: f's shape from zero nodes
        cols = np.asarray(f(patch.frames(np.empty((0, n)))), dtype=float).shape[1:]
    floor = _ROUNDOFF * (mass_in + mass_cut) if n_cut else np.zeros((nb, 1))
    shape = (nb, int(np.prod(cols)))
    return ClippedResult(
        value=_shaped(np.broadcast_to(val_in + val_cut + val_fb, shape), cols),
        error_estimate=_shaped(np.broadcast_to(gap + floor + mass_fb, shape), cols),
        prefix_estimate=_shaped(np.broadcast_to(
            prefix_gap + np.cumsum(floor, axis=0) + mass_fb, shape), cols),
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


def _cut_sum(patch: ParametricPatch, f, cut, top: np.ndarray, nb: int):
    """Per band, each (nb, j): the integral of f over the cut cells from the
    rule of order q; the sum over cells of |I_q - I_(q-1)|; the same sum for
    bands 0..b taken together in each cell, over the cells c with
    top[c] > b (the others lie inside {s < phi < l_(b+1)}, and add nothing,
    as inside cells do); and the absolute mass of the integral.  Then f's
    shape at one node.

    cut holds the nodes (P, W, cell, band) of each rule in ascending cell
    order.  f runs on whole cells, about _CUT_CHUNK nodes at a time, so each
    cell's sums add its nodes in one order however the pass is chunked.
    """
    n_cut = len(top)
    if n_cut == 0:
        return 0.0, 0.0, 0.0, 0.0, None
    (P, W, cell, band), (P1, W1, cell1, band1) = cut
    nodes = np.cumsum(np.bincount(cell, minlength=n_cut) + np.bincount(cell1, minlength=n_cut))
    # the cells that start each chunk, and where their nodes start in each rule
    edges = np.append(np.unique(np.searchsorted(
        nodes, np.arange(0, nodes[-1], _CUT_CHUNK), side="right")), n_cut)
    start, start1 = np.searchsorted(cell, edges), np.searchsorted(cell1, edges)
    sums, masses = 0.0, []
    for a, b, a1, b1 in zip(start[:-1], start[1:], start1[:-1], start1[1:]):
        rows, cols = _columns(f, patch.frames(np.concatenate([P[a:b], P1[a1:b1]])))
        contrib = rows * np.concatenate([W[a:b], W1[a1:b1]])
        index = np.concatenate([band[a:b] * n_cut + cell[a:b],
                                (nb + band1[a1:b1]) * n_cut + cell1[a1:b1]])
        sums = sums + np.stack([np.bincount(index, weights=row, minlength=2 * nb * n_cut)
                                for row in contrib])
        masses.append(np.abs(contrib[:, :b - a]))
    if not masses:                              # no cut cell meets the region
        return 0.0, 0.0, 0.0, 0.0, None
    high, low = np.moveaxis(sums.reshape(-1, 2, nb, n_cut), 1, 0)      # (j, nb, n_cut)
    masses = np.concatenate(masses, axis=1)
    mass = [[row[band == b].sum() for row in masses] for b in range(nb)]
    prefix = np.where(top > np.arange(nb)[:, None], np.cumsum(high - low, axis=1), 0.0)
    return (high.sum(axis=2).T, np.abs(high - low).sum(axis=2).T,
            np.abs(prefix).sum(axis=2).T, np.array(mass), cols)


def _cut_nodes(patch: ParametricPatch, gauge, levels: np.ndarray, order: int,
               lo: np.ndarray, hi: np.ndarray, axis: np.ndarray,
               psi: np.ndarray, G: np.ndarray, crossed: np.ndarray):
    """Nodes (P, W, cell, band) of the rules of order q = `order` and q - 1
    over each band within the cut cells (lo, hi) with height axes `axis`; W
    includes the parameter measure but not the area element.  psi and G are
    the classification samples of each cell, crossed (c, K + 1) marks the
    levels those samples do not clear."""
    c, n = lo.shape
    orders = (order, order - 1)
    # outer nodes: points of the cross-section (the axes other than k), each
    # the foot of a line along k
    if n == 1:
        outer = [(np.arange(c), lo.copy(), np.ones(c))] * 2
    else:
        seg_cell, seg_a, seg_b = _face_segments(patch, gauge, levels, crossed,
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
    t_lo, t_hi = _line_intervals(patch, gauge, levels, P0, k,
                                 lo[line_cell, k], hi[line_cell, k])
    nodes = []
    start = 0
    for q, (cell, _, w_outer) in zip(orders, outer):
        # the (line, band) pairs of this rule that meet the region
        line, band = np.nonzero(t_hi[start:start + len(cell)] > t_lo[start:start + len(cell)])
        sl = line + start
        start += len(cell)
        cell, w_outer = cell[line], w_outer[line]
        t, w = _gl(q)
        length = t_hi[sl, band] - t_lo[sl, band]
        P = np.repeat(P0[sl], q, axis=0)
        P[np.arange(len(P)), np.repeat(k[sl], q)] = \
            (t_lo[sl, band, None] + length[:, None] * t).ravel()
        nodes.append((P, (w_outer[:, None] * length[:, None] * w).ravel(),
                      np.repeat(cell, q), np.repeat(band, q)))
    return nodes


def _line_intervals(patch: ParametricPatch, gauge, levels: np.ndarray, P0: np.ndarray,
                    k: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per line P0 + (t - P0_k) e_k, psi being monotone along it, and per band
    b, the interval [t_lo, t_hi] of [a, b] where levels[b] < psi <
    levels[b + 1]: two (m, K) arrays.  A lower level of 0 bounds nothing."""
    m = len(k)
    rows = np.arange(m)
    ends = np.concatenate([P0, P0])
    ends[rows, k], ends[m + rows, k] = a, b
    psi_ends, _ = _gauge_safe(gauge, patch.chart(ends))
    psi_a, psi_b = psi_ends[:m, None], psi_ends[m:, None]
    L = levels[levels > 0.0]           # the levels that bound a band
    below_a, below_b = psi_a < L, psi_b < L
    above_a, above_b = psi_a > L, psi_b > L
    # one root problem per line and level whose ends do not lie on one side
    lev, line = np.nonzero(((below_a != below_b) | (above_a != above_b)).T)
    T = np.full((m, len(L)), np.nan)
    T[line, lev] = _roots(patch, gauge, P0[line], k[line], a[line], b[line],
                          psi_ends[line] - L[lev], psi_ends[m + line] - L[lev], L[lev])
    a, b = a[:, None], b[:, None]
    # below the upper level of each band (the last K of L)
    up = slice(len(L) - (len(levels) - 1), None)
    t_lo = np.maximum(a, np.where(below_a[:, up], a, np.where(below_b[:, up], T[:, up], b)))
    t_hi = np.minimum(b, np.where(below_b[:, up], b, np.where(below_a[:, up], T[:, up], a)))
    # above the lower level of each band that has one (L without its last)
    has = slice(len(levels) - len(L), None)
    t_lo[:, has] = np.maximum(t_lo[:, has], np.where(
        above_a[:, :-1], a, np.where(above_b[:, :-1], T[:, :-1], b)))
    t_hi[:, has] = np.minimum(t_hi[:, has], np.where(
        above_b[:, :-1], b, np.where(above_a[:, :-1], T[:, :-1], a)))
    return t_lo, np.maximum(t_hi, t_lo)


def _face_segments(patch: ParametricPatch, gauge, levels: np.ndarray, crossed: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray, axis: np.ndarray, psi: np.ndarray,
                   G: np.ndarray):
    """Segments (cell, a, b) of the cross-section axis j = 1 - k of each
    surface cut cell, split where a level set crosses one of its two k-faces.

    Each face of a cell and each level the cell crosses start as one face
    segment with the cell's three samples on that face.  Neighbouring cells
    with one height axis share a face: a segment is keyed by its height
    axis, face coordinate, ends and level, and each distinct one is solved
    once.  A segment whose derivative along j keeps one sign holds a root
    exactly when its ends straddle the level; a segment whose samples all
    lie farther from the level than its variation bound holds none; any
    other is bisected, and at the depth limit its midpoint becomes the
    breakpoint.
    """
    c = lo.shape[0]
    j = 1 - axis
    cells = np.arange(c)
    # one face segment per (face, level, cell) with a level the cell crosses
    face, lev_row, row_cell = np.nonzero(np.broadcast_to(crossed.T, (2,) + crossed.T.shape))
    k_row, j_row = axis[row_cell], j[row_cell]
    P = np.where(face[:, None] == 0, lo[row_cell], hi[row_cell])
    key = np.column_stack([k_row, P[np.arange(len(P)), k_row], lo[row_cell, j_row],
                           hi[row_cell, j_row], levels[lev_row]])
    # the distinct segments: runs of equal keys in key order
    by_key = np.lexsort(key.T[::-1])
    new = np.ones(len(key), dtype=bool)
    np.any(key[by_key[1:]] != key[by_key[:-1]], axis=1, out=new[1:])
    seg_of_row = np.empty(len(key), dtype=int)
    seg_of_row[by_key] = np.cumsum(new) - 1
    first = by_key[new]                     # the first row of each distinct segment
    seg = np.arange(len(first))
    sample_rows = _FACE_ROWS[k_row[first], face[first]]                 # (p, 3)
    v = psi[row_cell[first][:, None], sample_rows]
    d = G[row_cell[first][:, None], sample_rows, j_row[first][:, None]]
    P, jj, lev = P[first], j_row[first], levels[lev_row[first]]
    u0, u1 = key[first, 2], key[first, 3]

    breaks = []
    solve = []                # (segment, P, j, a, b, psi(a), psi(b), level) of segments with one root
    for depth in range(_FACE_DEPTH + 1):
        monotone = _sign_margin(d) > 0.0
        V = 0.375 * (u1 - u0) * np.abs(d).max(axis=1)
        cleared = (v.min(axis=1) - V > lev) | (v.max(axis=1) + V < lev)
        one_root = monotone & ((v[:, 0] < lev) != (v[:, 2] < lev))
        solve.append(tuple(x[one_root] for x in (seg, P, jj, u0, u1, v[:, 0], v[:, 2], lev)))
        open_ = ~(monotone | cleared)
        seg, P, jj, u0, u1, v, d, lev = (x[open_] for x in (seg, P, jj, u0, u1, v, d, lev))
        if depth == _FACE_DEPTH:
            breaks.append((seg, 0.5 * (u0 + u1)))
        if depth == _FACE_DEPTH or seg.size == 0:
            break
        # bisect: the two new samples of each segment are its quarter points
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
        seg, P, jj, lev = (np.concatenate([x, x]) for x in (seg, P, jj, lev))

    rs, rP, rj, ra, rb, rva, rvb, rlev = (np.concatenate(x) for x in zip(*solve))
    roots = _roots(patch, gauge, rP, rj, ra, rb, rva - rlev, rvb - rlev, rlev)
    # scatter each segment's breakpoints to every cell that has the segment
    bseg = np.concatenate([rs] + [x[0] for x in breaks])
    bval = np.concatenate([roots] + [x[1] for x in breaks])
    owners = np.argsort(seg_of_row, kind="stable")
    count = np.bincount(seg_of_row, minlength=len(first))[bseg]
    pick = np.repeat(np.searchsorted(seg_of_row[owners], bseg) - np.cumsum(count) + count,
                     count) + np.arange(count.sum())
    bcell = np.concatenate([cells, cells, row_cell[owners[pick]]])
    bu = np.concatenate([lo[cells, j], hi[cells, j], np.repeat(bval, count)])
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
