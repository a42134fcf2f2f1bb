"""Surface quadrature over parametric patches.

One pass integrates over a gauge-clipped region of a patch, or over the
whole patch, with tensor-product Gauss-Legendre rules on a uniform cell
grid.  A region {s < phi(x) < r} is split at levels s = l_0 < l_1 < ... <
l_K = r into the bands {l_b < phi(x) < l_(b+1)}; one pass integrates every
band (one band when there is no split).  With no region the whole patch is
one band: every base cell lies inside it, no gauge is called, and the
estimate is exactly 0.  At each depth one set of samples of psi = phi(chart(p))
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
  bands' bounds are smooth.  One rule serves each interval between two
  adjacent samples on a face: where psi - l changes sign it has one root;
  where it does not, but the slope along the face turns toward l, a search
  for a point across l finds one root on each side of that point, or none
  once the variation bound clears the interval; and an end sample within
  round-off of l is itself the root.  A level set that only touches a face
  needs no breakpoint: the bands' bounds stay smooth through it;
- Gauss-Legendre nodes on each segment give lines along k, on which a
  safeguarded Newton iteration finds the one root per level.  Along a line
  come its start, its roots in the order psi meets their levels (ascending
  where psi rises along k, descending where it falls), and its end; the
  start opens the band that holds psi(start), a root of level l_i band i
  where psi rises and band i - 1 where it falls.

Both levels end in one piece step: from breakpoints in order along a
segment it keeps the non-empty pieces between neighbours, each with the
label of the breakpoint that opens it; a line's piece in a band gets the
Gauss-Legendre nodes of that band.  A curve cell is its own line.  The
rules of order q and q - 1 are both built; a cut cell where they disagree
on the parameter area of any band is too coarse for the curvature of its
level sets and is halved along every axis, as is a straddling cell without
a height axis.  At the depth limit such a cell is a fallback cell.

Every leaf cell is a node set, each node in a slot: an inside cell's
Gauss-Legendre nodes in the slot b of its band, a cut cell's nodes on
band b in slot b (order q) and K + b (order q - 1), and a fallback cell's
nodes each in the slot of its own band, a pointwise indicator, or in the
discard slot 2K.  One routine runs the integrand on every leaf node and
sums w f and w |f| per slot and leaf.  The error estimate of a band is the
sum over cut cells of the difference between the two rules on that band,
plus a round-off floor on the band's absolute mass, plus the full absolute
mass of every fallback cell.  Cells entirely inside add nothing: when no
cell straddles, the estimate is exactly 0.  The estimate of a sum of the
bands 0..i, an integral over {s < phi < l_(i+1)}, takes the difference of
the two rules per cut cell over those bands together, not band by band; a
cut cell whose samples put it inside {s < phi < l_(i+1)} (cut by inner
levels only) adds nothing to it, as an inside cell would.  Downstream
identity checks use the estimates as their tolerance unit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .norms import _number
from .surfaces import ParametricPatch, _tensor_grid


@dataclass(frozen=True)
class ParamQuadrature:
    """Gauss-Legendre points per axis per cell, and cells per axis."""
    order: int = 6
    base_grid: int = 16

    def __post_init__(self):
        if not (_number(self.order, integer=True) and self.order >= 2):
            raise ValueError(f"quadrature order must be an integer >= 2, not {self.order!r}")
        if not (_number(self.base_grid, integer=True) and self.base_grid >= 1):
            raise ValueError(f"base_grid must be an integer >= 1, not {self.base_grid!r}")


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
        if not 0.0 <= self.s < self.r < math.inf:
            raise ValueError("region radii must satisfy 0 <= s < r < inf")
        if not np.all(np.diff(self.levels) > 0.0):
            raise ValueError("band splits must increase strictly between s and r")
        if not (_number(self.max_depth, integer=True) and self.max_depth >= 0):
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
    X, T = patch.jet(P)
    phi, grad = _gauge_safe(gauge, X)
    return phi, np.einsum("mnd,md->mn", T, grad)


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]; read-only, because every
    call for this order shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _base_cells(patch: ParametricPatch, base_grid: int) -> tuple[np.ndarray, np.ndarray]:
    axes = [np.linspace(a, b, base_grid + 1) for a, b in patch.domain]
    return _tensor_grid([x[:-1] for x in axes]), _tensor_grid([x[1:] for x in axes])


def _cell_nodes(lo: np.ndarray, hi: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor GL nodes P and weights W of the cells (lo, hi), order^n per
    cell in cell order; W includes the parameter measure but not the area
    element."""
    t, w = _gl(order)
    n = lo.shape[1]
    tn, tw = _tensor_grid([t] * n), _tensor_grid([w] * n).prod(axis=1)
    P = lo[:, None, :] + (hi - lo)[:, None, :] * tn[None, :, :]
    W = tw[None, :] * np.prod(hi - lo, axis=1)[:, None]
    return P.reshape(-1, n), W.reshape(-1)


def _columns(f, fb) -> tuple[np.ndarray, tuple]:
    """f on the nodes of fb times the area element, as rows (j, m), and the
    shape of f's value at one node: () or (j,).  Each row is contiguous, so
    each integral sums the same products, bit for bit, as for its integrand
    alone."""
    vals = np.asarray(f(fb), dtype=float)
    return np.ascontiguousarray(np.atleast_2d(vals.T)) * fb.sqrt_g, vals.shape[1:]


def _shaped(x: np.ndarray, cols: tuple):
    """Per-band sums (j, nbands) in the shape of f's value at one node (cols):
    for one band a float or a (j,) array, else an (nbands,) or (nbands, j)
    array."""
    x = np.asarray(x).T.reshape(x.shape[1:] + cols)
    x = x[0] if len(x) == 1 else x
    return float(x) if x.ndim == 0 else x


# classification samples: the 3^n grid of cell corners, edge midpoints and centre
_OFFSETS = {n: _tensor_grid([(0.0, 0.5, 1.0)] * n) for n in (1, 2)}
# sample rows on the faces coord_k = lo_k and coord_k = hi_k of a surface cell,
# ordered along the other axis: (height axis k, face, 3)
_FACE_ROWS = np.array([[np.flatnonzero(_OFFSETS[2][:, k] == side) for side in (0.0, 1.0)]
                       for k in (0, 1)])
# corners of the unit box: child c of a halved cell takes the upper half of axis i
# where _CORNERS[n][c, i]
_CORNERS = {n: _OFFSETS[n][np.all(_OFFSETS[n] != 0.5, axis=1)] > 0.0 for n in (1, 2)}

_NEWTON_ITERS = 100        # safeguarded steps: Newton where it stays in the bracket, else bisection
_NEWTON_TOL = 1e-10        # a Newton step this small (times the bracket) ends the iteration
_LEVEL_TOL = 1e-14         # |psi - level| this small (times the level) lies on the level
_ROUNDOFF = 1e-14          # round-off floor of the estimate, relative to the absolute mass
_CHUNK = 2048              # leaf nodes whose frames and integrand are held at a time
_AREA_TOL = 1e-12          # largest gap between the two rules' region areas in a kept cut cell,
                           # relative to the cell's parameter volume


def integrate_clipped(patch: ParametricPatch, f, region: ClippedRegionRule | None,
                      rule: ParamQuadrature = ParamQuadrature()) -> ClippedResult:
    """Adaptive integral of f over each band levels[b] < phi(x) < levels[b + 1]
    of the region, from one subdivision of the patch; a region of None is the
    whole patch.  f maps a FrameBatch of m nodes to (m,) values, or to (m, j)
    for j integrands sharing the nodes."""
    n = patch.n
    offsets = _OFFSETS[n]
    lo, hi = _base_cells(patch, rule.base_grid)
    inside, cut = [], []      # cells (lo, hi, band); node sets (P, W, cell, slot)
    flo = fhi = np.empty((0, n))                  # the fallback cells
    # per cut cell, the first band b whose prefix {s < phi < l_(b+1)} holds
    # the whole cell (the band count if none)
    tops = [np.empty(0, dtype=int)]
    n_cut = 0
    if region is None:        # the whole patch: every base cell is inside one band
        inside.append((lo, hi, np.zeros(len(lo), dtype=int)))
        nb, depths = 1, range(0)
    else:
        levels = region.levels
        nb, depths = len(levels) - 1, range(region.max_depth + 1)

    for depth in depths:
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

        # how far the samples of each derivative keep one sign (k, n): their
        # least magnitude on the side they share, minus their spread
        gmin, gmax = G.min(axis=1), G.max(axis=1)
        margin = np.maximum(gmin, -gmax) - (gmax - gmin)
        axis = np.argmax(margin, axis=1)
        rest = straddle & (margin[np.arange(k), axis] <= 0.0)
        c = np.flatnonzero(straddle & ~rest)
        if c.size:
            # the levels that the samples of each cut cell do not clear
            crossed = (levels > 0.0) & (high[c, None] >= levels) & (low[c, None] <= levels)
            P, W, cell, slot = _cut_nodes(patch, region.gauge, levels, rule.order,
                                          lo[c], hi[c], axis[c], psi[c], G[c], crossed)
            # a cell whose two rules disagree on the parameter area of a band
            # is resolved too coarsely for its level sets: halve it
            area = np.bincount(slot * c.size + cell, weights=W,
                               minlength=2 * nb * c.size).reshape(2, nb, c.size)
            coarse = np.any(np.abs(area[0] - area[1])
                            > _AREA_TOL * np.prod(hi[c] - lo[c], axis=1), axis=0) \
                & (depth < region.max_depth)
            number = np.cumsum(~coarse) - 1 + n_cut    # index of each kept cell
            keep = ~coarse[cell]
            cut.append((P[keep], W[keep], number[cell[keep]], slot[keep]))
            tops.append(np.where(above_s, band, nb)[c[~coarse]])
            n_cut += int(np.count_nonzero(~coarse))
            rest[c[coarse]] = True
        if depth == region.max_depth:
            flo, fhi = lo[rest], hi[rest]
            break
        lo, hi = _halve(lo[rest], hi[rest])

    # every leaf cell as a node set (P, W, leaf, slot): the inside cells, with
    # their nodes in the slot of their band, the cut cells, and the fallback
    # cells, with each node in the slot of its own band, if any, else in the
    # discard slot 2 nb
    ilo, ihi, iband = (np.concatenate(a) for a in zip(*inside))
    n_in, n_fb, q = ilo.shape[0], flo.shape[0], rule.order ** n
    leaves = [(*_cell_nodes(ilo, ihi, rule.order), np.repeat(np.arange(n_in), q),
               np.repeat(iband, q))]
    leaves += [(P, W, n_in + cell, slot) for P, W, cell, slot in cut]
    if n_fb:
        P, W = _cell_nodes(flo, fhi, rule.order)
        phi, _ = _gauge_safe(region.gauge, patch.chart(P))
        in_band = (phi[:, None] > levels[:-1]) & (phi[:, None] < levels[1:])
        leaves.append((P, W, n_in + n_cut + np.repeat(np.arange(n_fb), q),
                       np.where(in_band.any(axis=1), in_band.argmax(axis=1), 2 * nb)))
    P, W, leaf, slot = (np.concatenate(a) for a in zip(*leaves))
    del cut, leaves           # the parts, before f runs
    sums, masses, cols = _leaf_sums(patch, f, P, W, leaf, slot,
                                    n_leaf=n_in + n_cut + n_fb, n_slot=2 * nb + 1)
    # slices of the (j, slot, leaf) sums: the rules of order q and q - 1 on
    # the cut cells, the absolute mass of the inside and cut cells, and the
    # full absolute mass of the fallback cells
    high, low = sums[:, :nb, n_in:n_in + n_cut], sums[:, nb:2 * nb, n_in:n_in + n_cut]
    prefix_gap = np.where(np.concatenate(tops) > np.arange(nb)[:, None],
                          np.cumsum(high - low, axis=1), 0.0)
    floor = np.where(n_cut > 0, _ROUNDOFF * masses[:, :nb, :n_in + n_cut].sum(axis=-1), 0.0)
    mass_fb = masses[:, :, n_in + n_cut:].sum(axis=(1, 2))[:, None]
    return ClippedResult(
        value=_shaped(sums[:, :nb].sum(axis=-1), cols),
        error_estimate=_shaped(np.abs(high - low).sum(axis=-1) + floor + mass_fb, cols),
        prefix_estimate=_shaped(np.abs(prefix_gap).sum(axis=-1) + np.cumsum(floor, axis=1)
                                + mass_fb, cols),
        inside_cells=n_in,
        leaf_cells=n_cut + n_fb,
        fallback_cells=n_fb)


def _leaf_sums(patch: ParametricPatch, f, P: np.ndarray, W: np.ndarray, leaf: np.ndarray,
               slot: np.ndarray, n_leaf: int, n_slot: int):
    """The sums of W f and of W |f| over the nodes (P, W) of each leaf in
    each slot, each a (j, n_slot, n_leaf) array, and f's shape at one node.

    The nodes come in ascending leaf order.  f runs on whole leaves, about
    _CHUNK nodes at a time, so each leaf's sums add its nodes in one order
    however the pass is chunked (with no leaf, f runs once on zero nodes);
    the leaves lie on the last axis, so a sum over them is pairwise."""
    # the leaves that open a chunk (np.unique would import numpy.ma, ~13 ms)
    firsts = np.append(0, leaf[::_CHUNK])
    edges = np.append(firsts[np.append(True, firsts[1:] != firsts[:-1])], n_leaf)
    starts = np.searchsorted(leaf, edges)
    sums, masses = [], []
    for a, b, na, nz in zip(edges[:-1], edges[1:], starts[:-1], starts[1:]):
        rows, cols = _columns(f, patch.frames(P[na:nz]))
        contrib = rows * W[na:nz]
        index = slot[na:nz] * (b - a) + leaf[na:nz] - a
        for out, x in ((sums, contrib), (masses, np.abs(contrib))):
            out.append(np.array([np.bincount(index, weights=row, minlength=n_slot * (b - a))
                                 for row in x], dtype=float).reshape(len(x), n_slot, b - a))
    return np.concatenate(sums, axis=-1), np.concatenate(masses, axis=-1), cols


def _halve(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2^n children of each cell, halved along every axis."""
    n = lo.shape[1]
    mid = 0.5 * (lo + hi)
    upper = _CORNERS[n][None, :, :]
    return (np.where(upper, mid[:, None, :], lo[:, None, :]).reshape(-1, n),
            np.where(upper, hi[:, None, :], mid[:, None, :]).reshape(-1, n))


def _cut_nodes(patch: ParametricPatch, gauge, levels: np.ndarray, order: int,
               lo: np.ndarray, hi: np.ndarray, axis: np.ndarray,
               psi: np.ndarray, G: np.ndarray, crossed: np.ndarray):
    """Nodes (P, W, cell, slot) of the rules of order q = `order` and q - 1
    over each band within the cut cells (lo, hi) with height axes `axis`, in
    ascending cell order: band b of the rule of order q in slot b, of the
    rule of order q - 1 in slot K + b.  W includes the parameter measure but
    not the area element.  psi and G are the classification samples of each
    cell, crossed (c, K + 1) marks the levels those samples do not clear.
    The face step and the line step both end in the piece step _pieces."""
    c, n = lo.shape
    nb = len(levels) - 1
    orders = (order, order - 1)
    # outer nodes: points of the cross-section (the axes other than k), each
    # the foot of a line along k, those of the rule of order q first
    if n == 1:
        line_cell, P0, w_line, n_first = np.tile(np.arange(c), 2), np.tile(lo, (2, 1)), \
            np.ones(2 * c), c
    else:
        seg_cell, seg_a, seg_b = _face_segments(patch, gauge, levels, crossed,
                                                lo, hi, axis, psi, G)
        span = seg_b - seg_a
        line_cell = np.concatenate([np.repeat(seg_cell, q) for q in orders])
        P0, w_line = (np.concatenate(x) for x in zip(*(
            _gl_nodes(lo[seg_cell], 1 - axis[seg_cell], seg_a, span, span, q) for q in orders)))
        n_first = len(seg_cell) * order
    k = axis[line_cell]
    line, t0, t1, band = _line_pieces(patch, gauge, levels, P0, k,
                                      lo[line_cell, k], hi[line_cell, k])
    split = np.searchsorted(line, n_first)      # the pieces come in line order
    nodes = []
    for shift, q, part in zip((0, nb), orders, (slice(split), slice(split, None))):
        sl, length = line[part], (t1 - t0)[part]
        nodes.append((*_gl_nodes(P0[sl], k[sl], t0[part], length, w_line[sl] * length, q),
                      np.repeat(line_cell[sl], q), np.repeat(shift + band[part], q)))
    P, W, cell, slot = (np.concatenate(x) for x in zip(*nodes))
    by_cell = np.argsort(cell, kind="stable")
    return P[by_cell], W[by_cell], cell[by_cell], slot[by_cell]


def _gl_nodes(P: np.ndarray, axis: np.ndarray, a: np.ndarray, span: np.ndarray,
              weight: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q Gauss-Legendre nodes of each piece [a, a + span] of the lines
    P + (t - P_axis) e_axis, q rows per piece, and their weights times the
    piece's `weight`."""
    t, w = _gl(q)
    P = np.repeat(P, q, axis=0)
    P[np.arange(len(P)), np.repeat(axis, q)] = (a[:, None] + span[:, None] * t).ravel()
    return P, (weight[:, None] * w).ravel()


def _pieces(seg: np.ndarray, u: np.ndarray, label: np.ndarray):
    """The non-empty pieces (seg, u0, u1, label) between neighbouring
    breakpoints (seg, u, label) of one segment, given in order along each
    segment; a piece carries the label of the breakpoint that opens it."""
    keep = (seg[1:] == seg[:-1]) & (u[1:] > u[:-1])
    return seg[:-1][keep], u[:-1][keep], u[1:][keep], label[:-1][keep]


def _line_pieces(patch: ParametricPatch, gauge, levels: np.ndarray, P0: np.ndarray,
                 k: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The pieces (line, t0, t1, band), in line order, of the lines P0 +
    (t - P0_k) e_k, t in [a, b], psi monotone along each, where levels[band]
    < psi < levels[band + 1]: only the bands a line meets, ordered and
    labelled as the module docstring says (a lower level of 0 has no roots)."""
    m, nb, step = len(k), len(levels) - 1, len(levels) + 2
    rows = np.arange(m)
    ends = np.concatenate([P0, P0])
    ends[rows, k], ends[m + rows, k] = a, b
    psi_ends, _ = _gauge_safe(gauge, patch.chart(ends))
    psi_a, psi_b = psi_ends[:m], psi_ends[m:]
    # one root problem per line and level whose ends do not lie on one side
    lev, line = np.nonzero((levels[:, None] > 0.0) & (np.sign(psi_a - levels[:, None])
                                                      != np.sign(psi_b - levels[:, None])))
    row, T = _roots(patch, gauge, P0[line], k[line], a[line], b[line],
                    psi_a[line] - levels[lev], psi_b[line] - levels[lev], levels[lev])
    line, lev = line[row], lev[row]
    rise = (psi_b > psi_a)[line]
    # the place of each breakpoint along its line, as an integer key: the
    # start first and the end last, so a root on an end opens the next piece
    key = np.concatenate([rows * step, line * step + np.where(rise, 1 + lev, nb + 1 - lev),
                          rows * step + step - 1])
    label = np.concatenate([np.searchsorted(levels, psi_a, side="right") - 1,
                            np.where(rise, lev, lev - 1), np.full(m, -1)])
    by = np.argsort(key, kind="stable")
    line, t0, t1, band = _pieces(key[by] // step, np.concatenate([a, T, b])[by], label[by])
    meets = (band >= 0) & (band < nb)
    return line[meets], t0[meets], t1[meets], band[meets]


def _face_segments(patch: ParametricPatch, gauge, levels: np.ndarray, crossed: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray, axis: np.ndarray, psi: np.ndarray,
                   G: np.ndarray):
    """Segments (cell, a, b) of the cross-section axis j = 1 - k of each
    surface cut cell, split at the roots of psi = level on its two k-faces,
    for each level the cell crosses: each interval between two of the
    face's three samples goes to _roots with their values and slopes along j.
    """
    j, cells = 1 - axis, np.arange(len(lo))
    # one face segment per (face, level, cell) with a level the cell crosses
    face, lev_row, row_cell = np.nonzero(np.broadcast_to(crossed.T, (2,) + crossed.T.shape))
    jj = j[row_cell]
    sample_rows = _FACE_ROWS[axis[row_cell], face]                 # (p, 3)
    lev = levels[lev_row]
    v = psi[row_cell[:, None], sample_rows] - lev[:, None]
    d = G[row_cell[:, None], sample_rows, jj[:, None]]
    u0, u1 = lo[row_cell, jj], hi[row_cell, jj]
    u = np.column_stack([u0, 0.5 * (u0 + u1), u1])
    # rows 2 s and 2 s + 1: the two intervals between adjacent samples of segment s
    P = np.where(face[:, None] == 0, lo[row_cell], hi[row_cell])
    interval, bu = _roots(patch, gauge, np.repeat(P, 2, axis=0), np.repeat(jj, 2),
                          u[:, :2].ravel(), u[:, 1:].ravel(), v[:, :2].ravel(), v[:, 1:].ravel(),
                          np.repeat(lev, 2), d[:, :2].ravel(), d[:, 1:].ravel())
    bcell = np.concatenate([cells, cells, row_cell[interval // 2]])
    bu = np.concatenate([lo[cells, j], hi[cells, j], bu])
    order = np.lexsort((bu, bcell))
    return _pieces(bcell[order], bu[order], bcell[order])[:3]


def _roots(patch: ParametricPatch, gauge, P: np.ndarray, axis: np.ndarray,
           a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
           level: np.ndarray, da: np.ndarray | None = None,
           db: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The roots t in [a, b] of psi(P with coordinate `axis` set to t) =
    level, as arrays (row, t), one entry per root.  fa and fb are psi - level
    at a and b; da and db, if given, the slopes of psi along `axis` there.

    An end within round-off of the level is the row's root.  Else a row has
    one root where fa and fb differ in sign, and none where they share a sign
    s, unless its slopes turn toward the level (s da < 0 < s db): then secant
    steps on the slope, in a bracket whose end slopes still turn, search for
    a point across the level, and the row has one root on each side of it.
    The search ends with no root at a touching point (within round-off of
    the level) or once the variation bound clears its bracket.  All rows
    iterate in lockstep: a root row takes a Newton step where it stays inside
    its bracket, else a bisection, and stops at an exact zero, at a point
    within round-off of the level whose Newton step leaves the bracket, at a
    Newton step below _NEWTON_TOL of its initial bracket (the next would be
    below round-off), or when the bracket can shrink no more.
    """
    m = len(a)
    snap = np.abs(np.concatenate([fa, fb])) <= _LEVEL_TOL * np.concatenate([level, level])
    found = [(np.flatnonzero(snap) % m, np.concatenate([a, b])[snap])]
    if da is None:
        da = db = np.zeros(m)
    s = np.sign(fa)
    search = (np.sign(fb) == s) & (s * da < 0.0) & (s * db > 0.0)
    # a search row has a twin: once a point across the level is found, the
    # row keeps the bracket left of that point and the twin the one right of it
    rows = np.concatenate([np.arange(m), np.flatnonzero(search)])
    right = np.arange(len(rows)) >= m
    keep = (~(snap[:m] | snap[m:]) & (search | (np.sign(fb) != s)))[rows]
    idx, P, axis, lo, hi, flo, fhi, dlo, dhi, level, search = (
        x[rows] for x in (np.arange(m), P, axis, a, b, fa, fb, da, db, level, search))
    tol = _NEWTON_TOL * (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(lo - flo * (hi - lo) / (fhi - flo), lo, hi)      # regula falsi start
        for it in range(_NEWTON_ITERS + 1):
            if search.any():
                # a search row steps to the secant root of its slopes, and ends
                # with no root where that point cannot shrink its bracket, or
                # where the variation bound keeps psi - level off the level: the
                # bounds from the ends, s flo - wa (x - lo) and s fhi - wb (hi - x),
                # are least where they meet
                s, wa, wb = np.sign(flo), 1.5 * np.abs(dlo), 1.5 * np.abs(dhi)
                ts = lo + (hi - lo) * dlo / (dlo - dhi)
                keep &= ~search | ((ts > lo) & (ts < hi)
                                   & (wb * s * flo + wa * s * fhi <= wa * wb * (hi - lo)))
                t = np.where(search, ts, t)
            idx, P, axis, lo, hi, flo, fhi, dlo, dhi, level, search, right, tol, t = (
                x[keep] for x in (idx, P, axis, lo, hi, flo, fhi, dlo, dhi, level, search,
                                  right, tol, t))
            if idx.size == 0 or it == _NEWTON_ITERS:
                found.append((idx[~search], t[~search]))
                break
            rows = np.arange(idx.size)
            P[rows, axis] = t
            val, grad = _psi(patch, gauge, P)
            g, dg = val - level, grad[rows, axis]
            s = np.sign(flo)
            # t replaces the end whose sign g shares in a root row
            left = np.sign(g) == s
            touch = np.zeros(idx.size, dtype=bool)
            if search.any():
                # a search point within round-off of the level is a touching
                # root; one across the level ends the search; else t replaces
                # the end whose slope sign dg shares
                touch = search & (np.abs(g) <= _LEVEL_TOL * level)
                across = search & ~touch & (s * g < 0.0)
                left = np.where(across, right, np.where(search, s * dg < 0.0, left))
                search = search & ~across
            lo, flo, dlo = (np.where(left, new, old) for new, old in ((t, lo), (g, flo), (dg, dlo)))
            hi, fhi, dhi = (np.where(left, old, new) for new, old in ((t, hi), (g, fhi), (dg, dhi)))
            tn = t - g / dg
            bisect = ~((tn > lo) & (tn < hi))
            tn = np.where(bisect, 0.5 * (lo + hi), tn)
            at_t = (g == 0.0) | (bisect & (np.abs(g) <= _LEVEL_TOL * level))
            done = ~search & ~touch & (
                at_t | (~bisect & (np.abs(tn - t) <= tol))
                | (hi - lo <= 4e-16 * (np.abs(lo) + np.abs(hi)) + 1e-300))
            found.append((idx[done], np.where(at_t, t, tn)[done]))
            keep, t = ~(done | touch), tn
    row, t = (np.concatenate(x) for x in zip(*found))
    return row, t


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
