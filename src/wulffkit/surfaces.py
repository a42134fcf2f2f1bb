"""Parametric hypersurfaces in R^{n+1} for n in {1, 2}.

A patch is a smooth chart over a parameter rectangle together with first
and second parameter derivatives (analytic for built-ins, central
differences for custom charts).  Frames carry the orthonormalized tangent
basis, the oriented unit normal, and the second fundamental form under the
shape-operator convention X -> -D_X nu; transversal decompositions split
the ambient derivative of a transversal field xi into the affine shape
operator and the connection one-form,

    D_X xi = -S(X) + tau(X) xi.

The divergence/derivative checks at the bottom compare frame-based
right-hand sides against finite-difference left-hand sides, so the two
routes stay independent.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateChart, NotTransversal
from .fd import _central_diffs, _coordinate_axes, _differences, _hessians, _stencil
from .norms import MinkowskiNorm, _orthonormal_complement

GRAM_FLOOR = 1e-12
TRANSVERSAL_FLOOR = 1e-8
PARAM_STEP = 1e-5        # the central-difference step of the frame derivatives
CODAZZI_STEP = 1e-4      # the outer, Richardson-extrapolated step of the Codazzi check
CHART_FD_STEP = 1e-6    # the central-difference step of a chart without dchart
TEST_VECTOR = (0.3, -0.7, 0.55)   # the constant vector b of the divergence identities
# boundary samples per edge, and the grid per axis, of the patch's gauge range
_BOUNDARY_SAMPLES, _RANGE_GRID = 256, 64


def _tensor_grid(axes) -> np.ndarray:
    """The points of the tensor product of 1-D arrays, one per row (m, n),
    the last axis running fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# --------------------------------------------------------------------------
# patches


class ParametricPatch:
    """Immersion of an n-dimensional parameter rectangle into R^{n+1}.

    chart_fn maps parameter batches (m, n) to points (m, n+1); derivative
    callbacks return (m, n, n+1) and (m, n, n, n+1).  Missing derivatives
    fall back to central finite differences.  Instances are immutable.
    """

    def __init__(self, n: int, chart_fn: Callable, domain,
                 dchart_fn: Callable | None = None,
                 d2chart_fn: Callable | None = None,
                 periodic: tuple[bool, ...] | None = None,
                 closed: bool = False,
                 orientation: float = 1.0,
                 name: str = "custom",
                 axis_insets: tuple[float, ...] | None = None):
        if n not in (1, 2):
            raise ValueError("only curve (n=1) and surface (n=2) patches are supported")
        self.n = n
        self.dim = n + 1
        self._chart_fn = chart_fn
        self._dchart_fn = dchart_fn
        self._d2chart_fn = d2chart_fn
        self.domain = np.asarray(domain, dtype=float).reshape(n, 2)
        self.periodic = tuple(periodic) if periodic is not None else (False,) * n
        self.closed = bool(closed)
        self.orientation = float(orientation)
        self.name = name
        # absolute parameter inset per axis used by sample grids (e.g. to keep
        # sample points away from coordinate poles of closed charts)
        self.axis_insets = tuple(axis_insets) if axis_insets is not None else (0.0,) * n

    # -- chart evaluation ---------------------------------------------------

    def chart(self, P) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return np.asarray(self._chart_fn(P), dtype=float)

    def dchart(self, P) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if self._dchart_fn is not None:
            return np.asarray(self._dchart_fn(P), dtype=float)
        return _central_diffs(self.chart, P, _coordinate_axes(P), (CHART_FD_STEP,))

    def d2chart(self, P) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if self._d2chart_fn is not None:
            return np.asarray(self._d2chart_fn(P), dtype=float)
        if self._dchart_fn is None:
            # from chart values, at a step that balances roundoff
            return _hessians(self.chart, P, (1e-4,), self.chart(P))
        out = _central_diffs(self.dchart, P, _coordinate_axes(P), (CHART_FD_STEP,))
        return 0.5 * (out + np.swapaxes(out, 1, 2))

    # -- frames ---------------------------------------------------------------

    def frames(self, P) -> "FrameBatch":
        P = np.atleast_2d(np.asarray(P, dtype=float))
        X = self.chart(P)
        T = self.dchart(P)
        return _build_frames(self, P, X, T)

    def frame_at(self, p) -> "FrameBatch":
        """Frames at one parameter point (n,): a FrameBatch of one row."""
        return self.frames(np.asarray(p, dtype=float)[None, :])

    # -- sampling -------------------------------------------------------------

    def sample_grid(self, k: int, margin: float = 0.05) -> np.ndarray:
        """Interior k^n parameter grid, inset from non-periodic edges."""
        axes = []
        for i in range(self.n):
            a, b = self.domain[i]
            if self.periodic[i]:
                axes.append(a + (b - a) * (np.arange(k) + 0.5) / k)
            else:
                inset = max(margin * (b - a), self.axis_insets[i])
                axes.append(np.linspace(a + inset, b - inset, k))
        return _tensor_grid(axes)

    def boundary_samples(self) -> np.ndarray:
        """Parameter points on the non-periodic edges, _BOUNDARY_SAMPLES per
        edge of a surface; empty for closed patches."""
        if self.closed:
            return np.empty((0, self.n))
        pts = [_tensor_grid([[edge] if j == i else np.linspace(*self.domain[j], _BOUNDARY_SAMPLES)
                             for j in range(self.n)])
               for i in range(self.n) if not self.periodic[i] for edge in self.domain[i]]
        return np.vstack(pts) if pts else np.empty((0, self.n))

    def gauge_range(self, gauge) -> tuple[float, float]:
        """(min, max) of gauge over an interior sample grid."""
        vals = np.asarray(gauge.value(self.chart(self.sample_grid(_RANGE_GRID, margin=0.01))))
        return float(np.min(vals)), float(np.max(vals))

    def boundary_gauge_radius(self, gauge) -> float:
        """Smallest gauge value on the patch boundary (inf for closed patches)."""
        B = self.boundary_samples()
        if B.shape[0] == 0:
            return math.inf
        return float(np.min(np.asarray(gauge.value(self.chart(B)))))


class FrameBatch:
    """Vectorized frame data at parameter points.

    Positions, tangents, normal, metric and area element are built eagerly.
    The orthonormal basis, the metric inverse and second-order data (chart
    second derivatives, second fundamental form, mean curvature) are
    computed on first access, so finite-difference stencils, which read
    positions and normals, and cheap integrands do not pay for them.
    """

    def __init__(self, patch: ParametricPatch, P, x, tangents, nu, metric, sqrt_g):
        self.patch = patch
        self.P = P               # (m, n)
        self.x = x               # (m, d)
        self.tangents = tangents  # (m, n, d)
        self.nu = nu             # (m, d)
        self.metric = metric     # (m, n, n)
        self.sqrt_g = sqrt_g     # (m,)

    @cached_property
    def _orthonormal(self) -> tuple[np.ndarray, np.ndarray]:
        # Gram-Schmidt with fixed ordering; C holds e-basis coefficients in the
        # coordinate-tangent basis, so C[:, i, a] is also the parameter-space
        # direction realizing e_a.
        T, g = self.tangents, self.metric
        m, n, d = T.shape
        C = np.zeros((m, n, n))
        E = np.zeros((m, n, d))
        t0n = np.sqrt(g[:, 0, 0])
        E[:, 0] = T[:, 0] / t0n[:, None]
        C[:, 0, 0] = 1.0 / t0n
        if n == 2:
            proj = np.einsum("ma,ma->m", T[:, 1], E[:, 0])
            w = T[:, 1] - proj[:, None] * E[:, 0]
            wn = np.linalg.norm(w, axis=1)
            E[:, 1] = w / wn[:, None]
            C[:, 0, 1] = -proj / (t0n * wn)
            C[:, 1, 1] = 1.0 / wn
        return E, C

    @property
    def e(self) -> np.ndarray:
        """Orthonormal tangent basis (m, n, d)."""
        return self._orthonormal[0]

    @property
    def param_dirs(self) -> np.ndarray:
        """(m, n, n); e_a = sum_i C[:, i, a] T_i."""
        return self._orthonormal[1]

    @cached_property
    def second(self) -> np.ndarray:
        return self.patch.d2chart(self.P)

    @cached_property
    def metric_inv(self) -> np.ndarray:
        return np.linalg.inv(self.metric)

    @cached_property
    def sec_form(self) -> np.ndarray:
        b = np.einsum("mija,ma->mij", self.second, self.nu)
        return np.einsum("mia,mij,mjb->mab", self.param_dirs, b, self.param_dirs)

    @cached_property
    def mean_curvature(self) -> np.ndarray:
        return np.trace(self.sec_form, axis1=1, axis2=2)

    def rows(self, keep) -> "FrameBatch":
        """The frames at the rows `keep` (an index or boolean array) alone."""
        return FrameBatch(self.patch, self.P[keep], self.x[keep], self.tangents[keep],
                          self.nu[keep], self.metric[keep], self.sqrt_g[keep])


def _build_frames(patch: ParametricPatch, P, X, T) -> FrameBatch:
    # the Gram entries, cross product and norms are written out per component:
    # NumPy's generic einsum, np.cross and np.linalg.norm are several times
    # slower on (m, 2, 3) stacks than the few row-wise products they stand
    # for, which give the same bits
    n = patch.n
    g = np.empty((len(T), n, n))
    t0, g00 = T[:, 0], g[:, 0, 0]
    np.einsum("md,md->m", t0, t0, out=g00)
    if n == 1:
        det_g = g00
    else:
        t1, g01, g11 = T[:, 1], g[:, 0, 1], g[:, 1, 1]
        np.einsum("md,md->m", t0, t1, out=g01)
        np.einsum("md,md->m", t1, t1, out=g11)
        g[:, 1, 0] = g01
        det_g = g00 * g11 - g01 * g01
    if np.any(det_g <= GRAM_FLOOR):
        raise DegenerateChart(
            f"Gram determinant underflow on {patch.name} (min {det_g.min():.3e})")

    if n == 1:
        nu = np.column_stack([t0[:, 1], -t0[:, 0]]) / np.sqrt(g00)[:, None]
    else:
        c = np.empty_like(t0)
        c[:, 0] = t0[:, 1] * t1[:, 2] - t0[:, 2] * t1[:, 1]
        c[:, 1] = t0[:, 2] * t1[:, 0] - t0[:, 0] * t1[:, 2]
        c[:, 2] = t0[:, 0] * t1[:, 1] - t0[:, 1] * t1[:, 0]
        nu = c / np.sqrt(c[:, 0] * c[:, 0] + c[:, 1] * c[:, 1] + c[:, 2] * c[:, 2])[:, None]
    return FrameBatch(patch, P, X, T, patch.orientation * nu, g, np.sqrt(det_g))


# --------------------------------------------------------------------------
# built-in charts


def _array(value, shape: tuple, what: str) -> np.ndarray:
    """value as a float array of this shape; a ValueError otherwise."""
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{what} needs shape {shape}, not {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite, not {value}")
    return a


def _positive(value, what: str) -> float:
    """value as a finite float > 0; a ValueError otherwise."""
    x = float(value)
    if not 0.0 < x < np.inf:
        raise ValueError(f"{what} must be finite and positive, not {x!r}")
    return x


def _finite(value, what: str) -> float:
    """value as a finite float; a ValueError otherwise."""
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"{what} must be finite, not {x!r}")
    return x


def sphere(radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> ParametricPatch:
    """Round sphere, outward normal; polar angle first, azimuth second."""
    R = _positive(radius, "sphere radius")
    c = _array(center, (3,), "sphere center")

    def chart(P):
        th, ph = P[:, 0], P[:, 1]
        return c + R * np.column_stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])

    def dchart(P):
        th, ph = P[:, 0], P[:, 1]
        Xt = R * np.column_stack(
            [np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
        Xp = R * np.column_stack(
            [-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros_like(th)])
        return np.stack([Xt, Xp], axis=1)

    def d2chart(P):
        th, ph = P[:, 0], P[:, 1]
        zero = np.zeros_like(th)
        Xtt = R * np.column_stack(
            [-np.sin(th) * np.cos(ph), -np.sin(th) * np.sin(ph), -np.cos(th)])
        Xtp = R * np.column_stack(
            [-np.cos(th) * np.sin(ph), np.cos(th) * np.cos(ph), zero])
        Xpp = R * np.column_stack(
            [-np.sin(th) * np.cos(ph), -np.sin(th) * np.sin(ph), zero])
        out = np.empty((P.shape[0], 2, 2, 3))
        out[:, 0, 0] = Xtt
        out[:, 0, 1] = out[:, 1, 0] = Xtp
        out[:, 1, 1] = Xpp
        return out

    return ParametricPatch(
        2, chart, [(0.0, np.pi), (0.0, 2 * np.pi)], dchart_fn=dchart,
        d2chart_fn=d2chart, periodic=(False, True), closed=True,
        orientation=1.0, name=f"sphere(r={R:g})", axis_insets=(1e-3, 0.0))


def linear_image(patch: ParametricPatch, L, name: str | None = None) -> ParametricPatch:
    """Image of a patch under an invertible linear map with det > 0."""
    L = np.asarray(L, dtype=float)
    if np.linalg.det(L) <= 0:
        raise ValueError("linear_image expects det L > 0")

    def apply(Y):
        # one (rows, d) product: NumPy's stacked matmul on (m, n, d) and
        # (m, n, n, d) arrays is several times slower
        return (Y.reshape(-1, Y.shape[-1]) @ L.T).reshape(Y.shape)

    def chart(P):
        return apply(patch.chart(P))

    def dchart(P):
        return apply(patch.dchart(P))

    def d2chart(P):
        return apply(patch.d2chart(P))

    return ParametricPatch(
        patch.n, chart, patch.domain, dchart_fn=dchart, d2chart_fn=d2chart,
        periodic=patch.periodic, closed=patch.closed, orientation=patch.orientation,
        name=name or f"linear[{patch.name}]", axis_insets=patch.axis_insets)


def ellipsoid(semiaxes=(1.0, 1.3, 1.7)) -> ParametricPatch:
    s = _array(semiaxes, (3,), "ellipsoid semiaxes")
    if not (s > 0).all():
        raise ValueError(f"ellipsoid semiaxes must be positive, not {semiaxes}")
    out = linear_image(sphere(), np.diag(s),
                       name=f"ellipsoid({s[0]:g},{s[1]:g},{s[2]:g})")
    return out


def catenoid(v_max: float = 1.2) -> ParametricPatch:
    """Catenoid with unit neck; normal points away from the axis."""
    v_max = _positive(v_max, "catenoid v_max")

    def chart(P):
        u, v = P[:, 0], P[:, 1]
        return np.column_stack([np.cosh(v) * np.cos(u), np.cosh(v) * np.sin(u), v])

    def dchart(P):
        u, v = P[:, 0], P[:, 1]
        Xu = np.column_stack(
            [-np.cosh(v) * np.sin(u), np.cosh(v) * np.cos(u), np.zeros_like(u)])
        Xv = np.column_stack(
            [np.sinh(v) * np.cos(u), np.sinh(v) * np.sin(u), np.ones_like(u)])
        return np.stack([Xu, Xv], axis=1)

    def d2chart(P):
        u, v = P[:, 0], P[:, 1]
        zero = np.zeros_like(u)
        Xuu = np.column_stack([-np.cosh(v) * np.cos(u), -np.cosh(v) * np.sin(u), zero])
        Xuv = np.column_stack([-np.sinh(v) * np.sin(u), np.sinh(v) * np.cos(u), zero])
        Xvv = np.column_stack([np.cosh(v) * np.cos(u), np.cosh(v) * np.sin(u), zero])
        out = np.empty((P.shape[0], 2, 2, 3))
        out[:, 0, 0] = Xuu
        out[:, 0, 1] = out[:, 1, 0] = Xuv
        out[:, 1, 1] = Xvv
        return out

    return ParametricPatch(
        2, chart, [(0.0, 2 * np.pi), (-v_max, v_max)], dchart_fn=dchart,
        d2chart_fn=d2chart, periodic=(True, False), closed=False,
        orientation=1.0, name=f"catenoid(v<={v_max:g})")


def sqrtm_spd(A) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix."""
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh(A)
    if w[0] <= 0:
        raise ValueError("matrix is not positive definite")
    return (V * np.sqrt(w)) @ V.T


def transformed_catenoid(matrix, v_max: float = 1.2) -> ParametricPatch:
    """Catenoid mapped through the square root of an SPD matrix.

    For the quadratic gauge built from the same matrix, this image is a
    critical point of the anisotropic area (the map rescales the anisotropic
    area of every surface by a constant factor), so its anisotropic mean
    curvature vanishes.
    """
    L = sqrtm_spd(_array(matrix, (3, 3), "transformed-catenoid matrix"))
    return linear_image(catenoid(v_max=v_max), L, name=f"transformed-catenoid(v<={v_max:g})")


def hyperplane(normal=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
               extent: float = 2.0) -> ParametricPatch:
    nrm = _array(normal, (3,), "hyperplane normal")
    length = np.linalg.norm(nrm)
    if not 0.0 < length < np.inf:
        raise ValueError(f"hyperplane normal must be finite and nonzero, not {normal}")
    nrm = nrm / length
    origin = _array(origin, (3,), "hyperplane origin")
    extent = _positive(extent, "hyperplane extent")
    # orthonormal in-plane basis with a x b = normal
    Q = _orthonormal_complement(nrm[None, :])[0]
    a, bvec = Q[:, 0], Q[:, 1]
    if np.dot(np.cross(a, bvec), nrm) < 0:
        a, bvec = bvec, a
    basis = np.array([a, bvec])

    def chart(P):
        return P @ basis + origin

    def dchart(P):
        return np.broadcast_to(basis, (P.shape[0], 2, 3)).copy()

    def d2chart(P):
        return np.zeros((P.shape[0], 2, 2, 3))

    return ParametricPatch(
        2, chart, [(-extent, extent), (-extent, extent)], dchart_fn=dchart,
        d2chart_fn=d2chart, name=f"hyperplane(n={tuple(np.round(nrm, 3))})")


def line(offset: float = 0.5, extent: float = 4.0) -> ParametricPatch:
    """Horizontal line y = offset in the plane, normal (0, -1)."""
    offset, extent = _finite(offset, "line offset"), _positive(extent, "line extent")

    def chart(P):
        t = P[:, 0]
        return np.column_stack([t, np.full_like(t, offset)])

    def dchart(P):
        m = P.shape[0]
        out = np.zeros((m, 1, 2))
        out[:, 0, 0] = 1.0
        return out

    def d2chart(P):
        return np.zeros((P.shape[0], 1, 1, 2))

    return ParametricPatch(1, chart, [(-extent, extent)], dchart_fn=dchart,
                           d2chart_fn=d2chart, name=f"line(y={offset:g})")


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> ParametricPatch:
    R = _positive(radius, "circle radius")
    c = _array(center, (2,), "circle center")

    def chart(P):
        t = P[:, 0]
        return c + R * np.column_stack([np.cos(t), np.sin(t)])

    def dchart(P):
        t = P[:, 0]
        return (R * np.column_stack([-np.sin(t), np.cos(t)]))[:, None, :]

    def d2chart(P):
        t = P[:, 0]
        return (-R * np.column_stack([np.cos(t), np.sin(t)]))[:, None, None, :]

    return ParametricPatch(1, chart, [(0.0, 2 * np.pi)], dchart_fn=dchart,
                           d2chart_fn=d2chart, periodic=(True,), closed=True,
                           orientation=1.0, name=f"circle(r={R:g})")


def graph_curve(coeffs, extent: float = 1.0) -> ParametricPatch:
    """Plane curve (t, p(t)) for a polynomial p given by coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"graph-curve coefficients need a nonempty list, not shape {c.shape}")
    c, extent = _array(c, c.shape, "graph-curve coefficients"), _positive(extent, "graph extent")
    c1 = np.polynomial.polynomial.polyder(c)
    c2 = np.polynomial.polynomial.polyder(c, 2)
    pv = np.polynomial.polynomial.polyval

    def chart(P):
        t = P[:, 0]
        return np.column_stack([t, pv(t, c)])

    def dchart(P):
        t = P[:, 0]
        return np.column_stack([np.ones_like(t), pv(t, c1)])[:, None, :]

    def d2chart(P):
        t = P[:, 0]
        return np.column_stack([np.zeros_like(t), pv(t, c2)])[:, None, None, :]

    return ParametricPatch(1, chart, [(-extent, extent)], dchart_fn=dchart,
                           d2chart_fn=d2chart, name="graph-curve")


def graph_surface(coeffs, extent: float = 1.0) -> ParametricPatch:
    """Graph z = p(u, v) for a bivariate polynomial coefficient matrix."""
    C = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if C.ndim != 2 or C.size == 0:
        raise ValueError(f"graph-surface coefficients need a nonempty matrix, not {C.shape}")
    C, extent = _array(C, C.shape, "graph-surface coefficients"), _positive(extent, "graph extent")
    pp = np.polynomial.polynomial
    Cu, Cv = pp.polyder(C, axis=0), pp.polyder(C, axis=1)
    Cuu, Cuv, Cvv = pp.polyder(Cu, axis=0), pp.polyder(Cu, axis=1), pp.polyder(Cv, axis=1)

    def chart(P):
        u, v = P[:, 0], P[:, 1]
        return np.column_stack([u, v, pp.polyval2d(u, v, C)])

    def dchart(P):
        u, v = P[:, 0], P[:, 1]
        one, zero = np.ones_like(u), np.zeros_like(u)
        Xu = np.column_stack([one, zero, pp.polyval2d(u, v, Cu)])
        Xv = np.column_stack([zero, one, pp.polyval2d(u, v, Cv)])
        return np.stack([Xu, Xv], axis=1)

    def d2chart(P):
        u, v = P[:, 0], P[:, 1]
        zero = np.zeros_like(u)
        out = np.empty((P.shape[0], 2, 2, 3))
        out[:, 0, 0] = np.column_stack([zero, zero, pp.polyval2d(u, v, Cuu)])
        out[:, 0, 1] = out[:, 1, 0] = np.column_stack([zero, zero, pp.polyval2d(u, v, Cuv)])
        out[:, 1, 1] = np.column_stack([zero, zero, pp.polyval2d(u, v, Cvv)])
        return out

    return ParametricPatch(2, chart, [(-extent, extent), (-extent, extent)],
                           dchart_fn=dchart, d2chart_fn=d2chart, name="graph-surface")


def enneper(scale: float = 0.8, extent: float = 1.5) -> ParametricPatch:
    """Enneper minimal patch scaled by a constant factor."""
    s, extent = _finite(scale, "enneper scale"), _positive(extent, "enneper extent")
    if s == 0.0:
        raise ValueError("enneper scale must be nonzero")

    def chart(P):
        u, v = P[:, 0], P[:, 1]
        return s * np.column_stack([
            u - u**3 / 3 + u * v**2,
            -v + v**3 / 3 - u**2 * v,
            u**2 - v**2])

    def dchart(P):
        u, v = P[:, 0], P[:, 1]
        Xu = s * np.column_stack([1 - u**2 + v**2, -2 * u * v, 2 * u])
        Xv = s * np.column_stack([2 * u * v, -1 + v**2 - u**2, -2 * v])
        return np.stack([Xu, Xv], axis=1)

    def d2chart(P):
        u, v = P[:, 0], P[:, 1]
        one = np.ones_like(u)
        out = np.empty((P.shape[0], 2, 2, 3))
        out[:, 0, 0] = s * np.column_stack([-2 * u, -2 * v, 2 * one])
        out[:, 0, 1] = out[:, 1, 0] = s * np.column_stack([2 * v, -2 * u, 0 * one])
        out[:, 1, 1] = s * np.column_stack([2 * u, 2 * v, -2 * one])
        return out

    return ParametricPatch(2, chart, [(-extent, extent), (-extent, extent)],
                           dchart_fn=dchart, d2chart_fn=d2chart,
                           name=f"enneper(s={s:g})")


# --------------------------------------------------------------------------
# ambient fields along a patch


class TransversalField:
    """Named ambient vector field along a patch, a function of frames.

    fn maps a FrameBatch of m points to the (m, d) field values there, so a
    field built from frame data (position, normal, gauge-gradient normal)
    reads it from the batch instead of framing the points again.
    """

    def __init__(self, fn: Callable[[FrameBatch], np.ndarray], name: str):
        self._fn = fn
        self.name = name

    def at(self, fb: FrameBatch) -> np.ndarray:
        """The field at the points of fb: (m, d)."""
        return np.asarray(self._fn(fb), dtype=float)

    def __call__(self, patch: ParametricPatch, P: np.ndarray) -> np.ndarray:
        """The field at parameter points P (m, n), framed here: (m, d)."""
        return self.at(patch.frames(P))


def normal_field() -> TransversalField:
    return TransversalField(lambda fb: fb.nu, "normal")


def anisotropic_normal_field(norm: MinkowskiNorm) -> TransversalField:
    return TransversalField(lambda fb: norm.grad(fb.nu), f"anisotropic[{norm.label}]")


def constant_field(vec) -> TransversalField:
    vec = np.asarray(vec, dtype=float)
    return TransversalField(lambda fb: np.broadcast_to(vec, fb.x.shape),
                            f"constant{tuple(np.round(vec, 3))}")


def position_field() -> TransversalField:
    return TransversalField(lambda fb: fb.x, "position")


def affine_tangential(V, xi, nu) -> np.ndarray:
    """<xi, nu> V - <V, nu> xi: the xi-adapted tangential part of V."""
    V = np.asarray(V, dtype=float)
    xi = np.asarray(xi, dtype=float)
    nu = np.asarray(nu, dtype=float)
    supp = np.sum(xi * nu, axis=-1, keepdims=True)
    vn = np.sum(V * nu, axis=-1, keepdims=True)
    return supp * V - vn * xi


# --------------------------------------------------------------------------
# transversal decompositions


class EquiaffineBatch:
    def __init__(self, xi, support, shape_op, tau, affine_mean, frames, stencil):
        self.xi = xi                 # (m, d)
        self.support = support       # (m,)  <xi, nu>
        self.shape_op = shape_op     # (m, n, n), column a = components of S(e_a)
        self.tau = tau               # (m, n)
        self.affine_mean = affine_mean  # (m,) trace of the shape operator
        self.frames = frames
        # frames at the stencil P +- PARAM_STEP * c_a of the derivatives
        # D_{e_a}; the pointwise identity checks difference their fields on it too
        self.stencil = stencil

    @property
    def fundamental(self) -> np.ndarray:
        """h = II / <xi, nu> in the orthonormal basis (lazy; needs 2nd order)."""
        return self.frames.sec_form / self.support[:, None, None]


def equiaffine_batch(patch: ParametricPatch, xi_field: TransversalField,
                     P) -> EquiaffineBatch:
    """Decompose D xi along the patch into -S + tau (x) xi at each point."""
    return _equiaffine(xi_field, patch.frames(P))


def _equiaffine(xi_field: TransversalField, fb: FrameBatch) -> EquiaffineBatch:
    """equiaffine_batch at the points of fb."""
    xi = xi_field.at(fb)
    support = np.einsum("md,md->m", xi, fb.nu)
    if np.any(np.abs(support) < TRANSVERSAL_FLOOR):
        raise NotTransversal(
            f"|<xi, nu>| below {TRANSVERSAL_FLOOR:g} for field {xi_field.name}")
    stencil = _frame_stencil(fb)
    W = _frame_derivs(xi_field.at(stencil), fb)      # W[:, a] = D_{e_a} xi
    tau = np.einsum("mad,md->ma", W, fb.nu) / support[:, None]
    S = np.einsum("mid,mad->mia", fb.e, tau[:, :, None] * xi[:, None, :] - W)
    return EquiaffineBatch(xi=xi, support=support, shape_op=S, tau=tau,
                           affine_mean=np.trace(S, axis1=1, axis2=2), frames=fb,
                           stencil=stencil)


def anisotropic_mean_curvature_batch(norm: MinkowskiNorm, patch: ParametricPatch,
                                     P) -> np.ndarray:
    """trace of X -> -D_X(grad F(nu)) via the chain rule on the normal."""
    fb = patch.frames(P)
    M = np.einsum("mad,mde,mbe->mab", fb.e, norm.hess(fb.nu), fb.e)
    return np.einsum("mab,mab->m", fb.sec_form, M)


def anisotropic_mean_curvature_fd(norm: MinkowskiNorm, patch: ParametricPatch, p) -> float:
    """Cross-check: -div_M grad F(nu) by finite-difference surface divergence."""
    return -surface_divergence(patch, anisotropic_normal_field(norm).at, p)


# --------------------------------------------------------------------------
# finite-difference surface calculus: surface_divergence and codazzi_residual
# take one parameter point (n,) or a batch (m, n); the checks of a transversal
# decomposition take its EquiaffineBatch.  Each frames a stencil once for all
# points and evaluates its fields on that one batch


def _as_batch(p) -> tuple[np.ndarray, bool]:
    """p as an (m, n) batch of parameter points, and whether it was one point."""
    p = np.asarray(p, dtype=float)
    return np.atleast_2d(p), p.ndim == 1


def _unbatch(values: np.ndarray, single: bool):
    return float(values[0]) if single else values


def _frame_stencil(fb: FrameBatch) -> FrameBatch:
    """Frames at P +- PARAM_STEP * c_a, the stencil of D_{e_a} at every point of fb."""
    return fb.patch.frames(_stencil(fb.P, fb.param_dirs, (PARAM_STEP,)))


def _frame_derivs(vals, fb: FrameBatch) -> np.ndarray:
    """D_{e_a} at every point of fb from values on _frame_stencil(fb): (m, n, ...)."""
    return _differences(vals, fb.param_dirs, (PARAM_STEP,))


def _divergence(dF: np.ndarray, fb: FrameBatch) -> np.ndarray:
    """sum_a <D_{e_a} F, e_a> from the frame derivatives dF (m, n, d)."""
    return np.einsum("mad,mad->m", dF, fb.e)


def surface_divergence(patch: ParametricPatch, W, p):
    """div_M W = sum_a <D_{e_a} W, e_a> with FD derivatives along the chart.

    W maps a FrameBatch of m points to (m, d) vectors.
    """
    P, single = _as_batch(p)
    fb = patch.frames(P)
    dW = _frame_derivs(W(_frame_stencil(fb)), fb)
    return _unbatch(_divergence(dW, fb), single)


def tangential_derivative_residuals(xi_field: TransversalField, X_field: TransversalField,
                                    eb: EquiaffineBatch) -> tuple[np.ndarray, np.ndarray]:
    """Compare FD derivatives of X^{top_xi} with the frame-side expansion at
    the points of eb = equiaffine_batch(patch, xi_field, P): the residuals
    (m,) of the frame identity and of its trace.

    Frame identity, for an equiaffine xi:
      <D_{e_j} X^{top_xi}, e_i> = <xi,nu> <D_{e_j}X, e_i> - <X,e_i> II(xi^T, e_j)
                                  - <xi,e_i> <grad_M <X,nu>, e_j> + <X,nu> <S(e_j), e_i>
    and its trace,
      div_M X^{top_xi} = <xi,nu> div_M X + <X,nu> H_xi - <II(X^T) + grad_M <X,nu>, xi>.
    """
    fb, st, d = eb.frames, eb.stencil, eb.xi.shape[1]
    X = X_field.at(st)   # X^{top_xi}, X and <X, nu> side by side on the stencil
    dF = _frame_derivs(np.column_stack([affine_tangential(X, xi_field.at(st), st.nu), X,
                                        np.einsum("md,md->m", X, st.nu)]), fb)
    dY, dX, grad_xnu = dF[..., :d], dF[..., d:2 * d], dF[..., 2 * d]
    lhs = np.einsum("mjd,mid->mij", dY, fb.e)

    X0 = X_field.at(fb)
    X_nu = np.einsum("md,md->m", X0, fb.nu)
    X_tan = np.einsum("mid,md->mi", fb.e, X0)              # components <X, e_i>
    xi_tan = np.einsum("mid,md->mi", fb.e, eb.xi)
    sff_xi = np.einsum("mij,mj->mi", fb.sec_form, xi_tan)   # II(xi^T, e_j) over j

    rhs = (eb.support[:, None, None] * np.einsum("mjd,mid->mij", dX, fb.e)
           - X_tan[:, :, None] * sff_xi[:, None, :]
           - xi_tan[:, :, None] * grad_xnu[:, None, :]
           + X_nu[:, None, None] * eb.shape_op)
    frame_res = np.max(np.abs(lhs - rhs), axis=(1, 2))

    div_lhs = np.trace(lhs, axis1=1, axis2=2)
    sff_Xtop = np.einsum("mab,ma,mbd->md", fb.sec_form, X_tan, fb.e)
    grad_xnu_amb = np.einsum("ma,mad->md", grad_xnu, fb.e)
    div_rhs = (eb.support * _divergence(dX, fb) + X_nu * eb.affine_mean
               - np.einsum("md,md->m", sff_Xtop + grad_xnu_amb, eb.xi))
    return frame_res, np.abs(div_lhs - div_rhs)


def divergence_residuals_constant_position(xi_field: TransversalField, eb: EquiaffineBatch
                                           ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (m,) of div_M b^{top_xi} = <b,nu> H_xi, b = TEST_VECTOR, and
    div_M x^{top_xi} = n <xi,nu> + <x,nu> H_xi at the points of eb."""
    fb, st, d = eb.frames, eb.stencil, eb.xi.shape[1]
    b = np.asarray(TEST_VECTOR, dtype=float)[:d]
    xi = xi_field.at(st)   # b^{top_xi} and x^{top_xi} side by side on the stencil
    dF = _frame_derivs(np.column_stack([affine_tangential(b, xi, st.nu),
                                        affine_tangential(st.x, xi, st.nu)]), fb)
    res_b = np.abs(_divergence(dF[..., :d], fb) - (fb.nu @ b) * eb.affine_mean)
    res_x = np.abs(_divergence(dF[..., d:], fb) - fb.patch.n * eb.support
                   - np.einsum("md,md->m", fb.x, fb.nu) * eb.affine_mean)
    return res_b, res_x


def product_rule_residual(xi_field: TransversalField, f_field, X_field: TransversalField,
                          eb: EquiaffineBatch) -> np.ndarray:
    """Residuals (m,) of div_M(f X^{top_xi}) = f div_M X^{top_xi}
    + <xi,nu><grad_M f, X> - <X,nu><grad_M f, xi> at the points of eb.

    f_field maps a FrameBatch of m points to (m,) values.
    """
    fb, st, d = eb.frames, eb.stencil, eb.xi.shape[1]
    f = np.asarray(f_field(st))   # f X^{top_xi}, X^{top_xi} and f side by side
    Y = affine_tangential(X_field.at(st), xi_field.at(st), st.nu)
    dF = _frame_derivs(np.column_stack([f[:, None] * Y, Y, f]), fb)
    grad_f = np.einsum("ma,mad->md", dF[..., 2 * d], fb.e)
    f0 = np.asarray(f_field(fb))
    X0 = X_field.at(fb)
    rhs = (f0 * _divergence(dF[..., d:2 * d], fb)
           + eb.support * np.einsum("md,md->m", grad_f, X0)
           - np.einsum("md,md->m", X0, fb.nu) * np.einsum("md,md->m", grad_f, eb.xi))
    return np.abs(_divergence(dF[..., :d], fb) - rhs)


def shape_products_asymmetry(eb: EquiaffineBatch) -> tuple[np.ndarray, np.ndarray]:
    """Asymmetry of II*S and II*S^2 at each point; both vanish for equiaffine fields."""
    M1 = eb.frames.sec_form @ eb.shape_op
    M2 = M1 @ eb.shape_op
    return tuple(np.max(np.abs(M - np.swapaxes(M, -1, -2)), axis=(-2, -1))
                 for M in (M1, M2))


# --------------------------------------------------------------------------
# Codazzi check for the affine shape operator


def _shape_op_coord(xi_field: TransversalField, fb: FrameBatch) -> np.ndarray:
    """Affine shape operator components S^i_j in the coordinate basis."""
    xi = xi_field.at(fb)
    support = np.einsum("md,md->m", xi, fb.nu)
    # W[:, j] = d_j xi
    W = _central_diffs(lambda Q: xi_field(fb.patch, Q), fb.P, _coordinate_axes(fb.P),
                       (PARAM_STEP,))
    tau = np.einsum("mjd,md->mj", W, fb.nu) / support[:, None]
    S_X = tau[:, :, None] * xi[:, None, :] - W
    # solve <S(X_j), X_k> = sum_i S^i_j g_ik
    rhs = np.einsum("mjd,mkd->mjk", S_X, fb.tangents)
    return np.einsum("mik,mjk->mij", fb.metric_inv, rhs)


def codazzi_residual(patch: ParametricPatch, xi_field: TransversalField, p):
    """Norm of [D^M_{e_1} S](e_2) - [D^M_{e_2} S](e_1) for the affine shape operator.

    Covariant derivatives are assembled in the coordinate frame from
    finite-differenced Christoffel symbols and a Richardson-extrapolated
    derivative of the shape-operator components, at the steps CODAZZI_STEP
    and half of it; the components themselves differentiate xi at PARAM_STEP.
    """
    P, single = _as_batch(p)
    return _unbatch(_codazzi(xi_field, patch.frames(P)), single)


def _codazzi(xi_field: TransversalField, fb: FrameBatch) -> np.ndarray:
    """codazzi_residual at the points of fb (zero on curves)."""
    P = fb.P
    if fb.patch.n == 1:
        return np.zeros(len(P))
    axes, steps = _coordinate_axes(P), (CODAZZI_STEP, 0.5 * CODAZZI_STEP)
    outer = fb.patch.frames(_stencil(P, axes, steps))   # both Richardson levels
    dg = _differences(outer.metric, axes, steps)  # dg[p, k, m, l] = d_k g_{ml}
    # Gamma[p, i, k, l] = 1/2 g^{im} (d_k g_{ml} + d_l g_{mk} - d_m g_{kl})
    Gamma = 0.5 * np.einsum("pim,pkml->pikl", fb.metric_inv,
                            dg + np.transpose(dg, (0, 3, 2, 1))
                            - np.transpose(dg, (0, 2, 1, 3)))

    S0 = _shape_op_coord(xi_field, fb)
    dS = _differences(_shape_op_coord(xi_field, outer), axes, steps)
    # dS[p, k, i, j] = d_k S^i_j

    def cov(k, j):  # components of [D^M_{X_k} S](X_j)
        return (dS[:, k, :, j] + np.einsum("pil,pl->pi", Gamma[:, :, k, :], S0[:, :, j])
                - np.einsum("pil,pl->pi", S0, Gamma[:, :, k, j]))

    res_coord = cov(0, 1) - cov(1, 0)                # components in X_i basis
    res_amb = np.einsum("pi,pid->pd", res_coord, fb.tangents)
    det_C = np.linalg.det(fb.param_dirs)             # rescale (X_1, X_2) -> (e_1, e_2)
    return np.linalg.norm(res_amb, axis=1) * np.abs(det_C)
