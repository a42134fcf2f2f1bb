"""Parametric hypersurfaces in R^{n+1} for n in {1, 2}.

A patch is a smooth chart over a parameter rectangle, evaluated as a jet:
one call gives the points, the tangents and, on request, the second
parameter derivatives (analytic for built-ins, which share their terms
between the orders; central differences for custom charts given by their
points alone).  Frames carry the orthonormalized tangent basis, the
oriented unit normal, and the second fundamental form under the
shape-operator convention X -> -D_X nu; transversal decompositions split
the ambient derivative of a transversal field xi into the affine shape
operator and the connection one-form,

    D_X xi = -S(X) + tau(X) xi.

The divergence/derivative checks at the bottom compare frame-based
right-hand sides against finite-difference left-hand sides, so the two
routes stay independent.  Each frames its stencil in one call, and the
Codazzi check frames all the points it needs, both Richardson levels and
their stencils, in one call too.
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
_CODAZZI_STEPS = (CODAZZI_STEP, 0.5 * CODAZZI_STEP)
CHART_FD_STEP = 1e-6    # the central-difference step of a chart given by its points alone
CHART_FD2_STEP = 1e-4   # and its second-difference step, which balances roundoff
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

    chart_fn maps parameter batches (m, n) to points (m, n+1); its
    derivatives are then central differences.  With jet=True, chart_fn is a
    jet function instead: chart_fn(P, k) returns float arrays of the points,
    the tangents (m, n, n+1) and, for k = 2, the second derivatives
    (m, n, n, n+1), a tuple of k + 1 of them from one call.  Instances are
    immutable.
    """

    def __init__(self, n: int, chart_fn: Callable, domain,
                 periodic: tuple[bool, ...] | None = None,
                 closed: bool = False,
                 orientation: float = 1.0,
                 name: str = "custom",
                 axis_insets: tuple[float, ...] | None = None,
                 jet: bool = False):
        if n not in (1, 2):
            raise ValueError("only curve (n=1) and surface (n=2) patches are supported")
        self.n = n
        self.dim = n + 1
        self._jet_fn = chart_fn if jet else _differenced(chart_fn)
        self.domain = np.asarray(domain, dtype=float).reshape(n, 2)
        self.periodic = tuple(periodic) if periodic is not None else (False,) * n
        self.closed = bool(closed)
        self.orientation = float(orientation)
        self.name = name
        # absolute parameter inset per axis used by sample grids (e.g. to keep
        # sample points away from coordinate poles of closed charts)
        self.axis_insets = tuple(axis_insets) if axis_insets is not None else (0.0,) * n

    # -- chart evaluation ---------------------------------------------------

    def jet(self, P, order: int = 1) -> tuple:
        """The chart's points, tangents and second derivatives at P (m, n),
        the first order + 1 of them, from one callback call."""
        return self._jet_fn(np.atleast_2d(np.asarray(P, dtype=float)), order)

    def chart(self, P) -> np.ndarray:
        return self.jet(P, 0)[0]

    def dchart(self, P) -> np.ndarray:
        return self.jet(P, 1)[1]

    def d2chart(self, P) -> np.ndarray:
        return self.jet(P, 2)[2]

    # -- frames ---------------------------------------------------------------

    def frames(self, P) -> "FrameBatch":
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return _build_frames(self, P, *self._jet_fn(P, 1))

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


def _differenced(chart_fn: Callable) -> Callable:
    """The jet function of a chart given by its points alone: tangents by
    central differences at CHART_FD_STEP, second derivatives by second
    differences along the axes and diagonals at CHART_FD2_STEP."""
    def chart(P):
        return np.asarray(chart_fn(P), dtype=float)

    def jet(P, order):
        X = chart(P)
        if order == 0:
            return (X,)
        T = _central_diffs(chart, P, _coordinate_axes(P), (CHART_FD_STEP,))
        return (X, T) if order == 1 else (X, T, _hessians(chart, P, (CHART_FD2_STEP,), X))

    return jet


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

    @property
    def _eager(self) -> tuple:
        return self.P, self.x, self.tangents, self.nu, self.metric, self.sqrt_g

    def rows(self, keep) -> "FrameBatch":
        """The frames at the rows `keep` (an index or boolean array) alone."""
        return FrameBatch(self.patch, *(a[keep] for a in self._eager))

    def then(self, other: "FrameBatch") -> "FrameBatch":
        """The frames at the rows of self followed by those of other."""
        return FrameBatch(self.patch, *map(np.concatenate, zip(self._eager, other._eager)))


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

    def jet(P, order):
        th, ph = P[:, 0], P[:, 1]
        st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        RU = R * np.column_stack([st * cp, st * sp, ct])
        if order == 0:
            return (c + RU,)
        T = np.zeros((len(P), 2, 3))
        T[:, 0] = R * np.column_stack([ct * cp, ct * sp, -st])
        T[:, 1, 0], T[:, 1, 1] = -RU[:, 1], RU[:, 0]
        if order == 1:
            return c + RU, T
        H = np.zeros((len(P), 2, 2, 3))
        H[:, 0, 0] = -RU
        H[:, 0, 1, 0], H[:, 0, 1, 1] = -T[:, 0, 1], T[:, 0, 0]
        H[:, 1, 0] = H[:, 0, 1]
        H[:, 1, 1, :2] = -RU[:, :2]
        return c + RU, T, H

    return ParametricPatch(
        2, jet, [(0.0, np.pi), (0.0, 2 * np.pi)], periodic=(False, True), closed=True,
        orientation=1.0, name=f"sphere(r={R:g})", axis_insets=(1e-3, 0.0), jet=True)


def linear_image(patch: ParametricPatch, L, name: str | None = None) -> ParametricPatch:
    """Image of a patch under an invertible linear map with det > 0."""
    L = np.asarray(L, dtype=float)
    if np.linalg.det(L) <= 0:
        raise ValueError("linear_image expects det L > 0")

    def jet(P, order):
        # one (rows, d) product per order: NumPy's stacked matmul on (m, n, d)
        # and (m, n, n, d) arrays is several times slower
        return tuple((Y.reshape(-1, Y.shape[-1]) @ L.T).reshape(Y.shape)
                     for Y in patch._jet_fn(P, order))

    return ParametricPatch(
        patch.n, jet, patch.domain, periodic=patch.periodic, closed=patch.closed,
        orientation=patch.orientation, name=name or f"linear[{patch.name}]",
        axis_insets=patch.axis_insets, jet=True)


def ellipsoid(semiaxes=(1.0, 1.3, 1.7)) -> ParametricPatch:
    s = _array(semiaxes, (3,), "ellipsoid semiaxes")
    if not (s > 0).all():
        raise ValueError(f"ellipsoid semiaxes must be positive, not {semiaxes}")
    return linear_image(sphere(), np.diag(s), name=f"ellipsoid({s[0]:g},{s[1]:g},{s[2]:g})")


def catenoid(v_max: float = 1.2) -> ParametricPatch:
    """Catenoid with unit neck; normal points away from the axis."""
    v_max = _positive(v_max, "catenoid v_max")

    def jet(P, order):
        u, v = P[:, 0], P[:, 1]
        ch, cu, su = np.cosh(v), np.cos(u), np.sin(u)
        X = np.column_stack([ch * cu, ch * su, v])
        if order == 0:
            return (X,)
        sh = np.sinh(v)
        T = np.zeros((len(P), 2, 3))
        T[:, 0, 0], T[:, 0, 1] = -X[:, 1], X[:, 0]
        T[:, 1, 0], T[:, 1, 1], T[:, 1, 2] = sh * cu, sh * su, 1.0
        if order == 1:
            return X, T
        H = np.zeros((len(P), 2, 2, 3))
        H[:, 0, 0, :2] = -X[:, :2]
        H[:, 0, 1, 0], H[:, 0, 1, 1] = -T[:, 1, 1], T[:, 1, 0]
        H[:, 1, 0] = H[:, 0, 1]
        H[:, 1, 1, :2] = X[:, :2]
        return X, T, H

    return ParametricPatch(
        2, jet, [(0.0, 2 * np.pi), (-v_max, v_max)], periodic=(True, False), closed=False,
        orientation=1.0, name=f"catenoid(v<={v_max:g})", jet=True)


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

    def jet(P, order):
        X = P @ basis + origin
        if order == 0:
            return (X,)
        T = np.broadcast_to(basis, (len(P), 2, 3)).copy()
        return (X, T) if order == 1 else (X, T, np.zeros((len(P), 2, 2, 3)))

    return ParametricPatch(
        2, jet, [(-extent, extent), (-extent, extent)],
        name=f"hyperplane(n={tuple(np.round(nrm, 3))})", jet=True)


def line(offset: float = 0.5, extent: float = 4.0) -> ParametricPatch:
    """Horizontal line y = offset in the plane, normal (0, -1)."""
    offset, extent = _finite(offset, "line offset"), _positive(extent, "line extent")

    def jet(P, order):
        X = np.column_stack([P[:, 0], np.full(len(P), offset)])
        if order == 0:
            return (X,)
        T = np.zeros((len(P), 1, 2))
        T[:, 0, 0] = 1.0
        return (X, T) if order == 1 else (X, T, np.zeros((len(P), 1, 1, 2)))

    return ParametricPatch(1, jet, [(-extent, extent)], name=f"line(y={offset:g})", jet=True)


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> ParametricPatch:
    R = _positive(radius, "circle radius")
    c = _array(center, (2,), "circle center")

    def jet(P, order):
        t = P[:, 0]
        RU = R * np.column_stack([np.cos(t), np.sin(t)])
        if order == 0:
            return (c + RU,)
        T = np.column_stack([-RU[:, 1], RU[:, 0]])[:, None, :]
        return (c + RU, T) if order == 1 else (c + RU, T, -RU[:, None, None, :])

    return ParametricPatch(1, jet, [(0.0, 2 * np.pi)], periodic=(True,), closed=True,
                           orientation=1.0, name=f"circle(r={R:g})", jet=True)


def graph_curve(coeffs, extent: float = 1.0) -> ParametricPatch:
    """Plane curve (t, p(t)) for a polynomial p given by coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"graph-curve coefficients need a nonempty list, not shape {c.shape}")
    c, extent = _array(c, c.shape, "graph-curve coefficients"), _positive(extent, "graph extent")
    c1 = np.polynomial.polynomial.polyder(c)
    c2 = np.polynomial.polynomial.polyder(c, 2)
    pv = np.polynomial.polynomial.polyval

    def jet(P, order):
        t = P[:, 0]
        X = np.column_stack([t, pv(t, c)])
        if order == 0:
            return (X,)
        T = np.column_stack([np.ones_like(t), pv(t, c1)])[:, None, :]
        if order == 1:
            return X, T
        return X, T, np.column_stack([np.zeros_like(t), pv(t, c2)])[:, None, None, :]

    return ParametricPatch(1, jet, [(-extent, extent)], name="graph-curve", jet=True)


def graph_surface(coeffs, extent: float = 1.0) -> ParametricPatch:
    """Graph z = p(u, v) for a bivariate polynomial coefficient matrix."""
    C = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if C.ndim != 2 or C.size == 0:
        raise ValueError(f"graph-surface coefficients need a nonempty matrix, not {C.shape}")
    C, extent = _array(C, C.shape, "graph-surface coefficients"), _positive(extent, "graph extent")
    pp = np.polynomial.polynomial
    Cu, Cv = pp.polyder(C, axis=0), pp.polyder(C, axis=1)
    Cuu, Cuv, Cvv = pp.polyder(Cu, axis=0), pp.polyder(Cu, axis=1), pp.polyder(Cv, axis=1)

    def jet(P, order):
        u, v = P[:, 0], P[:, 1]
        X = np.column_stack([u, v, pp.polyval2d(u, v, C)])
        if order == 0:
            return (X,)
        T = np.zeros((len(P), 2, 3))
        T[:, 0, 0] = T[:, 1, 1] = 1.0
        T[:, 0, 2], T[:, 1, 2] = pp.polyval2d(u, v, Cu), pp.polyval2d(u, v, Cv)
        if order == 1:
            return X, T
        H = np.zeros((len(P), 2, 2, 3))
        H[:, 0, 0, 2] = pp.polyval2d(u, v, Cuu)
        H[:, 0, 1, 2] = H[:, 1, 0, 2] = pp.polyval2d(u, v, Cuv)
        H[:, 1, 1, 2] = pp.polyval2d(u, v, Cvv)
        return X, T, H

    return ParametricPatch(2, jet, [(-extent, extent), (-extent, extent)],
                           name="graph-surface", jet=True)


def enneper(scale: float = 0.8, extent: float = 1.5) -> ParametricPatch:
    """Enneper minimal patch scaled by a constant factor."""
    s, extent = _finite(scale, "enneper scale"), _positive(extent, "enneper extent")
    if s == 0.0:
        raise ValueError("enneper scale must be nonzero")

    def jet(P, order):
        u, v = P[:, 0], P[:, 1]
        u2, v2 = u**2, v**2
        X = s * np.column_stack([u - u**3 / 3 + u * v2, -v + v**3 / 3 - u2 * v, u2 - v2])
        if order == 0:
            return (X,)
        T = np.empty((len(P), 2, 3))
        T[:, 0] = s * np.column_stack([1 - u2 + v2, -2 * u * v, 2 * u])
        T[:, 1] = s * np.column_stack([2 * u * v, -1 + v2 - u2, -2 * v])
        if order == 1:
            return X, T
        two = np.full_like(u, 2.0)
        H = np.empty((len(P), 2, 2, 3))
        H[:, 0, 0] = s * np.column_stack([-2 * u, -2 * v, two])
        H[:, 0, 1] = H[:, 1, 0] = s * np.column_stack([2 * v, -2 * u, 0 * two])
        H[:, 1, 1] = s * np.column_stack([2 * u, 2 * v, -two])
        return X, T, H

    return ParametricPatch(2, jet, [(-extent, extent), (-extent, extent)],
                           name=f"enneper(s={s:g})", jet=True)


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
    def __init__(self, xi, support, shape_op, tau, affine_mean, frames, stencil, stencil_xi):
        self.xi = xi                 # (m, d)
        self.support = support       # (m,)  <xi, nu>
        self.shape_op = shape_op     # (m, n, n), column a = components of S(e_a)
        self.tau = tau               # (m, n)
        self.affine_mean = affine_mean  # (m,) trace of the shape operator
        self.frames = frames
        # frames at the stencil P +- PARAM_STEP * c_a of the derivatives
        # D_{e_a}, and xi there; the pointwise identity checks difference
        # their fields on it too
        self.stencil = stencil
        self.stencil_xi = stencil_xi

    @property
    def fundamental(self) -> np.ndarray:
        """h = II / <xi, nu> in the orthonormal basis (lazy; needs 2nd order)."""
        return self.frames.sec_form / self.support[:, None, None]


def equiaffine_batch(patch: ParametricPatch, xi_field: TransversalField,
                     P) -> EquiaffineBatch:
    """Decompose D xi along the patch into -S + tau (x) xi at each point."""
    return _equiaffine(xi_field, patch.frames(P))


def _equiaffine(xi_field: TransversalField, fb: FrameBatch,
                stencil: FrameBatch | None = None) -> EquiaffineBatch:
    """equiaffine_batch at the points of fb; stencil, the frames at
    _stencil_points(fb), is framed here if not given."""
    if stencil is None:
        stencil = fb.patch.frames(_stencil_points(fb))
    xi, stencil_xi = xi_field.at(fb), xi_field.at(stencil)
    # D_{e_a} xi, split into S(e_a) and tau(e_a)
    support, tau, S_e = _transversal_split(xi_field, xi, fb.nu, _frame_derivs(stencil_xi, fb))
    S = np.einsum("mid,mad->mia", fb.e, S_e)
    return EquiaffineBatch(xi=xi, support=support, shape_op=S, tau=tau,
                           affine_mean=np.trace(S, axis1=1, axis2=2), frames=fb,
                           stencil=stencil, stencil_xi=stencil_xi)


def _transversal_split(xi_field: TransversalField, xi, nu, W) -> tuple:
    """The split D_X xi = -S(X) + tau(X) xi of the derivatives W (m, k, d) of
    xi (m, d) along k tangent vectors X at points of unit normal nu (m, d):
    <xi, nu> (m,), tau(X) (m, k) and S(X) (m, k, d).  Raises NotTransversal
    where |<xi, nu>| < TRANSVERSAL_FLOOR, where the split is singular."""
    support = np.einsum("md,md->m", xi, nu)
    if np.any(np.abs(support) < TRANSVERSAL_FLOOR):
        raise NotTransversal(
            f"|<xi, nu>| below {TRANSVERSAL_FLOOR:g} for field {xi_field.name}")
    tau = np.einsum("mkd,md->mk", W, nu) / support[:, None]
    return support, tau, tau[:, :, None] * xi[:, None, :] - W


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


def _stencil_points(fb: FrameBatch) -> np.ndarray:
    """P +- PARAM_STEP * c_a, the stencil of D_{e_a} at every point of fb."""
    return _stencil(fb.P, fb.param_dirs, (PARAM_STEP,))


def _frame_derivs(vals, fb: FrameBatch) -> np.ndarray:
    """D_{e_a} at every point of fb from values on _stencil_points(fb): (m, n, ...)."""
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
    dW = _frame_derivs(W(patch.frames(_stencil_points(fb))), fb)
    return _unbatch(_divergence(dW, fb), single)


def tangential_derivative_residuals(X_field: TransversalField, eb: EquiaffineBatch
                                    ) -> tuple[np.ndarray, np.ndarray]:
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
    dF = _frame_derivs(np.column_stack([affine_tangential(X, eb.stencil_xi, st.nu), X,
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


def divergence_residuals_constant_position(eb: EquiaffineBatch
                                           ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (m,) of div_M b^{top_xi} = <b,nu> H_xi, b = TEST_VECTOR, and
    div_M x^{top_xi} = n <xi,nu> + <x,nu> H_xi at the points of eb."""
    fb, st, d = eb.frames, eb.stencil, eb.xi.shape[1]
    b = np.asarray(TEST_VECTOR, dtype=float)[:d]
    xi = eb.stencil_xi   # b^{top_xi} and x^{top_xi} side by side on the stencil
    dF = _frame_derivs(np.column_stack([affine_tangential(b, xi, st.nu),
                                        affine_tangential(st.x, xi, st.nu)]), fb)
    res_b = np.abs(_divergence(dF[..., :d], fb) - (fb.nu @ b) * eb.affine_mean)
    res_x = np.abs(_divergence(dF[..., d:], fb) - fb.patch.n * eb.support
                   - np.einsum("md,md->m", fb.x, fb.nu) * eb.affine_mean)
    return res_b, res_x


def product_rule_residual(f_field, X_field: TransversalField, eb: EquiaffineBatch
                          ) -> np.ndarray:
    """Residuals (m,) of div_M(f X^{top_xi}) = f div_M X^{top_xi}
    + <xi,nu><grad_M f, X> - <X,nu><grad_M f, xi> at the points of eb.

    f_field maps a FrameBatch of m points to (m,) values.
    """
    fb, st, d = eb.frames, eb.stencil, eb.xi.shape[1]
    f = np.asarray(f_field(st))   # f X^{top_xi}, X^{top_xi} and f side by side
    Y = affine_tangential(X_field.at(st), eb.stencil_xi, st.nu)
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


def _shape_op_coord(xi_field: TransversalField, fb: FrameBatch,
                    stencil: FrameBatch) -> np.ndarray:
    """Affine shape operator components S^i_j in the coordinate basis at the
    points of fb, from the frames `stencil` at fb.P +- PARAM_STEP along the axes."""
    # W[:, j] = d_j xi, split into S(X_j) and tau(X_j)
    W = _differences(xi_field.at(stencil), _coordinate_axes(fb.P), (PARAM_STEP,))
    S_X = _transversal_split(xi_field, xi_field.at(fb), fb.nu, W)[2]
    # solve <S(X_j), X_k> = sum_i S^i_j g_ik
    rhs = np.einsum("mjd,mkd->mjk", S_X, fb.tangents)
    return np.einsum("mik,mjk->mij", fb.metric_inv, rhs)


def codazzi_residual(patch: ParametricPatch, xi_field: TransversalField, p):
    """Norm of [D^M_{e_1} S](e_2) - [D^M_{e_2} S](e_1) for the affine shape operator.

    Covariant derivatives are assembled in the coordinate frame from
    finite-differenced Christoffel symbols and a Richardson-extrapolated
    derivative of the shape-operator components, at the steps CODAZZI_STEP
    and half of it; the components themselves differentiate xi at PARAM_STEP.
    Besides the frames at p, one frames call evaluates every point the check
    needs: the 4n outer points per point of both levels along the coordinate
    axes, and the PARAM_STEP stencils of p and of each outer point.
    """
    P, single = _as_batch(p)
    return _unbatch(_codazzi(xi_field, patch.frames(P)), single)


def _codazzi_points(P) -> np.ndarray:
    """The points the Codazzi check at P (m, n) frames, all known from P: the
    outer points of both Richardson levels, then the coordinate PARAM_STEP
    stencils of P and of the outer points (none on curves)."""
    if P.shape[1] == 1:
        return np.empty((0, 1))
    axes = _coordinate_axes(P)
    Q = _stencil(P, axes, _CODAZZI_STEPS)
    return np.concatenate([Q, _stencil(np.concatenate([P, Q]), axes, (PARAM_STEP,))])


def _codazzi(xi_field: TransversalField, fb: FrameBatch,
             framed: FrameBatch | None = None) -> np.ndarray:
    """codazzi_residual at the points of fb (zero on curves, for a transversal
    field); framed, the frames at _codazzi_points(fb.P), is framed here in one
    call if not given."""
    P = fb.P
    if fb.patch.n == 1:
        _transversal_split(xi_field, xi_field.at(fb), fb.nu, np.empty((len(P), 0, fb.x.shape[1])))
        return np.zeros(len(P))
    if framed is None:
        framed = fb.patch.frames(_codazzi_points(P))
    axes, steps = _coordinate_axes(P), _CODAZZI_STEPS
    n_outer = 2 * len(steps) * P.size     # 2 signs, 2 steps, n axes per point
    outer, inner = framed.rows(slice(n_outer)), framed.rows(slice(n_outer, None))
    dg = _differences(outer.metric, axes, steps)  # dg[p, k, m, l] = d_k g_{ml}
    # Gamma[p, i, k, l] = 1/2 g^{im} (d_k g_{ml} + d_l g_{mk} - d_m g_{kl})
    Gamma = 0.5 * np.einsum("pim,pkml->pikl", fb.metric_inv,
                            dg + np.transpose(dg, (0, 3, 2, 1))
                            - np.transpose(dg, (0, 2, 1, 3)))

    S = _shape_op_coord(xi_field, fb.then(outer), inner)   # base rows, then outer
    S0, dS = S[:len(P)], _differences(S[len(P):], axes, steps)
    # dS[p, k, i, j] = d_k S^i_j

    def cov(k, j):  # components of [D^M_{X_k} S](X_j)
        return (dS[:, k, :, j] + np.einsum("pil,pl->pi", Gamma[:, :, k, :], S0[:, :, j])
                - np.einsum("pil,pl->pi", S0, Gamma[:, :, k, j]))

    res_coord = cov(0, 1) - cov(1, 0)                # components in X_i basis
    res_amb = np.einsum("pi,pid->pd", res_coord, fb.tangents)
    det_C = np.linalg.det(fb.param_dirs)             # rescale (X_1, X_2) -> (e_1, e_2)
    return np.linalg.norm(res_amb, axis=1) * np.abs(det_C)
