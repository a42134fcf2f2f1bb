"""Minkowski gauges and their duals.

A gauge F here is a positive, positively 1-homogeneous function on
R^d \\ {0}, smooth away from the origin, with D^2 F positive definite on
the orthogonal complement of the radial direction (ellipticity).  The
closed-form families are the Euclidean norm, quadratic gauges
F(u) = sqrt(<A u, u>) for symmetric positive definite A, and a smoothed
quartic gauge; arbitrary gauges enter through callbacks with a
finite-difference fallback for missing derivatives.  A callback maps a
batch U (m, d) to F (m,), grad F (m, d) or D^2 F (m, d, d), and a fallback
evaluates its stencil for all rows in one callback call.

Every family evaluates F, grad F and D^2 F in one pass (`_jet`); the dual's
numeric ascent takes one such jet per step, at its Newton candidate (none
where the Newton solve rejects the step).  A numeric dual takes the jet of
its whole start grid once, when it is built.  An ascent in d >= 3 starts
from its best grid row's jet.  In d = 2 the dual tabulates the inverse Gauss
map of the curve {F = 1} on its grid, and an ascent takes one jet at the
direction that table gives for the angle of v: F and grad F alone for a
closed-form base, whose D^2 F waits until a row iterates.  An ascent takes
its first stopping test before it builds any lockstep state, so a batch
whose rows all retire at their start returns after that one jet.

The dual gauge F°(v) = sup_{u != 0} <u, v> / F(u) is available in closed
form for the Euclidean and quadratic families and through constrained
ascent on the unit sphere otherwise.  The ascent also returns the
maximizer u* normalized to F(u*) = 1, which is exactly grad F°(v), and
Legendre duality gives D^2 F°(v) from D^2 F(u*).  The Newton step and the
Legendre Hessian both solve a bordered system [[H, u], [u^T, 0]], which keeps
the unknown in u^perp without a tangent frame.  `DualNorm.as_norm` makes
the dual a gauge (family "dual") whose value, gradient and Hessian come
from one ascent per batch, so the bidual F°° is one more ascent over it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergence, ZeroDirection
from .fd import _central_diffs, _coordinate_axes, _hessians

ZERO_FLOOR = 1e-12

# entries of the (rows x grid) block the numeric dual's grid scan forms at
# once: 256 KiB stays in cache (4 MiB blocks made the scan 3-4x slower)
_SCAN_ENTRIES = 1 << 15

# finite-difference steps for the custom-norm fallback
_FD_GRAD_STEP = 1e-5
_FD_HESS_VALUE_STEP = 1e-4

# the dual ascent's Armijo fallback: sufficient-increase constant, backtracking
# factor, and the first (and largest) step along the projected gradient
_ARMIJO_C, _BACKTRACK, _INITIAL_STEP = 1e-4, 0.5, 1.0


def _zero_direction() -> ZeroDirection:
    return ZeroDirection(f"direction norm below floor {ZERO_FLOOR:g}")


def _check_direction(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if (np.einsum("...i,...i->...", u, u) < ZERO_FLOOR * ZERO_FLOOR).any():
        raise _zero_direction()
    return u


def _shaped(u, dim: int) -> np.ndarray:
    """u as a float array, one direction (dim,) or a batch (m, dim); any other
    shape raises ValueError."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (dim,) or u.ndim > 2:
        raise ValueError(f"a gauge of dim {dim} takes a direction ({dim},) or a batch "
                         f"(m, {dim}), not an array of shape {u.shape}")
    return u


def _per_direction(method):
    """Lift a method on a batch U (m, d) of nonzero rows to one direction (d,)
    or a batch (m, d); any other shape raises ValueError.  For one direction,
    each (m,) output becomes a float and each (m, ...) output its row; a tuple
    of outputs is lifted item by item."""
    @functools.wraps(method)
    def lifted(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim != 1 or len(u) != self.dim:
            return method(self, _check_direction(_shaped(u, self.dim)))
        # one row: a single dot product checks it (NaN passes, as in a batch)
        if u.dot(u) < ZERO_FLOOR * ZERO_FLOOR:
            raise _zero_direction()
        out = method(self, u[None, :])
        return tuple(map(_row, out)) if isinstance(out, tuple) else _row(out)
    return lifted


def _row(out: np.ndarray):
    return float(out[0]) if out.ndim == 1 else out[0]


def _hypersphere_grid(dim: int, count: int) -> np.ndarray:
    """Deterministic, roughly uniform direction grid on S^{dim-1}."""
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        # Fibonacci lattice
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        phi = np.pi * (1.0 + math.sqrt(5.0)) * i
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class MinkowskiNorm:
    """Positively 1-homogeneous elliptic gauge on R^d.

    Construct through the factory classmethods :meth:`euclidean`,
    :meth:`quadratic`, :meth:`quartic`, or :meth:`custom`, or from a dual
    through :meth:`DualNorm.as_norm`.  Instances are immutable and safe to
    share between threads.
    """

    def __init__(self, dim: int, family: str, *, matrix: np.ndarray | None = None,
                 quartic_eps: float | None = None,
                 value_fn: Callable | None = None,
                 grad_fn: Callable | None = None,
                 hess_fn: Callable | None = None,
                 dual: "DualNorm | None" = None,
                 label: str | None = None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"a gauge needs dim >= 1, not {self.dim}")
        self.family = family
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hess_fn = hess_fn
        self._dual = dual
        self.quartic_eps = quartic_eps
        self.label = label or family
        self.matrix = matrix
        self.matrix_inv = None if matrix is None else np.linalg.inv(matrix)

    # ----------------------------------------------------------------- factories

    @classmethod
    def euclidean(cls, dim: int) -> "MinkowskiNorm":
        return cls(dim, "euclidean")

    @classmethod
    def quadratic(cls, matrix) -> "MinkowskiNorm":
        """sqrt(<A u, u>) for a symmetric positive definite matrix A."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise ValueError("quadratic matrix must be square and not empty")
        if not np.allclose(matrix, matrix.T, atol=1e-12):
            raise ValueError("quadratic matrix must be symmetric")
        if np.linalg.eigvalsh(matrix)[0] <= 0:
            raise ValueError("quadratic matrix must be positive definite")
        return cls(matrix.shape[0], "quadratic", matrix=matrix)

    @classmethod
    def quartic(cls, dim: int = 2, eps: float = 0.05) -> "MinkowskiNorm":
        """Smoothed quartic gauge (sum_i u_i^4 + eps |u|^4)^(1/4).

        Elliptic for eps > 0; strictly non-quadratic, so it separates the
        quadratic family in the duality-pairing diagnostics.
        """
        if not 0.0 < eps < math.inf:
            raise ValueError(f"quartic gauge needs 0 < eps < inf for ellipticity, not {eps}")
        return cls(dim, "quartic", quartic_eps=float(eps))

    @classmethod
    def custom(cls, dim: int, value: Callable, gradient: Callable | None = None,
               hessian: Callable | None = None, label: str = "custom") -> "MinkowskiNorm":
        """Gauge from callbacks on batches: value(U), gradient(U) and hessian(U)
        take U (m, d) of nonzero rows and return (m,), (m, d) and (m, d, d).
        Missing derivatives fall back to central finite differences
        (Richardson-extrapolated once) whose stencil, for all m rows, is one
        callback call: a Hessian takes at most three calls whatever m."""
        return cls(dim, "custom", value_fn=value, grad_fn=gradient,
                   hess_fn=hessian, label=label)

    # ----------------------------------------------------------------- evaluation

    # Unchecked evaluation of a batch U (m, d) of nonzero rows; value, grad and
    # hess check their input and take one direction (d,) or a batch (m, d).

    def _jet(self, U: np.ndarray, order: int = 2) -> tuple:
        """(F(u), grad F(u), D^2 F(u)) up to `order` derivatives: a tuple of
        order + 1 arrays (m,), (m, d), (m, d, d).  grad F is 0-homogeneous;
        D^2 F is (-1)-homogeneous, with u in its kernel.  Each family shares
        its intermediates (|u|, U A, the quartic G) between the three."""
        if self.family == "euclidean":
            F = np.linalg.norm(U, axis=1)
            if order == 0:
                return (F,)
            uh = U / F[:, None]
            if order == 1:
                return F, uh
            eye = np.eye(self.dim)[None, :, :]
            return F, uh, (eye - uh[:, :, None] * uh[:, None, :]) / F[:, None, None]
        if self.family == "quadratic":
            # U.dot(A): the same product as U @ A, with less overhead on the
            # single rows of the numeric dual's ascent
            Au = U.dot(self.matrix)
            F = np.sqrt(np.einsum("mi,mi->m", Au, U))
            if order == 0:
                return (F,)
            gF = Au / F[:, None]
            if order == 1:
                return F, gF
            return F, gF, (self.matrix[None, :, :] / F[:, None, None]
                           - Au[:, :, None] * Au[:, None, :] / (F ** 3)[:, None, None])
        if self.family == "quartic":
            eps = self.quartic_eps
            U2 = U * U
            r2 = np.add.reduce(U2, axis=1)              # np.sum without its wrapper
            G = np.add.reduce(U ** 4, axis=1) + eps * r2 ** 2
            F = G ** 0.25
            if order == 0:
                return (F,)
            er2 = eps * r2[:, None]
            P = U ** 3 + er2 * U                      # grad G / 4
            F3 = G ** 0.75
            gF = P / F3[:, None]
            if order == 1:
                return F, gF
            # D^2 F = (diag(3 u^2 + eps |u|^2) + 2 eps u u^T) / F^3
            #         - 3 grad F grad F^T / F, filled in place
            H = U[:, :, None] * U[:, None, :]
            H *= 2.0 * eps
            H.reshape(len(U), self.dim ** 2)[:, ::self.dim + 1] += 3.0 * U2 + er2
            H /= F3[:, None, None]
            gg = gF[:, :, None] * gF[:, None, :]
            gg *= (3.0 / F)[:, None, None]
            H -= gg
            return F, gF, H
        if self.family == "dual":
            return self._dual._jet(U, order)
        # custom: one call of a callback per batch, or per stencil of a fallback
        F = np.asarray(self._value_fn(U), dtype=float)
        if order == 0:
            return (F,)
        # steps scale with max(1, |u|): a row-wise matmul has the bits of |u|
        scale = np.maximum(1.0, np.sqrt((U[:, None, :] @ U[:, :, None])[:, 0, 0]))
        h = _FD_GRAD_STEP * scale
        if self._grad_fn is not None:
            gF = np.asarray(self._grad_fn(U), dtype=float)
        else:
            gF = _central_diffs(self._value_fn, U, _coordinate_axes(U), (h, 0.5 * h))
        if order == 1:
            return F, gF
        if self._hess_fn is not None:
            H = np.asarray(self._hess_fn(U), dtype=float)
        elif self._grad_fn is not None:
            # row i of H is the derivative of grad F along e_i
            H = _central_diffs(self._grad_fn, U, _coordinate_axes(U), (h, 0.5 * h))
        else:
            # from values, at a larger step that balances roundoff
            h = _FD_HESS_VALUE_STEP * scale
            return F, gF, _hessians(self._value_fn, U, (h, 0.5 * h), F)
        return F, gF, 0.5 * (H + np.swapaxes(H, 1, 2))

    def _value(self, U: np.ndarray) -> np.ndarray:
        return self._jet(U, 0)[0]

    def _grad(self, U: np.ndarray) -> np.ndarray:
        return self._jet(U, 1)[1]

    def _hess(self, U: np.ndarray) -> np.ndarray:
        return self._jet(U)[2]

    value = _per_direction(_value)
    grad = _per_direction(_grad)
    hess = _per_direction(_hess)

    @_per_direction
    def eval_with_maximizer(self, U):
        """(F(u), grad F(u)), as DualNorm.eval_with_maximizer gives them for
        F°: grad F(u) maximizes <u, v> over F°(v) <= 1 (F is its bidual)."""
        return self._jet(U, 1)

    # ----------------------------------------------------------------- diagnostics

    @_per_direction
    def restricted_hessian_min_eig(self, U: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of D^2 F(u) restricted to the hyperplane u^perp.

        Positive exactly when the gauge is elliptic at u; for the Euclidean
        norm the restricted operator is the identity, so the value is 1.
        """
        Uh = U / np.linalg.norm(U, axis=1, keepdims=True)
        Q = _orthonormal_complement(Uh)
        B = np.swapaxes(Q, 1, 2) @ self._hess(Uh) @ Q
        return np.linalg.eigvalsh(0.5 * (B + np.swapaxes(B, 1, 2)))[:, 0]

    @_per_direction
    def euler_residual(self, U: np.ndarray) -> np.ndarray:
        """|<grad F(u), u> - F(u)|, zero for exact 1-homogeneity."""
        # row-wise matmul: the same dot products, bit for bit, as for one row
        F, gF = self._jet(U, 1)
        return np.abs((gF[:, None, :] @ U[:, :, None])[:, 0, 0] - F)

    @_per_direction
    def radial_kernel_residual(self, U: np.ndarray) -> np.ndarray:
        """max |D^2 F(u) u|, zero because the Hessian kills the radial direction."""
        return np.max(np.abs(self._hess(U) @ U[:, :, None]), axis=(1, 2))

    def wulff_point(self, u) -> "WulffPoint":
        """Point grad F(u) of the unit dual level set, for u scaled to |u| = 1;
        for a batch (m, d), one point per row."""
        u = _check_direction(_shaped(u, self.dim))
        uh = u / (np.linalg.norm(u) if u.ndim == 1 else np.linalg.norm(u, axis=1, keepdims=True))
        return WulffPoint(direction=uh, point=self.grad(uh))

    def dual(self, mode: str = "auto", options: "NumericDualOptions | None" = None) -> "DualNorm":
        return DualNorm(self, mode=mode, options=options)


def _orthonormal_complement(Uh: np.ndarray) -> np.ndarray:
    """(m, d, d-1): the columns of slice i are an orthonormal basis of
    Uh[i]^perp, for unit rows Uh (m, d) (Householder frame)."""
    W = Uh.copy()
    # uh - e0, or uh + e0: its first entry uh_0 - sign(uh_0) in Parlett's
    # form -|uh_1..|^2 / (uh_0 + sign(uh_0)), which does not cancel near ±e0
    W[:, 0] = -np.einsum("md,md->m", Uh[:, 1:], Uh[:, 1:]) \
        / (Uh[:, 0] + np.where(Uh[:, 0] >= 0, 1.0, -1.0))
    wn2 = np.einsum("md,md->m", W, W)
    # w = 0 (the identity frame) where uh = e0
    W /= np.sqrt(np.where(wn2 < 1e-28, np.inf, wn2))[:, None]
    # column 0 of H = I - 2 w w^T is ±uh; the rest span the complement
    return np.eye(Uh.shape[1])[None, :, 1:] - (2.0 * W)[:, :, None] * W[:, None, 1:]


@dataclass(frozen=True)
class WulffPoint:
    """A unit direction and its image under grad F (a point of {F° = 1})."""
    direction: np.ndarray
    point: np.ndarray


@dataclass(frozen=True)
class NumericDualOptions:
    grid_size: int | None = None   # default: 2^13 directions in d = 2, 2^12 in d >= 3
    grad_tol: float = 1e-10
    max_iter: int = 400

    def __post_init__(self):
        # the d = 2 table needs grid directions that enclose the origin
        if self.grid_size is not None and not (_number(self.grid_size, integer=True)
                                               and self.grid_size >= 3):
            raise ValueError(f"grid_size must be None or an integer >= 3, not {self.grid_size!r}")
        if not (_number(self.grad_tol) and 0.0 < self.grad_tol < math.inf):
            raise ValueError(f"grad_tol must be finite and > 0, not {self.grad_tol!r}")
        if not (_number(self.max_iter, integer=True) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, not {self.max_iter!r}")


def _number(x, integer: bool = False) -> bool:
    """x is a real number (an integer if `integer`), and not a bool."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(x, kinds) and not isinstance(x, bool)


class Ascent(NamedTuple):
    """Result of one lockstep dual ascent over a batch of m directions."""
    value: np.ndarray       # F°(v), (m,)
    maximizer: np.ndarray   # u* with F(u*) = 1 and <u*, v> = F°(v), (m, d)
    iterations: int         # the most loop iterations any row took
    fallbacks: int          # rows that took at least one Armijo step


class DualNorm:
    """Dual gauge F°(v) = sup_{u != 0} <u, v>/F(u).

    mode "closed" evaluates the Euclidean gauge, or for a quadratic base
    sqrt(<A u, u>) the quadratic gauge of A^-1; mode "numeric"
    maximizes over the unit sphere (a start from the grid, then safeguarded
    spherical Newton with an Armijo gradient fallback).  "auto" picks
    closed form when one exists.

    The numeric ascent runs a whole batch (m, d) in lockstep.  In d >= 3
    (Fibonacci or random grids of 2^12 directions by default) each row
    starts at the grid direction that scores best, with that direction's F,
    grad F and D^2 F, which the constructor takes for the whole grid in one
    base jet; it also divides the grid by F once, so the scan scores a block
    of rows with one product.  In d = 2 the maximizer u* is where grad F(u*)
    points along v: the inverse Gauss map of the convex curve {F = 1}, which
    the constructor tabulates from one base jet of 2^13 directions by
    default (`_gauss_map_table`; ValueError if F is not convex there).  A row
    reads its start with one arctan2, one searchsorted and one Horner cubic,
    within about 3e-12 rad of u*, and takes one base jet there (F and grad F
    for a closed-form base; D^2 F follows, for the batch, if a row
    iterates).  Every
    iteration solves the bordered Newton systems of all rows still iterating
    in one batched call,
    evaluates F, grad F and D^2 F of the base gauge once, at the Newton
    candidates of the rows whose step the solve did not reject (an accepted
    row keeps its candidate's jet), backtracks only the rows whose step is
    rejected (a row whose Hessian raises rejects its step alone; a row the
    line search moves takes a fresh jet), and retires each row when its
    projected gradient falls below grad_tol.  So a step costs one base jet.
    A 2D direction of the quartic or of a quadratic gauge of moderate
    anisotropy retires at its start, with no Newton step; a strongly
    anisotropic one, such as diag(1, 100), takes at most one.  The first
    stopping test comes before any lockstep state, so a batch that retires
    at its start returns there: one direction costs about 43 us for a
    numeric quadratic and 51 us for the quartic (one core of a shared Xeon,
    NumPy 2.4).  A single direction is a batch of one.
    """

    def __init__(self, base: MinkowskiNorm, mode: str = "auto",
                 options: NumericDualOptions | None = None):
        if mode not in ("auto", "closed", "numeric"):
            raise ValueError(f"unknown dual mode {mode!r}")
        if mode == "auto":
            mode = "closed" if base.family in ("euclidean", "quadratic") else "numeric"
        if mode == "closed" and base.family not in ("euclidean", "quadratic"):
            raise ValueError("closed-form dual exists only for euclidean/quadratic")
        self.base = base
        self.mode = mode
        self.dim = base.dim
        self.options = options or NumericDualOptions()
        # the dual of the Euclidean norm is itself; of sqrt(<A u, u>), it is
        # sqrt(<A^-1 v, v>): a closed dual evaluates that gauge (A^-1 is SPD
        # because A is, so it skips the factory's checks)
        self._closed = None
        if self.mode == "closed":
            self._closed = MinkowskiNorm(self.dim, base.family, matrix=base.matrix_inv)
        elif self.dim == 2:
            self._table = _gauss_map_table(base, self.options.grid_size or 1 << 13)
        else:
            self._grid = _hypersphere_grid(self.dim, self.options.grid_size or 1 << 12)
            # every ascent scans this grid, and a grid-row start takes its jet from here
            self._grid_jet = _jet_rows(base, self._grid)
            # the scan scores <u, v>/F(u) as <u/F(u), v>: one product per block
            self._grid_scaled = self._grid / self._grid_jet[0][:, None]

    # -- evaluation ---------------------------------------------------------

    def _jet(self, V: np.ndarray, order: int = 2) -> tuple:
        """(F°(v), grad F°(v), D^2 F°(v)) of a batch V (m, d), up to `order`
        derivatives, as MinkowskiNorm._jet gives them.  Numerically, one
        ascent gives F°(v) and its maximizer u* = grad F°(v), and Legendre
        duality gives the Hessian from D^2 F(u*):

            D^2 F°(v) = S N S^T / F°(v),  S = I - u* v^T / F°(v),

        with N = Q (Q^T D^2 F(u*) Q)^-1 Q^T for Q an orthonormal basis of
        u*^perp: the top-left d x d block of [[D^2 F(u*), û], [û^T, 0]]^-1
        for û = u* / |u*|, from one bordered inverse.  (grad F(u*) = v / F°(v),
        and D^2 of F°^2 / 2 inverts D^2 of F^2 / 2 at F°(v) u*.)"""
        if self._closed:
            return self._closed._jet(V, order)
        q, Us = self._ascend(V)[:2]
        if order < 2:
            return (q, Us)[:order + 1]
        uh = Us / np.linalg.norm(Us, axis=1, keepdims=True)
        N = np.linalg.inv(_bordered(self.base._hess(Us), uh))[:, :-1, :-1]
        S = np.eye(self.dim) - Us[:, :, None] * (V / q[:, None])[:, None, :]
        return q, Us, S @ N @ np.swapaxes(S, 1, 2) / q[:, None, None]

    @_per_direction
    def value(self, V):
        """F°(v)."""
        return self._jet(V, 0)[0]

    @_per_direction
    def grad(self, V):
        """grad F°(v): the maximizer u* with F(u*) = 1 (envelope theorem)."""
        return self._jet(V, 1)[1]

    @_per_direction
    def eval_with_maximizer(self, V):
        """(F°(v), u*) with F(u*) = 1 and <u*, v> = F°(v); for a batch (m, d),
        the arrays (m,) and (m, d)."""
        return self._jet(V, 1)

    def as_norm(self, label: str | None = None) -> MinkowskiNorm:
        """The dual as a gauge usable wherever a MinkowskiNorm is, evaluated
        in batches by this DualNorm: its value is F°, its gradient the
        maximizer u*, and its Hessian the Legendre one of `_jet`, so a numeric
        dual gives all three from one ascent per batch."""
        return MinkowskiNorm(self.dim, "dual", dual=self,
                             label=label or f"dual[{self.base.label}]")

    # -- numeric path -------------------------------------------------------

    def _ascend(self, V: np.ndarray) -> Ascent:
        """Maximize <u, v>/F(u) on the unit sphere for every row v of V (m, d):
        a start (`_start`), then safeguarded spherical Newton with
        an Armijo gradient fallback, all rows in lockstep.  The first retire
        test comes before any lockstep state: when every row passes it at its
        start, as the default-grid rows of a planar quartic do, the ascent
        returns there, with the bits of one loop iteration and no
        bookkeeping."""
        opt = self.options
        base = self.base
        m, d = V.shape
        if m == 0:
            return Ascent(np.empty(0), np.empty((0, d)), 0, 0)
        if not np.isfinite(V).all():
            # a direction with a NaN or infinite entry has no maximizer: it
            # takes NaN and the rest ascend without it
            finite = np.isfinite(V).all(axis=1)
            q_out, U_out = np.full(m, np.nan), np.full((m, d), np.nan)
            rest = self._ascend(V[finite])
            q_out[finite], U_out[finite] = rest.value, rest.maximizer
            return rest._replace(value=q_out, maximizer=U_out)
        U, q, F, gF, HF = self._start(V)
        g, gu, gt, gn = _projected_gradient(V, U, q, F, gF)
        done = gn < opt.grad_tol
        if np.count_nonzero(done) == m:
            return Ascent(q, U / F[:, None], 1, 0)
        if HF is None:
            # a closed-form d = 2 start takes no D^2 F: only Newton steps need it
            HF = _jet_rows(base, U)[2]
        q_out, U_out = np.empty(m), np.empty((m, d))
        rows = np.arange(m)                   # input row of each active row
        step = np.full(m, _INITIAL_STEP)      # Armijo step memory per row
        fell_back = np.zeros(m, dtype=bool)
        for it in range(opt.max_iter):
            if it:
                g, gu, gt, gn = _projected_gradient(V, U, q, F, gF)
                done = gn < opt.grad_tol
            retired = np.count_nonzero(done)
            if retired:
                q_out[rows[done]], U_out[rows[done]] = q[done], U[done] / F[done, None]
                if retired == len(rows):
                    return Ascent(q_out, U_out, it + 1, np.count_nonzero(fell_back))
                keep = ~done
                rows, U, V, q, step, F, gF, HF, g, gu, gt, gn = (
                    x[keep] for x in (rows, U, V, q, step, F, gF, HF, g, gu, gt, gn))
            un, ok = _spherical_newton(U, q, F, gF, HF, g, gu)
            kept = np.count_nonzero(ok)
            if kept == len(ok):
                Fn, gFn, HFn = _jet_rows(base, un)
            else:
                # a rejected step is never accepted: only the others take a jet
                Fn, gFn, HFn = F.copy(), gF.copy(), HF.copy()
                if kept:
                    Fn[ok], gFn[ok], HFn[ok] = _jet_rows(base, un[ok])
            qn = np.einsum("md,md->m", un, V) / Fn
            accept = ok & (qn > q)
            accepted = np.count_nonzero(accept)
            if accepted < len(ok):
                # near convergence the Newton step shrinks the gradient even
                # when the objective gain is below one ulp; accept those too
                dn = un - U
                tiny = np.sqrt(np.einsum("md,md->m", dn, dn)) < 1e-6
                accept |= ok & tiny & (qn >= q - 8e-16 * np.maximum(1.0, np.abs(q)))
                accepted = np.count_nonzero(accept)
            if accepted == len(ok):
                U, q, F, gF, HF = un, qn, Fn, gFn, HFn
                continue
            a = accept[:, None]
            U, q, F = np.where(a, un, U), np.where(accept, qn, q), np.where(accept, Fn, F)
            gF, HF = np.where(a, gFn, gF), np.where(a[:, :, None], HFn, HF)
            rejected = np.flatnonzero(~accept)
            fell_back[rows[rejected]] = True
            stalled = self._armijo(U, V, q, step, gt, gn, rejected)
            moved = np.setdiff1d(rejected, stalled)
            if moved.size:
                F[moved], gF[moved], HF[moved] = _jet_rows(base, U[moved])
            if stalled.size:
                if np.any(gn[stalled] >= 1e4 * opt.grad_tol):
                    raise NonConvergence("dual ascent line search stalled")
                # stagnated at the floating-point floor: these rows are done
                q_out[rows[stalled]], U_out[rows[stalled]] = q[stalled], U[stalled] / F[stalled, None]
                keep = np.ones(len(U), dtype=bool)
                keep[stalled] = False
                if not keep.any():
                    return Ascent(q_out, U_out, it + 1, np.count_nonzero(fell_back))
                rows, U, V, q, step, F, gF, HF = (
                    x[keep] for x in (rows, U, V, q, step, F, gF, HF))
        raise NonConvergence(
            f"dual ascent did not reach tol {opt.grad_tol:g} in {opt.max_iter} iters")

    def _start(self, V: np.ndarray) -> tuple:
        """(U, q, F, grad F, D^2 F) at the start of every row v of V (m, d).  In
        d = 2, the direction the constructor's table maps the angle of v to,
        with one jet taken there, whose D^2 F is None for a closed-form base
        (`_ascend` takes it if the batch iterates); in d >= 3, the
        grid row that scores best, with the jet the constructor took there."""
        if self.dim == 2:
            T = self._table
            a = T[0, 0] + np.mod(np.arctan2(V[:, 1], V[:, 0]) - T[0, 0], 2.0 * np.pi)
            i = T[0].searchsorted(a, "right") - 1
            phi, inv, c1, c2, c3 = T.take(i, axis=1)
            x = (a - phi) * inv
            s = np.minimum(np.maximum(((c3 * x + c2) * x + c1) * x, 0.0), 1.0)
            theta = (2.0 * np.pi / T.shape[1]) * (i + s)
            U = np.empty((len(V), 2))
            np.cos(theta, out=U[:, 0])
            np.sin(theta, out=U[:, 1])
            # a closed-form gauge takes D^2 F later, if the batch iterates; a
            # custom or dual gauge takes it here, where it shares the callback
            # calls or the ascent that give F and grad F
            if self.base.family in ("custom", "dual"):
                F, gF, HF = _jet_rows(self.base, U)
            else:
                (F, gF), HF = _jet_rows(self.base, U, 1), None
            return U, np.einsum("md,md->m", U, V) / F, F, gF, HF
        grid, scaled_T = self._grid, self._grid_scaled.T
        m = len(V)
        start = np.empty(m, dtype=np.intp)
        chunk = max(1, _SCAN_ENTRIES // len(grid))
        for s in range(0, m, chunk):
            start[s:s + chunk] = (V[s:s + chunk] @ scaled_T).argmax(axis=1)
        # the iterates are unit rows, so the base gauge skips its checks
        U = grid[start]
        F, gF, HF = (x[start] for x in self._grid_jet)
        return U, np.einsum("md,md->m", U, V) / F, F, gF, HF

    def _armijo(self, U, V, q, step, gt, gn, rows) -> np.ndarray:
        """Armijo backtracking along the projected gradient gt for the active
        rows `rows`, updating U, q and the step memory in place; returns the
        rows that found no ascent step."""
        t = step[rows]
        stalled = []
        while rows.size:
            live = t > 1e-18
            if not live.all():
                stalled.append(rows[~live])
                rows, t = rows[live], t[live]
                continue
            cand = U[rows] + t[:, None] * gt[rows]
            cand /= np.sqrt(np.einsum("md,md->m", cand, cand))[:, None]
            qc = np.einsum("md,md->m", cand, V[rows]) / self.base._value(cand)
            qr = q[rows]
            up = (qc > qr) & (qc >= qr + _ARMIJO_C * t * gn[rows] * gn[rows])
            moved = rows[up]
            U[moved], q[moved] = cand[up], qc[up]
            step[moved] = np.minimum(2.0 * t[up], _INITIAL_STEP)
            rows, t = rows[~up], t[~up] * _BACKTRACK
        return np.concatenate(stalled) if stalled else rows


def _gauss_map_table(base: MinkowskiNorm, n: int) -> np.ndarray:
    """(5, n): the inverse Gauss map theta(phi) of a planar gauge on the grid
    theta_i = 2 pi i / n, for phi the angle of grad F(u(theta)), which rises
    by 2 pi around a convex gauge.  Column i holds phi_i (summed from
    increments mod 2 pi), 1 / (phi_{i+1} - phi_i), and c1, c2, c3 of the
    cubic Hermite H(x) = ((c3 x + c2) x + c1) x on [0, 1] from H(1) = 1 and
    the scaled slopes of theta(phi) at both ends (H(x) = x where one is not
    finite).  phi' = <J grad F, D^2 F t> / |grad F|^2 for t = u', or, if the
    grid's Hessian raises, the periodic fourth-order difference of phi - theta."""
    grid = _hypersphere_grid(2, n)
    h = 2.0 * np.pi / n
    try:
        gF, HF = base._jet(grid)[1:]
    except Exception:
        gF, HF = base._jet(grid, 1)[1], None
    ang = np.arctan2(gF[:, 1], gF[:, 0])
    dphi = np.mod(np.diff(ang, append=ang[0]), 2.0 * np.pi)
    # a multiple of 2 pi (or NaN): more than one turn where the angle falls
    if not dphi.sum() < 3.0 * np.pi:
        raise ValueError(f"the gradient angle of gauge {base.label!r} does not rise once "
                         f"around the circle on {n} directions: it is not convex")
    phi = ang[0] + np.concatenate([[0.0], np.cumsum(dphi[:-1])])
    if HF is None:
        psi = phi - h * np.arange(n)    # periodic
        slope = 1.0 + (8.0 * (np.roll(psi, -1) - np.roll(psi, 1))
                       - (np.roll(psi, -2) - np.roll(psi, 2))) / (12.0 * h)
    else:
        JgF = np.column_stack([-gF[:, 1], gF[:, 0]])
        T = np.column_stack([-grid[:, 1], grid[:, 0]])
        slope = np.einsum("md,mde,me->m", JgF, HF, T) / np.einsum("md,md->m", gF, gF)
    with np.errstate(divide="ignore", invalid="ignore"):
        m0, m1 = dphi / (h * slope), dphi / (h * np.roll(slope, -1))
    cubic = np.isfinite(m0) & np.isfinite(m1)
    m0, m1 = np.where(cubic, m0, 1.0), np.where(cubic, m1, 1.0)
    inv = np.divide(1.0, dphi, out=np.zeros(n), where=dphi > 0.0)
    return np.stack([phi, inv, m0, 3.0 - 2.0 * m0 - m1, m0 + m1 - 2.0])


def _jet_rows(base: MinkowskiNorm, U: np.ndarray, order: int = 2) -> tuple:
    """F, grad F and D^2 F of the unit rows U (m, d), up to `order`
    derivatives, from one call of the base gauge.  If that call raises, F and
    grad F are evaluated again, and the Hessians by halves of the batch: a
    row whose Hessian raises (say, a custom Hessian callback, or a dual gauge
    whose D^2 F(u*) is singular on u*^perp) gets NaN, so that row alone
    rejects its Newton step."""
    try:
        return base._jet(U, order)
    except Exception:
        F, gF = base._jet(U, 1)
        return F, gF, _halved_hess(base, U)


def _halved_hess(base: MinkowskiNorm, U: np.ndarray) -> np.ndarray:
    """D^2 F of rows U whose Hessian raised as one batch: each half takes one
    call and is halved again if it raises, until a raising row stands alone
    and gets NaN (about 2 log2(m) calls per such row, not one per row)."""
    if len(U) == 1:
        return np.full((1, base.dim, base.dim), np.nan)
    halves = []
    for half in np.array_split(U, 2):
        try:
            halves.append(base._hess(half))
        except Exception:
            halves.append(_halved_hess(base, half))
    return np.concatenate(halves)


def _projected_gradient(V, U, q, F, gF) -> tuple:
    """(g, <g, u>, gt, |gt|) for q = <u, v>/F(u) at the unit rows U: g is the
    gradient of q (m, d), gt its projection on u^perp, which the retire test
    compares with grad_tol."""
    g = V / F[:, None] - (q / F)[:, None] * gF
    gu = np.einsum("md,md->m", g, U)
    gt = g - gu[:, None] * U
    return g, gu, gt, np.sqrt(np.einsum("md,md->m", gt, gt))


def _spherical_newton(U, q, F, gF, HF, g, gu):
    """One batched Newton step for the optimality system of <u, v>/F(u) on the
    unit sphere: (new rows, ok).  The step x and a multiplier solve the
    bordered system [[D^2 q - <g, u> I, u], [u^T, 0]] (x, lam) = (-grad q, 0),
    the tangent Newton system with x kept in u^perp.  A row whose step is
    singular, non-finite, longer than 0.5 or degenerate gets ok False, and the
    caller keeps its iterate."""
    # D^2 q = -(g gF^T + gF g^T)/F - (q/F) D^2 F
    gg = g[:, :, None] * gF[:, None, :]
    Hq = (-(gg + np.swapaxes(gg, 1, 2)) / F[:, None, None] - (q / F)[:, None, None] * HF
          - gu[:, None, None] * np.eye(U.shape[1]))
    x = _solve_rows(_bordered(Hq, U), np.column_stack([-g, np.zeros(len(U))]))[:, :-1]
    ok = np.sqrt(np.einsum("kd,kd->k", x, x)) <= 0.5   # False if non-finite
    un = U + np.where(ok[:, None], x, 0.0)
    # x is orthogonal to the unit row u (to round-off), so |un| >= 1
    nn = np.sqrt(np.einsum("kd,kd->k", un, un))
    ok &= nn >= 1e-12
    return un / nn[:, None], ok


def _bordered(H: np.ndarray, U: np.ndarray) -> np.ndarray:
    """[[H, u], [u^T, 0]] (k, d+1, d+1) for H (k, d, d) and rows U (k, d)."""
    K = np.zeros((len(U), U.shape[1] + 1, U.shape[1] + 1))
    K[:, :-1, :-1], K[:, :-1, -1], K[:, -1, :-1] = H, U, U
    return K


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x[i] with A[i] x[i] = b[i] for A (k, n, n), b (k, n); NaN where A[i] is
    singular."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        singular = ~(np.abs(np.linalg.det(A)) > 0.0)
        x = np.linalg.solve(np.where(singular[:, None, None], np.eye(A.shape[1]), A),
                            b[:, :, None])[:, :, 0]
        x[singular] = np.nan
        return x
