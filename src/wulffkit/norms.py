"""Minkowski gauges and their duals.

A gauge F here is a positive, positively 1-homogeneous function on
R^d \\ {0}, smooth away from the origin, with D^2 F positive definite on
the orthogonal complement of the radial direction (ellipticity).  The
closed-form families are the Euclidean norm, quadratic gauges
F(u) = sqrt(<A u, u>) for symmetric positive definite A, and a smoothed
quartic gauge; arbitrary gauges enter through callbacks with a
finite-difference fallback for missing derivatives.

The dual gauge F°(v) = sup_{u != 0} <u, v> / F(u) is available in closed
form for the Euclidean and quadratic families and through constrained
ascent on the unit sphere otherwise.  The ascent also returns the
maximizer u* normalized to F(u*) = 1, which is exactly grad F°(v).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, ZeroDirection
from .fd import central_diff

ZERO_FLOOR = 1e-12

# finite-difference steps for the custom-norm fallback
_FD_GRAD_STEP = 1e-5
_FD_HESS_VALUE_STEP = 1e-4


def _check_direction(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    norms = np.linalg.norm(u, axis=-1)
    if np.any(norms < ZERO_FLOOR):
        raise ZeroDirection(f"direction norm below floor {ZERO_FLOOR:g}")
    return u


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
    :meth:`quadratic`, :meth:`quartic`, or :meth:`custom`.  Instances are
    immutable and safe to share between threads.
    """

    def __init__(self, dim: int, family: str, *, matrix: np.ndarray | None = None,
                 quartic_eps: float | None = None,
                 value_fn: Callable | None = None,
                 grad_fn: Callable | None = None,
                 hess_fn: Callable | None = None,
                 label: str | None = None):
        self.dim = int(dim)
        self.family = family
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hess_fn = hess_fn
        self.quartic_eps = quartic_eps
        self.label = label or family
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (self.dim, self.dim):
                raise ValueError("matrix shape does not match dim")
            if not np.allclose(matrix, matrix.T, atol=1e-12):
                raise ValueError("quadratic matrix must be symmetric")
            eig = np.linalg.eigvalsh(matrix)
            if eig[0] <= 0:
                raise ValueError("quadratic matrix must be positive definite")
            self.matrix = matrix
            self.matrix_inv = np.linalg.inv(matrix)
        else:
            self.matrix = None
            self.matrix_inv = None

    # ----------------------------------------------------------------- factories

    @classmethod
    def euclidean(cls, dim: int) -> "MinkowskiNorm":
        return cls(dim, "euclidean")

    @classmethod
    def quadratic(cls, matrix) -> "MinkowskiNorm":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix.shape[0], "quadratic", matrix=matrix)

    @classmethod
    def quartic(cls, dim: int = 2, eps: float = 0.05) -> "MinkowskiNorm":
        """Smoothed quartic gauge (sum_i u_i^4 + eps |u|^4)^(1/4).

        Elliptic for eps > 0; strictly non-quadratic, so it separates the
        quadratic family in the duality-pairing diagnostics.
        """
        if eps <= 0:
            raise ValueError("quartic gauge needs eps > 0 for ellipticity")
        return cls(dim, "quartic", quartic_eps=float(eps))

    @classmethod
    def custom(cls, dim: int, value: Callable, gradient: Callable | None = None,
               hessian: Callable | None = None, label: str = "custom") -> "MinkowskiNorm":
        """Gauge from callbacks; missing derivatives fall back to central
        finite differences (Richardson-extrapolated once)."""
        return cls(dim, "custom", value_fn=value, grad_fn=gradient,
                   hess_fn=hessian, label=label)

    # ----------------------------------------------------------------- evaluation

    def value(self, u):
        """F(u) for a single direction (d,) or a batch (m, d)."""
        u = _check_direction(u)
        single = u.ndim == 1
        U = u[None, :] if single else u
        if self.family == "euclidean":
            out = np.linalg.norm(U, axis=1)
        elif self.family == "quadratic":
            out = np.sqrt(np.einsum("mi,ij,mj->m", U, self.matrix, U))
        elif self.family == "quartic":
            out = self._quartic_G(U) ** 0.25
        else:
            out = np.array([float(self._value_fn(row)) for row in U])
        return float(out[0]) if single else out

    def grad(self, u):
        """grad F(u); 0-homogeneous in u."""
        u = _check_direction(u)
        single = u.ndim == 1
        U = u[None, :] if single else u
        if self.family == "euclidean":
            out = U / np.linalg.norm(U, axis=1, keepdims=True)
        elif self.family == "quadratic":
            Au = U @ self.matrix
            F = np.sqrt(np.einsum("mi,mi->m", Au, U))
            out = Au / F[:, None]
        elif self.family == "quartic":
            G = self._quartic_G(U)
            out = (U ** 3 + self.quartic_eps
                   * np.sum(U * U, axis=1)[:, None] * U) / (G ** 0.75)[:, None]
        else:
            out = np.array([self._custom_grad(row) for row in U])
        return out[0] if single else out

    def hess(self, u):
        """D^2 F(u); (-1)-homogeneous, with u in its kernel."""
        u = _check_direction(u)
        single = u.ndim == 1
        U = u[None, :] if single else u
        if self.family == "euclidean":
            nrm = np.linalg.norm(U, axis=1)
            uh = U / nrm[:, None]
            eye = np.eye(self.dim)[None, :, :]
            out = (eye - uh[:, :, None] * uh[:, None, :]) / nrm[:, None, None]
        elif self.family == "quadratic":
            Au = U @ self.matrix
            F = np.sqrt(np.einsum("mi,mi->m", Au, U))
            out = (self.matrix[None, :, :] / F[:, None, None]
                   - Au[:, :, None] * Au[:, None, :] / (F ** 3)[:, None, None])
        elif self.family == "quartic":
            out = self._quartic_hess(U)
        else:
            out = np.array([self._custom_hess(row) for row in U])
        return out[0] if single else out

    def _quartic_G(self, U: np.ndarray) -> np.ndarray:
        return np.sum(U ** 4, axis=1) + self.quartic_eps * np.sum(U * U, axis=1) ** 2

    def _quartic_hess(self, U: np.ndarray) -> np.ndarray:
        eps = self.quartic_eps
        G = self._quartic_G(U)
        r2 = np.sum(U * U, axis=1)
        dG = 4.0 * (U ** 3 + eps * r2[:, None] * U)
        eye = np.eye(self.dim)[None, :, :]
        hessG = (12.0 * U[:, :, None] ** 2 * eye
                 + 8.0 * eps * U[:, :, None] * U[:, None, :]
                 + 4.0 * eps * r2[:, None, None] * eye)
        return (0.25 * (G ** -0.75)[:, None, None] * hessG
                - 0.1875 * (G ** -1.75)[:, None, None]
                * dG[:, :, None] * dG[:, None, :])

    def _custom_grad(self, u: np.ndarray) -> np.ndarray:
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(u), dtype=float)
        # central differences at steps h and h/2 along each axis, one Richardson level
        h = _FD_GRAD_STEP * max(1.0, float(np.linalg.norm(u)))
        f = self._stencil_values(u, np.eye(self.dim), h)
        d1 = (f[0] - f[1]) / (2.0 * h)
        d2 = (f[2] - f[3]) / (2.0 * (0.5 * h))
        return (4.0 * d2 - d1) / 3.0

    def _custom_hess(self, u: np.ndarray) -> np.ndarray:
        if self._hess_fn is not None:
            H = np.asarray(self._hess_fn(u), dtype=float)
            return 0.5 * (H + H.T)
        if self._grad_fn is not None:
            h = _FD_GRAD_STEP * max(1.0, float(np.linalg.norm(u)))
            cols = []
            for i in range(self.dim):
                e = np.zeros(self.dim)
                e[i] = 1.0
                cols.append(central_diff(
                    lambda t: np.asarray(self._grad_fn(u + t * e), dtype=float), 0.0, h))
            H = np.array(cols)
            return 0.5 * (H + H.T)
        # second differences of the value along each axis and each diagonal
        # (e_i + e_j)/sqrt(2), one Richardson level; a larger step balances
        # roundoff
        h = _FD_HESS_VALUE_STEP * max(1.0, float(np.linalg.norm(u)))
        dirs, iu, ju = _hessian_directions(self.dim)
        f = self._stencil_values(u, dirs, h)
        f0 = float(self._value_fn(u))
        d1 = (f[0] - 2.0 * f0 + f[1]) / (h * h)
        d2 = (f[2] - 2.0 * f0 + f[3]) / ((0.5 * h) * (0.5 * h))
        dd = (4.0 * d2 - d1) / 3.0
        diag = dd[:self.dim]
        H = np.diag(diag)
        # second derivative along a diagonal is (H_ii + 2 H_ij + H_jj)/2
        H[iu, ju] = H[ju, iu] = dd[self.dim:] - 0.5 * (diag[iu] + diag[ju])
        return H

    def _stencil_values(self, u: np.ndarray, dirs: np.ndarray, h: float) -> np.ndarray:
        """F(u + t c) for t in (h, -h, h/2, -h/2) and each row c of dirs: (4, k)."""
        Q = u + np.multiply.outer((h, -h, 0.5 * h, -0.5 * h), dirs)
        return np.array([float(self._value_fn(q)) for q in Q.reshape(-1, self.dim)]
                        ).reshape(4, len(dirs))

    # ----------------------------------------------------------------- diagnostics

    def restricted_hessian_min_eig(self, u) -> float:
        """Smallest eigenvalue of D^2 F(u) restricted to the hyperplane u^perp.

        Positive exactly when the gauge is elliptic at u; for the Euclidean
        norm the restricted operator is the identity, so the value is 1.
        """
        u = _check_direction(np.asarray(u, dtype=float))
        uh = u / np.linalg.norm(u)
        Q = _orthonormal_complement(uh)
        B = Q.T @ self.hess(uh) @ Q
        return float(np.linalg.eigvalsh(0.5 * (B + B.T))[0])

    def euler_residual(self, u) -> float:
        """|<grad F(u), u> - F(u)|, zero for exact 1-homogeneity."""
        u = np.asarray(u, dtype=float)
        return abs(float(np.dot(self.grad(u), u)) - self.value(u))

    def radial_kernel_residual(self, u) -> float:
        """max |D^2 F(u) u|, zero because the Hessian kills the radial direction."""
        u = np.asarray(u, dtype=float)
        return float(np.max(np.abs(self.hess(u) @ u)))

    def wulff_point(self, u) -> "WulffPoint":
        """Point grad F(u) of the unit dual level set, for |u| = 1."""
        u = _check_direction(np.asarray(u, dtype=float))
        uh = u / np.linalg.norm(u)
        return WulffPoint(direction=uh, point=self.grad(uh))

    def dual(self, mode: str = "auto", options: "NumericDualOptions | None" = None) -> "DualNorm":
        return DualNorm(self, mode=mode, options=options)


@functools.lru_cache(maxsize=None)
def _hessian_directions(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes e_i, then diagonals (e_i + e_j)/sqrt(2) for each pair i < j (iu, ju);
    read-only, because every call for this dimension shares them."""
    basis = np.eye(dim)
    iu, ju = np.triu_indices(dim, 1)
    dirs = np.vstack([basis, (basis[iu] + basis[ju]) / math.sqrt(2.0)])
    for arr in (dirs, iu, ju):
        arr.flags.writeable = False
    return dirs, iu, ju


def _orthonormal_complement(uh: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of uh^perp (Householder frame)."""
    d = uh.shape[0]
    e0 = np.zeros(d)
    e0[0] = 1.0
    w = uh - e0 if uh[0] >= 0 else uh + e0
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        H = np.eye(d)
    else:
        w = w / wn
        H = np.eye(d) - 2.0 * np.outer(w, w)
    # column 0 of H is ±uh; the rest span the complement
    return H[:, 1:]


@dataclass(frozen=True)
class WulffPoint:
    """A unit direction and its image under grad F (a point of {F° = 1})."""
    direction: np.ndarray
    point: np.ndarray


@dataclass(frozen=True)
class NumericDualOptions:
    grid_size: int | None = None   # default: 2^10 for d=2, 2^12 for d>=3
    grad_tol: float = 1e-10
    max_iter: int = 400
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0


class DualNorm:
    """Dual gauge F°(v) = sup_{u != 0} <u, v>/F(u).

    mode "closed" uses the quadratic/Euclidean formulas; mode "numeric"
    maximizes over the unit sphere (coarse grid scan, then projected
    gradient ascent with Armijo backtracking).  "auto" picks closed form
    when one exists.
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
        if self.mode == "numeric":
            n = self.options.grid_size or (1 << 10 if self.dim == 2 else 1 << 12)
            self._grid = _hypersphere_grid(self.dim, n)
            self._grid_F = np.asarray(base.value(self._grid))
        else:
            self._grid = None

    # -- evaluation ---------------------------------------------------------

    def value(self, v):
        v = _check_direction(v)
        single = v.ndim == 1
        V = v[None, :] if single else v
        if self.mode == "closed":
            if self.base.family == "euclidean":
                out = np.linalg.norm(V, axis=1)
            else:
                out = np.sqrt(np.einsum("mi,ij,mj->m", V, self.base.matrix_inv, V))
        else:
            out = np.array([self._ascend(row)[0] for row in V])
        return float(out[0]) if single else out

    def grad(self, v):
        """grad F°(v): the maximizer u* with F(u*) = 1 (envelope theorem)."""
        v = _check_direction(v)
        single = v.ndim == 1
        V = v[None, :] if single else v
        if self.mode == "closed":
            if self.base.family == "euclidean":
                out = V / np.linalg.norm(V, axis=1, keepdims=True)
            else:
                Bv = V @ self.base.matrix_inv
                out = Bv / np.sqrt(np.einsum("mi,mi->m", Bv, V))[:, None]
        else:
            out = np.array([self._ascend(row)[1] for row in V])
        return out[0] if single else out

    def eval_with_maximizer(self, v) -> tuple[float, np.ndarray]:
        """(F°(v), u*) with F(u*) = 1 and <u*, v> = F°(v)."""
        v = _check_direction(np.asarray(v, dtype=float))
        if self.mode == "closed":
            return float(self.value(v)), np.asarray(self.grad(v))
        return self._ascend(v)

    def as_norm(self, label: str | None = None) -> MinkowskiNorm:
        """Wrap the dual as a gauge usable wherever a MinkowskiNorm is."""
        return MinkowskiNorm.custom(
            self.dim,
            value=lambda u: self.value(u),
            gradient=lambda u: self.grad(u),
            label=label or f"dual[{self.base.label}]")

    # -- numeric path -------------------------------------------------------

    def _ascend(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """Maximize <u, v>/F(u) on the sphere: grid scan, then safeguarded
        spherical Newton with an Armijo gradient fallback."""
        opt = self.options
        base = self.base
        q_grid = (self._grid @ v) / self._grid_F
        u = self._grid[int(np.argmax(q_grid))].copy()

        def q_of(w):
            return float(np.dot(w, v)) / base.value(w)

        q = q_of(u)
        step = opt.initial_step
        for _ in range(opt.max_iter):
            F = base.value(u)
            gF = np.asarray(base.grad(u))
            g = v / F - (q / F) * gF
            gt = g - np.dot(g, u) * u
            gn = float(np.linalg.norm(gt))
            if gn < opt.grad_tol:
                return q, u / F
            un = self._newton_step(u, v, q, F, gF, g)
            if un is not None:
                qn = q_of(un)
                # near convergence the Newton step shrinks the gradient even
                # when the objective gain is below one ulp; accept those too
                tiny = float(np.linalg.norm(un - u)) < 1e-6
                if qn > q or (tiny and qn >= q - 8e-16 * max(1.0, abs(q))):
                    u, q = un, qn
                    continue
            # Armijo gradient ascent fallback with step memory
            t = step
            improved = False
            while t > 1e-18:
                cand = u + t * gt
                cand = cand / np.linalg.norm(cand)
                qc = q_of(cand)
                if qc > q and qc >= q + opt.armijo_c * t * gn * gn:
                    u, q = cand, qc
                    step = min(2.0 * t, opt.initial_step)
                    improved = True
                    break
                t *= opt.backtrack
            if not improved:
                if gn < 1e4 * opt.grad_tol:  # stagnated at floating-point floor
                    return q, u / base.value(u)
                raise NonConvergence("dual ascent line search stalled")
        raise NonConvergence(
            f"dual ascent did not reach tol {opt.grad_tol:g} in {opt.max_iter} iters")

    def _newton_step(self, u, v, q, F, gF, g) -> np.ndarray | None:
        """One Newton step for the spherical optimality system, or None."""
        try:
            HF = np.asarray(self.base.hess(u))
        except Exception:
            return None
        D2q = (-(np.outer(v, gF) + np.outer(gF, v)) / F**2
               + 2.0 * q / F**2 * np.outer(gF, gF) - (q / F) * HF)
        Q = _orthonormal_complement(u / np.linalg.norm(u))
        Hs = Q.T @ D2q @ Q - float(np.dot(g, u)) * np.eye(Q.shape[1])
        rhs = -(Q.T @ g)
        try:
            delta = np.linalg.solve(Hs, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 0.5:
            return None
        un = u + Q @ delta
        nn = np.linalg.norm(un)
        if nn < 1e-12:
            return None
        return un / nn

