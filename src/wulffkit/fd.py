"""Finite-difference kernels shared by every fallback derivative path: a
stencil is one batch, so the differenced function runs once per stencil."""

from __future__ import annotations

import functools
import math

import numpy as np


def _stencil(P, dirs, steps) -> np.ndarray:
    """The central-difference points P +- h c for each step h and direction c:
    all 2 len(steps) k m of them as one (M, n) batch, in the order _differences
    reads them.  dirs is (m, n, k), column a of dirs[i] the direction of
    derivative a at P[i], or (1, n, k) for the same at every point; a step is
    a float, or one per point (m,)."""
    hD = _steps(steps, 1) * dirs.transpose(2, 0, 1)
    return np.stack([P + hD, P - hD]).reshape(-1, P.shape[1])


def _differences(vals, dirs, steps, f0=None) -> np.ndarray:
    """(f(P + h c) - f(P - h c)) / 2h from vals = f(_stencil(P, dirs, steps)), or
    given f0 = f(P) the second difference (f(P + h c) - 2 f0 + f(P - h c)) / h^2:
    (m, k, ...) at the step (h,), or one Richardson level from the steps (h, h/2)."""
    vals = np.asarray(vals)
    S, k = len(steps), dirs.shape[2]
    plus, minus = vals.reshape((2, S, k, len(vals) // (2 * S * k)) + vals.shape[1:])
    h = _steps(steps, vals.ndim - 1)
    d = (plus - minus) / (2.0 * h) if f0 is None else (plus - 2.0 * f0 + minus) / (h * h)
    d = d[0] if S == 1 else (4.0 * d[1] - d[0]) / 3.0
    return np.ascontiguousarray(d.swapaxes(0, 1))


def _steps(steps, trailing: int) -> np.ndarray:
    """The steps, floats (S,) or one per point (S, m), shaped
    (S, 1, m or 1, 1, ...) with `trailing` ones, to scale (S, k, m, ...) arrays."""
    h = np.asarray(steps, dtype=float)
    return h.reshape((len(h), 1, h.size // len(h)) + (1,) * trailing)


def _central_diffs(fld, P, dirs, steps, f0=None) -> np.ndarray:
    """_differences of fld, which maps batches (M, n) to (M, ...), from one fld call."""
    return _differences(fld(_stencil(P, dirs, steps)), dirs, steps, f0)


def _coordinate_axes(P) -> np.ndarray:
    """The axes, shared by every point of P, as _stencil takes directions."""
    return np.eye(P.shape[1])[None]


def _hessians(fld, P, steps, f0) -> np.ndarray:
    """Hessians (m, n, n, ...) of fld at P, f0 = fld(P), from one stencil of
    second differences along the axes e_i and the diagonals (e_i + e_j)/sqrt(2),
    along which the second derivative is (H_ii + 2 H_ij + H_jj) / 2."""
    n = P.shape[1]
    dirs, iu, ju = _axes_and_diagonals(n)
    dd = _central_diffs(fld, P, dirs, steps, f0)
    diag = dd[:, :n]
    H = np.zeros((len(dd), n, n) + dd.shape[2:])
    H[:, np.arange(n), np.arange(n)] = diag
    H[:, iu, ju] = H[:, ju, iu] = dd[:, n:] - 0.5 * (diag[:, iu] + diag[:, ju])
    return H


@functools.lru_cache(maxsize=None)
def _axes_and_diagonals(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The directions of _hessians, as _stencil takes them, and the pairs
    (iu, ju) of its diagonals; read-only, because every call shares them."""
    eye, (iu, ju) = np.eye(n), np.triu_indices(n, 1)
    dirs = np.hstack([eye, (eye[:, iu] + eye[:, ju]) / math.sqrt(2.0)])[None]
    for arr in (dirs, iu, ju):
        arr.flags.writeable = False
    return dirs, iu, ju
