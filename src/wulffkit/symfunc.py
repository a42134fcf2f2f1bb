"""Elementary symmetric functions and Newton tensors of square matrices.

The primary path is the trace recursion (Faddeev-LeVerrier coupled with the
Newton tensors T_k = sigma_k I - T_{k-1} A, starting from T_0 = I); it works
for arbitrary, not necessarily symmetric, real matrices.  Independent
oracles: principal-minor sums, eigenvalue symmetric polynomials, and a
direct generalized-Kronecker-delta summation for the tensor entries.

Every function takes one matrix (n, n) or a stack (..., n, n) and gives for
a stack, bit for bit, what it gives for each matrix.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from .errors import IndexOutOfRange, TooLarge
from .fd import _central_diffs

_MINOR_MAX_N = 6
_ENTRIES_MAX_N = 4
_ENTRIES_MAX_K = 3


def _square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValueError("expected a square matrix or a stack of them")
    return A


def _check_k(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 0..{n}")


def newton_tensors(A, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T_0..T_k, sigma_0..sigma_k) via the trace recursion: for A (..., n, n),
    the arrays (..., k+1, n, n) and (..., k+1)."""
    A = _square(A)
    n = A.shape[-1]
    _check_k(n, k)
    eye = np.eye(n)
    tensors = np.empty(A.shape[:-2] + (k + 1, n, n))
    sigmas = np.empty(A.shape[:-2] + (k + 1,))
    tensors[..., 0, :, :], sigmas[..., 0] = eye, 1.0
    for j in range(1, k + 1):
        TA = tensors[..., j - 1, :, :] @ A
        sigmas[..., j] = np.trace(TA, axis1=-2, axis2=-1) / j
        tensors[..., j, :, :] = sigmas[..., j, None, None] * eye - TA
    return tensors, sigmas


def sigma_k(A, k: int):
    """k-th elementary symmetric function of the eigenvalues of A."""
    return np.take(newton_tensors(A, k)[1], k, axis=-1)


def newton_tensor(A, k: int) -> np.ndarray:
    return newton_tensors(A, k)[0][..., k, :, :]


def sigma_k_minors_oracle(A, k: int):
    """Sum of all k x k principal minors; combinatorial, guarded to n <= 6."""
    A = _square(A)
    n = A.shape[-1]
    _check_k(n, k)
    if n > _MINOR_MAX_N:
        raise TooLarge(f"minor oracle limited to n <= {_MINOR_MAX_N}")
    # k = 0 takes the one empty minor, whose determinant is 1
    return sum(np.linalg.det(A[..., idx, :][..., idx])
               for idx in map(list, combinations(range(n), k)))


def sigma_k_eigen_oracle(A, k: int):
    """sigma_k from eigenvalues via the characteristic polynomial."""
    A = _square(A)
    _check_k(A.shape[-1], k)
    lam = np.linalg.eigvals(A)
    # coefficients [1, -s1, s2, -s3, ...] of prod (x - lam_i), one root at a time
    coeffs = np.zeros(lam.shape[:-1] + (k + 1,), dtype=lam.dtype)
    coeffs[..., 0] = 1.0
    for i in range(lam.shape[-1]):
        coeffs[..., 1:] = coeffs[..., 1:] - lam[..., i, None] * coeffs[..., :-1]
    return ((-1.0) ** k * coeffs[..., k]).real


def generalized_kronecker(lower, upper) -> int:
    """Generalized Kronecker symbol delta^{upper}_{lower} in {-1, 0, 1}.

    Nonzero only when both tuples consist of distinct indices covering the
    same set; the value is the parity of the permutation relating them.
    """
    lower = tuple(lower)
    upper = tuple(upper)
    if len(lower) != len(upper):
        raise ValueError("index tuples must have equal length")
    if len(set(lower)) != len(lower) or set(lower) != set(upper):
        return 0
    return _sort_parity(lower) * _sort_parity(upper)


def _sort_parity(seq: tuple) -> int:
    """Parity of the permutation sorting seq (distinct entries)."""
    seq = list(seq)
    parity = 1
    for i in range(len(seq)):
        j = min(range(i, len(seq)), key=seq.__getitem__)
        if j != i:
            seq[i], seq[j] = seq[j], seq[i]
            parity = -parity
    return parity


def newton_entries_oracle(A, k: int) -> np.ndarray:
    """Newton tensor entries from the raw Kronecker-delta summation.

    Entry (j, i) is (1/k!) * sum over index tuples of
    delta^{j_1..j_k j}_{i_1..i_k i} a_{i_1 j_1} ... a_{i_k j_k}.
    Exponential cost; guarded to n <= 4, k <= 3.
    """
    A = _square(A)
    n = A.shape[-1]
    _check_k(n, k)
    if n > _ENTRIES_MAX_N or k > _ENTRIES_MAX_K:
        raise TooLarge(
            f"entries oracle limited to n <= {_ENTRIES_MAX_N}, k <= {_ENTRIES_MAX_K}")
    T = np.zeros(A.shape)
    for j in range(n):
        for i in range(n):
            acc = 0.0
            # tuples with repeats or containing i (resp. j) contribute a zero
            # Kronecker symbol, so only injective tuples are enumerated
            for I in permutations([a for a in range(n) if a != i], k):
                for J in permutations([b for b in range(n) if b != j], k):
                    delta = generalized_kronecker(I + (i,), J + (j,))
                    if delta == 0:
                        continue
                    term = delta
                    for a, b in zip(I, J):
                        term = term * A[..., a, b]
                    acc = acc + term
            T[..., j, i] = acc / math.factorial(k)
    return T


def gradient_relation_residual(A, k: int):
    """max |[T_{k-1}(A)]_{ji} - d sigma_k / d a_{ij}|, partials by central FD
    at step 1e-6 (1 + |a_ij|): one stencil, whose points are A, once per
    entry a_ij, moved along that entry."""
    A = _square(A)
    n = A.shape[-1]
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    entries = A.reshape(-1, n * n)
    points = np.repeat(entries, n * n, axis=0)
    dirs = np.tile(np.eye(n * n), (len(entries), 1))[:, :, None]
    steps = 1e-6 * (1.0 + np.abs(entries.ravel()))
    partials = _central_diffs(lambda P: sigma_k(P.reshape(-1, n, n), k),
                              points, dirs, (steps,)).reshape(A.shape)
    T_prev = newton_tensor(A, k - 1)
    return np.max(np.abs(np.swapaxes(T_prev, -2, -1) - partials), axis=(-2, -1))


def trace_identity_residuals(A, k: int) -> tuple:
    """Residuals of sigma_k = tr(T_{k-1} A)/k and tr T_k = (n-k) sigma_k.

    The reference sigma_k comes from an independent oracle (principal minors
    when feasible, eigenvalues otherwise); the Newton tensors come from the
    recursion, so both identities are genuine cross-checks.
    """
    A = _square(A)
    n = A.shape[-1]
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    sigma_ref = (sigma_k_minors_oracle(A, k) if n <= _MINOR_MAX_N
                 else sigma_k_eigen_oracle(A, k))
    tensors = newton_tensors(A, k)[0]
    res_euler = np.abs(sigma_ref - np.trace(tensors[..., k - 1, :, :] @ A,
                                            axis1=-2, axis2=-1) / k)
    res_trace = np.abs(np.trace(tensors[..., k, :, :], axis1=-2, axis2=-1)
                       - (n - k) * sigma_ref)
    return res_euler, res_trace


def normalized_k_curvature(S, k: int):
    """sigma_k(S) / binomial(n, k)."""
    return sigma_k(S, k) / math.comb(np.shape(S)[-1], k)
