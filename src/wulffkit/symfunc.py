"""Elementary symmetric functions and Newton tensors of square matrices.

The primary path is the trace recursion (Faddeev-LeVerrier coupled with the
Newton tensors T_k = sigma_k I - T_{k-1} A, starting from T_0 = I); it works
for arbitrary, not necessarily symmetric, real matrices.  Independent
oracles: principal-minor sums, eigenvalue symmetric polynomials, and a
direct generalized-Kronecker-delta summation for the tensor entries.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from .errors import IndexOutOfRange, TooLarge
from .fd import central_diff

_MINOR_MAX_N = 6
_ENTRIES_MAX_N = 4
_ENTRIES_MAX_K = 3


def _square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return A


def _check_k(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 0..{n}")


def newton_tensors(A, k: int) -> tuple[list[np.ndarray], np.ndarray]:
    """(T_0..T_k, sigma_0..sigma_k) via the trace recursion."""
    A = _square(A)
    n = A.shape[0]
    _check_k(n, k)
    tensors = [np.eye(n)]
    sigmas = [1.0]
    for j in range(1, k + 1):
        sigma_j = float(np.trace(tensors[-1] @ A)) / j
        sigmas.append(sigma_j)
        tensors.append(sigma_j * np.eye(n) - tensors[-1] @ A)
    return tensors, np.array(sigmas)


def sigma_k(A, k: int) -> float:
    """k-th elementary symmetric function of the eigenvalues of A."""
    _, sigmas = newton_tensors(A, k)
    return float(sigmas[k])


def newton_tensor(A, k: int) -> np.ndarray:
    tensors, _ = newton_tensors(A, k)
    return tensors[k]


def sigma_k_minors_oracle(A, k: int) -> float:
    """Sum of all k x k principal minors; combinatorial, guarded to n <= 6."""
    A = _square(A)
    n = A.shape[0]
    _check_k(n, k)
    if n > _MINOR_MAX_N:
        raise TooLarge(f"minor oracle limited to n <= {_MINOR_MAX_N}")
    if k == 0:
        return 1.0
    total = 0.0
    for idx in combinations(range(n), k):
        sub = A[np.ix_(idx, idx)]
        total += float(np.linalg.det(sub))
    return total


def sigma_k_eigen_oracle(A, k: int) -> float:
    """sigma_k from eigenvalues via the characteristic polynomial."""
    A = _square(A)
    _check_k(A.shape[0], k)
    coeffs = np.poly(np.linalg.eigvals(A))  # [1, -s1, s2, -s3, ...]
    return float(((-1.0) ** k * coeffs[k]).real)


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
    n = A.shape[0]
    _check_k(n, k)
    if n > _ENTRIES_MAX_N or k > _ENTRIES_MAX_K:
        raise TooLarge(
            f"entries oracle limited to n <= {_ENTRIES_MAX_N}, k <= {_ENTRIES_MAX_K}")
    T = np.zeros((n, n))
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
                        term *= A[a, b]
                    acc += term
            T[j, i] = acc / math.factorial(k)
    return T


def gradient_relation_residual(A, k: int) -> float:
    """max |[T_{k-1}(A)]_{ji} - d sigma_k / d a_{ij}|, partials by central FD
    at step 1e-6 (1 + |a_ij|)."""
    A = _square(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    T_prev = newton_tensor(A, k - 1)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            h = 1e-6 * (1.0 + abs(A[i, j]))

            def sig(t: float) -> float:
                B = A.copy()
                B[i, j] += t
                return sigma_k(B, k)

            partial = float(central_diff(sig, 0.0, h, richardson=False))
            worst = max(worst, abs(T_prev[j, i] - partial))
    return worst


def trace_identity_residuals(A, k: int) -> tuple[float, float]:
    """Residuals of sigma_k = tr(T_{k-1} A)/k and tr T_k = (n-k) sigma_k.

    The reference sigma_k comes from an independent oracle (principal minors
    when feasible, eigenvalues otherwise); the Newton tensors come from the
    recursion, so both identities are genuine cross-checks.
    """
    A = _square(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    sigma_ref = (sigma_k_minors_oracle(A, k) if n <= _MINOR_MAX_N
                 else sigma_k_eigen_oracle(A, k))
    tensors, _ = newton_tensors(A, k)
    res_euler = abs(sigma_ref - float(np.trace(tensors[k - 1] @ A)) / k)
    res_trace = abs(float(np.trace(tensors[k])) - (n - k) * sigma_ref)
    return res_euler, res_trace


def normalized_k_curvature(S, k: int) -> float:
    """sigma_k(S) / binomial(n, k)."""
    S = _square(S)
    n = S.shape[0]
    _check_k(n, k)
    return sigma_k(S, k) / math.comb(n, k)


def sigma_batch(S: np.ndarray, k: int) -> np.ndarray:
    """sigma_k over a stack of small matrices (m, n, n); closed forms for n <= 3."""
    S = np.asarray(S, dtype=float)
    n = S.shape[-1]
    _check_k(n, k)
    if k == 0:
        return np.ones(S.shape[0])
    if k == 1:
        return np.trace(S, axis1=-2, axis2=-1)
    if k == n:
        return np.linalg.det(S)
    if k == 2:
        tr = np.trace(S, axis1=-2, axis2=-1)
        tr2 = np.trace(S @ S, axis1=-2, axis2=-1)
        return 0.5 * (tr * tr - tr2)
    return np.array([sigma_k(M, k) for M in S])


def normalized_curvature_batch(S: np.ndarray, k: int) -> np.ndarray:
    n = np.asarray(S).shape[-1]
    return sigma_batch(S, k) / math.comb(n, k)
