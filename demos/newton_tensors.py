#!/usr/bin/env python3
"""Symmetric functions and Newton tensors, recursion vs oracles.

The working route is the trace recursion T_k = sigma_k I - T_{k-1} A; the
oracles are principal-minor sums, eigenvalue polynomials, the raw
Kronecker-delta entry formula, and finite differences of sigma_k in the
matrix entries.  Every function takes one matrix (n, n) or a stack
(..., n, n), so each random check below runs on a stack at once.
"""
import numpy as np

from wulffkit import symfunc as sym

rng = np.random.default_rng(42)

A = np.diag([1.0, 2.0, 3.0])
tensors, sigmas = sym.newton_tensors(A, 3)
print("diag(1,2,3):")
print(f"  sigma_1..3 = {sigmas[1:].round(10).tolist()}  (expect 6, 11, 6)")
print(f"  T_1 = diag{tuple(np.diag(tensors[1]).tolist())}  (expect 5, 4, 3)")

print("\nrandom non-symmetric 4x4, all routes to sigma_k:")
B = rng.standard_normal((4, 4))
print(f"  {'k':>2} {'recursion':>14} {'minors':>14} {'eigenvalues':>14}")
for k in range(1, 5):
    print(f"  {k:2d} {sym.sigma_k(B, k):14.8f} "
          f"{sym.sigma_k_minors_oracle(B, k):14.8f} "
          f"{sym.sigma_k_eigen_oracle(B, k):14.8f}")

print("\nNewton tensor entries: recursion vs Kronecker-delta summation")
M = rng.standard_normal((25, 3, 3))
worst = max(np.max(np.abs(sym.newton_tensor(M, k) - sym.newton_entries_oracle(M, k)))
            for k in range(4))
print(f"  max deviation over 25 random 3x3, k <= 3: {worst:.2e}")

print("\ngradient relation [T_(k-1)]_ji = d sigma_k / d a_ij (finite differences):")
for k in (1, 2, 3):
    r = sym.gradient_relation_residual(rng.standard_normal((4, 4)), k)
    print(f"  k = {k}: residual = {r:.2e}")

print("\ntrace identities on a random 5x5:")
C = rng.standard_normal((5, 5))
for k in range(1, 6):
    a, b = sym.trace_identity_residuals(C, k)
    print(f"  k = {k}: |sigma_k - tr(T_(k-1) A)/k| = {a:.2e}, "
          f"|tr T_k - (n-k) sigma_k| = {b:.2e}")

print("\ntop Newton tensor vanishes (Cayley-Hamilton):")
print(f"  max |T_3| over 20 random 3x3: "
      f"{np.max(np.abs(sym.newton_tensor(rng.standard_normal((20, 3, 3)), 3))):.2e}")

print("\nnormalized curvature orders of the sphere shape operator -I:")
S = -np.eye(2)
print(f"  H~_0, H~_1, H~_2 = "
      f"{[float(sym.normalized_k_curvature(S, k)) for k in range(3)]}  (expect 1, -1, 1)")
