#!/usr/bin/env python3
"""Tour of gauge functions and their duals.

Builds the three gauge families, checks the first-order structure
(homogeneity, the gradient pairing identity, the radial Hessian kernel,
ellipticity), and shows how dual gauges and unit-level points are computed,
in closed form where available and by sphere ascent otherwise.
"""
import numpy as np

import wulffkit as wk

rng = np.random.default_rng(7)

print("=" * 64)
print("1. gauge families")
print("=" * 64)

E = wk.MinkowskiNorm.euclidean(2)
F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
Q = wk.MinkowskiNorm.quartic(2, eps=0.05)

for norm, u in ((E, [3.0, 4.0]), (F, [0.0, 1.0]), (Q, [1.0, 1.0])):
    print(f"  {norm.label:10s} F({u}) = {norm.value(u):.6f}   "
          f"grad = {np.round(norm.grad(u), 6)}")

print()
print("first-order structure at 200 random directions:")
for norm in (E, F, Q):
    U = rng.standard_normal((200, norm.dim))
    euler = max(norm.euler_residual(u) for u in U)
    radial = max(norm.radial_kernel_residual(u) for u in U)
    print(f"  {norm.label:10s} |<grad F, u> - F| <= {euler:.2e}   "
          f"|D2F u| <= {radial:.2e}")

print()
print("ellipticity (smallest restricted-Hessian eigenvalue on the circle):")
angles = np.linspace(0, 2 * np.pi, 32, endpoint=False)
for norm in (E, F, Q):
    eigs = [norm.restricted_hessian_min_eig([np.cos(a), np.sin(a)])
            for a in angles]
    print(f"  {norm.label:10s} min = {min(eigs):.4f}  (positive iff elliptic)")

print()
print("=" * 64)
print("2. dual gauges")
print("=" * 64)

D = F.dual()                 # closed form: sqrt(<A^-1 v, v>)
Dn = F.dual(mode="numeric")  # sphere ascent with the same answer
for v in ([0.0, 1.0], [1.0, 1.0], [2.0, -0.5]):
    print(f"  F°{tuple(v)} closed = {D.value(v):.10f}   "
          f"numeric = {Dn.value(v):.10f}")

val, ustar = Q.dual().eval_with_maximizer([0.7, -0.3])
print(f"\nquartic gauge: F°(0.7,-0.3) = {val:.8f}, maximizer has "
      f"F(u*) = {Q.value(ustar):.12f} (unit gauge level)")

print("\nbiduality: the dual of the dual recovers the gauge")
opts = wk.NumericDualOptions(grid_size=256, grad_tol=1e-8)
D1 = wk.DualNorm(F, mode="numeric", options=opts)
D2 = D1.dual(options=opts)  # a dual is a gauge: its own dual is numeric
for v in rng.standard_normal((3, 2)):
    print(f"  v = {np.round(v, 3)}   F(v) = {F.value(v):.8f}   "
          f"(F°)°(v) = {D2.value(v):.8f}")

print()
print("=" * 64)
print("3. unit dual level set via the gauge gradient")
print("=" * 64)
print("grad F maps unit directions onto {F° = 1}:")
for ang in (0.0, 0.7, 2.1):
    u = np.array([np.cos(ang), np.sin(ang)])
    x = F.wulff_point(u).point
    print(f"  u = {np.round(u, 4)}  ->  x = {np.round(x, 6)}   "
          f"F°(x) = {D.value(x):.12f}")
