#!/usr/bin/env python3
"""Sign agreement between gauge gradients and dual-gauge gradients.

For quadratic gauges the pairing <grad F(u), grad F°(v)> equals
<u, v>/(F(u) F°(v)), so its sign always agrees with <u, v>.  The smoothed
quartic gauge breaks both: the pairing identity has a residual of order one
and a pattern search finds sign-violating pairs.
"""
import numpy as np

import wulffkit as wk
from wulffkit import condition_s as cs

print("quadratic gauge diag(1, 4): scan of 10^4 low-discrepancy pairs")
F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 4.0]))
verdict = cs.check_condition_s(F, 10_000, seed=0)
print(f"  sign condition: {'holds' if verdict.passed else 'VIOLATED'}")
print(f"  worst margin          : {verdict.min_margin:.3e}")
print(f"  max pairing residual  : {verdict.max_fk_residual:.3e}")

print()
print("smoothed quartic gauge (sum u_i^4 + 0.05 |u|^4)^(1/4): same scan")
Q = wk.MinkowskiNorm.quartic(2, eps=0.05)
verdict = cs.check_condition_s(Q, 10_000, seed=0)
print(f"  sign condition: {'holds' if verdict.passed else 'VIOLATED'}")
print(f"  worst margin          : {verdict.min_margin:.6f}")
print(f"  max pairing residual  : {verdict.max_fk_residual:.6f}  (> 0: not quadratic)")

print()
print("multi-start pattern search for the most adversarial pair:")
result = cs.search_violation(Q, n_starts=12, seed=0)
rep = result.worst
print(f"  objective (min of lhs * sgn<u,v>) = {result.objective:.6f}")
print(f"  u = {np.round(rep.u, 6)}")
print(f"  v = {np.round(rep.v, 6)}")
print(f"  <grad F(u), grad F°(v)> = {rep.lhs:.6f}   <u, v> = {rep.rhs_sign_ref:.2e}")
print(f"  converged: {result.converged}")

print()
print("ten worst sampled pairs for the quartic gauge:")
print(f"  {'margin':>12} {'lhs':>12} {'<u,v>':>12} {'pairing res':>12}")
for p in cs.worst_pairs(Q, 4_000, k=10, seed=0):
    print(f"  {p.margin:12.6f} {p.lhs:12.6f} {p.rhs_sign_ref:12.6f} "
          f"{p.fk_residual:12.6f}")
