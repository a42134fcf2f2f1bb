#!/usr/bin/env python3
"""Frames, transversal decompositions, and pointwise derivative identities.

Every identity is checked two ways: a finite-difference left side along the
chart against a frame-assembled right side.  The transversal fields are the
unit normal, the gauge-gradient normal grad F(nu), and a constant vector.
"""
import numpy as np

import wulffkit as wk
from wulffkit import surfaces as sf

F = wk.MinkowskiNorm.quadratic(np.diag([1.0, 1.0, 4.0]))

print("shape operators on the unit sphere (outward normal):")
eq = sf.equiaffine_batch(sf.sphere(), sf.normal_field(), [[1.1, 0.7]])
print(f"  S =\n{np.round(eq.shape_op[0], 8)}")
print(f"  tau = {np.round(eq.tau[0], 10)}   trace S = {eq.affine_mean[0]:.8f}")

print("\ngauge-gradient normal is equiaffine (tau vanishes):")
for patch in (sf.sphere(), sf.ellipsoid((1.0, 1.3, 1.7)), sf.catenoid()):
    eb = sf.equiaffine_batch(patch, sf.anisotropic_normal_field(F),
                             patch.sample_grid(5))
    print(f"  {patch.name:24s} max |tau| = {np.max(np.abs(eb.tau)):.2e}")

print("\nanisotropic mean curvature (zero = critical for the gauge energy):")
E3 = wk.MinkowskiNorm.euclidean(3)
cases = [
    ("catenoid / euclidean", E3, sf.catenoid()),
    ("stretched catenoid / diag(1,1,4)", F, sf.transformed_catenoid(np.diag([1.0, 1.0, 4.0]))),
    ("sphere / euclidean", E3, sf.sphere()),
]
for label, norm, patch in cases:
    vals = sf.anisotropic_mean_curvature_batch(norm, patch, patch.sample_grid(7))
    print(f"  {label:34s} max |H_F| = {np.max(np.abs(vals)):.2e}")

print("\npointwise identity residuals at a generic ellipsoid point:")
patch = sf.ellipsoid((1.0, 1.3, 1.7))
xi = sf.anisotropic_normal_field(F)
p = np.array([1.05, 0.8])
eb = sf.equiaffine_batch(patch, xi, [p])   # the decomposition at one point
frame, div = sf.tangential_derivative_residuals(sf.position_field(), eb)
print(f"  derivative of x^(top_xi), frame form : {frame[0]:.2e}")
print(f"  same identity, divergence form       : {div[0]:.2e}")
rb, rx = sf.divergence_residuals_constant_position(eb)
print(f"  div of b^(top_xi) vs <b,nu> tr S      : {rb[0]:.2e}")
print(f"  div of x^(top_xi) vs n<xi,nu> + ...   : {rx[0]:.2e}")


def linear_weight(fb):
    return fb.x @ np.array([0.2, 0.5, -0.4])


pr = sf.product_rule_residual(linear_weight, sf.position_field(), eb)
print(f"  product rule for f x^(top_xi)         : {pr[0]:.2e}")
s1, s2 = sf.shape_products_asymmetry(eb)
print(f"  self-adjointness of II*S, II*S^2      : {s1[0]:.2e}, {s2[0]:.2e}")
cz = sf.codazzi_residual(patch, xi, p)
print(f"  symmetry of the covariant dS          : {cz:.2e}")

print("\nsurface divergence sanity (position field has div = n):")
for patch, p in ((sf.sphere(), [1.0, 0.4]), (sf.catenoid(), [2.0, 0.5]),
                 (sf.circle(), [0.9])):
    div = sf.surface_divergence(patch, lambda fb: fb.x, p)
    print(f"  {patch.name:24s} div_M x = {div:.8f}  (n = {patch.n})")
