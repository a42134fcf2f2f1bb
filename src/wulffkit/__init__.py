"""wulffkit: numerical toolkit for Minkowski gauges, anisotropic hypersurface
geometry, and monotonicity identities.

Layers, bottom to top:

- fd: batched finite-difference stencils, one function call per stencil,
  behind every fallback derivative (gauges, charts, the gradient relation)
- norms: gauges F, duals F°, Wulff points, ellipticity diagnostics
- condition_s: sign agreement between grad F and grad F° and the quadratic
  pairing identity
- symfunc: elementary symmetric functions and Newton tensors of a matrix or
  a stack, with independent combinatorial oracles
- surfaces: parametric curves/surfaces, frames, transversal decompositions,
  pointwise derivative identities
- quadrature: one adaptive pass for surface integrals over a whole patch or
  over the bands of a gauge-clipped region
- verify: integral identities assembled from the layers below
- cli: scenario-driven runner (JSON config in, CSV + plot scripts out)
"""

from .errors import (BoundaryInsideRegion, ConfigError, DegenerateChart,
                     GaugeZero, IndexOutOfRange, NonConvergence, NotClosed,
                     NotEquiaffine, NotTransversal, OriginNotOnSurface,
                     TooLarge, WulffkitError, ZeroDirection)
from .norms import DualNorm, MinkowskiNorm, NumericDualOptions, WulffPoint
from .condition_s import (ConditionSVerdict, PairReport, check_condition_s,
                          pair_report, search_violation, worst_pairs)
from .symfunc import (generalized_kronecker, gradient_relation_residual,
                      newton_entries_oracle, newton_tensor, newton_tensors,
                      normalized_k_curvature, sigma_k, sigma_k_eigen_oracle,
                      sigma_k_minors_oracle, trace_identity_residuals)
from .surfaces import (EquiaffineBatch, FrameBatch, ParametricPatch, TransversalField,
                       affine_tangential, anisotropic_mean_curvature_batch,
                       anisotropic_mean_curvature_fd, anisotropic_normal_field,
                       catenoid, circle, codazzi_residual, constant_field,
                       divergence_residuals_constant_position, ellipsoid, enneper,
                       equiaffine_batch, graph_curve, graph_surface, hyperplane,
                       line, linear_image, normal_field, position_field,
                       product_rule_residual, shape_products_asymmetry, sphere,
                       sqrtm_spd, surface_divergence,
                       tangential_derivative_residuals, transformed_catenoid)
from .quadrature import (ClippedRegionRule, ClippedResult, ParamQuadrature,
                         integrate_clipped, sublevel_energy)
from .verify import (CorollaryReport, IdentityReport, MonotonicityScan,
                     corollary_lower_bound, equiaffine_identity,
                     frame_identity_suite, geometric_radii, minkowski_formula,
                     monotonicity_identity, monotonicity_scan,
                     pointwise_divergence_residual)

__version__ = "0.1.0"
