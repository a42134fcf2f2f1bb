"""Sign agreement between gauge gradients and dual-gauge gradients.

For a gauge F and its dual F°, condition S asks that
sgn <grad F(u), grad F°(v)> = sgn <u, v> for all nonzero u, v.  Quadratic
gauges satisfy the stronger pairing identity
<grad F(u), grad F°(v)> = <u, v> / (F(u) F°(v)); its residual is reported
per pair so that non-quadratic gauges can be separated quantitatively.

Sign classification uses a dead band: |x| < eps_sign counts as sign 0.
The condition itself is exact, so the checker tests it away from the
measure-zero orthogonality set and separately requires a near-zero pairing
on near-orthogonal samples (this tolerance semantics is a choice of this
toolkit and is recorded in the verdict metadata).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import DualNorm, MinkowskiNorm, _check_direction

EPS_SIGN = 1e-8
DELTA_ZERO = 1e-6


def deadband_sign(x: float, eps: float = EPS_SIGN) -> int:
    if abs(x) < eps:
        return 0
    return 1 if x > 0 else -1


@dataclass(frozen=True)
class PairReport:
    """Pairing diagnostics for one direction pair (u, v)."""
    u: np.ndarray
    v: np.ndarray
    lhs: float                 # <grad F(u), grad F°(v)>
    rhs_sign_ref: float        # <u, v>
    fk_residual: float         # lhs - <u,v>/(F(u) F°(v))
    eps_sign: float = EPS_SIGN

    @property
    def lhs_sign(self) -> int:
        return deadband_sign(self.lhs, self.eps_sign)

    @property
    def rhs_sign(self) -> int:
        return deadband_sign(self.rhs_sign_ref, self.eps_sign)

    @property
    def margin(self) -> float:
        """Positive when the pair is compatible with the sign condition."""
        return float(_margin(self.lhs, self.rhs_sign_ref, self.eps_sign, DELTA_ZERO))


@dataclass
class ConditionSVerdict:
    passed: bool
    worst: PairReport
    samples: int
    eps_sign: float
    delta_zero: float
    max_fk_residual: float
    min_margin: float
    deadband_pairs: int
    worst_pairs: list[PairReport] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


_HALTON_BASES = (2, 3, 5, 7)


def _scrambled_halton(d: int, count: int, seed: int = 0) -> np.ndarray:
    """The first `count` points (count, d) of the scrambled Halton sequence in
    [0, 1)^d: per axis, the radical inverse in the next prime base with each
    digit position permuted at random (A. B. Owen, "A randomized Halton
    algorithm in R", 2017).  The same points, bit for bit, as
    scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(count)."""
    if d > len(_HALTON_BASES):
        raise ValueError(f"Halton points need d <= {len(_HALTON_BASES)}")
    rng = np.random.default_rng(seed)
    out = np.empty((count, d))
    for axis, b in enumerate(_HALTON_BASES[:d]):
        # one permutation per digit position that a double resolves: b^-k > 2^-54
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        # add perm_k[digit k of i] * b^-(k+1) digit by digit, in SciPy's order;
        # once b^k >= count, digit k of every index is 0
        q, scale, v = np.arange(count), 1.0 / b, np.zeros(count)
        for k, perm in enumerate(perms):
            if b ** k < count:
                v += perm[q % b] * scale
                q //= b
            else:
                v += perm[0] * scale
            scale /= b
        out[:, axis] = v
    return out


def unit_pair_samples(dim: int, count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Low-discrepancy (Halton) direction pairs on S^{dim-1} x S^{dim-1}."""
    if dim == 2:
        pts = _scrambled_halton(2, count, seed)
        a, b = 2 * np.pi * pts[:, 0], 2 * np.pi * pts[:, 1]
        U = np.column_stack([np.cos(a), np.sin(a)])
        V = np.column_stack([np.cos(b), np.sin(b)])
        return U, V
    if dim == 3:
        pts = _scrambled_halton(4, count, seed)

        def sphere(z01, phi01):
            z = 1.0 - 2.0 * z01
            phi = 2 * np.pi * phi01
            rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])

        return sphere(pts[:, 0], pts[:, 1]), sphere(pts[:, 2], pts[:, 3])
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((count, dim))
    V = rng.standard_normal((count, dim))
    return (U / np.linalg.norm(U, axis=1, keepdims=True),
            V / np.linalg.norm(V, axis=1, keepdims=True))


def pair_report(norm: MinkowskiNorm, u, v, dual: DualNorm | None = None,
                eps_sign: float = EPS_SIGN) -> PairReport:
    """Pairing diagnostics of one pair (u, v): the scan of a batch of one."""
    U, V = (np.asarray(x, dtype=float)[None, :] for x in (u, v))
    lhs, rhs, fk, margin, _ = _scan(norm, dual or norm.dual(), U, V, eps_sign, DELTA_ZERO)
    return _ranked(U, V, lhs, rhs, fk, margin, 1, eps_sign)[0]


def _margin(lhs, rhs, eps_sign: float, delta_zero: float):
    """Positive when the pair is compatible with condition S: lhs * sgn(rhs)
    away from orthogonality, delta_zero - |lhs| within the dead band."""
    return np.where(np.abs(rhs) >= eps_sign, lhs * np.where(rhs > 0, 1.0, -1.0),
                    delta_zero - np.abs(lhs))


def _scan(norm: MinkowskiNorm, dual: DualNorm, U: np.ndarray, V: np.ndarray,
          eps_sign: float, delta_zero: float):
    """Pairing diagnostics of the sample pairs (U[i], V[i]): lhs, rhs, fk and
    margin arrays, and the dual-ascent counts (empty for a closed dual)."""
    GU = norm.grad(U)
    if dual.mode == "closed":
        FV, GV = dual.eval_with_maximizer(V)
        counts = {}
    else:
        FV, GV, iterations, fallbacks = dual._ascend(_check_direction(V))
        counts = {"dual_iterations": iterations, "dual_fallbacks": fallbacks}
    lhs = np.einsum("mi,mi->m", GU, GV)
    rhs = np.einsum("mi,mi->m", U, V)
    fk = lhs - rhs / (norm.value(U) * FV)
    return lhs, rhs, fk, _margin(lhs, rhs, eps_sign, delta_zero), counts


def _ranked(U, V, lhs, rhs, fk, margin, k: int, eps_sign: float) -> list[PairReport]:
    """The k pairs with the smallest margin, smallest first (ties in sample
    order, so the first is the one np.argmin picks)."""
    return [PairReport(u=U[i], v=V[i], lhs=float(lhs[i]), rhs_sign_ref=float(rhs[i]),
                       fk_residual=float(fk[i]), eps_sign=eps_sign)
            for i in np.argsort(margin, kind="stable")[:k]]


def check_condition_s(norm: MinkowskiNorm, sample_count: int = 10_000,
                      eps_sign: float = EPS_SIGN, delta_zero: float = DELTA_ZERO,
                      seed: int = 0, dual: DualNorm | None = None,
                      worst_k: int = 0) -> ConditionSVerdict:
    """Scan quasi-random unit pairs for sign-condition violations.

    A pair with |<u,v>| >= eps_sign must have <grad F(u), grad F°(v)> of the
    same strict sign; a near-orthogonal pair must have |pairing| < delta_zero.
    The verdict lists the worst_k pairs of smallest margin in `worst_pairs`,
    from the same scan.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    dual = dual or norm.dual()
    U, V = unit_pair_samples(norm.dim, sample_count, seed=seed)
    lhs, rhs, fk, margin, counts = _scan(norm, dual, U, V, eps_sign, delta_zero)
    ranked = _ranked(U, V, lhs, rhs, fk, margin, max(worst_k, 1), eps_sign)
    return ConditionSVerdict(
        passed=bool(np.all(margin > 0.0)), worst=ranked[0], samples=sample_count,
        eps_sign=eps_sign, delta_zero=delta_zero, max_fk_residual=float(np.max(fk)),
        min_margin=float(np.min(margin)),
        deadband_pairs=int(np.sum(np.abs(rhs) < eps_sign)),
        worst_pairs=ranked[:worst_k],
        metadata={"seed": seed, "norm": norm.label,
                  "sign_semantics": "dead-band classification, see module docstring",
                  **counts})


def worst_pairs(norm: MinkowskiNorm, sample_count: int = 10_000, k: int = 10,
                seed: int = 0, dual: DualNorm | None = None,
                eps_sign: float = EPS_SIGN) -> list[PairReport]:
    """The k sampled pairs with the smallest sign-condition margin."""
    return check_condition_s(norm, sample_count, eps_sign=eps_sign, seed=seed,
                             dual=dual, worst_k=k).worst_pairs


@dataclass
class ViolationSearchResult:
    worst: PairReport
    objective: float           # min of lhs * sgn(<u,v>); negative => violated
    converged: bool
    starts: int


def _angles_to_unit(angles: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        return np.array([np.cos(angles[0]), np.sin(angles[0])])
    theta, phi = angles
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


def search_violation(norm: MinkowskiNorm, n_starts: int = 12, seed: int = 0,
                     eps_sign: float = EPS_SIGN, dual: DualNorm | None = None,
                     scan_count: int = 2048) -> ViolationSearchResult:
    """Multi-start descent on lhs * sgn(<u,v>) over non-orthogonal pairs.

    A negative optimum certifies a sign-condition violation; the search is
    local, so a non-negative optimum is evidence, not proof.
    """
    from scipy.optimize import minimize   # deferred: SciPy dominates the import time
    if norm.dim not in (2, 3):
        raise ValueError("violation search is implemented for d in {2, 3}")
    dual = dual or norm.dual()
    k_ang = 1 if norm.dim == 2 else 2

    def objective(x: np.ndarray) -> float:
        u = _angles_to_unit(x[:k_ang], norm.dim)
        v = _angles_to_unit(x[k_ang:], norm.dim)
        rhs = float(np.dot(u, v))
        if abs(rhs) < eps_sign:
            return 1e3
        lhs = float(np.dot(norm.grad(u), dual.grad(v)))
        return lhs * (1.0 if rhs > 0 else -1.0)

    # seed starts with the worst pairs from a coarse scan plus random angles
    starts = []
    for rep in worst_pairs(norm, scan_count, k=max(2, n_starts // 2), seed=seed,
                           dual=dual, eps_sign=eps_sign):
        starts.append(np.concatenate([_unit_to_angles(rep.u), _unit_to_angles(rep.v)]))
    rng = np.random.default_rng(seed)
    while len(starts) < n_starts:
        starts.append(rng.uniform(0, 2 * np.pi, size=2 * k_ang))

    best_x, best_f, any_ok = None, np.inf, False
    for x0 in starts:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        any_ok = any_ok or bool(res.success)
        if res.fun < best_f:
            best_f, best_x = float(res.fun), res.x
    u = _angles_to_unit(best_x[:k_ang], norm.dim)
    v = _angles_to_unit(best_x[k_ang:], norm.dim)
    return ViolationSearchResult(
        worst=pair_report(norm, u, v, dual=dual, eps_sign=eps_sign),
        objective=best_f, converged=any_ok, starts=len(starts))


def _unit_to_angles(u: np.ndarray) -> np.ndarray:
    if u.shape[0] == 2:
        return np.array([np.arctan2(u[1], u[0])])
    return np.array([np.arccos(np.clip(u[2], -1.0, 1.0)), np.arctan2(u[1], u[0])])
