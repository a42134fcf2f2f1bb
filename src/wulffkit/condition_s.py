"""Sign agreement between gauge gradients and dual-gauge gradients.

For a gauge F and its dual F°, condition S asks that
sgn <grad F(u), grad F°(v)> = sgn <u, v> for all nonzero u, v.  Quadratic
gauges satisfy the stronger pairing identity
<grad F(u), grad F°(v)> = <u, v> / (F(u) F°(v)); its residual is reported
per pair so that non-quadratic gauges can be separated quantitatively.

Sign classification uses a dead band: |x| < EPS_SIGN counts as sign 0.
The condition itself is exact, so the checker tests it away from the
measure-zero orthogonality set and separately requires a pairing below
DELTA_ZERO on near-orthogonal samples (this tolerance semantics is a choice
of this toolkit, and the verdict records both thresholds).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .norms import DualNorm, MinkowskiNorm, _check_direction, _orthonormal_complement, _shaped

EPS_SIGN = 1e-8     # |x| below this has sign 0 (the dead band)
DELTA_ZERO = 1e-6   # the largest |pairing| a pair inside the dead band may have


def deadband_sign(x: float) -> int:
    if abs(x) < EPS_SIGN:
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

    @property
    def lhs_sign(self) -> int:
        return deadband_sign(self.lhs)

    @property
    def rhs_sign(self) -> int:
        return deadband_sign(self.rhs_sign_ref)

    @property
    def margin(self) -> float:
        """Positive when the pair is compatible with the sign condition."""
        return float(_margin(self.lhs, self.rhs_sign_ref))


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


def pair_report(norm: MinkowskiNorm, u, v, dual: DualNorm | None = None) -> PairReport:
    """Pairing diagnostics of one pair (u, v): the scan of a batch of one."""
    U, V = (_shaped(x, norm.dim)[None, :] for x in (u, v))
    lhs, rhs, fk, margin, _ = _scan(norm, dual or norm.dual(), U, V)
    return _ranked(U, V, lhs, rhs, fk, margin, 1)[0]


def _margin(lhs, rhs):
    """Positive when the pair is compatible with condition S: lhs * sgn(rhs)
    away from orthogonality, DELTA_ZERO - |lhs| within the dead band."""
    return np.where(np.abs(rhs) >= EPS_SIGN, lhs * np.where(rhs > 0, 1.0, -1.0),
                    DELTA_ZERO - np.abs(lhs))


def _scan(norm: MinkowskiNorm, dual: DualNorm, U: np.ndarray, V: np.ndarray):
    """Pairing diagnostics of the sample pairs (U[i], V[i]): lhs, rhs, fk and
    margin arrays, and the dual-ascent counts (empty for a closed dual)."""
    GU = norm.grad(U)
    if dual.mode == "closed":
        FV, GV = dual.eval_with_maximizer(V)
        counts = {}
    else:
        FV, GV, iterations, fallbacks = dual._ascend(_check_direction(_shaped(V, norm.dim)))
        counts = {"dual_iterations": iterations, "dual_fallbacks": fallbacks}
    lhs = np.einsum("mi,mi->m", GU, GV)
    rhs = np.einsum("mi,mi->m", U, V)
    fk = lhs - rhs / (norm.value(U) * FV)
    return lhs, rhs, fk, _margin(lhs, rhs), counts


def _ranked(U, V, lhs, rhs, fk, margin, k: int) -> list[PairReport]:
    """The k pairs with the smallest margin, smallest first (ties in sample
    order, so the first is the one np.argmin picks)."""
    return [PairReport(u=U[i], v=V[i], lhs=float(lhs[i]), rhs_sign_ref=float(rhs[i]),
                       fk_residual=float(fk[i]))
            for i in np.argsort(margin, kind="stable")[:k]]


def check_condition_s(norm: MinkowskiNorm, sample_count: int = 10_000, *,
                      seed: int = 0, dual: DualNorm | None = None,
                      worst_k: int = 0) -> ConditionSVerdict:
    """Scan quasi-random unit pairs for sign-condition violations.

    A pair with |<u,v>| >= EPS_SIGN must have <grad F(u), grad F°(v)> of the
    same strict sign; a near-orthogonal pair must have |pairing| < DELTA_ZERO.
    The verdict lists the worst_k pairs of smallest margin in `worst_pairs`,
    from the same scan.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    dual = dual or norm.dual()
    U, V = unit_pair_samples(norm.dim, sample_count, seed=seed)
    lhs, rhs, fk, margin, counts = _scan(norm, dual, U, V)
    ranked = _ranked(U, V, lhs, rhs, fk, margin, max(worst_k, 1))
    return ConditionSVerdict(
        passed=bool(np.all(margin > 0.0)), worst=ranked[0], samples=sample_count,
        eps_sign=EPS_SIGN, delta_zero=DELTA_ZERO, max_fk_residual=float(np.max(fk)),
        min_margin=float(np.min(margin)),
        deadband_pairs=int(np.sum(np.abs(rhs) < EPS_SIGN)),
        worst_pairs=ranked[:worst_k],
        metadata={"seed": seed, "norm": norm.label,
                  "sign_semantics": "dead-band classification, see module docstring",
                  **counts})


def worst_pairs(norm: MinkowskiNorm, sample_count: int = 10_000, k: int = 10,
                seed: int = 0, dual: DualNorm | None = None) -> list[PairReport]:
    """The k sampled pairs with the smallest sign-condition margin."""
    return check_condition_s(norm, sample_count, seed=seed, dual=dual, worst_k=k).worst_pairs


@dataclass
class ViolationSearchResult:
    worst: PairReport
    objective: float           # min of lhs * sgn(<u,v>); negative => violated
    converged: bool
    starts: int


# the pattern search: first and final step (radians), least gain of a move (rounding
# noise along the dead band's edge would keep a start moving) and most steps
_SEARCH_STEP, _SEARCH_FINAL_STEP, _SEARCH_GAIN, _SEARCH_STEPS = 0.1, 1e-13, 1e-15, 200
_SEARCH_SCAN = 2048     # pairs of the scan whose worst pairs are starts


def search_violation(norm: MinkowskiNorm, n_starts: int = 12, seed: int = 0,
                     dual: DualNorm | None = None) -> ViolationSearchResult:
    """Multi-start pattern search for the minimum of lhs * sgn(<u,v>) over unit
    pairs outside the dead band, from the worst pairs of a scan of 2048
    pairs and seeded random pairs.  Each step scores, for all starts at once,
    every pair of turns of u and of v by h along the axes of {-1, 0, 1}^(d-1)
    (`_turned`); a start moves to its best pair and doubles h, or halves h,
    until h < 1e-13 (`converged`: the best start got there in 200 steps).
    A negative optimum certifies a violation; the search is local, so a
    non-negative optimum is evidence, not proof.
    """
    dual = dual or norm.dual()
    d = norm.dim
    worst = worst_pairs(norm, _SEARCH_SCAN, k=max(2, n_starts // 2), seed=seed, dual=dual)
    R = np.random.default_rng(seed).standard_normal((max(0, n_starts - len(worst)), 2, d))
    R /= np.linalg.norm(R, axis=2, keepdims=True)
    U = np.concatenate([[rep.u for rep in worst], R[:, 0]])
    V = np.concatenate([[rep.v for rep in worst], R[:, 1]])
    grid = np.array(list(itertools.product((0.0, -1.0, 1.0), repeat=d - 1)))  # (K, d-1)
    step, best, live = np.full(len(U), _SEARCH_STEP), np.full(len(U), np.inf), np.arange(len(U))
    for _ in range(_SEARCH_STEPS):
        if not live.size:
            break
        m = len(live)
        TU = _turned(U[live], V[live], step[live], grid)   # (m, K, d)
        TV = _turned(V[live], U[live], step[live], grid)
        # every u' against every v' of the same start, from one lockstep dual call
        lhs = np.einsum("mid,mjd->mij", norm.grad(TU.reshape(-1, d)).reshape(TU.shape),
                        dual.grad(TV.reshape(-1, d)).reshape(TV.shape)).reshape(m, -1)
        rhs = np.einsum("mid,mjd->mij", TU, TV).reshape(m, -1)
        objective = np.where(np.abs(rhs) < EPS_SIGN, np.inf, _margin(lhs, rhs))
        j = np.argmin(objective, axis=1)
        f = objective[np.arange(m), j]
        moved = f < best[live] - _SEARCH_GAIN
        rows, (iu, iv) = live[moved], np.divmod(j[moved], len(grid))
        U[rows], V[rows], best[rows] = TU[moved, iu], TV[moved, iv], f[moved]
        step[live] = np.where(moved, np.minimum(2.0 * step[live], _SEARCH_STEP), 0.5 * step[live])
        live = live[step[live] >= _SEARCH_FINAL_STEP]
    b = int(np.argmin(best))
    return ViolationSearchResult(
        worst=pair_report(norm, U[b], V[b], dual=dual),
        objective=float(best[b]), converged=bool(step[b] < _SEARCH_FINAL_STEP),
        starts=len(U))


def _turned(U: np.ndarray, V: np.ndarray, h: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """U[i] (m, d) turned by h[i] a for each row a of grid (K, d-1): (m, K, d).
    a_0 changes the angle to V[i]; the rest turn U[i] about V[i], keeping
    <U[i], V[i]> along the dead band's edge, where violations are worst."""
    T = _orthonormal_complement(V)                  # (m, d, d-1), a basis of V[i]^perp
    w = np.einsum("mdj,md->mj", T, U)               # U[i] in that basis
    s = np.linalg.norm(w, axis=1)
    # turn the basis so that its first column is U[i]'s direction in V[i]^perp
    w /= s[:, None]
    T = T @ np.concatenate([w[:, :, None], _orthonormal_complement(w)], axis=2)
    angle = np.arctan2(s, np.einsum("md,md->m", U, V))[:, None] + h[:, None] * grid[:, 0]
    tilt = np.where(np.arange(grid.shape[1]) == 0, 1.0, h[:, None, None] * grid)  # (m, K, d-1)
    tilt /= np.linalg.norm(tilt, axis=2, keepdims=True)
    return (np.cos(angle)[:, :, None] * V[:, None, :]
            + np.sin(angle)[:, :, None] * np.einsum("mdj,mkj->mkd", T, tilt))
