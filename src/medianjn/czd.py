"""Calderon-Zygmund machinery over a fixed base ball.

Everything here works relative to a base ball B0, an enlargement factor
eta > 0 with hat-B0 = (1 + eta) B0, and the ball family

    family = { B(x, r) : x in B0, r <= eta * r_B0 },

realized on the finite space as one ball per (center, member-set) class
with the representative radius capped at the budget eta * r_B0.  The cap
matters: it is what makes the family saturate the radius budget the way
the set of all real radii does, which in turn makes the stopping-time
certificates provable rather than merely plausible.

The decomposition at level lambda selects, for every point of the level
set E_lambda = {x in hat-B0 : M f(x) > lambda} of the median maximal
function, the largest family ball through x whose t-median exceeds lambda,
then extracts a disjoint subfamily via the 5-covering step.  Four
certificates are recorded and verified on every run:

  (i)   union B_i  is inside  E_lambda  is inside  union 5 B_i,
  (ii)  r_Bi <= (eta / 5) r_B0,
  (iii) the t-median of f on each B_i exceeds lambda,
  (iv)  the t-median on every admissible dilate class sigma B_i
        (sigma >= 2, sigma r_Bi <= eta r_B0) is at most lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import FiveCover, five_cover
from .errors import (
    CertificateViolation,
    EmptyBase,
    EmptyLevelSet,
    InvalidCenterLevel,
    InvalidLevel,
    InvalidParameter,
    InvalidS,
    PreconditionViolated,
    ThresholdViolated,
)
from .median import _as_values, maximal_median, weighted_maximal_median
from .norms import jn_median_norm
from .space import (
    Ball,
    DoublingProfile,
    Space,
    _prefix_balls,
    dilate,
    doubling_profile,
)

_REL_EPS = 1e-12


def alpha_of(profile: DoublingProfile, eta: float) -> float:
    """5^D c_mu^2 (1 + 1/eta)^D with D the doubling dimension."""
    if not eta > 0.0:
        raise InvalidParameter(f"eta must be positive, got {eta}")
    c, d = profile.c_mu, profile.dimension
    return float(5.0**d * c * c * (1.0 + 1.0 / eta) ** d)


def cz_family(space: Space, b0: Ball, eta: float) -> tuple[Ball, ...]:
    """All distinct balls with center in B0 and radius at most eta * r_B0.

    Per center, one ball per member-set class with representative radius
    min(class upper endpoint, budget); classes are deduplicated by member
    set keeping the largest radius, then the smallest center index.
    Raises EmptyBase.
    """
    if not eta > 0.0:
        raise InvalidParameter(f"eta must be positive, got {eta}")
    if b0.size == 0:
        raise EmptyBase("cz_family needs a nonempty base ball")
    budget = eta * b0.radius
    return _prefix_balls(space, b0.idx, budget=budget)


def _s0(profile: DoublingProfile, alpha: float) -> float:
    """min(1/(2 alpha), 1/(8 c_mu^3)), the largest admissible level s."""
    return float(min(1.0 / (2.0 * alpha), 1.0 / (8.0 * profile.c_mu**3)))


@dataclass(frozen=True, eq=False)
class CZParams:
    """Frozen bundle of the base-ball geometry and derived constants.

    alpha follows the 5^D c^2 (1+1/eta)^D formula, s0 equals
    min(1/(2 alpha), 1/(8 c^3)), K defaults to 2^(1/p), and
    beta = 2 K^p c^3 is the level-scaling factor of the sharp maximal
    function.
    """

    space: Space
    profile: DoublingProfile
    b0: Ball
    b0_hat: Ball
    eta: float
    t: float
    p: float
    K: float
    alpha: float
    beta: float
    s0: float
    family: tuple[Ball, ...]
    point_balls: tuple[tuple[int, ...], ...]

    @property
    def budget(self) -> float:
        return self.eta * self.b0.radius


def cz_params(
    space: Space,
    b0: Ball,
    eta: float,
    t: float = 0.5,
    p: float = 2.0,
    K: float | None = None,
    profile: DoublingProfile | None = None,
) -> CZParams:
    if not (0.0 < t <= 1.0):
        raise InvalidParameter(f"t must lie in (0, 1], got {t}")
    if not p > 1.0:
        raise InvalidParameter(f"p must exceed 1, got {p}")
    if profile is None:
        profile = doubling_profile(space)
    if K is None:
        K = 2.0 ** (1.0 / p)
    if not K > 1.0:
        raise InvalidParameter(f"K must exceed 1, got {K}")
    family = cz_family(space, b0, eta)
    point_balls: list[list[int]] = [[] for _ in range(space.n)]
    for bi, ball in enumerate(family):
        for x in ball.idx:
            point_balls[x].append(bi)
    alpha = alpha_of(profile, eta)
    c3 = profile.c_mu**3
    return CZParams(
        space=space,
        profile=profile,
        b0=b0,
        b0_hat=dilate(space, b0, 1.0 + eta),
        eta=float(eta),
        t=float(t),
        p=float(p),
        K=float(K),
        alpha=alpha,
        beta=float(2.0 * K**p * c3),
        s0=_s0(profile, alpha),
        family=family,
        point_balls=tuple(tuple(lst) for lst in point_balls),
    )


# ---------------------------------------------------------------- maximal functions


def _family_medians(params: CZParams, g: np.ndarray, level: float) -> np.ndarray:
    w = params.space.weights
    return np.array(
        [
            weighted_maximal_median(g[list(b.idx)], w[list(b.idx)], level)
            for b in params.family
        ]
    )


def median_maximal(space: Space, f, x: str, family, t: float) -> float:
    """sup over family balls through x of the maximal t-median of |f|.

    Returns 0.0 when no family ball contains x.
    """
    if not (0.0 < t <= 1.0):
        raise InvalidParameter(f"t must lie in (0, 1], got {t}")
    g = np.abs(_as_values(space, f))
    xi = space.index(x)
    best = 0.0
    for ball in family:
        if xi in ball.idx:
            idx = list(ball.idx)
            best = max(best, weighted_maximal_median(g[idx], space.weights[idx], t))
    return best


def sharp_maximal(space: Space, f, x: str, family, t: float, beta: float) -> float:
    """sup over family balls through x of m^{t/beta}_{|f - m_f^t(B)|}(B)."""
    level = t / beta
    if not (0.0 < level <= 1.0):
        raise InvalidLevel(f"t/beta must lie in (0, 1], got {level}")
    vals = _as_values(space, f)
    xi = space.index(x)
    best = 0.0
    for ball in family:
        if xi in ball.idx:
            idx = list(ball.idx)
            w = space.weights[idx]
            center = weighted_maximal_median(vals[idx], w, t)
            best = max(
                best, weighted_maximal_median(np.abs(vals[idx] - center), w, level)
            )
    return best


# ---------------------------------------------------------------- decomposition


@dataclass(frozen=True)
class CZCertificates:
    union_in_level_set: bool
    level_set_in_dilates: bool
    radius_bound: bool
    family_radius_bound: bool
    medians_above_level: bool
    dilates_at_most_level: bool

    @property
    def ok(self) -> bool:
        return (
            self.union_in_level_set
            and self.level_set_in_dilates
            and self.radius_bound
            and self.family_radius_bound
            and self.medians_above_level
            and self.dilates_at_most_level
        )


@dataclass(frozen=True, eq=False)
class CZDecomposition:
    """Selected balls at one level plus the verified certificates."""

    lam: float
    threshold: float
    balls: tuple[Ball, ...]
    e_lambda: tuple[str, ...]
    witnesses: tuple[Ball, ...]
    witness_of: dict
    cover: FiveCover
    certificates: CZCertificates
    lambda0: float | None = None


def _dilate_class_sets(space: Space, ball: Ball, budget: float):
    """Member sets of sigma * ball for sigma >= 2 with sigma r <= budget."""
    lo = 2.0 * ball.radius
    cap = budget * (1.0 + _REL_EPS)
    if lo > cap:
        return []
    ci = space.index(ball.center)
    row = space.dist[ci]
    ds = np.unique(row)
    sets = []
    for k in range(len(ds) - 1):
        if ds[k + 1] >= lo and ds[k] < cap:
            sets.append(np.nonzero(row < ds[k + 1])[0])
    if cap > ds[-1]:
        sets.append(np.arange(space.n))
    return sets


def cz_decompose(
    f,
    params: CZParams,
    lam: float,
    _medians: np.ndarray | None = None,
    _containment: dict | None = None,
) -> CZDecomposition:
    """Calderon-Zygmund balls of |f| at level lambda.

    Preconditions (checked): the t/alpha-median of |f| on hat-B0 is at most
    lambda (else ThresholdViolated) and E_lambda is nonempty (else
    EmptyLevelSet).  ``_containment`` maps point ids to balls that their
    witness must contain; the nested construction uses it to keep the
    lower-level witness above the higher-level one.
    """
    space = params.space
    g = np.abs(_as_values(space, f))
    med = _medians if _medians is not None else _family_medians(params, g, params.t)

    hat_idx = list(params.b0_hat.idx)
    threshold = weighted_maximal_median(
        g[hat_idx], space.weights[hat_idx], params.t / params.alpha
    )
    if threshold > lam:
        raise ThresholdViolated(
            f"median threshold {threshold:.6g} exceeds level {lam:.6g}"
        )

    maximal = np.zeros(space.n)
    for bi, ball in enumerate(params.family):
        idx = list(ball.idx)
        maximal[idx] = np.maximum(maximal[idx], med[bi])
    e_idx = [x for x in params.b0_hat.idx if maximal[x] > lam]
    if not e_idx:
        raise EmptyLevelSet(f"no point of hat-B0 has maximal function above {lam:.6g}")

    witness_index: dict[int, int] = {}
    for x in e_idx:
        required = _containment.get(space.point_ids[x]) if _containment else None
        best = None
        for bi in params.point_balls[x]:
            if med[bi] <= lam:
                continue
            ball = params.family[bi]
            if required is not None and (ball.mask & required.mask) != required.mask:
                continue
            rank = (-ball.radius, space.index(ball.center), bi)
            if best is None or rank < best[0]:
                best = (rank, bi)
        if best is None:
            raise CertificateViolation(
                f"no admissible witness ball for point {space.point_ids[x]!r}"
            )
        witness_index[x] = best[1]

    witness_ids = sorted(set(witness_index.values()))
    witnesses = tuple(params.family[bi] for bi in witness_ids)
    witness_of = {
        space.point_ids[x]: witness_ids.index(bi) for x, bi in witness_index.items()
    }
    cover = five_cover(space, witnesses)

    # -- certificates -------------------------------------------------
    e_set = set(e_idx)
    union_ok = all(i in e_set for b in cover.selected for i in b.idx)
    covered = set()
    for d in cover.dilates:
        covered.update(d.idx)
    cover_ok = e_set <= covered

    limit = (params.eta / 5.0) * params.b0.radius * (1.0 + _REL_EPS)
    radius_ok = all(b.radius <= limit for b in cover.selected)
    family_ok = all(
        ball.radius <= limit
        for ball, m in zip(params.family, med)
        if m > threshold
    )

    # The selected balls are witnesses, so their medians exceed lambda by
    # construction; re-check directly against the function values.
    w_all = space.weights
    median_ok = all(
        weighted_maximal_median(g[list(b.idx)], w_all[list(b.idx)], params.t) > lam
        for b in cover.selected
    )

    lam_cap = lam + _REL_EPS * max(1.0, abs(lam))
    dilate_ok = True
    for ball in cover.selected:
        for members in _dilate_class_sets(space, ball, params.budget):
            m = weighted_maximal_median(g[members], w_all[members], params.t)
            if m > lam_cap:
                dilate_ok = False
                break
        if not dilate_ok:
            break

    certificates = CZCertificates(
        union_in_level_set=union_ok,
        level_set_in_dilates=cover_ok,
        radius_bound=radius_ok,
        family_radius_bound=family_ok,
        medians_above_level=median_ok,
        dilates_at_most_level=dilate_ok,
    )
    if not certificates.ok:
        raise CertificateViolation(
            f"decomposition at level {lam:.6g} failed {certificates}"
        )
    return CZDecomposition(
        lam=float(lam),
        threshold=float(threshold),
        balls=cover.selected,
        e_lambda=tuple(space.point_ids[x] for x in e_idx),
        witnesses=witnesses,
        witness_of=witness_of,
        cover=cover,
        certificates=certificates,
    )


def cz_nested(
    f, params: CZParams, lam_low: float, lam_high: float
) -> tuple[CZDecomposition, CZDecomposition, tuple[tuple[int, int], ...]]:
    """Nested decompositions with the high level mapped into low 5-dilates.

    Requires threshold <= lam_low <= lam_high.  Returns (low, high,
    containment) where containment pairs each high-level ball index with a
    low-level ball index j such that the high ball lies inside 5 B_j; the
    relation is verified exactly before returning.
    """
    if lam_low > lam_high:
        raise InvalidParameter("lam_low must not exceed lam_high")
    space = params.space
    g = np.abs(_as_values(space, f))
    med = _family_medians(params, g, params.t)
    high = cz_decompose(f, params, lam_high, _medians=med)

    # Points of E_high must reuse a witness containing their high witness.
    constraint = {
        pid: high.witnesses[wi] for pid, wi in high.witness_of.items()
    }
    low = cz_decompose(f, params, lam_low, _medians=med, _containment=constraint)

    pairs = []
    for hi_pos, ball in enumerate(high.balls):
        rep = None
        for pid, wi in high.witness_of.items():
            if high.witnesses[wi] == ball:
                rep = pid
                break
        if rep is None:
            raise CertificateViolation("selected high ball has no witness point")
        low_wpos = low.witness_of[rep]
        low_pos = low.cover.assignment[low_wpos]
        cover_ball = low.cover.dilates[low_pos]
        if ball.mask & cover_ball.mask != ball.mask:
            raise CertificateViolation(
                f"high ball {ball.ball_id()} escapes 5-dilate of "
                f"{low.balls[low_pos].ball_id()}"
            )
        pairs.append((hi_pos, low_pos))
    return low, high, tuple(pairs)


# ---------------------------------------------------------------- good-lambda


@dataclass(frozen=True)
class GoodLambdaResult:
    lam: float
    lhs: float
    rhs: float
    passed: bool
    jn_norm: float
    low: CZDecomposition
    high: CZDecomposition


def good_lambda_sides(f, params: CZParams, p: float, s: float, lam: float) -> GoodLambdaResult:
    """Both sides of the good-lambda estimate at levels lambda and K lambda.

    lhs sums the measures of the K lambda-level balls; rhs combines the
    John-Nirenberg norm of f on hat-B0 with half the K^{-p}-scaled measure
    sum at level lambda.  ``p`` must equal ``params.p``, which fixed K and
    beta; otherwise InvalidParameter.  Raises PreconditionViolated with the
    failing hypothesis named.
    """
    space = params.space
    K = params.K
    if p != params.p:
        raise InvalidParameter(f"p={p:.6g} differs from params.p={params.p:.6g}, which fixed K")
    if not (0.0 < params.t <= 0.5):
        raise PreconditionViolated(f"t must lie in (0, 1/2], got {params.t}")
    c3 = params.profile.c_mu**3
    if s > params.t / params.beta * (1.0 + _REL_EPS):
        raise PreconditionViolated(
            f"s={s:.6g} exceeds t / (2 K^p c_mu^3) = {params.t / params.beta:.6g}"
        )
    g = np.abs(_as_values(space, f))
    hat_idx = list(params.b0_hat.idx)
    threshold = weighted_maximal_median(
        g[hat_idx], space.weights[hat_idx], params.t / params.alpha
    )
    if threshold > lam:
        raise PreconditionViolated(
            f"median threshold {threshold:.6g} exceeds level {lam:.6g}"
        )
    try:
        low, high, _ = cz_nested(f, params, lam, K * lam)
    except EmptyLevelSet as exc:
        raise PreconditionViolated(f"empty level set: {exc}") from None

    norm = jn_median_norm(
        space, f, params.b0_hat, p, s, mode="exact", force=True
    )
    lhs = sum(space.mu(b.idx) for b in high.balls)
    rhs = (
        (2.0**p * c3 / (K - 1.0) ** p) * norm.total / lam**p
        + sum(space.mu(b.idx) for b in low.balls) / (2.0 * K**p)
    )
    return GoodLambdaResult(
        lam=float(lam),
        lhs=float(lhs),
        rhs=float(rhs),
        passed=bool(lhs <= rhs * (1.0 + 1e-9)),
        jn_norm=norm.value,
        low=low,
        high=high,
    )


# ---------------------------------------------------------------- local verifier


def local_jn_constant(p: float, c_mu: float) -> float:
    """2^(p+3) c_mu^6 / (2^(1/p) - 1)^p."""
    return float(2.0 ** (p + 3.0) * c_mu**6 / (2.0 ** (1.0 / p) - 1.0) ** p)


@dataclass(frozen=True)
class LocalJNEntry:
    lam: float
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class LocalJNReport:
    lambda0: float
    entries: tuple[LocalJNEntry, ...]
    constant_c: float
    s0: float
    alpha: float
    jn_norm: float
    trivial_bound_ok: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "entries": [
                {"lambda": e.lam, "lhs": e.lhs, "rhs": e.rhs, "pass": e.passed}
                for e in self.entries
            ],
            "constant_c": self.constant_c,
            "s0": self.s0,
            "alpha": self.alpha,
            "jn_norm": self.jn_norm,
            "trivial_bound": self.trivial_bound_ok,
            "pass": self.passed,
        }


def default_lambda_grid(lambda0: float, hi: float, count: int = 50) -> np.ndarray:
    """Log-spaced grid from just above lambda0 up to hi."""
    if hi <= 0.0:
        return np.array([1.0])
    lo = lambda0 * 1.01 if lambda0 > 0.0 else hi * 1e-6
    lo = min(lo, hi)
    return np.geomspace(lo, hi, count)


def local_jn_verify(
    f,
    params: CZParams,
    p: float,
    s: float,
    r_center: float,
    lambda_grid=None,
) -> LocalJNReport:
    """Check the local weak-type oscillation inequality on a lambda grid.

    For each lambda: lhs = mu{x in B0 : |f - m_f^r(B0)| > lambda} against
    rhs = c * norm^p / lambda^p with the norm taken over hat-B0 in exact
    mode.  The below-threshold regime is covered by the separate bound
    mu(hat-B0) lambda0^p <= 2^p norm^p.  Raises InvalidS and
    InvalidCenterLevel.
    """
    space = params.space
    if not (0.0 < s <= params.s0 * (1.0 + _REL_EPS)):
        raise InvalidS(f"s must lie in (0, s0={params.s0:.6g}], got {s}")
    if not (s <= r_center * (1.0 + _REL_EPS) and r_center <= 0.5):
        raise InvalidCenterLevel(f"need s <= r <= 1/2, got r={r_center}")

    center = maximal_median(space, f, params.b0, r_center)
    g = np.abs(_as_values(space, f) - center)
    hat_idx = list(params.b0_hat.idx)
    lambda0 = weighted_maximal_median(
        g[hat_idx], space.weights[hat_idx], params.t / params.alpha
    )
    norm = jn_median_norm(space, f, params.b0_hat, p, s, mode="exact", force=True)
    c_const = local_jn_constant(p, params.profile.c_mu)

    if lambda_grid is None:
        lambda_grid = default_lambda_grid(lambda0, 2.0 * float(g[hat_idx].max()))
    entries = []
    b0_idx = list(params.b0.idx)
    for lam in np.asarray(lambda_grid, dtype=float):
        lhs = float(space.weights[b0_idx][g[b0_idx] > lam].sum())
        rhs = c_const * norm.total / lam**p if lam > 0.0 else math.inf
        entries.append(
            LocalJNEntry(
                lam=float(lam),
                lhs=lhs,
                rhs=float(rhs),
                passed=bool(lhs <= rhs * (1.0 + 1e-9)),
            )
        )
    trivial_ok = bool(
        space.mu(hat_idx) * lambda0**p <= 2.0**p * norm.total * (1.0 + 1e-9)
    )
    return LocalJNReport(
        lambda0=float(lambda0),
        entries=tuple(entries),
        constant_c=c_const,
        s0=params.s0,
        alpha=params.alpha,
        jn_norm=norm.value,
        trivial_bound_ok=trivial_ok,
        passed=bool(all(e.passed for e in entries) and trivial_ok),
    )
