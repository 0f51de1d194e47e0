"""Calderon-Zygmund machinery over a fixed base ball.

Everything here works relative to a base ball B0, an enlargement factor
eta > 0 with hat-B0 = (1 + eta) B0, and the ball family

    family = { B(x, r) : x in B0, r <= eta * r_B0 },

realized on the finite space as one ball per (center, member-set) class
with the representative radius capped at the budget eta * r_B0.  The cap
matters: it is what makes the family saturate the radius budget the way
the set of all real radii does, which in turn makes the stopping-time
certificates provable rather than merely plausible.

The family is held as arrays (``space._BallFamily``), cached with the
space per (B0 members, budget) together with an index from member set to
row; the space keeps each SampleFunction's t-medians per (family, t) as
one read-only float array, computed by one ``_maximal_median_rows`` call
per block of ``space._row_blocks``, as are the maximal functions.

The decomposition at level lambda selects, for every point of the level
set E_lambda = {x in hat-B0 : M f(x) > lambda} of the median maximal
function, the largest family ball through x whose t-median exceeds lambda,
then extracts a disjoint subfamily via the 5-covering step.  The witness
of x is the first row in (-radius, center index, row) order that holds
x, has median above lambda and, in the nested construction, contains the
higher level's witness of x (tested on packed words).  Four certificates
are recorded and verified on every run:

  (i)   union B_i  is inside  E_lambda  is inside  union 5 B_i,
  (ii)  r_Bi <= (eta / 5) r_B0,
  (iii) the t-median of f on each B_i exceeds lambda,
  (iv)  the t-median on every admissible dilate class sigma B_i
        (sigma >= 2, sigma r_Bi <= eta r_B0) is at most lambda.

(iii) recomputes each selected ball's median from the function values,
as a check independent of the cached medians that chose it.  (iv) reads
each dilate class's median from the family's: a class within the budget
is a prefix ball of a center in B0, so some family row has its member
set, and the cached median is that of the same set in the same order by
the same kernel.  Only a class admitted by the ``_REL_EPS`` slack beyond
the budget can miss the family, and its median is computed directly.
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
from .median import _as_values, _maximal_median_rows, maximal_median, weighted_maximal_median
from .norms import _cached_family, _check_p_exceeds_1, jn_median_norm
from .space import (
    Ball,
    DoublingProfile,
    Space,
    _BallFamily,
    _canonical_family,
    _family_balls,
    _member_matrix,
    _pack_rows,
    _row_blocks,
    dilate,
    doubling_profile,
)

_REL_EPS = 1e-12


def _check_eta(eta: float) -> None:
    if not eta > 0.0:
        raise InvalidParameter(f"eta must be positive, got {eta}")
    if eta == math.inf:
        raise InvalidParameter(f"eta must be finite, got {eta}")


def _check_t(t: float) -> None:
    if not (0.0 < t <= 1.0):
        raise InvalidParameter(f"t must lie in (0, 1], got {t}")


def _lambda_levels(lambda_grid) -> np.ndarray:
    """A lambda grid as a float array; InvalidLevel if it is empty or not finite."""
    levels = np.asarray(lambda_grid, dtype=float)
    if levels.size == 0:
        raise InvalidLevel("the lambda grid is empty")
    if not np.isfinite(levels).all():
        raise InvalidLevel(f"lambda levels must be finite, got {levels[~np.isfinite(levels)][0]}")
    return levels


def alpha_of(profile: DoublingProfile, eta: float) -> float:
    """5^D c_mu^2 (1 + 1/eta)^D with D the doubling dimension."""
    _check_eta(eta)
    c, d = profile.c_mu, profile.dimension
    return float(5.0**d * c * c * (1.0 + 1.0 / eta) ** d)


def cz_family(space: Space, b0: Ball, eta: float) -> tuple[Ball, ...]:
    """All distinct balls with center in B0 and radius at most eta * r_B0.

    Per center, one ball per member-set class with representative radius
    min(class upper endpoint, budget); classes are deduplicated by member
    set keeping the largest radius, then the smallest center index.  The
    space keeps the latest family's tuple, so repeated calls with the same
    B0 members and budget share it.  Raises EmptyBase.
    """
    _check_eta(eta)
    if b0.size == 0:
        raise EmptyBase("cz_family needs a nonempty base ball")
    key = (b0.idx, eta * b0.radius)
    cache = space._cache()
    # One family's Balls only: kept for every key, the balls of a long
    # run's families would add up, while their arrays stay small.
    latest = cache.get("cz_balls")
    if latest is None or latest[0] != key:
        latest = cache["cz_balls"] = (key, _family_balls(space, _canonical_family(space, *key)))
    return latest[1]


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
) -> CZParams:
    _check_t(t)
    _check_p_exceeds_1(p)
    profile = doubling_profile(space)
    if K is None:
        K = 2.0 ** (1.0 / p)
    if not K > 1.0:
        raise InvalidParameter(f"K must exceed 1, got {K}")
    if K == math.inf:
        raise InvalidParameter(f"K must be finite, got {K}")
    family = cz_family(space, b0, eta)
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
    )


# ---------------------------------------------------------------- maximal functions


def _family_medians(f, params: CZParams) -> tuple[_BallFamily, np.ndarray]:
    """The CZ family's arrays and the t-median of |f| on every row (``norms._cached_family``).

    One ``_maximal_median_rows`` call per block of ``space._row_blocks``,
    each row with the bits of the one-set ``weighted_maximal_median`` on
    its members in index order.
    """
    space = params.space

    def compute(family):
        g, w = np.append(np.abs(_as_values(space, f)), np.inf), np.append(space.weights, 0.0)
        med = np.empty(len(family))
        for sel, size, pts in _row_blocks(space.n, family.sizes, family.words):
            med[sel] = _maximal_median_rows(g[pts], w[pts], params.t, size)
        return med

    family_key = (params.b0.idx, params.budget)
    return _cached_family(space, f, family_key, ("cz_medians", params.t), compute)


def _threshold(params: CZParams, g: np.ndarray) -> float:
    """The t/alpha-median of g on hat-B0."""
    hat = list(params.b0_hat.idx)
    return weighted_maximal_median(g[hat], params.space.weights[hat], params.t / params.alpha)


def median_maximal(space: Space, f, x: str, family, t: float) -> float:
    """sup over family balls through x of the maximal t-median of |f|; 0.0 if none.

    One ``_maximal_median_rows`` call per ``_row_blocks`` block of those balls.
    """
    _check_t(t)
    g, w = np.append(np.abs(_as_values(space, f)), np.inf), np.append(space.weights, 0.0)
    xi = space.index(x)
    rows = [ball.idx for ball in family if xi in ball.idx]
    flat = np.array([i for idx in rows for i in idx], dtype=np.intp)
    best = 0.0
    for _, size, pts in _row_blocks(space.n, list(map(len, rows)), flat):
        best = max(best, _maximal_median_rows(g[pts], w[pts], t, size).max())
    return float(best)


def sharp_maximal(space: Space, f, x: str, family, t: float, beta: float) -> float:
    """sup over family balls through x of m^{t/beta}_{|f - m_f^t(B)|}(B); 0.0 if none.

    Per block of those balls, ``_maximal_median_rows`` gives the centers, then the deviation medians.
    """
    _check_t(t)
    level = t / beta
    if not (0.0 < level <= 1.0):
        raise InvalidLevel(f"t/beta must lie in (0, 1], got {level}")
    vals, w = np.append(_as_values(space, f), np.inf), np.append(space.weights, 0.0)
    xi = space.index(x)
    rows = [ball.idx for ball in family if xi in ball.idx]
    flat = np.array([i for idx in rows for i in idx], dtype=np.intp)
    best = 0.0
    for _, size, pts in _row_blocks(space.n, list(map(len, rows)), flat):
        center = _maximal_median_rows(vals[pts], w[pts], t, size)[:, None]
        dev = _maximal_median_rows(np.abs(vals[pts] - center), w[pts], level, size)
        best = max(best, dev.max())
    return float(best)


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


def _dilate_class_sets(space: Space, ball: Ball, budget: float) -> np.ndarray:
    """Member sets of sigma * ball for sigma >= 2 with sigma r <= budget.

    A boolean (classes, n) matrix with one row per class {d < d_(k+1)} of
    the center's distance row, by increasing radius; the distinct
    distances come from one sort.
    """
    lo = 2.0 * ball.radius
    cap = budget * (1.0 + _REL_EPS)
    if lo > cap:
        return np.zeros((0, space.n), dtype=bool)
    row = space.dist[space.index(ball.center)]
    ds = np.sort(row)
    distinct = np.ones(len(ds), dtype=bool)
    distinct[1:] = ds[1:] != ds[:-1]
    ds = ds[distinct]
    ends = ds[1:][(ds[1:] >= lo) & (ds[:-1] < cap)]
    if cap > ds[-1]:
        ends = np.append(ends, np.inf)  # the whole space
    return row < ends[:, None]


def _word_keys(words: np.ndarray) -> list:
    """Each packed member row as one ``bytes`` key."""
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()


def _family_rows(params: CZParams, family: _BallFamily) -> dict:
    """Member set (as ``_word_keys``) -> row of the CZ family, cached with the family."""
    return params.space._cached(
        ("cz_rows", params.b0.idx, params.budget),
        lambda: {k: i for i, k in enumerate(_word_keys(family.words))},
    )


def cz_decompose(f, params: CZParams, lam: float) -> CZDecomposition:
    """Calderon-Zygmund balls of |f| at level lambda.

    Preconditions (checked): the t/alpha-median of |f| on hat-B0 is at most
    lambda (else ThresholdViolated) and E_lambda is nonempty (else
    EmptyLevelSet).
    """
    return _decompose(f, params, lam, {})[0]


def _decompose(f, params: CZParams, lam: float, required: dict):
    """``cz_decompose`` whose witnesses contain given rows, and each point's witness row.

    ``required`` maps a point index to a family row through that point
    whose median exceeds lambda, such as its witness at a higher level.
    """
    space = params.space
    g = np.abs(_as_values(space, f))
    threshold = _threshold(params, g)
    if threshold > lam:
        raise ThresholdViolated(
            f"median threshold {threshold:.6g} exceeds level {lam:.6g}"
        )
    family, med = _family_medians(f, params)

    # Candidate witnesses: the rows whose median exceeds lambda, in
    # (-radius, center index, row) order; the rows come in (center, radius)
    # order, so a stable sort by -radius gives it.  lambda >= threshold >= 0,
    # so a point of hat-B0 lies in E_lambda exactly when a candidate holds it.
    hot = np.flatnonzero(med > lam)
    hot = hot[np.argsort(-family.radii[hot], kind="stable")]
    words = family.words[hot]
    member = _member_matrix(words, space.n)
    hat = np.array(params.b0_hat.idx, dtype=np.intp)
    e_idx = hat[member.any(axis=0)[hat]].tolist()
    if not e_idx:
        raise EmptyLevelSet(f"no point of hat-B0 has maximal function above {lam:.6g}")

    # A point's witness is its first candidate; a required row moves it to
    # the first candidate containing that row.
    first = hot[member.argmax(axis=0)].tolist()
    above = {}
    for row in set(required.values()):
        # w & r != r, not r & ~w: see boman._escapes.
        misses = ((words & family.words[row]) != family.words[row]).any(axis=1)
        above[row] = int(hot[np.flatnonzero(~misses)[0]])
    witness_index = {x: above[required[x]] if x in required else first[x] for x in e_idx}

    witness_ids = sorted(set(witness_index.values()))
    witnesses = tuple(params.family[bi] for bi in witness_ids)
    position = {bi: pos for pos, bi in enumerate(witness_ids)}
    witness_of = {space.point_ids[x]: position[bi] for x, bi in witness_index.items()}
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
    family_ok = bool((family.radii[med > threshold] <= limit).all())

    # The selected balls are witnesses, so their medians exceed lambda by
    # construction; re-check directly against the function values.
    w_all = space.weights
    median_ok = all(
        weighted_maximal_median(g[list(b.idx)], w_all[list(b.idx)], params.t) > lam
        for b in cover.selected
    )

    # A class found among the family's rows has its median in ``med`` (see
    # the module docstring); the others are computed from the values.
    lam_cap = lam + _REL_EPS * max(1.0, abs(lam))
    family_rows = _family_rows(params, family)
    dilate_ok = True
    for ball in cover.selected:
        members = _dilate_class_sets(space, ball, params.budget)
        for inside, key in zip(members, _word_keys(_pack_rows(members))):
            row = family_rows.get(key)
            if row is not None:
                m = med[row]
            else:
                idx = np.flatnonzero(inside)
                m = weighted_maximal_median(g[idx], w_all[idx], params.t)
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
    decomposition = CZDecomposition(
        lam=float(lam),
        threshold=float(threshold),
        balls=cover.selected,
        e_lambda=tuple(space.point_ids[x] for x in e_idx),
        witnesses=witnesses,
        witness_of=witness_of,
        cover=cover,
        certificates=certificates,
    )
    return decomposition, witness_index


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
    high, high_rows = _decompose(f, params, lam_high, {})
    # Points of E_high must reuse a witness containing their high witness.
    low, _ = _decompose(f, params, lam_low, high_rows)

    rep = {}  # each high witness's first point
    for pid, wi in high.witness_of.items():
        rep.setdefault(wi, pid)
    pairs = []
    for hi_pos, ball in enumerate(high.balls):
        low_pos = low.cover.assignment[low.witness_of[rep[high.witnesses.index(ball)]]]
        if not set(ball.idx).issubset(low.cover.dilates[low_pos].idx):
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


def _sum_in_order(values) -> float:
    """Left-to-right float sum, with the bits of a ``+=`` loop.

    The built-in ``sum`` compensates float additions from Python 3.12 on,
    so its result would depend on the Python version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


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
    threshold = _threshold(params, np.abs(_as_values(space, f)))
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
    lhs = _sum_in_order(space.mu(b.idx) for b in high.balls)
    rhs = (
        (2.0**p * c3 / (K - 1.0) ** p) * norm.total / lam**p
        + _sum_in_order(space.mu(b.idx) for b in low.balls) / (2.0 * K**p)
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


def _default_lambda_grid(lambda0: float, hi: float) -> np.ndarray:
    """Log-spaced grid of 50 levels from just above lambda0 up to hi."""
    if hi <= 0.0:
        return np.array([1.0])
    lo = lambda0 * 1.01 if lambda0 > 0.0 else hi * 1e-6
    lo = min(lo, hi)
    return np.geomspace(lo, hi, 50)


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
    mu(hat-B0) lambda0^p <= 2^p norm^p.  Raises InvalidS,
    InvalidCenterLevel and InvalidLevel.
    """
    space = params.space
    if lambda_grid is not None:
        lambda_grid = _lambda_levels(lambda_grid)
    if not (0.0 < s <= params.s0 * (1.0 + _REL_EPS)):
        raise InvalidS(f"s must lie in (0, s0={params.s0:.6g}], got {s}")
    if not (s <= r_center * (1.0 + _REL_EPS) and r_center <= 0.5):
        raise InvalidCenterLevel(f"need s <= r <= 1/2, got r={r_center}")

    center = maximal_median(space, f, params.b0, r_center)
    g = np.abs(_as_values(space, f) - center)
    hat_idx = list(params.b0_hat.idx)
    lambda0 = _threshold(params, g)
    norm = jn_median_norm(space, f, params.b0_hat, p, s, mode="exact", force=True)
    c_const = local_jn_constant(p, params.profile.c_mu)

    if lambda_grid is None:
        lambda_grid = _default_lambda_grid(lambda0, 2.0 * float(g[hat_idx].max()))
    entries = []
    b0_idx = list(params.b0.idx)
    for lam in lambda_grid:
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
