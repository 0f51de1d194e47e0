"""Weak-Lp, Lp, BMO, and John-Nirenberg norms over disjoint ball packings.

The two John-Nirenberg functionals share one optimizer: given a region,
every canonical ball inside it gets a nonnegative term (measure times a
power of its oscillation), and the norm is the p-th root of the maximum
total term over pairwise-disjoint ball collections.  Exact mode solves the
weighted set-packing problem by depth-first branch and bound over balls
sorted by decreasing term.  Three admissible upper bounds prune the search:

* the sum of all remaining terms,
* one maximal term per clique of candidates anchored at a shared point,
* per remaining point, its weight times the best term density mu-rate of
  any remaining ball containing it.

Every remaining ball is disjoint from every chosen one: including a ball
keeps only the later candidates that share no point with it.  Each
candidate's member row is packed once into 64-bit words, so that conflict
test is one AND over the remaining rows per search node.

Greedy mode repeatedly takes the heaviest compatible ball and is a lower
bound, flagged as such in results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRegion,
    EmptySet,
    ExactModeTooLarge,
    InvalidParameter,
    InvalidS,
    NonPositiveQ,
)
from .median import (
    SampleFunction,
    _as_values,
    _shorth_rows,
    weighted_maximal_median,
)
from .space import Ball, Space, _resolve_region, canonical_balls

EXACT_MODE_LIMIT = 32


@dataclass(frozen=True)
class BallPacking:
    """A pairwise-disjoint ball collection with per-ball terms."""

    balls: tuple[Ball, ...]
    oscillations: tuple[float, ...]
    terms: tuple[float, ...]
    total: float

    def to_json(self) -> list[dict]:
        return [
            {
                "center": b.center,
                "radius": b.radius,
                "oscillation": osc,
                "term": term,
            }
            for b, osc, term in zip(self.balls, self.oscillations, self.terms)
        ]


@dataclass(frozen=True)
class JNResult:
    """Packed norm value with the optimal (or greedy) packing."""

    value: float
    total: float
    packing: BallPacking
    mode: str

    def to_json(self) -> dict:
        return {
            "norm": self.value,
            "packing": self.packing.to_json(),
            "mode": self.mode,
        }


def _region_idx(space: Space, region) -> tuple[int, ...]:
    idx = _resolve_region(space, region)
    if len(idx) == 0:
        raise EmptyRegion("norm over an empty region")
    return idx


def lp_norm(space: Space, f, region, p: float) -> float:
    """(sum of w(x) |f(x)|^p over the region)^(1/p)."""
    if not p > 0.0:
        raise InvalidParameter(f"p must be positive, got {p}")
    idx = list(_region_idx(space, region))
    vals = np.abs(_as_values(space, f)[idx])
    return float((space.weights[idx] * vals**p).sum() ** (1.0 / p))


def weak_lp_norm(space: Space, g, region, p: float) -> float:
    """sup over gamma of gamma^p mu{|g| > gamma}, to the power 1/p.

    The supremum is attained as the left limit at sample values, hence the
    computation maximizes v^p mu{|g| >= v} over the distinct values v > 0.
    """
    if not p > 0.0:
        raise InvalidParameter(f"p must be positive, got {p}")
    idx = list(_region_idx(space, region))
    vals = np.abs(_as_values(space, g)[idx])
    w = space.weights[idx]
    levels, inverse = np.unique(vals, return_inverse=True)
    mass = np.bincount(inverse, weights=w)
    mass_ge = np.cumsum(mass[::-1])[::-1]
    positive = levels > 0.0
    if not positive.any():
        return 0.0
    best = float((levels[positive] ** p * mass_ge[positive]).max())
    return best ** (1.0 / p)


def _golden_min(fn, lo: float, hi: float, rel_tol: float = 1e-10) -> float:
    """Golden-section minimizer for a convex function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    span = max(hi - lo, 1e-300)
    while (b - a) > rel_tol * span:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def integral_oscillation(space: Space, f, subset, q: float) -> tuple[float, float]:
    """inf over c of the weighted mean of |f - c|^q on the subset.

    For q <= 1 the objective is concave (q < 1) or linear (q = 1) between
    consecutive sample values, so a sample value attains the infimum and
    the distinct sample values are the only candidates.  For q > 1 it is
    convex: a golden-section search bracketed by [min f, max f] joins the
    sample values and the weighted mean as candidates.  Returns the least
    value and, among the candidates attaining it, the smallest c.
    """
    if not q > 0.0:
        raise NonPositiveQ(f"q must be positive, got {q}")
    idx = list(_resolve_region(space, subset))
    if len(idx) == 0:
        raise EmptySet("oscillation over an empty set")
    vals = _as_values(space, f)[idx]
    w = space.weights[idx]
    wn = w / w.sum()
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return (0.0, lo)

    def objective(c):
        return float((wn * np.abs(vals - c) ** q).sum())

    cands = list(np.unique(vals))
    if q > 1.0:
        cands.append(float((wn * vals).sum()))
        cands.append(_golden_min(objective, lo, hi))
    best_val, best_c = np.inf, None
    for c in sorted(cands):
        val = objective(c)
        if val < best_val:
            best_val, best_c = val, c
    return (float(best_val), float(best_c))


def _family_oscillations(space: Space, f, idx: tuple[int, ...], s: float):
    """Canonical balls inside a region with their median oscillations and measures.

    One kernel call per (region, s); a SampleFunction keeps the result.
    """
    balls = canonical_balls(space, idx)
    key = ("osc_family", idx, float(s))
    if isinstance(f, SampleFunction):
        hit = f._cache.get(key)
        if hit is not None:
            return balls, hit
    osc, _, mu = _shorth_rows(_as_values(space, f), space.weights, [b.idx for b in balls], s)
    hit = (osc.tolist(), mu.tolist())
    if isinstance(f, SampleFunction):
        f._cache[key] = hit
    return balls, hit


def bmo_median_norm(space: Space, f, region, s: float) -> float:
    """Largest median oscillation over canonical balls inside the region."""
    if not (0.0 < s <= 0.5):
        raise InvalidS(f"s must lie in (0, 1/2], got {s}")
    _, (oscs, _) = _family_oscillations(space, f, _region_idx(space, region), s)
    return max(oscs, default=0.0)


# ---------------------------------------------------------------- packing


def _greedy_pack(order, masks):
    used = 0
    chosen = []
    for j in order:
        if masks[j] & used == 0:
            used |= masks[j]
            chosen.append(j)
    return chosen


def _packed_sup(space: Space, balls, terms, mode: str, force: bool):
    """Maximize the total term over pairwise-disjoint balls.

    Returns (total, chosen ball indices).  ``balls``/``terms`` must be
    parallel; zero-term balls never help and are dropped up front.
    """
    live = [j for j, t in enumerate(terms) if t > 0.0]
    if not live:
        return 0.0, []
    order = sorted(
        live,
        key=lambda j: (-terms[j], space.index(balls[j].center), balls[j].radius),
    )
    masks = [balls[j].mask for j in order]
    term_arr = np.array([terms[j] for j in order])
    greedy = _greedy_pack(range(len(order)), masks)
    greedy_total = float(term_arr[greedy].sum())
    if mode == "greedy":
        return greedy_total, [order[j] for j in greedy]
    if mode != "exact":
        raise InvalidParameter(f"mode must be 'exact' or 'greedy', got {mode!r}")
    if len(order) > EXACT_MODE_LIMIT and not force:
        raise ExactModeTooLarge(
            f"{len(order)} candidate balls exceed the exact-mode limit "
            f"{EXACT_MODE_LIMIT}; pass force=True to search anyway"
        )

    m, n = len(order), space.n
    member_matrix = np.zeros((m, n), dtype=bool)
    member_matrix[
        np.repeat(np.arange(m), [len(balls[j].idx) for j in order]),
        np.concatenate([balls[j].idx for j in order]),
    ] = True
    density = term_arr / member_matrix.dot(space.weights)
    # Anchor every candidate at its most shared member point, the lowest
    # index among equals: candidates with a common anchor are pairwise
    # intersecting, so each clique contributes at most one ball to any packing.
    by_count = np.argsort(-member_matrix.sum(axis=0), kind="stable")
    anchor_table = np.zeros((m, n), dtype=bool)
    anchor_table[np.arange(m), by_count[member_matrix[:, by_count].argmax(axis=1)]] = True
    # Member rows padded to whole 64-bit words, for the per-node conflict test.
    words = np.packbits(np.pad(member_matrix, ((0, 0), (0, -n % 64))), axis=1).view(np.uint64)

    weights = space.weights
    best_total = greedy_total
    best_choice = list(greedy)

    def clique_bound(rem):
        # Rows run by decreasing term, so the first remaining row at an
        # anchor carries that clique's largest term.
        table = anchor_table[rem]
        return float(term_arr[rem[table.argmax(axis=0)[table.any(axis=0)]]].sum())

    def density_bound(rem):
        # Remaining rows miss every chosen point, so no free-point mask.
        per_point = (member_matrix[rem] * density[rem, None]).max(axis=0)
        return float((per_point * weights).sum())

    def dfs(rem, current, chosen):
        # Only the include branch recurses, so the depth is bounded by the
        # packing size; excluding rem[0] continues this loop instead.
        nonlocal best_total, best_choice
        if current > best_total:
            best_total = current
            best_choice = list(chosen)
        while len(rem):
            slack = best_total - current
            if float(term_arr[rem].sum()) <= slack:
                return
            if clique_bound(rem) <= slack:
                return
            if density_bound(rem) <= slack:
                return
            j = rem[0]
            tail = rem[1:]
            chosen.append(j)
            disjoint = ~(words[tail] & words[j]).any(axis=1)
            dfs(tail[disjoint], current + float(term_arr[j]), chosen)
            chosen.pop()
            rem = tail

    dfs(np.arange(m), 0.0, [])
    return best_total, [order[j] for j in best_choice]


def _jn_norm(space, balls, oscs, terms, p, mode, force):
    total, chosen = _packed_sup(space, balls, terms, mode, force)
    chosen = sorted(chosen, key=lambda j: (space.index(balls[j].center), balls[j].radius))
    packing = BallPacking(
        balls=tuple(balls[j] for j in chosen),
        oscillations=tuple(float(oscs[j]) for j in chosen),
        terms=tuple(float(terms[j]) for j in chosen),
        total=float(total),
    )
    return JNResult(
        value=float(total ** (1.0 / p)),
        total=float(total),
        packing=packing,
        mode=mode,
    )


def _per_ball_norm(space, region, p, per_ball, mode, force):
    balls = canonical_balls(space, _region_idx(space, region))
    oscs, terms = zip(*map(per_ball, balls))
    return _jn_norm(space, balls, oscs, terms, p, mode, force)


def jn_median_norm(
    space: Space, f, region, p: float, s: float, mode: str = "exact", force: bool = False
) -> JNResult:
    """Median-type John-Nirenberg norm: packed sup of mu(B) osc_s(B)^p.

    Raises EmptyRegion, InvalidS, ExactModeTooLarge.
    """
    if not p > 1.0:
        raise InvalidParameter(f"p must exceed 1, got {p}")
    if not (0.0 < s <= 0.5):
        raise InvalidS(f"s must lie in (0, 1/2], got {s}")

    balls, (oscs, mus) = _family_oscillations(space, f, _region_idx(space, region), s)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc**p for mu, osc in zip(mus, oscs)]
    return _jn_norm(space, balls, oscs, terms, p, mode, force)


def jn_centered_sup(
    space: Space,
    f,
    region,
    p: float,
    s: float,
    t: float,
    mode: str = "exact",
    force: bool = False,
) -> JNResult:
    """Packed sup with centers pinned to maximal t-medians.

    Per-ball term mu(B) * m^s_{|f - m_f^t(B)|}(B)^p; for 0 < s <= t <= 1/2
    this sits between the norm's p-th power and 2^p times it.
    """
    if not (0.0 < s <= t <= 0.5):
        raise InvalidS(f"need 0 < s <= t <= 1/2, got s={s}, t={t}")
    vals = _as_values(space, f)

    def per_ball(ball):
        idx = list(ball.idx)
        w = space.weights[idx]
        center = weighted_maximal_median(vals[idx], w, t)
        osc = weighted_maximal_median(np.abs(vals[idx] - center), w, s)
        return osc, space.mu(ball.idx) * osc**p

    return _per_ball_norm(space, region, p, per_ball, mode, force)


def jn_integral_norm(
    space: Space,
    f,
    region,
    p: float,
    q: float,
    mode: str = "exact",
    force: bool = False,
) -> JNResult:
    """Integral-type John-Nirenberg norm with per-ball exponent p/q."""
    if not p > 1.0:
        raise InvalidParameter(f"p must exceed 1, got {p}")
    if not q > 0.0:
        raise NonPositiveQ(f"q must be positive, got {q}")
    if not q < p:
        raise InvalidParameter(f"q must be below p, got q={q}, p={p}")

    def per_ball(ball):
        osc, _ = _cached_integral_osc(space, f, ball, q)
        return osc, space.mu(ball.idx) * osc ** (p / q)

    return _per_ball_norm(space, region, p, per_ball, mode, force)


def _cached_integral_osc(space, f, ball, q):
    if isinstance(f, SampleFunction):
        key = ("iosc", ball.idx, q)
        hit = f._cache.get(key)
        if hit is None:
            hit = integral_oscillation(space, f, ball, q)
            f._cache[key] = hit
        return hit
    return integral_oscillation(space, f, ball, q)
