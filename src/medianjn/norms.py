"""Weak-Lp, Lp, BMO, and John-Nirenberg norms over disjoint ball packings.

The two John-Nirenberg functionals share one optimizer: given a region,
every canonical ball inside it gets a nonnegative term (measure times a
power of its oscillation), and the norm is the p-th root of the maximum
total term over pairwise-disjoint ball collections.  Exact mode solves the
weighted set-packing problem by depth-first branch and bound over balls
sorted by decreasing term.  The norms read the canonical family of the
region as arrays (``space._canonical_family``: center index, radius, size
and packed member words per ball), in (center index, radius) order, so a
stable sort on the term alone breaks ties by center and radius.
Admissible upper bounds prune the search:

* at every node, the sum of all remaining terms;
* on interval instances, the weighted-interval-scheduling optimum of the
  remaining candidates;
* on all other instances, per remaining point its weight times the best
  term-per-measure density of any remaining ball containing it.  The
  search prices its member matrix once, priced[b, x] = w(x) density(b)
  for x in b and 0 elsewhere; rounding is monotone, so a column maximum
  over the remaining rows is w(x) times the best density, bit for bit,
  and the bound is one row gather, one column maximum and one sum.

An interval instance is one where every candidate is a run of consecutive
points in one point order, the stable distance order from a point farthest
from point 0 (on a line, the coordinate order).  Two runs are disjoint
exactly when their rank spans are, so the packing problem is weighted
interval scheduling: a dynamic program over the candidates by right end
solves it in O(m) per node.  The data is built only when the root survives
the sum bound, so a search over pairwise disjoint candidates pays nothing.

The bound is applied to totals, with a margin for rounding.  The search
adds a packing's terms in include order, the dynamic program in its own,
and k positive terms summed in any order land within a factor
(1 +- 2^-53)^k of their exact sum.  A packing has at most n balls, so
(current + remaining optimum) * (1 + 4n 2^-52) is at least the float
total of every packing below the node, and the node is pruned when that
is at most max(best, floor).  Against best, this skips only packings the
strict ``>`` update would pass over.  The floor, the root optimum times
(1 - 4n 2^-52), lies below the float total of every exactly optimal
packing, so it skips only packings that one of those would replace.  The
candidate order, the include-first visits and the strict ``>`` stay, so
the returned total and packing are bit for bit those of the search
without this bound, ties included, unless some packing falls short of
the optimum by less than about 10n rounding units without tying it.

On other instances that survive the sum bound at the root, dominated
candidates leave the search before it starts.  Candidate B is dominated
when some candidate A is a proper subset of it with term(A) - term(B)
above 4n 2^-52 times the sum of all terms.  Swapping B for A in a packing
raises its exact total by more than that, while rounding moves each float
total by at most about n 2^-52 times the same sum.  So the swapped packing
has the larger float total, and no packing with the maximal float total
holds B.  The search visits the packings left in the same include-first
order and returns the same first maximum; equal terms never dominate.
Member rows are compared as packed words, in tiles of at most half
``_BLOCK_ELEMS`` elements.

Every remaining ball is disjoint from every chosen one: including a ball
keeps only the later candidates that share no point with it.  The
candidates' member words are the family's rows reordered by term, kept
as one contiguous column per 64-point word, so that conflict test ANDs
the remaining entries of each column the ball touches with its word;
the member matrix of the bounds is the same rows unpacked.

Greedy mode repeatedly takes the heaviest remaining ball and drops the
candidates it meets, by the same AND.  It is a lower bound, flagged as
such in results; exact mode starts from its total.  ``Ball`` objects are
built only for the returned packing.

Oscillations of a whole family come from one kernel call on member rows
unpacked block by block (``space._member_blocks``).  For every q, the
integral oscillation scores each ball's values as centers c, with the
weighted mean and a golden-section minimum for q > 1, where the
objective is convex; the stably sorted first minimum wins, so a zero c
takes the sign of the lowest-index member holding it.  Every objective
and measure is a row sum with the bits of the one-ball computation (see
``space._size_blocks``).  The space keeps each family's values per
SampleFunction; norm terms mu * osc**(p/q) are formed from Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExactModeTooLarge,
    InvalidParameter,
    InvalidS,
    NonPositiveQ,
)
from .median import _as_values, _maximal_median_rows, _memo, _shorth_rows
from .space import (
    _BLOCK_ELEMS,
    Ball,
    Space,
    _BallFamily,
    _canonical_family,
    _distance_order,
    _family_balls,
    _member_blocks,
    _member_matrix,
    _pack_rows,
    _region_idx,
    _set_idx,
)

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


def _check_p(p: float) -> None:
    if not p > 0.0:
        raise InvalidParameter(f"p must be positive, got {p}")


def _check_p_exceeds_1(p: float) -> None:
    if not p > 1.0:
        raise InvalidParameter(f"p must exceed 1, got {p}")


def _check_s_up_to_half(s: float) -> None:
    if not (0.0 < s <= 0.5):
        raise InvalidS(f"s must lie in (0, 1/2], got {s}")


def _check_q(q: float) -> None:
    if not q > 0.0:
        raise NonPositiveQ(f"q must be positive, got {q}")


def lp_norm(space: Space, f, region, p: float) -> float:
    """(sum of w(x) |f(x)|^p over the region)^(1/p)."""
    _check_p(p)
    idx = list(_region_idx(space, region))
    vals = np.abs(_as_values(space, f)[idx])
    return float((space.weights[idx] * vals**p).sum() ** (1.0 / p))


def weak_lp_norm(space: Space, g, region, p: float) -> float:
    """sup over gamma of gamma^p mu{|g| > gamma}, to the power 1/p.

    The supremum is attained as the left limit at sample values, hence the
    computation maximizes v^p mu{|g| >= v} over the distinct values v > 0.
    """
    _check_p(p)
    idx = list(_region_idx(space, region))
    vals = np.abs(_as_values(space, g)[idx])
    return _weak_lp_rows(vals[None], space.weights[idx][None], p)[0]


def _weak_lp_rows(values: np.ndarray, weights: np.ndarray, p: float) -> list[float]:
    """Kernel: the weak-Lp norm of every row of two (rows, k) arrays, |g| and w.

    A stable row sort groups equal values with their members in index
    order, so ``bincount`` adds each value's mass in index order; the mass
    at or above each value is a running sum from the top value down.
    Padding groups hold zero mass at level zero, which adds nothing to
    the running sums and never counts as a positive level.
    """
    r, k = values.shape
    base = (np.arange(r) * k)[:, None]
    order = np.argsort(values, axis=1, kind="stable") + base
    sv = values.ravel()[order]
    group = np.zeros((r, k), dtype=np.intp)
    np.cumsum(sv[:, 1:] != sv[:, :-1], axis=1, out=group[:, 1:])
    group += base
    mass = np.bincount(group.ravel(), weights=weights.ravel()[order].ravel(), minlength=r * k)
    mass_ge = np.cumsum(mass.reshape(r, k)[:, ::-1], axis=1)[:, ::-1]
    levels = np.zeros(r * k)
    levels[group.ravel()] = sv.ravel()
    levels = levels.reshape(r, k)
    terms = np.where(levels > 0.0, levels**p * mass_ge, 0.0)
    return [best ** (1.0 / p) for best in terms.max(axis=1, initial=0.0).tolist()]


def integral_oscillation(space: Space, f, subset, q: float) -> tuple[float, float]:
    """inf over c of the weighted mean of |f - c|^q on the subset.

    The family kernel ``_integral_rows`` on the one set: the least objective
    over its candidates and, among those attaining it, the smallest c.
    """
    _check_q(q)
    idx = _set_idx(space, subset)
    row = np.zeros((1, space.n), dtype=bool)
    row[0, idx] = True
    osc, c, _ = _integral_rows(_as_values(space, f), space.weights, _pack_rows(row), [len(idx)], q)
    return (float(osc[0]), float(c[0]))


def _integral_rows(values: np.ndarray, weights: np.ndarray, words, sizes, q: float):
    """Kernel: integral oscillation, its center and the measure of many sets.

    Each set is a row of packed member ``words`` with its size in
    ``sizes``, as for ``_shorth_rows``.  Returns three float arrays (osc,
    c, mu) in row order.  Per set, the objective sum(wn * |v - c|^q) is
    evaluated at every candidate c in stable sorted order: the sample
    values, which attain the infimum for q <= 1, and for q > 1 the weighted
    mean and the golden-section minimum.  The first minimum wins.  The
    blocks of ``_member_blocks`` go in groups of at most ``_BLOCK_ELEMS``
    points that share one search, whose steps cost mostly numpy calls.
    """
    m = len(sizes)
    osc, c, mu = np.empty(m), np.empty(m), np.empty(m)
    for group in _block_groups(_member_blocks(words, sizes, len(values))):
        golden = _golden_rows(values, weights, [pts for _, pts in group], q)
        for (sel, pts), best in zip(group, golden):
            osc[sel], c[sel], mu[sel] = _integral_block(values, weights, pts, q, best)
    return osc, c, mu


def _block_groups(blocks):
    """Consecutive (rows, index block) pairs, grouped up to ``_BLOCK_ELEMS`` points, or one."""
    group, points = [], 0
    for sel, pts in blocks:
        if group and points + pts.size > _BLOCK_ELEMS:
            yield group
            group, points = [], 0
        group.append((sel, pts))
        points += pts.size
    if group:
        yield group


def _integral_block(values: np.ndarray, weights: np.ndarray, pts: np.ndarray, q: float, golden):
    """``_integral_rows`` on sets of one size, the rows of the index array ``pts``."""
    r, k = pts.shape
    v, w = values[pts], weights[pts]
    mu = w.sum(axis=1)
    wn = w / mu[:, None]
    cands = v
    if q > 1.0:
        cands = np.column_stack([v, (wn * v).sum(axis=1), golden])
    cands = np.sort(cands, axis=1, kind="stable")
    # (rows x candidates x k) slices of at most _BLOCK_ELEMS elements.
    obj = np.empty(cands.shape)
    per = max(1, _BLOCK_ELEMS // (r * k))
    for b in range(0, cands.shape[1], per):
        dev = np.abs(v[:, None, :] - cands[:, b : b + per, None]) ** q
        obj[:, b : b + per] = (wn[:, None, :] * dev).sum(axis=2)
    return obj.min(axis=1), cands[np.arange(r), obj.argmin(axis=1)], mu


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_rows(values: np.ndarray, weights: np.ndarray, blocks, q: float):
    """Golden-section minimum of sum(wn * |v - c|^q) on [min v, max v], per block.

    The sets are the rows of the (rows, k) index ``blocks``; for q <= 1
    there is no search (None).  A row's bracket [a, b] moves only while
    wider than 1e-10 times its range: the float steps of one row.
    """
    if q <= 1.0:
        return [None] * len(blocks)
    v = [values[pts] for pts in blocks]
    wn = [w / w.sum(axis=1)[:, None] for w in (weights[pts] for pts in blocks)]
    ends = np.cumsum([len(pts) for pts in blocks]).tolist()
    spans = list(zip([0, *ends], ends, v, wn))

    def objective(c):
        parts = [(wb * np.abs(vb - c[lo:hi, None]) ** q).sum(axis=1) for lo, hi, vb, wb in spans]
        return np.concatenate(parts)

    a = np.concatenate([vb.min(axis=1) for vb in v])
    b = np.concatenate([vb.max(axis=1) for vb in v])
    tol = 1e-10 * np.maximum(b - a, 1e-300)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    go = b - a > tol
    while go.any():
        # fc <= fd keeps [a, d] and probes a new c; otherwise [c, b] and a new d.
        left = fc <= fd
        a = np.where(go > left, c, a)
        b = np.where(go & left, d, b)
        width = b - a
        step = _INV_PHI * width
        probe = np.where(left, b - step, a + step)
        f_probe = objective(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f_probe, fd), np.where(left, fc, f_probe)
        go &= width > tol
    return np.split(0.5 * (a + b), ends[:-1])


def _cached_family(space: Space, f, family_key: tuple, key: tuple, compute):
    """The family ``_canonical_family(space, *family_key)`` and ``compute(family)``.

    ``family_key`` is (region,) for the canonical balls inside a region and
    (B0 members, budget) for a CZ family.  One call per (family, key); the
    space keeps the result for a SampleFunction.
    """
    family = _canonical_family(space, *family_key)
    return family, _memo(space, f, (*key, *family_key), lambda: compute(family))


def _family_oscillations(space: Space, f, idx: tuple[int, ...], kernel, level: float):
    """The canonical family inside a region with ``kernel``'s oscillations and measures.

    ``kernel`` is ``_shorth_rows`` (level s) or ``_integral_rows`` (level q).
    """

    def compute(family):
        osc, _, mu = kernel(_as_values(space, f), space.weights, family.words, family.sizes, level)
        return osc.tolist(), mu.tolist()

    return _cached_family(space, f, (idx,), (kernel.__name__, float(level)), compute)


def bmo_median_norm(space: Space, f, region, s: float) -> float:
    """Largest median oscillation over canonical balls inside the region."""
    _check_s_up_to_half(s)
    _, (oscs, _) = _family_oscillations(space, f, _region_idx(space, region), _shorth_rows, s)
    return max(oscs, default=0.0)


# ---------------------------------------------------------------- packing


def _interval_rows(space: Space, member_matrix: np.ndarray, term_arr: np.ndarray):
    """Candidates as rank intervals in one point order, or None if one is not a run.

    The order is the stable distance order from a point farthest from
    point 0: the coordinate order on a line.  Member rows are viewed in
    that order in blocks of at most ``_BLOCK_ELEMS`` elements.  Returns a
    (lo, hi, term) tuple per candidate row and the rows by increasing hi.
    """
    m, n = member_matrix.shape
    point_order = _distance_order(space)[int(space.dist[0].argmax())]
    lo, hi = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
    step = max(1, _BLOCK_ELEMS // n)
    for a in range(0, m, step):
        ranked = member_matrix[a : a + step, point_order]
        lo[a : a + step] = ranked.argmax(axis=1)
        hi[a : a + step] = n - 1 - ranked[:, ::-1].argmax(axis=1)
        if not np.array_equal(hi[a : a + step] - lo[a : a + step] + 1, ranked.sum(axis=1)):
            return None
    spans = list(zip(lo.tolist(), hi.tolist(), term_arr.tolist()))
    return spans, np.argsort(hi, kind="stable")


def _interval_optimum(spans, rows: np.ndarray) -> float:
    """Weighted-interval-scheduling optimum over ``rows``, listed by increasing hi."""
    # before[x]: the optimum over the rows seen so far that end below rank x.
    before, reach = [], 0.0
    for lo, hi, term in map(spans.__getitem__, rows.tolist()):
        while len(before) <= hi:
            before.append(reach)
        total = before[lo] + term
        if total > reach:
            reach = total
    return reach


def _dominated_rows(words: np.ndarray, sizes: np.ndarray, term_arr: np.ndarray, slack: float):
    """Rows with a proper sub-row whose term exceeds theirs by more than ``slack``.

    Row a is a proper subset of row b when ``words[a] & ~words[b]`` is zero
    in every word and a is the smaller row.  Terms decrease along the rows
    and ``slack`` is positive, so only earlier rows can dominate.  Rows are
    compared in tiles of at most ``_BLOCK_ELEMS // 2`` words, 64 KiB: at
    128 KiB glibc's allocator maps each array afresh, which showed as a
    higher peak resident size.
    """
    m, n_words = words.shape
    side = max(1, math.isqrt(_BLOCK_ELEMS // 2 // n_words))
    dominated = np.zeros(m, dtype=bool)
    for b in range(0, m, side):
        outside = ~words[b : b + side, None]
        size_b, term_b = sizes[b : b + side, None], term_arr[b : b + side, None]
        for a in range(0, min(b + side, m), side):
            sub = ~(words[None, a : a + side] & outside).any(axis=2)
            sub &= sizes[None, a : a + side] < size_b
            sub &= term_arr[None, a : a + side] - term_b > slack
            dominated[b : b + side] |= sub.any(axis=1)
    return dominated


def _packed_sup(space: Space, family: _BallFamily, terms, mode: str, force: bool):
    """Maximize the total term over pairwise-disjoint balls of a family.

    Returns (total, chosen family rows).  ``terms`` is parallel to the
    rows, which come in (center index, radius) order: a stable sort by
    decreasing term then breaks ties by center and radius.  Zero-term
    balls never help and are dropped up front.
    """
    all_terms = np.asarray(terms, dtype=float)
    live = np.flatnonzero(all_terms > 0.0)
    if not len(live):
        return 0.0, []
    order = live[np.argsort(-all_terms[live], kind="stable")]
    term_arr = all_terms[order]
    words = family.words[order]
    order = order.tolist()
    # One contiguous column per 64-point word: a conflict test ANDs 1-D
    # gathers of those instead of reducing a gathered (rows x words) block.
    columns = [np.ascontiguousarray(col) for col in words.T]
    row_words = words.tolist()

    def clear_of(j, rows):
        """The ``rows`` that share no point with row j."""
        pairs = zip(columns, row_words[j])
        col, bits = next(pairs)
        hit = col[rows] & bits
        for col, bits in pairs:
            if bits:
                hit |= col[rows] & bits
        return rows[hit == 0]

    # Greedy: take the first remaining candidate, drop those it meets.
    greedy, rem = [], np.arange(len(order))
    while len(rem):
        j = int(rem[0])
        greedy.append(j)
        rem = clear_of(j, rem[1:])
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
    member_matrix = _member_matrix(words, n)
    density = term_arr / member_matrix.dot(space.weights)

    best_total = greedy_total
    best_choice = list(greedy)
    margin = 4 * n * 2.0**-52
    # Interval data, dominance and the priced rows only when the root
    # survives the sum bound; interval instances prune by the interval
    # bound alone.
    intervals = priced = None
    start = np.arange(m)
    term_sum = float(term_arr.sum())
    if term_sum > best_total:
        intervals = _interval_rows(space, member_matrix, term_arr)
        if intervals is None:
            sizes = family.sizes[order]
            start = np.flatnonzero(~_dominated_rows(words, sizes, term_arr, margin * term_sum))
            # priced[b, x] = w(x) density(b) for x in b, else 0.  Rounding is
            # monotone and weights are positive, so a column maximum is the
            # largest density through x times w(x), bit for bit.
            priced = np.multiply(member_matrix, density[:, None])
            priced *= space.weights
    del member_matrix  # the search reads ``priced`` and ``words`` only
    floor = None
    step = max(1, _BLOCK_ELEMS // n)

    def interval_pruned(rem, current):
        nonlocal floor
        spans, by_end = intervals
        alive = np.zeros(m, dtype=bool)
        alive[rem] = True
        reach = _interval_optimum(spans, by_end[alive[by_end]])
        if floor is None:
            # The first call is at the root, which this never prunes.
            floor = reach * (1.0 - margin)
        return (current + reach) * (1.0 + margin) <= max(best_total, floor)

    def density_bound(rem):
        # Remaining rows miss every chosen point, so no free-point mask.
        # Rows are gathered in blocks of at most _BLOCK_ELEMS elements; the
        # ufuncs' own reduce is the array method without its wrapper.
        per_point = np.maximum.reduce(priced[rem[:step]])
        for a in range(step, len(rem), step):
            np.maximum(per_point, np.maximum.reduce(priced[rem[a : a + step]]), out=per_point)
        return float(np.add.reduce(per_point))

    def dfs(rem, current, chosen):
        # Only the include branch recurses, so the depth is bounded by the
        # packing size; excluding rem[0] continues this loop instead.
        nonlocal best_total, best_choice
        if current > best_total:
            best_total = current
            best_choice = list(chosen)
        while len(rem):
            slack = best_total - current
            if float(np.add.reduce(term_arr[rem])) <= slack:
                return
            if intervals is not None:
                if interval_pruned(rem, current):
                    return
            elif density_bound(rem) <= slack:
                return
            j = rem[0]
            tail = rem[1:]
            chosen.append(j)
            dfs(clear_of(j, tail), current + float(term_arr[j]), chosen)
            chosen.pop()
            rem = tail

    dfs(start, 0.0, [])
    # dfs refers to itself; drop it so that its closure, arrays included, is
    # freed on return rather than at the next garbage collection.
    dfs = None
    return best_total, [order[j] for j in best_choice]


def _jn_norm(space, family, oscs, terms, p, mode, force):
    total, chosen = _packed_sup(space, family, terms, mode, force)
    chosen = sorted(chosen)
    packing = BallPacking(
        balls=_family_balls(space, family, chosen),
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


def jn_median_norm(
    space: Space, f, region, p: float, s: float, mode: str = "exact", force: bool = False
) -> JNResult:
    """Median-type John-Nirenberg norm: packed sup of mu(B) osc_s(B)^p.

    Raises EmptyRegion, InvalidS, ExactModeTooLarge.
    """
    _check_p_exceeds_1(p)
    _check_s_up_to_half(s)

    idx = _region_idx(space, region)
    family, (oscs, mus) = _family_oscillations(space, f, idx, _shorth_rows, s)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc**p for mu, osc in zip(mus, oscs)]
    return _jn_norm(space, family, oscs, terms, p, mode, force)


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
    this sits between the norm's p-th power and 2^p times it.  Per block of
    family rows, ``_maximal_median_rows`` gives the centers, then the medians.
    """
    if not (0.0 < s <= t <= 0.5):
        raise InvalidS(f"need 0 < s <= t <= 1/2, got s={s}, t={t}")
    vals = _as_values(space, f)

    def compute(family):
        oscs, mus = np.empty(len(family)), np.empty(len(family))
        for sel, pts in _member_blocks(family.words, family.sizes, space.n):
            v, w = vals[pts], space.weights[pts]
            center = _maximal_median_rows(v, w, t)
            oscs[sel] = _maximal_median_rows(np.abs(v - center[:, None]), w, s)
            mus[sel] = w.sum(axis=1)
        return oscs.tolist(), mus.tolist()

    key = ("centered_family", float(s), float(t))
    family, (oscs, mus) = _cached_family(space, f, (_region_idx(space, region),), key, compute)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc**p for mu, osc in zip(mus, oscs)]
    return _jn_norm(space, family, oscs, terms, p, mode, force)


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
    _check_p_exceeds_1(p)
    _check_q(q)
    if not q < p:
        raise InvalidParameter(f"q must be below p, got q={q}, p={p}")

    idx = _region_idx(space, region)
    family, (oscs, mus) = _family_oscillations(space, f, idx, _integral_rows, q)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc ** (p / q) for mu, osc in zip(mus, oscs)]
    return _jn_norm(space, family, oscs, terms, p, mode, force)
