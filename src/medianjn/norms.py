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

A node's loop excludes its candidates one by one, and each step bounds
the candidates left.  The node prices every step at once: one reverse
pass over its rows gives the density bound of every suffix and, for
each include child, a bound at least the child's own, so a child that
would stop at its first bound is never built; the sum bound of every
suffix is one reverse cumulative sum, a filter for the pairwise sum.

An interval instance is one where every candidate is a run of consecutive
points in one point order, the stable distance order from a point farthest
from point 0 (on a line, the coordinate order).  Two runs are disjoint
exactly when their rank spans are, so the packing problem is weighted
interval scheduling: a dynamic program over the candidates by right end
solves it in O(m).  A node runs it once, from the left and from the
right; an exclude step reruns the left table only when it drops a row of
the packing that attains the optimum, and an include child is bounded by
the best packing left of its ball plus the best right of it.  The data is
built only when the root survives the sum bound, so a search over
pairwise disjoint candidates pays nothing.

The interval bound is applied to totals, with a margin for rounding.  The
search adds a packing's terms in include order, the dynamic program in
its own, and k positive terms summed in any order land within a factor
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

Oscillations of a whole family come from one kernel call, which reads
the rows in the blocks of ``space._row_blocks``.  For every q, the
integral oscillation scores each ball's values as centers c, with the
weighted mean and a golden-section minimum for q > 1, where the
objective is convex; the stably sorted first minimum wins, so a zero c
takes the sign of the lowest-index member holding it.  Every objective
and measure is a row sum with the bits of the one-ball computation: the
rows of one size form one exact (rows, k) slice of a block, or go
through ``space._row_sums``.  The space keeps, per SampleFunction, one
read-only float64 array of oscillations per (kernel, level, region), and
per family one read-only array of measures: the first kernel call on the
family records it, and every function, level and kernel reads it.  Norm
terms mu * osc**(p/q) are formed from Python floats (``tolist`` at call
time); the BMO norm is the maximum of the array, which is exact.
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
    _member_matrix,
    _pack_rows,
    _region_idx,
    _row_blocks,
    _row_sums,
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
    if p == math.inf:
        raise InvalidParameter(f"p must be finite, got {p}")


def _check_p_exceeds_1(p: float) -> None:
    if not p > 1.0:
        raise InvalidParameter(f"p must exceed 1, got {p}")
    if p == math.inf:
        raise InvalidParameter(f"p must be finite, got {p}")


def _check_s_up_to_half(s: float) -> None:
    if not (0.0 < s <= 0.5):
        raise InvalidS(f"s must lie in (0, 1/2], got {s}")


def _check_q(q: float) -> None:
    if not q > 0.0:
        raise NonPositiveQ(f"q must be positive, got {q}")
    if q == math.inf:
        raise NonPositiveQ(f"q must be finite, got {q}")


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
    Unused groups and padding (value 0, weight 0: an inf level times 0
    mass is NaN) hold zero mass at level zero, which adds nothing to the
    running sums and never counts as a positive level.
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
    mean and the golden-section minimum.  The first minimum wins.  Each
    ``_row_blocks`` block of up to ``_BLOCK_ELEMS`` elements shares one
    search, whose steps cost mostly numpy calls, over its size slices.
    """
    m, n = len(sizes), len(values)
    osc, c, mu = np.empty(m), np.empty(m), np.empty(m)
    for sel, size, pts in _row_blocks(n, sizes, words, _BLOCK_ELEMS):
        cuts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist(), len(size)]
        parts = [(sel[lo:hi], pts[lo:hi, : size[lo]]) for lo, hi in zip(cuts, cuts[1:])]
        golden = _golden_rows(values, weights, [part for _, part in parts], q)
        for (rows, part), best in zip(parts, golden):
            osc[rows], c[rows], mu[rows] = _integral_block(values, weights, part, q, best)
    return osc, c, mu


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
    space keeps the result, a float array made read-only, for a
    SampleFunction.
    """
    family = _canonical_family(space, *family_key)
    return family, _memo(space, f, (*key, *family_key), lambda: _read_only(compute(family)))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _family_terms(space: Space, f, idx: tuple[int, ...], key: tuple, compute):
    """``_cached_family`` of the canonical family inside a region, with its measures.

    ``compute(family)`` returns (oscillations, measures) as float arrays.
    The measures depend on the family alone, and every kernel gives them
    the bits of ``space.mu``: the first call records them with the space,
    next to the family, as one read-only array that every later function,
    level and kernel reads.  Returns (family, oscillations, measures).
    """
    fresh = None

    def oscillations(family):
        nonlocal fresh
        oscs, fresh = compute(family)
        return oscs

    family, oscs = _cached_family(space, f, (idx,), key, oscillations)
    # Without a fresh computation, the call that cached ``oscs`` recorded them.
    return family, oscs, space._cached(("measures", idx), lambda: _read_only(fresh))


def _family_oscillations(space: Space, f, idx: tuple[int, ...], kernel, level: float):
    """``_family_terms`` with ``kernel``'s oscillations.

    ``kernel`` is ``_shorth_rows`` (level s) or ``_integral_rows`` (level q).
    """

    def compute(family):
        osc, _, mu = kernel(_as_values(space, f), space.weights, family.words, family.sizes, level)
        return osc, mu

    return _family_terms(space, f, idx, (kernel.__name__, float(level)), compute)


def bmo_median_norm(space: Space, f, region, s: float) -> float:
    """Largest median oscillation over canonical balls inside the region."""
    _check_s_up_to_half(s)
    _, oscs, _ = _family_oscillations(space, f, _region_idx(space, region), _shorth_rows, s)
    return float(oscs.max(initial=0.0))


# ---------------------------------------------------------------- packing


def _interval_rows(space: Space, member_matrix: np.ndarray):
    """Candidates as rank intervals in one point order, or None if one is not a run.

    The order is the stable distance order from a point farthest from
    point 0: the coordinate order on a line.  Member rows are viewed in
    that order in blocks of at most ``_BLOCK_ELEMS`` elements.  Returns
    the (lo, hi) rank arrays of the runs.
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
    return lo, hi


def _interval_table(spans, rows: np.ndarray, n: int):
    """Weighted-interval-scheduling table over ``rows``, listed by increasing hi.

    ``spans`` is three lists (lo, hi, term) indexed by row.  Returns (table,
    witness): table[x], for x = 0..n, is the optimum over the rows that end
    below rank x, so table[n] is the optimum over all of them, and
    ``witness`` is the set of rows of a packing that attains it.  Float
    addition is monotone, so the running maximum of table[lo] + term is the
    largest position-order float sum over the packings of those rows: a
    function of the row set alone.  Dropping a row outside the witness
    therefore leaves table[n] as it is, bit for bit.
    """
    # table[:filled] is final; ends[x] is the last row of the packing that
    # gives table[x].
    los, his, terms = spans
    table, ends, link = [0.0] * (n + 1), [-1] * (n + 1), {}
    reach, top, filled = 0.0, -1, 0
    for r in rows.tolist():
        lo, hi = los[r], his[r]
        while filled <= hi:
            table[filled] = reach
            ends[filled] = top
            filled += 1
        total = table[lo] + terms[r]
        if total > reach:
            reach, top = total, r
            link[r] = ends[lo]
    table[filled:] = [reach] * (n + 1 - filled)
    witness = set()
    while top >= 0:
        witness.add(top)
        top = link[top]
    return table, witness


def _density_bound(priced: np.ndarray, rem: np.ndarray) -> float:
    """Sum over points of the column maximum of the ``rem`` rows of ``priced``.

    Remaining rows miss every chosen point, so no free-point mask.  Rows
    are gathered in blocks of at most ``_BLOCK_ELEMS`` elements; the
    ufuncs' own reduce is the array method without its wrapper.
    """
    step = max(1, _BLOCK_ELEMS // priced.shape[1])
    per_point = np.maximum.reduce(priced[rem[:step]])
    for a in range(step, len(rem), step):
        np.maximum(per_point, np.maximum.reduce(priced[rem[a : a + step]]), out=per_point)
    return float(np.add.reduce(per_point))


def _suffix_bounds(priced: np.ndarray, rem: np.ndarray) -> np.ndarray:
    """Density bounds of every suffix of ``rem`` and of every include child.

    Returns a (2, len(rem)) float array (bound, pre).  bound[i] is
    ``_density_bound(priced, rem[i:])`` bit for bit: the column maximum
    S_i of the rows rem[i:], summed as one C-contiguous row of length n.
    pre[i] is the sum of S_(i+1) with the points of row rem[i] set to 0.
    The rows of the child that includes rem[i] lie in rem[i + 1:] and miss
    those points, so its column maximum is at most that row entry by
    entry; rounding is monotone and the pairwise sum of one length adds
    in one fixed order, so pre[i] is at least the child's density bound.
    A zero price marks a point outside the row, which only raises pre[i].
    Rows go from the last one back in blocks of at most
    ``_BLOCK_ELEMS // 2`` elements, 64 KiB, through one gather buffer:
    every array here is allocated once per call, since small arrays freed
    in numbers stay resident in numpy's allocation cache.
    """
    k, n = len(rem), priced.shape[1]
    bound, pre = bounds = np.empty((2, k))
    step = min(k, max(1, _BLOCK_ELEMS // 2 // n))
    # run[0] holds S of the row after the block; row r + 1 of a block is
    # rem[b - 1 - r].  Mode "clip" (the indices are valid) gathers straight
    # into ``run``, where "raise" would buffer.
    run = np.zeros((step + 1, n))
    inside = np.empty((step, n), dtype=bool)
    for b in range(k, 0, -step):
        a = max(0, b - step)
        rows = b - a
        np.take(priced, rem[a:b][::-1], axis=0, out=run[1 : rows + 1], mode="clip")
        np.greater(run[1 : rows + 1], 0.0, out=inside[:rows])
        # Now run[r + 1] is S of row rem[b - 1 - r], and run[r] S of the row after it.
        np.maximum.accumulate(run[: rows + 1], axis=0, out=run[: rows + 1])
        np.add.reduce(run[1 : rows + 1], axis=1, out=bound[a:b][::-1])
        last = run[rows].copy()
        np.putmask(run[:rows], inside[:rows], 0.0)
        np.add.reduce(run[:rows], axis=1, out=pre[a:b][::-1])
        run[0] = last
    return bounds


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

    A search node holds the candidates left, rem, in term order; step i of
    its loop includes rem[i] (the only recursion) and then excludes it.
    Each step first bounds the candidates rem[i:] against the best total
    so far, and the node does that bound work once for all its steps:

    * sum bound: the sequential sums of one reverse ``cumsum`` decide
      unless they lie within a rounding margin of the slack, and only then
      is the pairwise sum of rem[i:] formed, so every decision is that of
      ``np.add.reduce`` over the suffix;
    * density bound: ``_suffix_bounds``, once the node survives its entry
      bound; a child whose pre-bound is at most its slack would stop at its
      first bound without a better total, so it is skipped;
    * interval bound: ``_interval_table`` from the left and from the right;
      the left table is rebuilt only when a step drops a row of its
      witness, and a child is skipped when the left table before its ball
      plus the right table after it prunes it by the interval rule.
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

    best_total = greedy_total
    best_choice = list(greedy)
    margin = 4 * n * 2.0**-52
    # Interval data, dominance and the priced rows only when the root
    # survives the sum bound; interval instances prune by the interval
    # bound alone.
    runs = priced = None
    start = np.arange(m)
    term_sum = float(term_arr.sum())
    if term_sum > best_total:
        runs = _interval_rows(space, member_matrix)
        if runs is None:
            sizes = family.sizes[order]
            start = np.flatnonzero(~_dominated_rows(words, sizes, term_arr, margin * term_sum))
            # priced[b, x] = w(x) density(b) for x in b, else 0.  Rounding is
            # monotone and weights are positive, so a column maximum is the
            # largest density through x times w(x), bit for bit.
            density = term_arr / member_matrix.dot(space.weights)
            priced = np.multiply(member_matrix, density[:, None])
            priced *= space.weights
        else:
            lo, hi = runs
            term_list = term_arr.tolist()
            spans = (lo.tolist(), hi.tolist(), term_list)
            by_end = np.argsort(hi, kind="stable")
            # The same runs in the reversed point order: its left table is
            # the table of the packings right of each rank.
            mirrored = ((n - 1 - hi).tolist(), (n - 1 - lo).tolist(), term_list)
            by_start = np.argsort(-lo, kind="stable")
    del member_matrix  # the search reads ``priced`` and ``words`` only
    floor = None

    def dfs(rem, current, chosen):
        # Only the include branch recurses, so the depth is bounded by the
        # packing size; excluding rem[i] continues this loop instead.
        nonlocal best_total, best_choice, floor
        if current > best_total:
            best_total = current
            best_choice = list(chosen)
        if not len(rem):
            return
        sums = term_arr[rem]
        if float(np.add.reduce(sums)) <= best_total - current:
            return
        if runs is None:
            if _density_bound(priced, rem) <= best_total - current:
                return
            bound, pre = _suffix_bounds(priced, rem)
        else:
            alive = np.zeros(m, dtype=bool)
            alive[rem] = True
            left, witness = _interval_table(spans, by_end[alive[by_end]], n)
            if floor is None:
                # The first table is the root's, which this never prunes.
                floor = left[n] * (1.0 - margin)
            if (current + left[n]) * (1.0 + margin) <= max(best_total, floor):
                return
            right, _ = _interval_table(mirrored, by_start[alive[by_start]], n)
        # Sequential and pairwise sums of k positive terms both lie within
        # (k - 1) 2^-53 of the exact sum, so outside this relative margin
        # the sequential suffix sum decides as the pairwise one would.
        np.cumsum(sums[::-1], out=sums[::-1])
        tol = len(rem) * 2.0**-50
        for i in range(len(rem)):
            j = rem[i]
            if i:
                # Step 0's bounds are the entry checks above.
                slack = best_total - current
                s = float(sums[i])
                if s * (1.0 - tol) <= slack and (
                    s * (1.0 + tol) <= slack or float(np.add.reduce(term_arr[rem[i:]])) <= slack
                ):
                    return
                if runs is None:
                    if bound[i] <= slack:
                        return
                else:
                    if int(rem[i - 1]) in witness:
                        alive[rem[:i]] = False
                        left, witness = _interval_table(spans, by_end[alive[by_end]], n)
                    if (current + left[n]) * (1.0 + margin) <= max(best_total, floor):
                        return
            child = current + float(term_arr[j])
            # Skip a child that cannot change the result.  Density: pre >= 0,
            # so the child would not beat the best total and would stop at
            # its first bound.  Interval: the interval rule rules out every
            # packing under a child that does not beat the best total itself.
            if runs is None:
                if pre[i] <= best_total - child:
                    continue
            else:
                ahead = left[spans[0][j]] + right[n - 1 - spans[1][j]]
                if child <= best_total and (child + ahead) * (1.0 + margin) <= max(best_total, floor):
                    continue
            chosen.append(j)
            dfs(clear_of(j, rem[i + 1 :]), child, chosen)
            chosen.pop()

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
    family, oscs, mus = _family_oscillations(space, f, idx, _shorth_rows, s)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc**p for mu, osc in zip(mus.tolist(), oscs.tolist())]
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
    ``_row_blocks``, ``_maximal_median_rows`` gives the centers, then the medians.
    """
    _check_p_exceeds_1(p)
    if not (0.0 < s <= t <= 0.5):
        raise InvalidS(f"need 0 < s <= t <= 1/2, got s={s}, t={t}")
    vals = _as_values(space, f)

    def compute(family):
        oscs, mus = np.empty(len(family)), np.empty(len(family))
        padded_vals, padded_weights = np.append(vals, np.inf), np.append(space.weights, 0.0)
        for sel, size, pts in _row_blocks(space.n, family.sizes, family.words):
            v, w = padded_vals[pts], padded_weights[pts]
            center = _maximal_median_rows(v, w, t, size)
            oscs[sel] = _maximal_median_rows(np.abs(v - center[:, None]), w, s, size)
            mus[sel] = _row_sums(w, size)
        return oscs, mus

    key = ("centered_family", float(s), float(t))
    family, oscs, mus = _family_terms(space, f, _region_idx(space, region), key, compute)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc**p for mu, osc in zip(mus.tolist(), oscs.tolist())]
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
    family, oscs, mus = _family_oscillations(space, f, idx, _integral_rows, q)
    # Python floats: numpy's vectorised power can differ from ** in the last bit.
    terms = [mu * osc ** (p / q) for mu, osc in zip(mus.tolist(), oscs.tolist())]
    return _jn_norm(space, family, oscs, terms, p, mode, force)
