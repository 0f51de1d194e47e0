"""Maximal s-medians, s-median certification, and median oscillation.

The maximal s-median of f over a set A of positive measure is

    m_f^s(A) = inf { a : mu({x in A : f(x) > a}) < s * mu(A) },

with 0 < s <= 1.  On a finite space the infimum is attained at a sample
value, and the result is itself an s-median: the mass strictly above it is
at most s * mu(A) and the mass strictly below at most (1 - s) * mu(A).

Median oscillation of f on a set B is inf_c m_{|f - c|}^s(B).  Since
m_{|f - c|}^s(B) <= a exactly when mu{|f - c| <= a} > (1 - s) mu(B), the
infimum is half the width of the shortest closed window [u_i, u_j] between
two sample values whose complement has mass below s mu(B), attained at the
window's midpoint (Rousseeuw's shorth, JASA 1984).

One kernel, ``_shorth_rows``, evaluates this for a whole family of sets
(every canonical ball of a region) with array operations, and returns
for each set exactly the bits of the one-set computation:

* Rows are sorted stably by value, so equal values keep index order and
  ``bincount`` sums each distinct value's mass left to right, as it does
  for one set; a row-wise cumsum gives the cumulative masses.
* For every left end i, the first passing right end j is found by a
  bisection on the strict-tail expression total - (cum[j] - below_i) <
  s * total itself.  Float subtraction is monotone and the masses are
  positive, so the expression is monotone in j and the bisection picks
  the same j as a two-pointer scan would; the leftmost minimal width wins.
* mu(B) is ``weights[idx].sum()``: numpy sums a 1-D array pairwise, and a
  row sum of a C-contiguous 2-D array runs the same pairwise loop, while
  zero-padded rows or ``np.add.reduceat`` group the additions differently.
  So totals are taken on one array per ball size.
* Norm terms mu * osc**p are formed from Python floats: numpy's vectorised
  ``power`` can differ from ``**`` in the last bit.

The sign of a zero center c is that of the lowest-index member holding
the value.  Each set comes as a row of packed member words, as a ball
family stores it, and rows are unpacked in index order in blocks of
bounded padded size.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, InvalidParameter, InvalidS
from .space import _BLOCK_ELEMS, Space, _member_indices, _resolve_region


@dataclass(frozen=True, eq=False)
class SampleFunction:
    """A finite real value per point of a Space, aligned with point order."""

    values: np.ndarray

    @staticmethod
    def from_mapping(space: Space, mapping) -> "SampleFunction":
        missing = [p for p in space.point_ids if p not in mapping]
        extra = [p for p in mapping if p not in set(space.point_ids)]
        if missing or extra:
            raise InvalidParameter(
                f"function ids must exactly cover the space "
                f"(missing {missing[:3]}, extra {extra[:3]})"
            )
        return SampleFunction.from_values(space, [mapping[p] for p in space.point_ids])

    @staticmethod
    def from_values(space: Space, values) -> "SampleFunction":
        arr = np.asarray(list(values), dtype=float)
        if arr.shape != (space.n,):
            raise InvalidParameter("values must match the number of points")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("function values must be finite")
        arr.setflags(write=False)
        return SampleFunction(values=arr)

    def to_json(self, space: Space) -> dict:
        return {"values": {p: float(v) for p, v in zip(space.point_ids, self.values)}}

    @staticmethod
    def from_json(space: Space, obj) -> "SampleFunction":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return SampleFunction.from_mapping(space, obj["values"])


def _memo(space: Space, f, key, compute):
    """``compute()``, kept with ``space`` under (f, key) when f is a SampleFunction.

    The results live in the space's cache, in a ``WeakKeyDictionary`` keyed
    by the function object (``SampleFunction`` hashes by identity), so a
    function used on two spaces keeps one set of results per space, and
    they are freed with the function.
    """
    if not isinstance(f, SampleFunction):
        return compute()
    cache = space._cache()
    per_function = cache.get("functions")
    if per_function is None:
        per_function = cache["functions"] = weakref.WeakKeyDictionary()
    results = per_function.get(f)
    if results is None:
        results = per_function[f] = {}
    hit = results.get(key)
    if hit is None:
        hit = results[key] = compute()
    return hit


def _check_s(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise InvalidS(f"s must lie in (0, 1], got {s}")


@dataclass(frozen=True)
class _MedianQuery:
    """Validated (s, subset) pair for median operations."""

    s: float
    idx: tuple[int, ...]

    @staticmethod
    def of(space: Space, subset, s: float) -> "_MedianQuery":
        _check_s(s)
        idx = _resolve_region(space, subset)
        if len(idx) == 0:
            raise EmptySet("median over an empty set")
        return _MedianQuery(s=float(s), idx=idx)


def _as_values(space: Space, f) -> np.ndarray:
    if isinstance(f, SampleFunction):
        return f.values
    arr = np.asarray(f, dtype=float)
    if arr.shape != (space.n,):
        raise InvalidParameter("values must match the number of points")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("function values must be finite")
    return arr


def weighted_maximal_median(values: np.ndarray, weights: np.ndarray, s: float) -> float:
    """Kernel: maximal s-median of weighted samples."""
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    total = w.sum()
    tails = total - np.cumsum(w)  # mass strictly above each sorted position
    j = int(np.argmax(tails < s * total))
    return float(v[j])


def _maximal_median_rows(values: np.ndarray, weights: np.ndarray, s: float) -> np.ndarray:
    """``weighted_maximal_median`` of every row of two (rows, k) arrays, bit for bit.

    Each row gets the same default ``argsort`` as one row alone, and its
    total and cumulative masses run along a C-contiguous row, the loops
    of the 1-D ``sum`` and ``cumsum``.
    """
    r, k = values.shape
    base = (np.arange(r) * k)[:, None]
    order = np.argsort(values, axis=1) + base
    v = values.ravel()[order]
    w = weights.ravel()[order]
    total = w.sum(axis=1)
    tails = total[:, None] - np.cumsum(w, axis=1)
    j = np.argmax(tails < (s * total)[:, None], axis=1)
    return v[np.arange(r), j]


def maximal_median(space: Space, f, subset, s: float) -> float:
    """m_f^s(A): the largest s-median of f over the subset.

    Raises EmptySet and InvalidS.
    """
    q = _MedianQuery.of(space, subset, s)
    vals = _as_values(space, f)[list(q.idx)]
    return weighted_maximal_median(vals, space.weights[list(q.idx)], q.s)


def is_s_median(space: Space, value: float, f, subset, s: float) -> bool:
    """True iff mu{f > value} <= s mu(A) and mu{f < value} <= (1-s) mu(A)."""
    q = _MedianQuery.of(space, subset, s)
    vals = _as_values(space, f)[list(q.idx)]
    w = space.weights[list(q.idx)]
    total = w.sum()
    above = w[vals > value].sum()
    below = w[vals < value].sum()
    return bool(above <= q.s * total and below <= (1.0 - q.s) * total)


def median_oscillation(space: Space, f, subset, s: float) -> tuple[float, float]:
    """Exact inf over c of m_{|f - c|}^s(B) and the smallest minimizing c."""
    q = _MedianQuery.of(space, subset, s)

    def compute():
        members, sizes = np.array(q.idx, dtype=np.intp), np.array([len(q.idx)])
        osc, c, _ = _shorth_block(_as_values(space, f), space.weights, members, sizes, q.s)
        return (float(osc[0]), float(c[0]))

    return _memo(space, f, ("osc", q.idx, q.s), compute)


def _shorth_rows(values: np.ndarray, weights: np.ndarray, words, sizes, s: float):
    """Kernel: median oscillation, its center and the measure of many sets.

    Each set is a row of packed member ``words`` (a ball family's bit
    layout) with its size in ``sizes``; a block's members are unpacked in
    index order.  Returns three float arrays (osc, c, mu) in row order,
    each entry equal to what the one-set computation gives: the leftmost
    shortest window [u_i, u_j] of sorted distinct values whose outside
    mass passes total - mu[u_i, u_j] < s * total, with c its midpoint;
    (0, u) for a single value; the half-range at the midrange when
    s * total <= min weight.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    m = len(sizes)
    osc, c, mu = np.empty(m), np.empty(m), np.empty(m)
    # Blocks of rows by increasing size keep the padding small and every
    # block's (rows x width) temporaries under _BLOCK_ELEMS.
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    a = 0
    while a < m:
        b = m
        while b - a > 1 and (b - a) * ordered[b - 1] > _BLOCK_ELEMS:
            b = a + max(1, _BLOCK_ELEMS // int(ordered[b - 1]))
        sel = by_size[a:b]
        members = _member_indices(words[sel], len(values))
        osc[sel], c[sel], mu[sel] = _shorth_block(values, weights, members, ordered[a:b], s)
        a = b
    return osc, c, mu


def _shorth_block(values, weights, members, sizes, s):
    """``_shorth_rows`` on rows sorted by size, padded to the largest.

    ``members`` concatenates the rows' member indices, each in index order.
    """
    r, k = len(sizes), int(sizes[-1])
    rows = np.arange(r)
    col = np.arange(k)
    base = (rows * k)[:, None]  # flat offset of each row
    pad = col >= sizes[:, None]
    pts = np.zeros((r, k), dtype=np.intp)
    pts[~pad] = members

    # mu(B) and the lightest weight, one C-contiguous array per ball size:
    # its row sums are the same pairwise sums as weights[idx].sum().
    mu, w_min = np.empty(r), np.empty(r)
    cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), r]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = weights[pts[lo:hi, : sizes[lo]]]
        mu[lo:hi] = part.sum(axis=1)
        w_min[lo:hi] = part.min(axis=1)

    # Stable sort per row: padding (+inf, weight 0) goes last, and equal
    # values keep index order, so bincount sums each value's mass in the
    # same order as the one-set computation.
    v = np.where(pad, np.inf, values[pts])
    order = np.argsort(v, axis=1, kind="stable") + base
    sv = v.ravel()[order]
    sw = np.where(pad, 0.0, weights[pts]).ravel()[order]
    del v, order, pts
    step = sv[:, 1:] != sv[:, :-1]
    group = np.zeros((r, k), dtype=np.intp)
    np.cumsum(step, axis=1, out=group[:, 1:])
    n_distinct = group[rows, sizes - 1] + 1
    mass = np.bincount((group + base).ravel(), weights=sw.ravel(), minlength=r * k)
    cum = np.cumsum(mass.reshape(r, k), axis=1)
    below = np.zeros((r, k))
    below[:, 1:] = cum[:, :-1]
    # Distinct values left-aligned; the tail repeats the row minimum so the
    # window arithmetic below stays finite there.
    u = np.repeat(sv[:, :1], k, axis=1)
    first = np.ones((r, k), dtype=bool)
    first[:, 1:] = step
    first &= ~pad
    fr, fc = np.nonzero(first)
    u[fr, group[fr, fc]] = sv[fr, fc]
    del sv, sw, step, group, mass, first, fr, fc  # bounds the block's peak

    # First passing right end of every left end i, by bisection over
    # [i, n_distinct): the strict-tail test is monotone in j.
    total = mu[:, None]
    thr = (s * mu)[:, None]
    lo = np.broadcast_to(col, (r, k)).copy()
    hi = np.broadcast_to(n_distinct[:, None], (r, k)).copy()
    for _ in range(k.bit_length()):
        mid = (lo + hi) >> 1
        ok = total - (cum.ravel()[np.minimum(mid, k - 1) + base] - below) < thr
        active = lo < hi
        np.copyto(hi, mid, where=active & ok)
        np.copyto(lo, mid + 1, where=active & ~ok)
    valid = lo < n_distinct[:, None]  # lo starts at i, so this also needs i < n_distinct
    top = u.ravel()[np.minimum(lo, k - 1) + base]
    mid_v = (u + top) / 2.0
    width = np.where(valid, np.maximum(np.abs(u - mid_v), np.abs(top - mid_v)), np.inf)
    best = width.argmin(axis=1)  # the leftmost shortest window
    osc = width[rows, best]
    c = mid_v[rows, best]

    low, high = u[:, 0], u[rows, n_distinct - 1]
    # Below the lightest atom the s-median of |f - c| is its maximum for
    # every c, so the infimum is the half-range at the midrange point.
    light = s * mu <= w_min
    osc = np.where(light, (high - low) / 2.0, osc)
    c = np.where(light, (low + high) / 2.0, c)
    single = n_distinct == 1
    osc = np.where(single, 0.0, osc)
    c = np.where(single, low, c)
    return osc, c, mu
