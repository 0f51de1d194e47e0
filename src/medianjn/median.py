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
(every canonical ball of a region, or one set for ``median_oscillation``)
with array operations, and returns for each set exactly the bits of the
one-set computation:

* One stable argsort of all n values per call gives a global value order
  and the id of each point's distinct value.  Rows come in the blocks of
  ``space._row_blocks``, a padded matrix of member indices each; sorting
  each row's ranks in the global order (the padding ranked last) lists
  its members by value, equal values in index order.  A cell is a (row,
  distinct value) pair; one ``bincount`` over the members sums each
  cell's mass in index order, as the one-set computation does, and a
  row-wise cumsum over the masses, left-aligned in a (rows, distinct
  values) table, gives the cumulative masses.
* The search runs only on live (row, left end) cells, not on padding: for
  each left end i, a power-of-two descent finds the first right end j that
  passes the strict-tail expression total - (cum[j] - below_i) < s * total
  itself.  Float subtraction is monotone and the masses are positive, so
  the expression is monotone in j and the descent picks the same j as a
  two-pointer scan would; the leftmost minimal width wins.
* mu(B) is ``weights[idx].sum()``, numpy's pairwise sum: the one
  row-sum rule, ``space._row_sums``, gives it from the block's padded
  weights in index order; the lightest weight is one
  ``np.minimum.reduceat``.
* Norm terms mu * osc**p are formed from Python floats: numpy's vectorised
  ``power`` can differ from ``**`` in the last bit.

The sign of a zero center c is that of the row's lowest-index member
holding zero, which the global order does not carry by itself: a cell
takes the value of its first member in the row.  Each set comes as a row
of packed member words, as a ball family stores it.  The blocks are
``_row_blocks``' default ones: at most ``_BLOCK_ELEMS // 2`` padded
elements (64 KiB of floats) and ``_UNPACK_ELEMS`` bytes of unpacked
member rows.  At twice that size the peak resident memory of a
``library`` benchmark round rose by about 0.6 MB, the allocator effect
``norms._dominated_rows`` records for its tiles.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidS
from .space import Space, _pack_rows, _row_blocks, _row_sums, _set_idx


@dataclass(frozen=True, eq=False)
class SampleFunction:
    """A finite real value per point of a Space, aligned with point order."""

    values: np.ndarray

    @staticmethod
    def from_mapping(space: Space, mapping) -> "SampleFunction":
        missing = [p for p in space.point_ids if p not in mapping]
        extra = [p for p in mapping if p not in space._index_table()]
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
    results = space._cached("functions", weakref.WeakKeyDictionary).setdefault(f, {})
    hit = results.get(key)
    if hit is None:
        hit = results[key] = compute()
    return hit


def _check_s(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise InvalidS(f"s must lie in (0, 1], got {s}")


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
    """Kernel: maximal s-median of weighted samples, ``_maximal_median_rows`` on one row."""
    return float(_maximal_median_rows(values[None], weights[None], s)[0])


def _maximal_median_rows(values: np.ndarray, weights: np.ndarray, s: float, sizes=None) -> np.ndarray:
    """Kernel: maximal s-median of every row of two (rows, k) arrays of values and weights.

    Row i holds its set in its first ``sizes[i]`` columns (all k by
    default), then padding of value +inf and weight 0, which sorts last
    and leaves every running sum as it is.  Per row, the first value in
    stable sorted order (equal values in column order) at which the total
    less the running sum falls below s times the total, else the first
    sorted value.  Totals are ``_row_sums`` of the sorted weights and the
    running sums the 1-D ``cumsum`` loop along a row, so no result depends
    on the other rows, the padding or how the CPU's default sort orders ties.
    """
    r, k = values.shape
    base = (np.arange(r) * k)[:, None]
    order = np.argsort(values, axis=1, kind="stable") + base
    v = values.ravel()[order]
    w = weights.ravel()[order]
    total = _row_sums(w, np.full(r, k) if sizes is None else sizes)
    tails = total[:, None] - np.cumsum(w, axis=1)
    j = np.argmax(tails < (s * total)[:, None], axis=1)
    return v[np.arange(r), j]


def maximal_median(space: Space, f, subset, s: float) -> float:
    """m_f^s(A): the largest s-median of f over the subset.

    Raises EmptySet and InvalidS.
    """
    _check_s(s)
    idx = list(_set_idx(space, subset))
    return weighted_maximal_median(_as_values(space, f)[idx], space.weights[idx], float(s))


def is_s_median(space: Space, value: float, f, subset, s: float) -> bool:
    """True iff mu{f > value} <= s mu(A) and mu{f < value} <= (1-s) mu(A)."""
    _check_s(s)
    idx, s = list(_set_idx(space, subset)), float(s)
    vals, w = _as_values(space, f)[idx], space.weights[idx]
    total = w.sum()
    above = w[vals > value].sum()
    below = w[vals < value].sum()
    return bool(above <= s * total and below <= (1.0 - s) * total)


def median_oscillation(space: Space, f, subset, s: float) -> tuple[float, float]:
    """Exact inf over c of m_{|f - c|}^s(B) and the smallest minimizing c."""
    _check_s(s)
    idx, s = _set_idx(space, subset), float(s)

    def compute():
        row = np.zeros((1, space.n), dtype=bool)
        row[0, idx] = True
        osc, c, _ = _shorth_rows(_as_values(space, f), space.weights, _pack_rows(row), [len(idx)], s)
        return (float(osc[0]), float(c[0]))

    return _memo(space, f, ("osc", idx, s), compute)


def _shorth_rows(values: np.ndarray, weights: np.ndarray, words, sizes, s: float):
    """Kernel: median oscillation, its center and the measure of many sets.

    Each set is a row of packed member ``words`` (a ball family's bit
    layout) with its size in ``sizes``.  Returns three float arrays (osc,
    c, mu) in row order, each entry equal to what the one-set computation
    gives: the leftmost shortest window [u_i, u_j] of sorted distinct
    values whose outside mass passes total - mu[u_i, u_j] < s * total,
    with c its midpoint; (0, u) for a single value; the half-range at the
    midrange when s * total <= min weight.  Midpoints and half-ranges are
    ``_halfway``'s, finite for every finite input.
    """
    m, n = len(sizes), len(values)
    osc, c, mu = np.empty(m), np.empty(m), np.empty(m)
    # One stable order of all values: position q holds point order[q], and
    # value_id[q] numbers the distinct values in increasing order; rank is
    # the inverse of order, with the pad index n ranked last.
    order = np.argsort(values, kind="stable")
    sorted_values, sorted_weights = values[order], weights[order]
    value_id = np.zeros(n, dtype=np.intp)
    np.cumsum(sorted_values[1:] != sorted_values[:-1], out=value_id[1:])
    rank = np.empty(n + 1, dtype=np.int32)  # int32 sorts faster than intp
    rank[order], rank[n] = np.arange(n), n
    # Values below 2^1023 in magnitude: no midpoint overflows (``_halfway``).
    wide = max(-float(sorted_values[0]), float(sorted_values[-1])) >= 2.0**1023
    padded_weights = np.append(weights, 0.0)
    for sel, size, pts in _row_blocks(n, sizes, words):
        r = len(sel)
        total = _row_sums(padded_weights[pts], size)

        # Members in value order, equal values in index order.  A cell is a
        # (row, distinct value) pair; bincount adds each cell's weights in
        # input order, as the one-set computation does, and u takes the
        # value of the cell's lowest-index member, zero sign included.
        ranked = np.sort(rank[pts], axis=1)
        q = ranked[ranked < n].astype(np.intp)
        row = np.repeat(np.arange(r), size)
        del ranked
        key = row * n + value_id[q]
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        w = sorted_weights[q]
        mass = np.bincount(np.cumsum(new) - 1, weights=w)
        w_min = np.minimum.reduceat(w, np.cumsum(size) - size)
        del w  # the dels keep few of the block's temporaries alive at once
        u = sorted_values[q[new]]
        cell_row = row[new]
        del row, q, new
        n_distinct = np.bincount(cell_row, minlength=r)
        first = np.zeros(r + 1, dtype=np.intp)
        np.cumsum(n_distinct, out=first[1:])
        width = int(n_distinct.max())
        col = np.arange(len(u)) - first[cell_row]
        # Each row's masses left-aligned in a (rows, width) table, so that a
        # row-wise cumsum gives the one-set cumulative masses.
        padded = cell_row * width + col
        table = np.zeros(r * width)
        table[padded] = mass
        del mass
        cum_table = np.cumsum(table.reshape(r, width), axis=1).ravel()
        cum = cum_table[padded]
        below = np.where(col > 0, cum_table[padded - 1], 0.0)
        del col, cum_table

        # First passing right end j of every left end i, by a power-of-two
        # descent over [i, last] on the strict-tail test itself.  Float
        # subtraction is monotone and the masses are positive, so the test
        # is monotone in j and the descent finds the first j that passes.
        # A probe past the row's last cell reads that cell, which passes iff
        # some j does; otherwise the descent ends past it.
        tot, thr = total[cell_row], (s * total)[cell_row]
        last = first[1:][cell_row] - 1
        del cell_row
        j = np.arange(len(u))
        step = 1 << (width.bit_length() - 1)
        while step:
            probe = j + (step - 1)
            passes = tot - (cum.take(np.minimum(probe, last)) - below) < thr
            j = np.where(passes, j, probe + 1)
            step >>= 1
        del tot, thr, cum, below, probe, passes
        # A row where no window passes (s * total below the rounding gap
        # between total and its summed masses) gets osc inf at its lowest value.
        valid = j <= last
        top = np.where(valid, u.take(j, mode="clip"), u)
        mid = _halfway(u, top, wide)
        spread = np.where(valid, np.maximum(np.abs(u - mid), np.abs(top - mid)), np.inf)
        table.fill(np.inf)
        table[padded] = spread
        best = first[:-1] + table.reshape(r, width).argmin(axis=1)  # the leftmost shortest window
        b_osc, b_c = spread[best], mid[best]

        low, high = u[first[:-1]], u[first[1:] - 1]
        # Below the lightest atom the s-median of |f - c| is its maximum for
        # every c, so the infimum is the half-range at the midrange point.
        light = s * total <= w_min
        b_osc = np.where(light, _halfway(high, -low, wide), b_osc)
        b_c = np.where(light, _halfway(low, high, wide), b_c)
        single = n_distinct == 1
        osc[sel] = np.where(single, 0.0, b_osc)
        c[sel] = np.where(single, low, b_c)
        mu[sel] = total
    return osc, c, mu


def _halfway(a: np.ndarray, b: np.ndarray, wide: bool) -> np.ndarray:
    """(a + b) / 2 entry by entry, and a / 2 + b / 2 in the entries where a + b overflows.

    ``wide`` may be False only when every entry has magnitude below
    2^1023: then no sum overflows, and the check is skipped.  A sum of finite
    values overflows only when both lie near the largest float, where
    their halves are exact, so the mended entries round the midpoint
    once, as the others do.  ``_halfway(high, -low, wide)`` is
    (high - low) / 2: x - y is x + (-y) bit for bit.
    """
    if not wide:
        return (a + b) / 2.0
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    over = np.isinf(mid)
    mid[over] = a[over] / 2.0 + b[over] / 2.0
    return mid
