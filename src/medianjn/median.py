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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySet, InvalidParameter, InvalidS
from .space import Space, _resolve_region


@dataclass(frozen=True, eq=False)
class SampleFunction:
    """A finite real value per point of a Space, aligned with point order."""

    values: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

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


@dataclass(frozen=True)
class MedianQuery:
    """Validated (s, subset) pair for median operations."""

    s: float
    idx: tuple[int, ...]

    @staticmethod
    def of(space: Space, subset, s: float) -> "MedianQuery":
        if not (0.0 < s <= 1.0):
            raise InvalidS(f"s must lie in (0, 1], got {s}")
        idx = _resolve_region(space, subset)
        if len(idx) == 0:
            raise EmptySet("median over an empty set")
        return MedianQuery(s=float(s), idx=idx)


def _as_values(space: Space, f) -> np.ndarray:
    if isinstance(f, SampleFunction):
        return f.values
    arr = np.asarray(f, dtype=float)
    if arr.shape != (space.n,):
        raise InvalidParameter("values must match the number of points")
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


def maximal_median(space: Space, f, subset, s: float) -> float:
    """m_f^s(A): the largest s-median of f over the subset.

    Raises EmptySet and InvalidS.
    """
    q = MedianQuery.of(space, subset, s)
    vals = _as_values(space, f)[list(q.idx)]
    return weighted_maximal_median(vals, space.weights[list(q.idx)], q.s)


def is_s_median(space: Space, value: float, f, subset, s: float) -> bool:
    """True iff mu{f > value} <= s mu(A) and mu{f < value} <= (1-s) mu(A)."""
    q = MedianQuery.of(space, subset, s)
    vals = _as_values(space, f)[list(q.idx)]
    w = space.weights[list(q.idx)]
    total = w.sum()
    above = w[vals > value].sum()
    below = w[vals < value].sum()
    return bool(above <= q.s * total and below <= (1.0 - q.s) * total)


def median_oscillation(space: Space, f, subset, s: float) -> tuple[float, float]:
    """Exact inf over c of m_{|f - c|}^s(B) and the smallest minimizing c."""
    q = MedianQuery.of(space, subset, s)
    if isinstance(f, SampleFunction):
        key = ("osc", q.idx, q.s)
        hit = f._cache.get(key)
        if hit is not None:
            return hit
    vals = _as_values(space, f)[list(q.idx)]
    w = space.weights[list(q.idx)]
    u, inverse = np.unique(vals, return_inverse=True)
    if len(u) == 1:
        result = (0.0, float(u[0]))
    elif q.s * w.sum() <= w.min():
        # Below the lightest atom the s-median of |f - c| is its maximum for
        # every c, so the infimum is the half-range at the midrange point.
        result = (float((u[-1] - u[0]) / 2.0), float((u[0] + u[-1]) / 2.0))
    else:
        result = _shortest_window(u, np.bincount(inverse, weights=w), float(w.sum()), q.s)
    if isinstance(f, SampleFunction):
        f._cache[key] = result
    return result


def _shortest_window(u: np.ndarray, mass: np.ndarray, total: float, s: float) -> tuple[float, float]:
    """Kernel: leftmost shortest window [u_i, u_j] with outside mass < s * total.

    ``u`` holds the sorted distinct values and ``mass`` their summed
    weights.  A window passes when total - mu[u_i, u_j] < s * total, the
    strict-tail test of ``weighted_maximal_median``.  The first passing
    right end never moves left as the left end advances, so two pointers
    visit each value once.  Returns (value, c) with c the window midpoint.
    """
    vals = u.tolist()
    cum = np.cumsum(mass).tolist()
    thr = s * total
    best = (math.inf, 0.0)
    below = 0.0
    j = 0
    for i, lo in enumerate(vals):
        while j < len(vals) and not total - (cum[j] - below) < thr:
            j += 1
        if j == len(vals):
            break
        mid = (lo + vals[j]) / 2.0
        width = max(abs(lo - mid), abs(vals[j] - mid))
        if width < best[0]:  # strict: the leftmost window wins ties
            best = (width, mid)
        below = cum[i]
    return best
