"""Reference computations that share no code with ``medianjn``.

Every function here works on plain arrays: coordinates, weights and
function values.  None imports the program, so a check built on them
cannot inherit the program's faults.

* ``median_oscillation``: the shortest value window.  For a set B and a
  level s, m^s_{|f-c|}(B) <= a exactly when mu{|f - c| <= a} > (1-s) mu(B),
  so the infimum over c is half the width of the shortest closed window
  between two sample values that holds more than (1-s) mu(B)
  (Rousseeuw's shorth, JASA 1984).  The program scans all pairwise
  midpoints instead.
* ``member_sets``: every ball member set, by brute force over every
  center and every distinct distance from it.
* ``doubling_constant``: the largest mu(2B)/mu(B) over every
  (center, representative radius) pair, without merging balls that share
  a member set.
* ``integral_oscillation_q1``: the mean absolute deviation from a
  weighted median.
* ``interval_packing``: weighted interval scheduling, the exact packing
  optimum when every ball is a run of consecutive points (1-D spaces).
* ``milp_packing``: the exact packing optimum as a 0/1 program solved by
  ``scipy.optimize.milp`` (any dimension).
* ``stopping_constants``: alpha and s0 of the stopping-time argument.
"""

from __future__ import annotations

import math

import numpy as np

# Lower clamp the program applies to the doubling constant (1 + 2^-20).
MIN_DOUBLING = 1.0 + 2.0**-20


def stopping_constants(c_mu: float, eta: float) -> tuple[float, float]:
    """(alpha, s0) with alpha = 5^D c^2 (1 + 1/eta)^D, D = log2 c, and
    s0 = min(1/(2 alpha), 1/(8 c^3))."""
    dim = math.log2(c_mu)
    alpha = 5.0**dim * c_mu * c_mu * (1.0 + 1.0 / eta) ** dim
    return alpha, min(1.0 / (2.0 * alpha), 1.0 / (8.0 * c_mu**3))


def distances(coords) -> np.ndarray:
    """Euclidean distance matrix of coordinate rows."""
    c = np.asarray(coords, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    out = np.zeros((len(c), len(c)))
    for i in range(len(c)):
        out[i] = np.sqrt(((c - c[i]) ** 2).sum(axis=1))
    return out


def ball(dist: np.ndarray, center: int, radius: float) -> np.ndarray:
    """Member mask of the strict ball {y : d(center, y) < radius}."""
    return dist[center] < radius


def maximal_median(values, weights, s: float) -> float:
    """Largest s-median: the least sample value a with mu{g > a} < s mu."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    for a in np.unique(v):
        if w[v > a].sum() < s * total:
            return float(a)
    raise ValueError("no s-median: empty set or s out of range")


def median_oscillation(values, weights, s: float) -> float:
    """inf over c of m^s_{|f-c|}: half the shortest window of mass > (1-s) mu."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    u = np.unique(v)
    mass = np.array([w[v == x].sum() for x in u])
    need = (1.0 - s) * w.sum()
    best = math.inf
    for i in range(len(u)):
        run = np.cumsum(mass[i:])
        hit = np.nonzero(run > need)[0]
        if len(hit) == 0:
            break
        best = min(best, (u[i + hit[0]] - u[i]) / 2.0)
    return float(best)


def oscillation_at(values, weights, s: float, c: float) -> float:
    """m^s_{|f-c|}: the largest s-median of |f - c| for one given c."""
    return maximal_median(np.abs(np.asarray(values, dtype=float) - c), weights, s)


def integral_oscillation_q1(values, weights) -> float:
    """inf over c of the weighted mean of |f - c|, attained at a weighted median."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    c = v[order][int(np.searchsorted(cum, cum[-1] / 2.0))]
    return float((w * np.abs(v - c)).sum() / w.sum())


def weak_lp_power(values, weights, p: float) -> float:
    """sup over gamma of gamma^p mu{|g| > gamma}: max of v^p mu{|g| >= v}."""
    g = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    best = 0.0
    for v in np.unique(g):
        if v > 0.0:
            best = max(best, v**p * w[g >= v].sum())
    return float(best)


def member_sets(dist: np.ndarray, region=None) -> list[tuple[int, ...]]:
    """Every distinct ball member set inside ``region``, centers in ``region``.

    For each center and each distinct positive distance d from it, the ball
    of radius d; the ball of radius beyond the largest distance is the
    whole space.  Sorted by (size, members).
    """
    n = len(dist)
    inside = np.ones(n, dtype=bool) if region is None else np.isin(np.arange(n), list(region))
    found = set()
    for x in np.nonzero(inside)[0]:
        radii = list(np.unique(dist[x])[1:]) + [math.inf]
        for r in radii:
            mask = dist[x] < r
            if not (mask & ~inside).any():
                found.add(tuple(np.nonzero(mask)[0].tolist()))
    return sorted(found, key=lambda m: (len(m), m))


def doubling_constant(dist: np.ndarray, weights) -> float:
    """max over centers x and distinct distances r from x of mu(B(x,2r))/mu(B(x,r))."""
    w = np.asarray(weights, dtype=float)
    worst = 1.0
    for x in range(len(dist)):
        for r in np.unique(dist[x])[1:]:
            worst = max(worst, w[dist[x] < 2.0 * r].sum() / w[dist[x] < r].sum())
    return float(max(worst, MIN_DOUBLING))


def interval_packing(order, sets, terms) -> float:
    """Best total of pairwise-disjoint runs, by weighted interval scheduling.

    ``order`` lists the points left to right; every set in ``sets`` must be
    a run of consecutive points in that order (ValueError otherwise).
    """
    pos = {int(p): k for k, p in enumerate(order)}
    ending: dict[int, list[tuple[int, float]]] = {}
    for members, term in zip(sets, terms):
        ks = sorted(pos[int(m)] for m in members)
        if ks[-1] - ks[0] != len(ks) - 1:
            raise ValueError(f"set {members} is not a run of consecutive points")
        ending.setdefault(ks[-1], []).append((ks[0], float(term)))
    best = [0.0] * (len(order) + 1)
    for k in range(len(order)):
        best[k + 1] = best[k]
        for start, term in ending.get(k, ()):
            best[k + 1] = max(best[k + 1], best[start] + term)
    return best[-1]


def milp_packing(n_points: int, sets, terms) -> float:
    """Best total of pairwise-disjoint sets as a 0/1 program (scipy milp).

    Terms are scaled so the largest is 1e6 before solving, which keeps the
    solver's absolute gap far below the comparison tolerance; the returned
    total is re-summed from the unscaled terms of the chosen sets after
    checking that they are disjoint.
    """
    from scipy.optimize import LinearConstraint, milp

    terms = np.asarray(terms, dtype=float)
    if len(terms) == 0 or terms.max() <= 0.0:
        return 0.0
    incidence = np.zeros((n_points, len(terms)))
    for j, members in enumerate(sets):
        incidence[list(members), j] = 1.0
    scale = 1e6 / terms.max()
    res = milp(
        -terms * scale,
        integrality=np.ones(len(terms)),
        bounds=(0, 1),
        constraints=LinearConstraint(incidence, -np.inf, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"milp failed: {res.message}")
    chosen = np.nonzero(res.x > 0.5)[0]
    if (incidence[:, chosen].sum(axis=1) > 1.0).any():
        raise RuntimeError("milp returned overlapping sets")
    return float(terms[chosen].sum())


def packing_optimum(coords, sets, terms) -> float:
    """Exact packing optimum: interval scheduling in 1-D, MILP otherwise."""
    c = np.asarray(coords, dtype=float)
    if c.ndim == 1 or c.shape[1] == 1:
        order = np.argsort(c.reshape(len(c)), kind="stable")
        return interval_packing(order, sets, terms)
    return milp_packing(len(c), sets, terms)
