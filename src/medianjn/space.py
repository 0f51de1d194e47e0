"""Finite metric measure spaces, balls, dilation, and doubling profiles.

A :class:`Space` is a finite point set with strictly positive weights (the
measure of each singleton) and a metric, given either by coordinates
(Euclidean distances) or an explicit distance matrix.  Balls use the strict
inequality ``d(x, y) < r``, so every ball of positive radius contains its
own center.

Because the point set is finite, the member set of a ball around a fixed
center is constant while the radius moves inside an interval between two
consecutive distance values.  ``canonical_balls`` enumerates one ball per
distinct member set, using the upper endpoint of that interval as the
representative radius; this makes dilation maximal, which is the
conservative choice when estimating doubling constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMetric,
    EmptyRegion,
    InvalidParameter,
    NonPositiveDilation,
    NonPositiveRadius,
    NonPositiveWeight,
    TriangleViolation,
    UnknownCenter,
)

# Multiplicative bump that takes a radius just past the largest distance, so
# the full ball around a center has a finite representative radius.
FULL_BALL_BUMP = 1.0 + 2.0**-20

# Representative radius of the only ball of a one-point space.
SINGLETON_SPACE_RADIUS = 1.0

# Lower clamp for the doubling constant: the theory needs c_mu > 1, and a
# one-point space would otherwise produce c_mu = 1 and dimension 0.
MIN_DOUBLING = 1.0 + 2.0**-20

_CACHE_ATTR = "_medianjn_cache"


@dataclass(frozen=True, eq=False)
class Space:
    """Finite metric measure space: point ids, weights, distance matrix."""

    point_ids: tuple[str, ...]
    weights: np.ndarray
    dist: np.ndarray
    coords: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.point_ids)

    @property
    def total_measure(self) -> float:
        return float(self.weights.sum())

    def index(self, point_id: str) -> int:
        table = self._cache().setdefault("index", None)
        if table is None:
            table = {pid: i for i, pid in enumerate(self.point_ids)}
            self._cache()["index"] = table
        try:
            return table[point_id]
        except KeyError:
            raise UnknownCenter(f"unknown point id {point_id!r}") from None

    def mu(self, idx) -> float:
        """Measure of a set of point indices."""
        if len(idx) == 0:
            return 0.0
        return float(self.weights[np.asarray(idx, dtype=int)].sum())

    def _cache(self) -> dict:
        cache = getattr(self, _CACHE_ATTR, None)
        if cache is None:
            cache = {}
            object.__setattr__(self, _CACHE_ATTR, cache)
        return cache


@dataclass(frozen=True)
class Ball:
    """A metric ball: center id, radius, and its materialized member set.

    ``members`` lists point ids in the order of the space's point list;
    ``idx`` carries the matching integer indices and ``mask`` the same set
    as a bitmask over point positions.
    """

    center: str
    radius: float
    members: tuple[str, ...]
    idx: tuple[int, ...]
    mask: int

    @property
    def size(self) -> int:
        return len(self.idx)

    def ball_id(self) -> str:
        return f"{self.center}@{self.radius:.12g}"


@dataclass(frozen=True)
class DoublingProfile:
    """Doubling constant, dimension, and the measure-ratio certificate.

    ``c_mu`` is the maximum of mu(2B)/mu(B) over every center and every
    representative radius from ``center_radii``, clamped below by
    ``MIN_DOUBLING``; ``dimension`` is log2(c_mu).  The certificate
    records the worst quadruple (x, R, y, r) with y in B(x, R) and
    0 < r <= R for the bound mu(B(x,R))/mu(B(y,r)) <= c_mu^2 (R/r)^D,
    together with the largest observed ratio of left to right side.
    """

    c_mu: float
    dimension: float
    certificate_ok: bool
    worst_quadruple: tuple[str, float, str, float]
    worst_ratio: float


def _make_ball(space: Space, center_idx: int, radius: float) -> Ball:
    inside = space.dist[center_idx] < radius
    sel = np.flatnonzero(inside)
    cache = space._cache()
    ids = cache.get("ids")
    if ids is None:
        ids = cache["ids"] = np.array(space.point_ids, dtype=object)
    return Ball(
        center=space.point_ids[center_idx],
        radius=float(radius),
        members=tuple(ids[sel].tolist()),
        idx=tuple(sel.tolist()),
        mask=int.from_bytes(np.packbits(inside, bitorder="little").tobytes(), "little"),
    )


def build_space(point_ids, weights, *, coords=None, distances=None) -> Space:
    """Validate inputs and assemble a Space.

    Exactly one of ``coords`` (rows of coordinates, Euclidean metric) or
    ``distances`` (full square matrix) must be given.  A matrix is
    symmetrized by averaging when the asymmetry is at most 1e-12 and
    rejected otherwise; the triangle inequality is checked up to
    1e-9 * (max distance).

    Raises NonPositiveWeight, AsymmetricMetric, TriangleViolation,
    InvalidParameter.
    """
    ids = tuple(str(p) for p in point_ids)
    if len(ids) == 0:
        raise InvalidParameter("a space needs at least one point")
    if len(set(ids)) != len(ids):
        raise InvalidParameter("point ids must be unique")
    w = np.asarray(list(weights), dtype=float)
    if w.shape != (len(ids),):
        raise InvalidParameter("weights must match the number of points")
    for pid, wi in zip(ids, w):
        if not (wi > 0.0) or not math.isfinite(wi):
            raise NonPositiveWeight(f"weight of {pid!r} is {wi}")

    if (coords is None) == (distances is None):
        raise InvalidParameter("give exactly one of coords or distances")

    c_arr = None
    if coords is not None:
        c_arr = np.asarray(coords, dtype=float)
        if c_arr.ndim == 1:
            c_arr = c_arr[:, None]
        if c_arr.shape[0] != len(ids):
            raise InvalidParameter("coords must match the number of points")
        diff = c_arr[:, None, :] - c_arr[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
    else:
        dist = np.asarray(distances, dtype=float)
        if dist.shape != (len(ids), len(ids)):
            raise InvalidParameter("distance matrix must be square")
        diag = np.abs(np.diag(dist))
        if diag.max(initial=0.0) > 1e-12:
            raise InvalidParameter("distance matrix diagonal must be zero")
        asym = np.abs(dist - dist.T)
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        if asym[i, j] > 1e-12:
            raise AsymmetricMetric(
                f"d({ids[i]},{ids[j]})={dist[i, j]} but "
                f"d({ids[j]},{ids[i]})={dist[j, i]}"
            )
        dist = 0.5 * (dist + dist.T)
        np.fill_diagonal(dist, 0.0)
        tol = 1e-9 * float(dist.max(initial=0.0))
        for k in range(len(ids)):
            excess = dist - (dist[:, k : k + 1] + dist[k : k + 1, :])
            i, j = np.unravel_index(int(excess.argmax()), excess.shape)
            if excess[i, j] > tol:
                raise TriangleViolation(
                    f"d({ids[i]},{ids[j]}) > d({ids[i]},{ids[k]}) + "
                    f"d({ids[k]},{ids[j]}) by {excess[i, j]:.3g}"
                )

    off = dist + np.eye(len(ids))
    if len(ids) > 1 and off.min() <= 0.0:
        raise InvalidParameter("distinct points must have positive distance")
    dist.setflags(write=False)
    w.setflags(write=False)
    return Space(point_ids=ids, weights=w, dist=dist, coords=c_arr)


def ball_at(space: Space, center: str, radius: float) -> Ball:
    """The ball {y : d(center, y) < radius} with strict inequality."""
    if not (radius > 0.0):
        raise NonPositiveRadius(f"radius must be positive, got {radius}")
    return _make_ball(space, space.index(center), radius)


def dilate(space: Space, ball: Ball, lam: float) -> Ball:
    """The lam-dilate: same center, radius lam * r, members recomputed."""
    if not (lam > 0.0):
        raise NonPositiveDilation(f"dilation factor must be positive, got {lam}")
    return ball_at(space, ball.center, lam * ball.radius)


def center_radii(space: Space, center_idx: int) -> np.ndarray:
    """Representative radii of all distinct balls around one center.

    For each constancy interval (d_k, d_{k+1}] of the member set the
    representative radius is the upper endpoint d_{k+1}; the full ball gets
    the largest distance from this center times ``FULL_BALL_BUMP``.
    """
    ds = np.unique(space.dist[center_idx])
    if len(ds) == 1:
        return np.array([SINGLETON_SPACE_RADIUS])
    return np.concatenate([ds[1:], [ds[-1] * FULL_BALL_BUMP]])


def center_balls(space: Space, center_idx: int, budget: float | None = None) -> list[Ball]:
    """Canonical balls around one center, optionally capped at ``budget``.

    With a budget, each constancy interval that starts below the budget is
    represented by min(upper endpoint, budget), so the family saturates the
    radius cap exactly like the set of all balls of radius <= budget does.
    """
    ds = np.unique(space.dist[center_idx])
    if budget is None:
        return [_make_ball(space, center_idx, r) for r in center_radii(space, center_idx)]
    radii = []
    breaks = ds[1:]
    for k, upper in enumerate(breaks):
        if ds[k] < budget:
            radii.append(min(float(upper), budget))
    if budget > ds[-1]:
        radii.append(float(budget))
    return [_make_ball(space, center_idx, r) for r in radii]


def _resolve_region(space: Space, region) -> tuple[int, ...]:
    """Sorted distinct indices of a region: None, a Ball, point ids or indices.

    Raises UnknownCenter for an unknown id or an index outside [0, n).
    """
    if region is None:
        return tuple(range(space.n))
    if isinstance(region, Ball):
        return region.idx
    items = list(region)
    if items and all(isinstance(p, (int, np.integer)) for p in items):
        idx = {int(p) for p in items}
        if min(idx) < 0 or max(idx) >= space.n:
            raise UnknownCenter(f"point indices must lie in [0, {space.n}), got {sorted(idx)}")
    else:
        idx = {space.index(p) for p in items}
    return tuple(sorted(idx))


def _distinct_balls(pairs, rank) -> tuple[Ball, ...]:
    """One ball per member set from (center index, ball) pairs.

    Among balls with the same member set the smallest ``rank(center index,
    ball)`` wins; the survivors are ordered by center index, then radius.
    """
    best: dict[tuple[int, ...], tuple] = {}
    for ci, ball in pairs:
        key = rank(ci, ball)
        prev = best.get(ball.idx)
        if prev is None or key < prev[0]:
            best[ball.idx] = (key, ci, ball)
    return tuple(entry[2] for entry in sorted(best.values(), key=lambda e: (e[1], e[2].radius)))


def canonical_balls(space: Space, region=None) -> tuple[Ball, ...]:
    """All distinct balls whose member set lies inside ``region``.

    One ball per distinct member set; duplicates across centers keep the
    smallest center index, then the largest radius.  Raises EmptyRegion
    and UnknownCenter.
    """
    region_idx = _resolve_region(space, region)
    if len(region_idx) == 0:
        raise EmptyRegion("canonical_balls needs a nonempty region")
    key = ("canon", region_idx)
    cache = space._cache()
    if key in cache:
        return cache[key]
    outside = (1 << space.n) - 1
    for i in region_idx:
        outside ^= 1 << i
    balls = _distinct_balls(
        (
            (ci, ball)
            for ci in region_idx
            for ball in center_balls(space, ci)
            if not ball.mask & outside
        ),
        lambda ci, ball: (ci, -ball.radius),
    )
    cache[key] = balls
    return balls


def doubling_profile(space: Space) -> DoublingProfile:
    """Doubling constant over every center and radius, plus the ratio certificate."""
    cache = space._cache()
    if "profile" in cache:
        return cache["profile"]

    # mu(2B) depends on the center, so every (center, representative radius)
    # pair counts, not only one center per member set.
    n = space.n
    radii_list = [center_radii(space, c) for c in range(n)]
    mus = []
    worst = 1.0
    w = space.weights
    for c in range(n):
        row = space.dist[c]
        mu_r = np.array([w[row < r].sum() for r in radii_list[c]])
        mu_2r = np.array([w[row < 2.0 * r].sum() for r in radii_list[c]])
        worst = max(worst, float((mu_2r / mu_r).max()))
        mus.append(mu_r)
    c_mu = max(worst, MIN_DOUBLING)
    dim = math.log2(c_mu)

    # Certificate sweep: per center, prefix maxima of r^D / mu(B(y, r)) over
    # its canonical radii make each (x, R) check a single lookup per member.
    mmax = max(len(r) for r in radii_list)
    rad_mat = np.full((n, mmax), np.inf)
    g_pref = np.zeros((n, mmax))
    arg_pref = np.zeros((n, mmax), dtype=int)
    for c in range(n):
        rr = radii_list[c]
        g = rr**dim / mus[c]
        pref = np.maximum.accumulate(g)
        arg = np.zeros(len(rr), dtype=int)
        best_i = 0
        for i in range(len(rr)):
            if g[i] >= g[best_i]:
                best_i = i
            arg[i] = best_i
        rad_mat[c, : len(rr)] = rr
        g_pref[c, : len(rr)] = pref
        arg_pref[c, : len(rr)] = arg

    worst_ratio = 0.0
    worst_quad = (space.point_ids[0], radii_list[0][0], space.point_ids[0], radii_list[0][0])
    c_sq = c_mu * c_mu
    for x in range(n):
        for big_r, mu_big in zip(radii_list[x], mus[x]):
            members = np.flatnonzero(space.dist[x] < big_r)
            lead = mu_big / (c_sq * big_r**dim)
            counts = (rad_mat[members] <= big_r).sum(axis=1)
            ok = counts > 0
            if not ok.any():
                continue
            ys = members[ok]
            ratios = lead * g_pref[ys, counts[ok] - 1]
            j = int(ratios.argmax())
            if ratios[j] > worst_ratio:
                worst_ratio = float(ratios[j])
                y = int(ys[j])
                r_small = radii_list[y][arg_pref[y, counts[ok][j] - 1]]
                worst_quad = (space.point_ids[x], float(big_r), space.point_ids[y], float(r_small))

    profile = DoublingProfile(
        c_mu=float(c_mu),
        dimension=float(dim),
        certificate_ok=bool(worst_ratio <= 1.0 + 1e-9),
        worst_quadruple=worst_quad,
        worst_ratio=float(worst_ratio),
    )
    cache["profile"] = profile
    return profile


# ---------------------------------------------------------------- JSON

def space_to_json(space: Space) -> dict:
    points = []
    for i, pid in enumerate(space.point_ids):
        entry = {"id": pid, "weight": float(space.weights[i])}
        if space.coords is not None:
            entry["coords"] = [float(v) for v in space.coords[i]]
        points.append(entry)
    if space.coords is not None:
        metric = {"kind": "euclidean"}
    else:
        metric = {"kind": "matrix", "distances": [[float(v) for v in row] for row in space.dist]}
    return {"points": points, "metric": metric}


def space_from_json(obj) -> Space:
    if isinstance(obj, str):
        obj = json.loads(obj)
    points = obj["points"]
    ids = [p["id"] for p in points]
    weights = [p["weight"] for p in points]
    metric = obj["metric"]
    if metric["kind"] == "euclidean":
        coords = [p["coords"] for p in points]
        return build_space(ids, weights, coords=coords)
    if metric["kind"] == "matrix":
        return build_space(ids, weights, distances=metric["distances"])
    raise InvalidParameter(f"unknown metric kind {metric['kind']!r}")
