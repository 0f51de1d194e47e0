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

Every ball around a center is a prefix of that center's points in stable
distance order, ending where the distance changes.  The order of every
row is computed once per space and cached.  ``canonical_balls`` and the
CZ family (``czd.cz_family``) both come from this table: each prefix's
member row is packed into 64-bit words by a running OR along the order,
duplicate member sets are found by sorting the packed rows, and ``Ball``
objects are built only for the survivors.

``doubling_profile`` reads the same order.  The breaks between distinct
distances give every center's representative radii, B(c, r_i) is the
prefix up to break i, and B(c, 2 r_i) is the prefix of sorted distances
below 2 r_i.  A measure must have the bits of ``w[row < r].sum()``,
numpy's pairwise sum over the members in index order, so prefixes are
not summed by ``cumsum`` or over zero-padded rows, which group the
additions differently: per prefix length L, the members of every prefix
of that length are gathered in index order into one (rows, L) array and
summed along its rows.  The certificate then scans, per center x, every
(y, r) pair in decreasing order of r^D / mu(B(y, r)), so that each of
x's radii R needs only the first pair with y in B(x, R) and r <= R.
"""

from __future__ import annotations

import dataclasses
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

# Unpacked member-row elements per block when ball fields are built.
_UNPACK_ELEMS = 1 << 16

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

    ``idx`` lists the member point indices in increasing order and
    ``members`` the matching point ids.  It is the only stored encoding of
    the set: a conflict or containment test builds the set it needs from
    ``idx`` where it runs.
    """

    center: str
    radius: float
    members: tuple[str, ...]
    idx: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.idx)

    def ball_id(self) -> str:
        return f"{self.center}@{self.radius:.12g}"


@dataclass(frozen=True)
class DoublingProfile:
    """Doubling constant, dimension, and the measure-ratio certificate.

    ``c_mu`` is the maximum of mu(2B)/mu(B) over every center and every
    representative radius of that center (d_{k+1} for the ball {d <= d_k},
    d_max * ``FULL_BALL_BUMP`` for the full ball), clamped below by
    ``MIN_DOUBLING``; ``dimension`` is log2(c_mu).  The certificate
    records the worst quadruple (x, R, y, r), y in B(x, R) and r <= R
    among y's representative radii, for the bound
    mu(B(x,R))/mu(B(y,r)) <= c_mu^2 (R/r)^D, together with the largest
    observed ratio of left to right side.  Ties go to the first (x, R) in
    (center, radius) order, then the lowest-index y, then the largest r.
    """

    c_mu: float
    dimension: float
    certificate_ok: bool
    worst_quadruple: tuple[str, float, str, float]
    worst_ratio: float


def _point_ids(space: Space) -> np.ndarray:
    cache = space._cache()
    ids = cache.get("ids")
    if ids is None:
        ids = cache["ids"] = np.array(space.point_ids, dtype=object)
    return ids


def _make_ball(space: Space, center_idx: int, radius: float) -> Ball:
    sel = np.flatnonzero(space.dist[center_idx] < radius)
    return Ball(
        center=space.point_ids[center_idx],
        radius=float(radius),
        members=tuple(_point_ids(space)[sel].tolist()),
        idx=tuple(sel.tolist()),
    )


def _euclidean(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


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
        dist = _euclidean(c_arr)
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


def _distance_order(space: Space) -> np.ndarray:
    """Stable ``argsort`` of every distance row, as int32 (cached)."""
    cache = space._cache()
    order = cache.get("order")
    if order is None:
        order = cache["order"] = np.argsort(space.dist, axis=1, kind="stable").astype(np.int32)
    return order


def _prefix_balls(space: Space, centers, budget=None, inside=None) -> tuple[Ball, ...]:
    """One ball per distinct member set among the prefix balls of ``centers``.

    Around each center, in the stable order of its distance row, the ball
    ending at the k-th distinct distance d_k is the prefix {d <= d_k}.
    Without a budget its radius is d_{k+1} (the full ball gets
    d_max * FULL_BALL_BUMP); with one, only prefixes with d_k < budget
    count, at radius min(d_{k+1}, budget).  ``inside``, a boolean point
    mask, keeps the prefixes it contains.  Duplicate member sets keep the
    smallest center without a budget, and the largest radius, then the
    smallest center, with one.  Survivors come in (center, radius) order.
    """
    n = space.n
    n_words = -(-n // 64)
    one = np.uint64(1)
    orders = _distance_order(space)
    pair_center, pair_radius, pair_size, pair_words = [], [], [], []
    for c in centers:
        order = orders[c]
        sd = space.dist[c][order]
        last = np.flatnonzero(np.append(sd[1:] != sd[:-1], True))
        ds = sd[last]
        if budget is None:
            if len(ds) == 1:
                radii = np.array([SINGLETON_SPACE_RADIUS])
            else:
                radii = np.append(ds[1:], ds[-1] * FULL_BALL_BUMP)
            keep = np.ones(len(ds), dtype=bool)
        else:
            radii = np.minimum(np.append(ds[1:], np.inf), budget)
            keep = ds < budget
        if inside is not None:
            out = np.flatnonzero(~inside[order])
            if len(out):
                keep &= last < out[0]
        # Row t holds the first t + 1 points of the order as packed bits.
        bits = np.zeros((n, n_words), dtype="<u8")
        bits[np.arange(n), order >> 6] = one << (order & 63).astype(np.uint64)
        np.bitwise_or.accumulate(bits, axis=0, out=bits)
        ends = last[keep]
        pair_center.append(np.full(len(ends), c))
        pair_radius.append(radii[keep])
        pair_size.append(ends + 1)
        pair_words.append(bits[ends])
    words = np.concatenate(pair_words)
    radius = np.concatenate(pair_radius)
    # Sort by member set, then by preference; lexsort is stable, so equal
    # keys stay in (center, radius) order and the first of each run wins.
    keys = [words[:, w] for w in range(n_words - 1, -1, -1)]
    if budget is not None:
        keys.insert(0, -radius)
    perm = np.lexsort(keys)
    runs = words[perm]
    first = np.ones(len(perm), dtype=bool)
    first[1:] = (runs[1:] != runs[:-1]).any(axis=1)
    keep = np.sort(perm[first])
    centers_kept = np.concatenate(pair_center)[keep].tolist()
    radii_kept = radius[keep].tolist()
    sizes = np.concatenate(pair_size)[keep]
    words = words[keep]
    # The pair tables go before the balls, which hold most of the memory.
    del pair_words, runs, keys

    ids = _point_ids(space)
    pids = space.point_ids
    step = max(1, _UNPACK_ELEMS // n)
    balls = []
    for a in range(0, len(keep), step):
        block = words[a : a + step]
        cols = np.nonzero(np.unpackbits(block.view(np.uint8), axis=1, count=n, bitorder="little"))[1]
        idx_list = cols.tolist()
        id_list = ids[cols].tolist()
        lo = 0
        for t, hi in enumerate(np.cumsum(sizes[a : a + step]).tolist()):
            balls.append(
                Ball(
                    center=pids[centers_kept[a + t]],
                    radius=radii_kept[a + t],
                    members=tuple(id_list[lo:hi]),
                    idx=tuple(idx_list[lo:hi]),
                )
            )
            lo = hi
    return tuple(balls)


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
    inside = None
    if len(region_idx) < space.n:
        inside = np.zeros(space.n, dtype=bool)
        inside[list(region_idx)] = True
    balls = _prefix_balls(space, region_idx, inside=inside)
    cache[key] = balls
    return balls


def _prefix_measures(weights: np.ndarray, rank: np.ndarray, centers, *lengths) -> tuple:
    """Per array L in ``lengths``: mu of the first L[t] points in ``centers[t]``'s order.

    Each value has the bits of ``w[row < r].sum()``, numpy's pairwise sum
    over the members in index order: per prefix length, the members of
    every requested prefix are gathered in index order into one
    C-contiguous (rows, length) array, whose row sums run that same loop.
    """
    n = len(weights)
    wanted = np.zeros((n, n + 1), dtype=bool)
    for ls in lengths:
        wanted[centers, ls] = True
    table = np.zeros((n, n + 1))
    for size in np.flatnonzero(wanted.any(axis=0)).tolist():
        rows = np.flatnonzero(wanted[:, size])
        inside = rank[rows] < size
        members = np.broadcast_to(weights, inside.shape)[inside]
        table[rows, size] = members.reshape(len(rows), size).sum(axis=1)
    return tuple(table[centers, ls] for ls in lengths)


def doubling_profile(space: Space) -> DoublingProfile:
    """Doubling constant over every center and radius, plus the ratio certificate."""
    cache = space._cache()
    if "profile" in cache:
        return cache["profile"]

    n = space.n
    order = _distance_order(space)
    sd = np.take_along_axis(space.dist, order, axis=1)
    rows = np.arange(n)[:, None]
    step = sd[:, 1:] != sd[:, :-1]
    # level[c, y]: the index of d(c, y) among the distinct distances from c,
    # so B(c, r_i) = {y : level[c, y] <= i}; rank[c, y]: y's place in the
    # order.  int32 halves the memory traffic of the per-center sweeps.
    sorted_level = np.zeros((n, n), dtype=np.int32)
    np.cumsum(step, axis=1, out=sorted_level[:, 1:])
    level = np.empty_like(sorted_level)
    level[rows, order] = sorted_level
    rank = np.empty_like(sorted_level)
    rank[rows, order] = np.arange(n, dtype=np.int32)

    # Every (center, representative radius) pair, flat in (center, radius)
    # order: mu(2B) depends on the center, so every center counts.  The i-th
    # prefix gets radius d_{i+1}, the full ball d_max * FULL_BALL_BUMP.
    centers, ends = np.nonzero(np.append(step, np.ones((n, 1), bool), axis=1))
    starts = np.searchsorted(centers, np.arange(n + 1))
    radii = np.empty(len(ends))
    radii[:-1] = sd[centers[1:], ends[1:]]
    last = starts[1:] - 1
    radii[last] = sd[:, -1] * FULL_BALL_BUMP
    if n == 1:
        radii[:] = SINGLETON_SPACE_RADIUS
    doubled = np.concatenate(
        [np.searchsorted(sd[c], 2.0 * radii[starts[c] : starts[c + 1]]) for c in range(n)]
    )
    mu, mu_2r = _prefix_measures(space.weights, rank, centers, ends + 1, doubled)
    c_mu = max(float((mu_2r / mu).max()), MIN_DOUBLING)
    dim = math.log2(c_mu)

    # Certificate: the worst mu(B(x,R)) / (c_mu^2 (R/r)^D mu(B(y,r))) over
    # y in B(x, R) and y's radii r <= R.  Per (x, R) it is lead times the
    # largest g = r^D / mu(B(y, r)) over those (y, r) events; rounding is
    # monotone, so the largest product is lead times the largest g.
    g = np.concatenate([radii[a:b] ** dim for a, b in zip(starts[:-1], starts[1:])]) / mu
    c_sq = c_mu * c_mu
    lead = np.empty(len(g))
    by_g = np.argsort(-g, kind="stable")
    g_desc = g[by_g]
    event_y = centers[by_g]
    distinct_radii, radius_rank = np.unique(radii, return_inverse=True)
    event_rank = radius_rank[by_g]
    best = np.empty(len(g))
    for x in range(n):
        a, b = starts[x], starts[x + 1]
        # Python floats: numpy's array power can differ from ** in the last bit.
        lead[a:b] = [m / (c_sq * r**dim) for r, m in zip(radii[a:b].tolist(), mu[a:b].tolist())]
        # An event (y, r) counts for (x, R_i) from the first i with
        # y in B(x, R_i) and r <= R_i; events run by decreasing g, so the
        # largest g at i is the first event whose running minimum is <= i.
        below = np.zeros(len(distinct_radii) + 1, dtype=np.int32)
        below[radius_rank[a:b] + 1] = 1
        np.cumsum(below, out=below)
        enters = np.minimum.accumulate(np.maximum(level[x][event_y], below[event_rank]))
        best[a:b] = g_desc[np.searchsorted(-enters, -np.arange(b - a))]
    ratios = lead * best
    k = int(ratios.argmax())  # the first (x, R) attaining the worst ratio
    worst_ratio = float(ratios[k])
    x, big_r = int(centers[k]), float(radii[k])
    for y in np.flatnonzero(level[x] <= k - starts[x]).tolist():
        a = starts[y]
        count = int(np.searchsorted(radii[a : starts[y + 1]], big_r, side="right"))
        if count and lead[k] * g[a : a + count].max() == ratios[k]:
            # The last radius attaining y's prefix maximum of g.
            r_small = float(radii[a + count - 1 - int(g[a : a + count][::-1].argmax())])
            break
    worst_quad = (space.point_ids[x], big_r, space.point_ids[y], r_small)

    profile = DoublingProfile(
        c_mu=float(c_mu),
        dimension=float(dim),
        certificate_ok=bool(worst_ratio <= 1.0 + 1e-9),
        worst_quadruple=worst_quad,
        worst_ratio=worst_ratio,
    )
    cache["profile"] = profile
    return profile


# ---------------------------------------------------------------- JSON

def space_to_json(space: Space) -> dict:
    """Points with weights (and coordinates, if any) plus the metric.

    Coordinates alone stand for the metric only when their Euclidean
    distances reproduce ``space.dist`` bit for bit; otherwise (a grid with
    a non-dyadic spacing, whose distances are lattice distances times the
    spacing) the matrix is written next to them.
    """
    points = []
    for i, pid in enumerate(space.point_ids):
        entry = {"id": pid, "weight": float(space.weights[i])}
        if space.coords is not None:
            entry["coords"] = [float(v) for v in space.coords[i]]
        points.append(entry)
    if space.coords is not None and np.array_equal(_euclidean(space.coords), space.dist):
        metric = {"kind": "euclidean"}
    else:
        metric = {"kind": "matrix", "distances": [[float(v) for v in row] for row in space.dist]}
    return {"points": points, "metric": metric}


def space_from_json(obj) -> Space:
    """Inverse of ``space_to_json``; coordinates given with a matrix are kept."""
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
        space = build_space(ids, weights, distances=metric["distances"])
        if all("coords" in p for p in points):
            coords = build_space(ids, weights, coords=[p["coords"] for p in points]).coords
            space = dataclasses.replace(space, coords=coords)
        return space
    raise InvalidParameter(f"unknown metric kind {metric['kind']!r}")
