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

Each shared step of the API has one home here.  A subset or region (None,
a Ball, point ids or point indices) is resolved by ``_set_idx`` for the
medians and oscillations of a set, which raises EmptySet when it is
empty, and by ``_region_idx`` for the norms and ball families of a
region, which raises EmptyRegion; both read ``_resolve_region``, where
a string raises InvalidParameter and an unknown id, an index outside
[0, n) or a bool raises UnknownCenter.
What a space derives once (its id table, distance order, ball families
and their measures, doubling profile and each SampleFunction's results,
as read-only arrays where they are per ball) is kept through
``Space._cached(key, compute)``; the one other reader of the cache is
``czd.cz_family``, which keeps only the latest family's balls.  Every
``Ball`` is built by ``_balls`` from center indices, radii and the
concatenated member indices of the balls.

Every ball around a center is a prefix of that center's points in stable
distance order, ending where the distance changes.  The order of every
row is computed once per space and cached.  A ball family (the canonical
balls of a region, or the CZ family of ``czd.cz_family``) is held as
arrays, one row per distinct member set: center index, radius, size and
the member set packed into 64-bit words, cached per (region, CZ budget)
by ``_canonical_family``.  One pass builds every center's rows at once.
The prefix ends and radii come from the sorted distance rows, and a
running OR along the order, over blocks of centers whose bit array stays
under 64 KiB, packs each prefix.  Duplicate member sets are
found by one sort of the packed rows.  The norms read these arrays
directly.  ``Ball`` objects are built from them only where a caller gets
balls back: ``canonical_balls``, ``cz_family`` and a norm's packing.
Balls given as (center, radius) pairs, such as a chain decomposition's
balls and their dilates, come as member rows from one comparison of
their centers' distance rows (``_ball_rows``).  Every kernel that
takes a value per row of a family or of point lists reads the rows
through one iterator, ``_row_blocks``, in padded blocks of mixed sizes,
and sums rows by one rule, ``_row_sums``, which keeps the bits of
``space.mu``.

``doubling_profile`` reads the same order.  The breaks between distinct
distances give every center's representative radii, B(c, r_i) is the
prefix up to break i, and B(c, 2 r_i) is the prefix of sorted distances
below 2 r_i.  A measure must have the bits of ``w[row < r].sum()``,
numpy's pairwise sum over the members in index order, so prefixes are
not summed by ``cumsum`` or over zero-padded rows, which group the
additions differently: ``_prefix_measures`` gathers, per prefix length
L, the members of every prefix of that length in index order into one
(rows, L) array and sums it along its rows.

The certificate's ratio at (x, R) is lead(x, R) = mu(B(x, R)) /
(c_mu^2 R^D) times the largest g = r^D / mu(B(y, r)) over the (y, r)
events with y in B(x, R) and r <= R among y's radii.  Sweeping a center
x scans every event in decreasing order of g, so that each of x's radii
needs only the first event that counts for it.  Not every center is
swept.  Each gets a bound first: the largest lead(x, R) times top(R),
the largest g over all events with r <= R whatever y is, which one
running minimum of radius ranks along the same event order gives.
Rounded products are monotone, so no ratio of x exceeds its bound.
Centers are swept in decreasing bound order (stable), and the sweep
stops at the first center whose bound is strictly below the worst ratio
found so far.  Every center left then has all its ratios strictly below
that worst ratio, so the maximum, and each (x, R) that attains it, lies
among the swept centers; unswept ratios stay -inf, and the first
maximum in (center, radius) order is the one the tie rule of
``DoublingProfile`` names.  A center whose bound only equals the worst
ratio is still swept, since it may attain that ratio at an earlier
(x, R).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMetric,
    EmptyRegion,
    EmptySet,
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

# Unpacked member-row elements per block when member indices are read.
_UNPACK_ELEMS = 1 << 16

# Elements per block of the row kernels, which keep each block's
# temporaries under it; pairwise packed-word tiles take half.
_BLOCK_ELEMS = 1 << 14

# Bytes of the running-OR array per block of centers in the prefix pass.
_PREFIX_BYTES = 1 << 16

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
        """The index of a point id; UnknownCenter for any other value, a non-string too."""
        if isinstance(point_id, str) and (i := self._index_table().get(point_id)) is not None:
            return i
        raise UnknownCenter(f"unknown point id {point_id!r}")

    def _index_table(self) -> dict:
        """Point id -> index (cached)."""
        return self._cached("index", lambda: {pid: i for i, pid in enumerate(self.point_ids)})

    def mu(self, idx) -> float:
        """Measure of a set of point indices."""
        if len(idx) == 0:
            return 0.0
        return float(self.weights[np.asarray(idx, dtype=int)].sum())

    def _cached(self, key, compute):
        """``compute()``, computed on the first call per key and kept with the space."""
        cache = self._cache()
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = compute()
        return hit

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
    """The point ids as an object array (cached)."""
    return space._cached("ids", lambda: np.array(space.point_ids, dtype=object))


def _balls(space: Space, centers, radii, members: np.ndarray, sizes) -> list[Ball]:
    """``Ball``s from center indices, radii and their member indices concatenated.

    Ball t's members are the next ``sizes[t]`` entries of ``members``, in index order.
    """
    ends = list(itertools.accumulate(sizes))
    idx, ids = members.tolist(), _point_ids(space)[members].tolist()
    pids = space.point_ids
    return [
        Ball(center=pids[c], radius=float(r), members=tuple(ids[lo:hi]), idx=tuple(idx[lo:hi]))
        for c, r, lo, hi in zip(centers, radii, [0, *ends], ends)
    ]


def _make_ball(space: Space, center_idx: int, radius: float) -> Ball:
    sel = np.flatnonzero(space.dist[center_idx] < radius)
    return _balls(space, [center_idx], [radius], sel, [len(sel)])[0]


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

    Coordinates, distances and the total measure must be finite; they are
    checked before any n x n work.

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
    with np.errstate(over="ignore"):
        if not math.isfinite(float(w.sum())):
            raise InvalidParameter("the total measure must be finite")

    if (coords is None) == (distances is None):
        raise InvalidParameter("give exactly one of coords or distances")

    c_arr = None
    if coords is not None:
        c_arr = np.asarray(coords, dtype=float)
        if c_arr.ndim == 1:
            c_arr = c_arr[:, None]
        if c_arr.shape[0] != len(ids):
            raise InvalidParameter("coords must match the number of points")
        if not np.isfinite(c_arr).all():
            raise InvalidParameter("coordinates must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            dist = _euclidean(c_arr)
        if not math.isfinite(float(dist.max(initial=0.0))):
            raise InvalidParameter("coordinates too far apart: a distance overflows")
    else:
        dist = np.asarray(distances, dtype=float)
        if dist.shape != (len(ids), len(ids)):
            raise InvalidParameter("distance matrix must be square")
        if not np.isfinite(dist).all():
            raise InvalidParameter("distances must be finite")
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


def _check_radius(radius) -> None:
    """Refuse a radius that is not a real number (InvalidParameter) or not positive.

    Python and numpy ints and floats pass; a string, None, a list or a
    bool (Python or numpy) does not.
    """
    if isinstance(radius, bool) or not isinstance(radius, (float, int, np.floating, np.integer)):
        raise InvalidParameter(f"radius must be a real number, got {radius!r}")
    if not (radius > 0.0):
        raise NonPositiveRadius(f"radius must be positive, got {radius}")


def ball_at(space: Space, center: str, radius: float) -> Ball:
    """The ball {y : d(center, y) < radius} with strict inequality.

    Raises InvalidParameter when the radius is not a real number (a
    string, None or a bool), NonPositiveRadius when it is not positive and
    UnknownCenter.
    """
    _check_radius(radius)
    return _make_ball(space, space.index(center), radius)


def _ball_rows(space: Space, pairs) -> tuple[list, list, np.ndarray]:
    """``ball_at`` for many (center id, radius) pairs, as member rows.

    Returns the center indices, the radii and a boolean (balls, n) matrix
    whose rows are ``dist[center] < radius``, one comparison for all.
    ``pairs`` is drawn lazily and each pair is checked as ``ball_at``
    checks it, so the first bad pair raises the same error.
    """
    centers, radii = [], []
    for center, radius in pairs:
        _check_radius(radius)
        centers.append(space.index(center))
        radii.append(radius)
    rows = space.dist[centers] < np.array(radii, dtype=float).reshape(-1, 1)
    return centers, radii, rows


def _balls_at(space: Space, pairs) -> tuple[Ball, ...]:
    """The ``Ball``s of ``ball_at`` for many (center id, radius) pairs, in order."""
    centers, radii, rows = _ball_rows(space, pairs)
    return tuple(_balls(space, centers, radii, np.nonzero(rows)[1], rows.sum(axis=1).tolist()))


def _balls_from_json(space: Space, obj) -> tuple[Ball, ...]:
    """The balls of a JSON list ``[{"center": id, "radius": r}, ...]``, in order.

    Any other shape raises InvalidParameter; each (center, radius) pair is
    then checked as ``ball_at`` checks it.
    """
    shaped = isinstance(obj, list) and all(
        isinstance(b, dict) and {"center", "radius"} <= b.keys() for b in obj)
    if not shaped:
        raise InvalidParameter(f"balls must be a list of {{center, radius}}, got {obj!r:.80}")
    return _balls_at(space, ((b["center"], b["radius"]) for b in obj))


def dilate(space: Space, ball: Ball, lam: float) -> Ball:
    """The lam-dilate: same center, radius lam * r, members recomputed."""
    if not (lam > 0.0):
        raise NonPositiveDilation(f"dilation factor must be positive, got {lam}")
    return ball_at(space, ball.center, lam * ball.radius)


def _resolve_region(space: Space, region) -> tuple[int, ...]:
    """Sorted distinct indices of a region: None, a Ball, point ids or indices.

    Raises InvalidParameter for a string, which would otherwise be read as
    its characters, and UnknownCenter for an unknown id, an index outside
    [0, n) or a bool entry (Python or numpy), which is neither an id nor an
    index.
    """
    if region is None:
        return tuple(range(space.n))
    if isinstance(region, Ball):
        return region.idx
    if isinstance(region, (str, bytes)):
        raise InvalidParameter(f"a region is a collection of points, not the string {region!r}")
    items = list(region)
    if items and all(isinstance(p, (int, np.integer)) and not isinstance(p, bool) for p in items):
        idx = {int(p) for p in items}
        if min(idx) < 0 or max(idx) >= space.n:
            raise UnknownCenter(f"point indices must lie in [0, {space.n}), got {sorted(idx)}")
    else:
        idx = {space.index(p) for p in items}
    return tuple(sorted(idx))


def _set_idx(space: Space, subset) -> tuple[int, ...]:
    """``_resolve_region`` of a set for a median or an oscillation; EmptySet if it is empty."""
    idx = _resolve_region(space, subset)
    if len(idx) == 0:
        raise EmptySet("median or oscillation over an empty set")
    return idx


def _region_idx(space: Space, region) -> tuple[int, ...]:
    """``_resolve_region`` of a region for a norm or a ball family; EmptyRegion if it is empty."""
    idx = _resolve_region(space, region)
    if len(idx) == 0:
        raise EmptyRegion("norm or ball family over an empty region")
    return idx


def _distance_order(space: Space) -> np.ndarray:
    """Stable ``argsort`` of every distance row, as int32 (cached)."""
    return space._cached(
        "order", lambda: np.argsort(space.dist, axis=1, kind="stable").astype(np.int32))


@dataclass(frozen=True, eq=False)
class _BallFamily:
    """Distinct prefix balls as arrays, one row per ball in (center, radius) order.

    ``centers`` holds center indices and ``sizes`` member counts, both
    int32 (index arithmetic that can pass 2^31 goes in intp); ``radii``
    holds representative radii, and ``words`` packs each member set into
    64-bit words, point i being bit i % 64 of word i // 64.  The arrays are
    read-only: families are cached per space.
    """

    centers: np.ndarray
    radii: np.ndarray
    sizes: np.ndarray
    words: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)


def _member_matrix(words: np.ndarray, n: int) -> np.ndarray:
    """Packed member rows as a boolean (rows, n) matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Boolean (rows, n) member rows as packed 64-bit words, the layout of ``_BallFamily.words``."""
    m, n = rows.shape
    packed = np.zeros((m, 8 * -(-n // 64)), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8")


def _row_blocks(n: int, sizes, members: np.ndarray, elems: int = _BLOCK_ELEMS // 2):
    """Sets in blocks of mixed sizes, each block a padded matrix of member indices.

    ``members`` is packed member words, one row per set (a family's
    layout), or the sets' point lists concatenated (1-D; a point may
    repeat).  Rows go by increasing size, stably, in consecutive blocks of
    at most ``_UNPACK_ELEMS // n`` rows and ``elems`` padded elements, or
    of one row.  Yields per block the rows, their sizes and an int (rows,
    largest size) matrix: each row's members (in index or list order),
    then the pad index n, which gathers a kernel's appended fill value.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    packed = members.ndim == 2
    if not packed:
        src = np.append(members, n)
        starts = np.cumsum(sizes) - sizes
    a, m = 0, len(sizes)
    while a < m:
        b = min(m, a + max(1, _UNPACK_ELEMS // n))
        while b - a > 1 and (b - a) * int(ordered[b - 1]) > elems:
            b = a + max(1, elems // int(ordered[b - 1]))
        rows, size = by_size[a:b], ordered[a:b]
        cols = np.arange(size[-1])
        if packed:
            # A boolean-mask assignment fills each row's first entries in row-major order.
            pts = np.full((b - a, len(cols)), n)
            pts[cols < size[:, None]] = np.flatnonzero(_member_matrix(members[rows], n)) % n
        else:
            pts = src[np.where(cols < size[:, None], starts[rows, None] + cols, len(src) - 1)]
        yield rows, size, pts
        a = b


def _row_sums(block: np.ndarray, sizes) -> np.ndarray:
    """Per row i of a 2-D array, the sum of its first ``sizes[i]`` entries.

    The bit rule of every row kernel: a run of rows of size k is summed as
    the slice ``block[lo:hi, :k]``, each row by the pairwise loop of the
    1-D sum, so a set's weights sum to the bits of ``space.mu``; a whole
    padded row groups the additions differently once k > 8.
    """
    sizes = np.asarray(sizes)
    out = np.empty(len(sizes))
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]
    for lo, hi in zip(cuts, cuts[1:]):
        np.add.reduce(block[lo:hi, : sizes[lo]], axis=1, out=out[lo:hi])
    return out


def _prefix_family(space: Space, centers, budget=None, inside=None) -> _BallFamily:
    """One row per distinct member set among the prefix balls of ``centers``.

    Around each center, in the stable order of its distance row, the ball
    ending at the k-th distinct distance d_k is the prefix {d <= d_k}.
    Without a budget its radius is d_{k+1} (the full ball gets
    d_max * FULL_BALL_BUMP); with one, only prefixes with d_k < budget
    count, at radius min(d_{k+1}, budget).  ``inside``, a boolean point
    mask, keeps the prefixes it contains.  Duplicate member sets keep the
    smallest center without a budget, and the largest radius, then the
    smallest center, with one.  ``centers`` must be increasing; rows come
    in (center, radius) order.
    """
    n = space.n
    n_words = -(-n // 64)
    centers = np.asarray(centers, dtype=np.intp)
    cols = np.arange(n)
    # Every (center, prefix) candidate at once: O(n^2) arrays, like dist,
    # freed before the member words are allocated.
    order = _distance_order(space)[centers]
    sd = np.take_along_axis(space.dist[centers], order, axis=1)
    # ends[c, t]: prefix t + 1 ends a distinct distance of center c.
    ends = np.ones(sd.shape, dtype=bool)
    ends[:, :-1] = sd[:, 1:] != sd[:, :-1]
    radii = np.empty_like(sd)
    radii[:, :-1] = sd[:, 1:]
    if budget is None:
        radii[:, -1] = sd[:, -1] * FULL_BALL_BUMP
        if n == 1:
            radii[:] = SINGLETON_SPACE_RADIUS
    else:
        radii[:, -1] = np.inf
        np.minimum(radii, budget, out=radii)
        ends &= sd < budget
    if inside is not None:
        outside = ~inside[order]
        first_out = np.where(outside.any(axis=1), outside.argmax(axis=1), n)
        ends &= cols < first_out[:, None]
    rows, last = np.nonzero(ends)
    radius = radii[rows, last]
    del sd, radii, ends

    # Member words, word-major so that each lexsort key is contiguous.  The
    # running OR goes over blocks of centers whose (centers, n, words)
    # array stays under _PREFIX_BYTES.
    words = np.empty((n_words, len(rows)), dtype="<u8")
    step = max(1, _PREFIX_BYTES // (8 * n * n_words))
    bounds = np.searchsorted(rows, np.arange(0, len(centers) + step, step)).tolist()
    one = np.uint64(1)
    for a, lo, hi in zip(range(0, len(centers), step), bounds, bounds[1:]):
        block = order[a : a + step]
        # Plane t of row c holds the first t + 1 points of c's order as bits.
        bits = np.zeros((len(block), n, n_words), dtype="<u8")
        block_rows = np.arange(len(block))[:, None]
        bits[block_rows, cols, block >> 6] = one << (block & 63).astype(np.uint64)
        np.bitwise_or.accumulate(bits, axis=1, out=bits)
        words[:, lo:hi] = bits[rows[lo:hi] - a, last[lo:hi]].T
    # Sort by member set, then by preference; lexsort is stable, so equal
    # keys stay in (center, radius) order and the first of each run wins.
    keys = list(words[::-1])
    if budget is not None:
        keys.insert(0, -radius)
    perm = np.lexsort(keys)
    del keys
    first = np.zeros(len(perm), dtype=bool)
    first[0] = True
    for word in words:
        run = word[perm]
        first[1:] |= run[1:] != run[:-1]
    keep = np.sort(perm[first])
    family = _BallFamily(
        centers=centers[rows[keep]].astype(np.int32),
        radii=radius[keep],
        sizes=(last[keep] + 1).astype(np.int32),
        words=np.ascontiguousarray(words[:, keep].T),
    )
    for arr in (family.centers, family.radii, family.sizes, family.words):
        arr.setflags(write=False)
    return family


def _family_balls(space: Space, family: _BallFamily, rows=None) -> tuple[Ball, ...]:
    """``Ball`` objects for the family's ``rows`` (all of them by default), in that order."""
    if rows is None:
        rows = np.arange(len(family))
    rows = np.asarray(rows, dtype=np.intp)
    words, sizes = family.words[rows], family.sizes[rows].tolist()
    centers, radii = family.centers[rows].tolist(), family.radii[rows].tolist()
    step = max(1, _UNPACK_ELEMS // space.n)
    balls = []
    for a in range(0, len(rows), step):
        part = slice(a, a + step)
        members = np.flatnonzero(_member_matrix(words[part], space.n)) % space.n
        balls += _balls(space, centers[part], radii[part], members, sizes[part])
    return tuple(balls)


def _canonical_family(space: Space, region_idx: tuple[int, ...], budget=None) -> _BallFamily:
    """The family of ``canonical_balls`` for a resolved, nonempty region (cached).

    With a budget, that of ``czd.cz_family`` for a base ball with these members.
    """

    def compute():
        inside = None
        if budget is None and len(region_idx) < space.n:
            inside = np.zeros(space.n, dtype=bool)
            inside[list(region_idx)] = True
        return _prefix_family(space, region_idx, budget, inside)

    return space._cached(("family", region_idx, budget), compute)


def canonical_balls(space: Space, region=None) -> tuple[Ball, ...]:
    """All distinct balls whose member set lies inside ``region``.

    One ball per distinct member set; duplicates across centers keep the
    smallest center index, then the largest radius.  Raises EmptyRegion
    and UnknownCenter.
    """
    region_idx = _region_idx(space, region)
    return space._cached(
        ("canon", region_idx), lambda: _family_balls(space, _canonical_family(space, region_idx)))


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
    """Doubling constant over every center and radius, plus the ratio certificate (cached)."""
    return space._cached("profile", lambda: _doubling_profile(space))


def _doubling_profile(space: Space) -> DoublingProfile:
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
    by_g = np.argsort(-g, kind="stable")
    g_desc = g[by_g]
    event_y = centers[by_g]
    distinct_radii, radius_rank = np.unique(radii, return_inverse=True)
    event_rank = radius_rank[by_g]
    # Python floats: numpy's array power can differ from ** in the last bit.
    powers = np.array([r**dim for r in distinct_radii.tolist()])
    lead = mu / (c_sq * powers[radius_rank])
    # Bound per center: the largest lead(x, R) times top(R), the largest g
    # over every event with r <= R whatever y is.  Events run by decreasing
    # g, so top(R) is g at the first event whose running minimum of radius
    # ranks reaches R's rank.
    reach = np.minimum.accumulate(event_rank)
    top = g_desc[np.searchsorted(-reach, -np.arange(len(distinct_radii)))]
    bound = np.maximum.reduceat(lead * top[radius_rank], starts[:-1])
    ratios = np.full(len(g), -np.inf)
    worst = -np.inf
    for x in np.argsort(-bound, kind="stable").tolist():
        if bound[x] < worst:  # no later center can reach the worst ratio
            break
        a, b = starts[x], starts[x + 1]
        # An event (y, r) counts for (x, R_i) from the first i with
        # y in B(x, R_i) and r <= R_i; events run by decreasing g, so the
        # largest g at i is the first event whose running minimum is <= i.
        below = np.zeros(len(distinct_radii) + 1, dtype=np.int32)
        below[radius_rank[a:b] + 1] = 1
        np.cumsum(below, out=below)
        enters = np.minimum.accumulate(np.maximum(level[x][event_y], below[event_rank]))
        ratios[a:b] = lead[a:b] * g_desc[np.searchsorted(-enters, -np.arange(b - a))]
        worst = max(worst, ratios[a:b].max())
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

    return DoublingProfile(
        c_mu=float(c_mu),
        dimension=float(dim),
        certificate_ok=bool(worst_ratio <= 1.0 + 1e-9),
        worst_quadruple=worst_quad,
        worst_ratio=worst_ratio,
    )


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
