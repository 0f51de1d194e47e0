"""Chain decompositions of regions, their verification, and global verifiers.

A decomposition of a region consists of pairwise-disjoint balls F whose
C1- and C2-dilates both tile the region exactly, a bounded-overlap count M
for the C2-dilates, a central ball, one finite chain through F from the
central ball to every member, link sets between consecutive chain balls
that are comparatively large in measure, and a dilation factor rho that
pulls every chain member over the chain's endpoint.  ``verify_boman``
checks the five conditions exactly and reports a witness for each failure
instead of raising.

The verifier, the grid builder and the chain ratio work on member rows,
one row per ball, in ball order: a ball's row comes from its ``idx``, and
each C1, C2 or rho dilate family from one comparison
``dist[centers] < (lam * radii)[:, None]``, the strict ``<`` on the same
float product as ``dilate``.  Rows are packed into 64-bit words, point i
being bit i % 64 of word i // 64.  Pairwise tests AND packed words:
ball against ball (disjointness, C2 overlap) over tiles whose (side,
side) temporaries hold at most half ``_BLOCK_ELEMS`` elements, and link
against dilate or ball against rho dilate (containment) over blocks of
pairs of the same bound.  Each condition reports its first violation by
ball, then by position along the ball's chain; a link with an unknown
point id raises UnknownCenter only when it is the first link to fail.
Measures, maximal medians and weak-Lp norms of point lists go through
``space._row_blocks``, and measures keep the bits of ``space.mu``
through ``space._row_sums``: a row's points are summed in their own order.

``global_jn_verify`` combines the local weak-type inequality on each
dilated ball with the chaining estimate to bound the oscillation of f
around a single constant on the whole region; since the chaining constant
is existential, the verifier reports the measured constant and compares it
against an explicit budget.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .czd import _lambda_levels, _s0, alpha_of, local_jn_constant
from .errors import (
    ConstructionFailed,
    InvalidParameter,
    InvalidS,
    UnknownBall,
    UnverifiedDecomposition,
)
from .median import _as_values, _check_s, _maximal_median_rows, maximal_median
from .norms import _check_p, _weak_lp_rows, jn_integral_norm, jn_median_norm
from .space import (
    _BLOCK_ELEMS,
    Ball,
    Space,
    _ball_rows,
    _balls_at,
    _balls_from_json,
    _pack_rows,
    _point_ids,
    _row_blocks,
    _row_sums,
    dilate,
    doubling_profile,
)


@dataclass(frozen=True, eq=False)
class BomanDecomposition:
    """Region, disjoint balls, chains through a central ball, and constants."""

    region: tuple[str, ...]
    balls: tuple[Ball, ...]
    central: int
    c1: float
    c2: float
    c3: float
    rho: float
    overlap: int
    chains: dict  # ball index -> tuple of ball indices, central first
    links: dict  # (ball index, edge position >= 1) -> tuple of point ids

    def to_json(self) -> dict:
        return {
            "region": list(self.region),
            "C1": self.c1,
            "C2": self.c2,
            "C3": self.c3,
            "rho": self.rho,
            "M": self.overlap,
            "central": {"center": self.balls[self.central].center,
                        "radius": self.balls[self.central].radius},
            "balls": [{"center": b.center, "radius": b.radius} for b in self.balls],
            "chains": {str(k): list(v) for k, v in self.chains.items()},
            "links": {f"{k[0]}:{k[1]}": list(v) for k, v in self.links.items()},
        }


def _integral(value, what: str) -> int:
    """``int(value)``, refusing a number with a fractional part instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")
    return int(value)


def decomposition_from_json(space: Space, obj) -> BomanDecomposition:
    """Inverse of ``BomanDecomposition.to_json``.

    ``M``, chain keys and entries and link positions are integers: a
    number with a fractional part raises InvalidParameter where ``int``
    would truncate it, and a link that is not a list of point id strings
    raises it too.  Raises UnknownBall when the central ball is not among
    the balls.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    balls = _balls_from_json(space, obj["balls"])
    central_spec = obj["central"]
    central = next(
        (
            i
            for i, b in enumerate(balls)
            if b.center == central_spec["center"] and b.radius == central_spec["radius"]
        ),
        None,
    )
    if central is None:
        raise UnknownBall(
            f"central ball {central_spec['center']} radius {central_spec['radius']} "
            "is not among the balls"
        )
    chains = {
        _integral(k, "chain key"): tuple(_integral(e, "chain entry") for e in v)
        for k, v in obj["chains"].items()
    }
    links = {}
    for key, ids in obj["links"].items():
        bi, pos = key.split(":")  # a string, which int() parses or refuses whole
        if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
            raise InvalidParameter(f"link {key} must be a list of point ids, got {ids!r}")
        links[(int(bi), int(pos))] = tuple(ids)
    return BomanDecomposition(
        region=tuple(obj["region"]),
        balls=balls,
        central=central,
        c1=float(obj["C1"]),
        c2=float(obj["C2"]),
        c3=float(obj["C3"]),
        rho=float(obj["rho"]),
        overlap=_integral(obj["M"], "M"),
        chains=chains,
        links=links,
    )


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class BomanCertificate:
    conditions: tuple[ConditionReport, ...]
    ok: bool

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.passed)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": [
                {"name": c.name, "pass": c.passed, "witness": c.witness}
                for c in self.conditions
            ],
        }


def verify_boman(space: Space, dec: BomanDecomposition) -> BomanCertificate:
    """Check conditions (i)-(v) plus disjointness; never raises on failure.

    A non-positive C1, C2 or rho fails ``parameters``, and each condition
    that needs a dilate by it fails with that factor as its witness.  A
    chain that is empty or leaves the family fails ``iii-chains``; the
    link and absorption conditions skip an empty chain and fail on one
    that leaves.  An unknown point id in a link raises UnknownCenter when
    the link scan reaches that link.
    """
    reports = []
    m = len(dec.balls)
    region_idx = list(map(space.index, dec.region))
    region = _index_words(space.n, region_idx, [len(region_idx)])[0]
    sizes = [len(b.idx) for b in dec.balls]
    ball_idx = np.fromiter(
        itertools.chain.from_iterable(b.idx for b in dec.balls), dtype=np.intp, count=sum(sizes)
    )
    ball_words = _index_words(space.n, ball_idx, sizes)

    later = _meets(ball_words)[1]
    hit = np.flatnonzero(later < m)
    witness = f"balls {hit[0]} and {later[hit[0]]} intersect" if len(hit) else ""
    reports.append(ConditionReport("disjoint", not witness, witness))

    def dilates(lam):
        # Packed member rows of every ball's lam-dilate, as ``dilate`` builds them.
        if not lam > 0.0:
            return None
        return _pack_rows(_ball_rows(space, ((b.center, lam * b.radius) for b in dec.balls))[2])

    def undefined(**factors):
        # The witness of a condition that needs a dilate by a factor <= 0.
        bad = [f"{name}={lam!r}" for name, lam in factors.items() if not lam > 0.0]
        return f"no dilate by non-positive {', '.join(bad)}" if bad else ""

    c1_words, c2_words, rho_words = dilates(dec.c1), dilates(dec.c2), dilates(dec.rho)
    witness = undefined(C1=dec.c1, C2=dec.c2)
    if not witness:
        same = [
            np.array_equal(np.bitwise_or.reduce(w, axis=0), region) for w in (c1_words, c2_words)
        ]
        if not all(same):
            witness = ", ".join(
                f"{name} union {'==' if eq else '!='} region"
                for name, eq in zip(("C1", "C2"), same)
            )
    reports.append(ConditionReport("i-union", not witness, witness))

    witness = undefined(C2=dec.c2)
    if not witness:
        count = _meets(c2_words)[0]
        over = np.flatnonzero(count > dec.overlap)
        if len(over):
            witness = f"C2 dilate of ball {over[0]} meets {count[over[0]]} > M={dec.overlap}"
    reports.append(ConditionReport("ii-overlap", not witness, witness))

    chains = [dec.chains.get(bi) for bi in range(m)]
    # The first chain that leaves the family: the link and absorption
    # conditions read the chains before it, then fail on it.
    stop = next((bi for bi, c in enumerate(chains) if c and (min(c) < 0 or max(c) >= m)), m)
    leaves = f"chain of ball {stop} leaves the family" if stop < m else ""
    witness = ""
    for bi, chain in enumerate(chains[: stop + 1]):
        if chain is None:
            witness = f"ball {bi} has no chain"
        elif not chain:
            witness = f"chain of ball {bi} is empty"
        elif chain[0] != dec.central or chain[-1] != bi:
            witness = f"chain of ball {bi} must run central -> ball"
        elif bi == stop:
            witness = leaves
        if witness:
            break
    reports.append(ConditionReport("iii-chains", not witness, witness))
    owner, member, pos = _flatten([c or () for c in chains[:stop]])

    witness = undefined(C1=dec.c1)
    if not witness:
        ball_mu = _measures(space.weights, ball_idx, sizes)
        witness = _link_failure(space, dec, c1_words, ball_mu, owner, member, pos) or leaves
    reports.append(ConditionReport("iv-links", not witness, witness))

    witness = undefined(rho=dec.rho)
    if not witness:
        escapes = np.flatnonzero(_escapes(ball_words, owner, rho_words, member))
        if len(escapes):
            t = escapes[0]
            witness = f"ball {owner[t]} escapes rho * ball {member[t]}"
        else:
            witness = leaves
    reports.append(ConditionReport("v-absorption", not witness, witness))

    params_ok = dec.c2 > dec.c1 > 1.0 and dec.c3 > 1.0 and dec.rho > 1.0 and dec.overlap >= 1
    reports.append(
        ConditionReport(
            "parameters", params_ok, "" if params_ok else "need C2 > C1 > 1, C3 > 1, rho > 1, M >= 1"
        )
    )
    return BomanCertificate(tuple(reports), all(r.passed for r in reports))


def _flatten(chains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (ball, chain member) pair of a list of chains, in chain order.

    Returns parallel arrays: the ball (the chain's place in the list), the
    member and its position in the chain.
    """
    lengths = [len(c) for c in chains]
    owner = np.repeat(np.arange(len(chains)), lengths)
    member = np.fromiter(itertools.chain.from_iterable(chains), dtype=np.intp, count=len(owner))
    pos = np.arange(len(owner)) - np.searchsorted(owner, owner)
    return owner, member, pos


def _link_failure(space, dec, c1_words, ball_mu, owner, member, pos) -> str:
    """Witness of the first link, in chain order, that fails condition (iv); "" if none does.

    Link ``bi:pos`` joins the chain members at positions pos - 1 and pos.
    It fails when it is missing, has a point outside the two members' C1
    dilates, or weighs less than C3 times their measures.  Equal links
    are resolved once; an unknown point id raises UnknownCenter only when
    its link is the first that fails.
    """
    at = np.flatnonzero(pos > 0)
    balls, places = owner[at].tolist(), pos[at].tolist()
    # One (ball, position) key alive at a time: a list of them all grew the peak heap.
    links = list(map(dec.links.get, zip(balls, places)))
    missing = links.index(None) if None in links else len(links)
    links = list(map(tuple, links[:missing]))
    cur, prev = member[at[:missing]], member[at[:missing] - 1]
    distinct = {link: k for k, link in enumerate(dict.fromkeys(links))}
    which = np.fromiter(map(distinct.__getitem__, links), dtype=np.intp, count=len(links))
    lengths = [len(link) for link in distinct]
    ids = list(itertools.chain.from_iterable(distinct))
    table = space._index_table()
    pts = np.fromiter(map(table.get, ids, itertools.repeat(-1)), dtype=np.intp, count=len(ids))
    unknown = np.zeros(len(distinct), dtype=bool)
    unknown[np.repeat(np.arange(len(distinct)), lengths)[pts < 0]] = True
    # A link with an unknown id raises when it is reached, whatever its rows.
    pts[pts < 0] = 0
    link_words = _index_words(space.n, pts, lengths)
    link_mu = _measures(space.weights, pts, lengths)[which]

    outside = _escapes(link_words, which, c1_words, cur)
    outside |= _escapes(link_words, which, c1_words, prev)
    need = dec.c3 * (ball_mu[cur] + ball_mu[prev])
    light = link_mu < need * (1.0 - 1e-12)
    bad = np.flatnonzero(unknown[which] | outside | light)
    if len(bad):
        t = bad[0]
        bi, p = balls[t], places[t]
        if unknown[which[t]]:
            for pid in links[t]:
                space.index(pid)  # raises on the first unknown id
        if outside[t]:
            return f"link {bi}:{p} leaves the C1 intersection"
        return f"link {bi}:{p} has measure {link_mu[t]:.6g} < C3 (mu+mu) = {need[t]:.6g}"
    if missing < len(balls):
        return f"missing link {balls[missing]}:{places[missing]}"
    return ""


def _index_words(n: int, flat, sizes) -> np.ndarray:
    """Packed member words of rows given as concatenated point lists of ``sizes``."""
    rows = np.zeros((len(sizes), n), dtype=bool)
    rows[np.repeat(np.arange(len(sizes)), sizes), flat] = True
    return _pack_rows(rows)


def _meets(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of packed member words: the rows it meets and the first later one.

    Returns the count of rows that share a point with it (itself too, when
    it is nonempty) and the first later row that does (the row count when
    none does).  Pairs of rows are ANDed one word at a time over tiles of
    the upper triangle, each (side, side) temporary holding at most half
    ``_BLOCK_ELEMS`` elements; a tile's hits count for both of its sides.
    """
    m, n_words = words.shape
    side = max(1, math.isqrt(_BLOCK_ELEMS // 2))
    word_major = np.ascontiguousarray(words.T)
    count = np.zeros(m, dtype=np.intp)
    later = np.full(m, m)
    for a in range(0, m, side):
        rows = np.arange(a, min(a + side, m))
        for b in range(a, m, side):
            cols = np.arange(b, min(b + side, m))
            hit = np.zeros((len(rows), len(cols)), dtype=bool)
            for w in word_major:
                hit |= (w[rows, None] & w[None, cols]) != 0
            count[rows] += hit.sum(axis=1)
            if b > a:
                count[cols] += hit.sum(axis=0)
            hit &= cols > rows[:, None]
            first = np.where(hit.any(axis=1), b + hit.argmax(axis=1), m)
            np.minimum(later[rows], first, out=later[a : a + len(rows)])
    return count, later


def _escapes(words, rows, cover, cover_rows) -> np.ndarray:
    """Per pair t: whether row ``rows[t]`` of ``words`` leaves row ``cover_rows[t]`` of ``cover``.

    That is, has a point outside it.  Pairs go in blocks of at most half
    ``_BLOCK_ELEMS`` words.
    """
    step = max(1, _BLOCK_ELEMS // 2 // words.shape[1])
    out = np.empty(len(rows), dtype=bool)
    for a in range(0, len(rows), step):
        # w & c != w, not w & ~c: the uint64 invert loop would page in
        # 64 KiB of numpy code that no other CLI command touches.
        part = words[rows[a : a + step]]
        out[a : a + step] = ((part & cover[cover_rows[a : a + step]]) != part).any(axis=1)
    return out


def _measures(weights: np.ndarray, flat: np.ndarray, sizes) -> np.ndarray:
    """Per row of concatenated point lists: the bits of ``space.mu`` on it, 0.0 when empty."""
    mu, padded = np.empty(len(sizes)), np.append(weights, 0.0)
    for rows, size, pts in _row_blocks(len(weights), sizes, flat):
        mu[rows] = _row_sums(padded[pts], size)
    return mu


# ---------------------------------------------------------------- grid helper


def _grid_spacing(space: Space) -> float:
    """The smallest gap between distinct first coordinates of a 1-D or 2-D grid."""
    if space.coords is None:
        raise InvalidParameter("grid decomposition needs coordinate geometry")
    if space.coords.shape[1] not in (1, 2):
        raise InvalidParameter("grid decomposition supports 1-D and 2-D only")
    # Gaps between the distinct first coordinates: sort, diff, drop zeros.
    diffs = np.diff(np.sort(space.coords[:, 0]))
    diffs = diffs[diffs > 0.0]
    return float(diffs.min()) if len(diffs) else 1.0


def grid_boman_decomposition(space: Space, target_ball: Ball) -> BomanDecomposition:
    """Construct and verify a chain decomposition of a grid region.

    Places one small ball per target point, chains each through
    grid-adjacent neighbors to a central ball, and searches a fixed
    lattice of (C1, C2, C3) window parameters until verification passes.
    Raises ConstructionFailed with the best near-miss when nothing
    verifies.
    """
    if target_ball.size == 0:
        raise InvalidParameter("target ball is empty")
    spacing = _grid_spacing(space)

    if target_ball.size == 1:
        return _trivial_decomposition(space, target_ball)

    best_cert: BomanCertificate | None = None
    best_dec: BomanDecomposition | None = None
    for half_window in (2, 3, 4, 6, 8):
        for c3 in (1.5, 1.25, 1.1, 1.01):
            dec = _windowed_decomposition(space, target_ball, spacing, half_window, c3)
            if dec is None:
                continue
            cert = verify_boman(space, dec)
            if cert.ok:
                return dec
            if best_cert is None or len(cert.failing()) < len(best_cert.failing()):
                best_cert, best_dec = cert, dec
    detail = "no lattice parameters verified"
    if best_cert is not None:
        detail += f"; best near-miss fails {best_cert.failing()}"
    raise ConstructionFailed(detail)


def _trivial_decomposition(space: Space, ball: Ball) -> BomanDecomposition:
    for c1, c2 in ((1.25, 1.5), (1.1, 1.2), (1.02, 1.04)):
        if dilate(space, ball, c2).idx == ball.idx:
            return BomanDecomposition(
                region=ball.members,
                balls=(ball,),
                central=0,
                c1=c1,
                c2=c2,
                c3=1.01,
                rho=2.0,
                overlap=1,
                chains={0: (0,)},
                links={},
            )
    raise ConstructionFailed("single-point target admits no C2 > C1 > 1 dilates")


def _windowed_decomposition(space, target_ball, spacing, half_window, c3) -> BomanDecomposition | None:
    r0 = 0.5 * spacing
    c1 = (2.0 * half_window + 1) * spacing / (2.0 * r0)
    c2 = (2.0 * (half_window + 1) + 1) * spacing / (2.0 * r0)

    centers = list(target_ball.idx)
    balls = _balls_at(space, ((space.point_ids[c], r0) for c in centers))

    # Central ball: nearest to the centroid of the target, ties by index.
    centroid = space.coords[centers].mean(axis=0)
    dists = np.linalg.norm(space.coords[centers] - centroid[None, :], axis=1)
    central = int(np.argmin(dists))

    cells = np.round(space.coords[centers] / spacing).astype(int).tolist()
    chains = _grid_chains([tuple(c) for c in cells], central)
    if chains is None:
        return None
    owner, member, pos = _flatten(list(chains.values()))
    links = _chain_links(space, space.dist[centers] < c1 * r0, owner, member, pos)

    # rho pulls every chain member's ball over the chain's endpoint: its
    # value grows with the largest center distance d over (ball, member)
    # pairs, so only the pairs within a rounding error of the largest are
    # measured by np.linalg.norm, whose dot product may fuse its terms.
    xy = space.coords[centers]
    diff = xy[owner] - xy[member]
    sq = (diff * diff).sum(axis=1)
    near = sq >= sq.max() * (1.0 - 2.0**-40)
    d = max(
        float(np.linalg.norm(xy[a] - xy[b]))
        for a, b in set(zip(owner[near].tolist(), member[near].tolist()))
    )
    rho = max(1.5, (d + r0) / r0 * 1.01)
    overlap = int(_meets(_pack_rows(space.dist[centers] < c2 * r0))[0].max())
    return BomanDecomposition(
        region=target_ball.members,
        balls=balls,
        central=central,
        c1=c1,
        c2=c2,
        c3=c3,
        rho=rho,
        overlap=overlap,
        chains=chains,
        links=links,
    )


def _grid_chains(cells, central):
    """Row-first lattice paths from the central cell to every ball's cell.

    A path marches along axis 0 first, then axis 1, so the path to a cell
    is the path to the cell one step back along the last axis on which it
    differs from the start, plus the cell itself; paths are built by
    increasing lattice distance.  Returns None when a path leaves the
    cells.
    """
    pos = {cell: k for k, cell in enumerate(cells)}
    start = cells[central]
    paths = {start: (pos[start],)}
    by_distance = sorted(
        range(len(cells)), key=lambda k: sum(abs(a - b) for a, b in zip(cells[k], start))
    )
    for k in by_distance:
        cell = cells[k]
        if cell in paths:
            continue
        axis = max(i for i in range(len(cell)) if cell[i] != start[i])
        back = list(cell)
        back[axis] += 1 if start[axis] > cell[axis] else -1
        path = paths.get(tuple(back))
        if path is None:
            return None
        paths[cell] = path + (pos[cell],)
    return {k: paths[cell] for k, cell in enumerate(cells)}


def _chain_links(space, c1_rows, owner, member, pos) -> dict:
    """Link ``bi:pos`` of every chain: the points of both members' C1 dilates, by id.

    Each pair of members is intersected once, in blocks of at most
    ``_BLOCK_ELEMS`` elements.
    """
    at = np.flatnonzero(pos > 0)
    m = len(c1_rows)
    # An edge joins two members in either order; its key is lo * m + hi.
    lo, hi = np.minimum(member[at], member[at - 1]), np.maximum(member[at], member[at - 1])
    edges = (lo * m + hi).tolist()
    distinct = list(dict.fromkeys(edges))
    ids = _point_ids(space)
    shared = {}
    step = max(1, _BLOCK_ELEMS // space.n)
    for k in range(0, len(distinct), step):
        block = distinct[k : k + step]
        pairs = np.array(block)
        inter = c1_rows[pairs // m] & c1_rows[pairs % m]
        row, col = np.nonzero(inter)
        members = ids[col].tolist()
        ends = np.searchsorted(row, np.arange(1, len(block) + 1)).tolist()
        shared.update(zip(block, (tuple(members[i:j]) for i, j in zip([0, *ends], ends))))
    keys = zip(owner[at].tolist(), pos[at].tolist())
    return dict(zip(keys, map(shared.__getitem__, edges)))


# ---------------------------------------------------------------- chain ratio


@dataclass(frozen=True)
class ChainRatioResult:
    lhs: float
    rhs_sum: float
    c0: float


def chain_ratio(space: Space, f, dec: BomanDecomposition, p: float, s: float) -> ChainRatioResult:
    """Chained median drift against summed weak-Lp oscillation.

    lhs sums |m^s_f(C1 B) - m^s_f(C1 B_*)|^p mu(C1 B) over the family; the
    weak-Lp norm of a constant on a set is the constant times the measure
    to the 1/p.  rhs sums the weak-Lp norms of f minus its dilated-ball
    median.  The ratio is reported, not asserted: the chaining constant is
    existential.  Raises UnverifiedDecomposition.
    """
    cert = verify_boman(space, dec)
    if not cert.ok:
        raise UnverifiedDecomposition(f"decomposition fails {cert.failing()}")
    return _chain_ratio(space, f, dec, p, s)


def _chain_ratio(space: Space, f, dec: BomanDecomposition, p: float, s: float) -> ChainRatioResult:
    """``chain_ratio`` on a decomposition already verified.

    The C1 dilates' maximal medians, measures and weak-Lp norms come from
    the row kernels, one block of dilates of one size at a time; each has
    the bits of the one-set ``maximal_median``, ``space.mu`` and
    ``weak_lp_norm``.  The sums run in ball order over Python floats.
    """
    vals = _as_values(space, f)
    _check_s(s)
    _check_p(p)
    rows = _ball_rows(space, ((b.center, dec.c1 * b.radius) for b in dec.balls))[2]
    owner, members = np.nonzero(rows)
    med, mu, norm = (np.empty(len(rows)) for _ in range(3))
    padded_vals, padded_weights = np.append(vals, np.inf), np.append(space.weights, 0.0)
    for part, size, pts in _row_blocks(space.n, np.bincount(owner, minlength=len(rows)), members):
        v, w = padded_vals[pts], padded_weights[pts]
        med[part] = _maximal_median_rows(v, w, s, size)
        mu[part] = _row_sums(w, size)
        # The weak-Lp kernel pads with level 0: an inf level times 0 mass is NaN.
        dev = np.where(pts < space.n, np.abs(v - med[part][:, None]), 0.0)
        norm[part] = _weak_lp_rows(dev, w, p)
    med = med.tolist()
    m_star = med[dec.central]
    lhs = 0.0
    rhs = 0.0
    for m_b, mu_b, norm_b in zip(med, mu.tolist(), norm.tolist()):
        lhs += abs(m_b - m_star) ** p * mu_b
        rhs += norm_b**p
    if rhs == 0.0:
        c0 = 0.0 if lhs == 0.0 else math.inf
    else:
        c0 = lhs / rhs
    return ChainRatioResult(lhs=float(lhs), rhs_sum=float(rhs), c0=float(c0))


# ---------------------------------------------------------------- global verifier


def _check_budget(c_budget: float) -> None:
    if not 0.0 < c_budget < math.inf:
        raise InvalidParameter(f"the budget must be finite and positive, got {c_budget}")


@dataclass(frozen=True)
class GlobalJNReport:
    center_value: float
    entries: tuple
    c_measured: float
    c_budget: float
    c0_empirical: float
    jn_norm: float
    s0: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "a": self.center_value,
            "entries": [
                {"lambda": lam, "lhs": lhs, "bound": bound}
                for lam, lhs, bound in self.entries
            ],
            "c_measured": self.c_measured,
            "c_budget": self.c_budget,
            "c0_empirical": self.c0_empirical,
            "jn_norm": self.jn_norm,
            "s0": self.s0,
            "pass": self.passed,
        }


def global_jn_verify(
    space: Space,
    f,
    dec: BomanDecomposition,
    p: float,
    s: float,
    r_center: float,
    lambda_grid=None,
    c_budget: float | None = None,
) -> GlobalJNReport:
    """Weak-type bound for |f - a| on the whole region, a the central median.

    Reports, per lambda, mu{x in region : |f - a| > lambda} against
    c_budget * norm^p / lambda^p, plus the measured constant
    max_lambda lhs lambda^p / norm^p.  The default budget is
    2^p c (C0 + 1) M with c the local constant and C0 the empirical chain
    ratio.  Raises UnverifiedDecomposition, InvalidS, InvalidLevel and
    InvalidParameter (a budget that is not finite and positive).
    """
    lambdas = None if lambda_grid is None else _lambda_levels(lambda_grid)
    if c_budget is not None:
        _check_budget(c_budget)
    cert = verify_boman(space, dec)
    if not cert.ok:
        raise UnverifiedDecomposition(f"decomposition fails {cert.failing()}")
    profile = doubling_profile(space)
    eta = dec.c2 / dec.c1 - 1.0
    alpha = alpha_of(profile, eta)
    s0 = _s0(profile, alpha)
    if not (0.0 < s <= s0 * (1.0 + 1e-12)):
        raise InvalidS(f"s must lie in (0, s0={s0:.6g}], got {s}")
    if not (s <= r_center <= 0.5):
        raise InvalidS(f"need s <= r <= 1/2, got r={r_center}")

    central_dilate = dilate(space, dec.balls[dec.central], dec.c1)
    a = maximal_median(space, f, central_dilate, r_center)
    g = np.abs(_as_values(space, f) - a)
    region_idx = [space.index(pid) for pid in dec.region]
    norm = jn_median_norm(space, f, dec.region, p, s, mode="exact", force=True)

    ratio = _chain_ratio(space, f, dec, p, r_center)
    if c_budget is None:
        c_local = local_jn_constant(p, profile.c_mu)
        c_budget = 2.0**p * c_local * (ratio.c0 + 1.0) * dec.overlap

    hi = 2.0 * float(g[region_idx].max()) if len(region_idx) else 0.0
    if lambdas is None:
        lambdas = np.geomspace(hi * 1e-3, hi, 50) if hi > 0.0 else np.array([1.0])
    # mu{|f - a| > lambda} per lambda: one running sum along the region, in
    # its order, so no Python version's ``sum`` regroups the additions.
    above = np.where(g[region_idx] > lambdas[:, None], space.weights[region_idx], 0.0)
    sums = np.cumsum(above, axis=1)[:, -1] if len(region_idx) else np.zeros(len(lambdas))
    entries = []
    c_meas = 0.0
    for lam, lhs in zip(lambdas, sums.tolist()):
        bound = c_budget * norm.total / lam**p if lam > 0 else math.inf
        entries.append((float(lam), lhs, float(bound)))
        if lhs > 0.0:
            c_meas = (
                math.inf
                if norm.total == 0.0
                else max(c_meas, lhs * lam**p / norm.total)
            )
    return GlobalJNReport(
        center_value=float(a),
        entries=tuple(entries),
        c_measured=float(c_meas),
        c_budget=float(c_budget),
        c0_empirical=ratio.c0,
        jn_norm=norm.value,
        s0=s0,
        passed=bool(c_meas <= c_budget * (1.0 + 1e-9)),
    )


# ---------------------------------------------------------------- equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    median_norm: float
    integral_norm: float
    lower_bound_ok: bool
    upper_ratio: float
    upper_budget: float
    upper_ok: bool
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "median_norm": self.median_norm,
            "integral_norm": self.integral_norm,
            "lower_bound_ok": self.lower_bound_ok,
            "upper_ratio": self.upper_ratio,
            "upper_budget": self.upper_budget,
            "upper_ok": self.upper_ok,
            "degenerate": self.degenerate,
        }


def jn_equivalence_check(
    space: Space, f, region, p: float, q: float, s: float, c_budget: float
) -> EquivalenceReport:
    """Two-sided comparison of the integral- and median-type norms.

    The lower bound s^(1/q) median <= integral is a hard assertion; the
    upper side compares the ratio against (c_budget p / (p - q))^(1/q) and
    is reported.  Both norms zero counts as trivially equivalent.  A
    budget that is not finite and positive raises InvalidParameter.
    """
    _check_budget(c_budget)
    if not q < p:
        raise InvalidParameter(f"q must be below p, got q={q}, p={p}")
    med = jn_median_norm(space, f, region, p, s, mode="exact", force=True)
    integ = jn_integral_norm(space, f, region, p, q, mode="exact", force=True)
    lower_ok = bool(
        s ** (1.0 / q) * med.value <= integ.value * (1.0 + 1e-9) + 1e-300
    )
    if med.value == 0.0 and integ.value == 0.0:
        return EquivalenceReport(
            median_norm=0.0,
            integral_norm=0.0,
            lower_bound_ok=lower_ok,
            upper_ratio=0.0,
            upper_budget=float((c_budget * p / (p - q)) ** (1.0 / q)),
            upper_ok=True,
            degenerate=True,
        )
    ratio = math.inf if med.value == 0.0 else integ.value / med.value
    budget = float((c_budget * p / (p - q)) ** (1.0 / q))
    return EquivalenceReport(
        median_norm=med.value,
        integral_norm=integ.value,
        lower_bound_ok=lower_ok,
        upper_ratio=float(ratio),
        upper_budget=budget,
        upper_ok=bool(ratio <= budget * (1.0 + 1e-9)),
        degenerate=False,
    )
