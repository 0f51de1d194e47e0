"""Chain decompositions of regions, their verification, and global verifiers.

A decomposition of a region consists of pairwise-disjoint balls F whose
C1- and C2-dilates both tile the region exactly, a bounded-overlap count M
for the C2-dilates, a central ball, one finite chain through F from the
central ball to every member, link sets between consecutive chain balls
that are comparatively large in measure, and a dilation factor rho that
pulls every chain member over the chain's endpoint.  ``verify_boman``
checks the five conditions exactly and reports a witness for each failure
instead of raising.

``global_jn_verify`` combines the local weak-type inequality on each
dilated ball with the chaining estimate to bound the oscillation of f
around a single constant on the whole region; since the chaining constant
is existential, the verifier reports the measured constant and compares it
against an explicit budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .czd import _s0, alpha_of, local_jn_constant
from .errors import (
    ConstructionFailed,
    InvalidParameter,
    InvalidS,
    UnknownBall,
    UnverifiedDecomposition,
)
from .median import _as_values, maximal_median
from .norms import jn_integral_norm, jn_median_norm, weak_lp_norm
from .space import Ball, Space, ball_at, dilate, doubling_profile


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


def decomposition_from_json(space: Space, obj) -> BomanDecomposition:
    if isinstance(obj, str):
        obj = json.loads(obj)
    balls = tuple(ball_at(space, b["center"], b["radius"]) for b in obj["balls"])
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
    chains = {int(k): tuple(int(i) for i in v) for k, v in obj["chains"].items()}
    links = {}
    for key, ids in obj["links"].items():
        bi, pos = key.split(":")
        links[(int(bi), int(pos))] = tuple(ids)
    return BomanDecomposition(
        region=tuple(obj["region"]),
        balls=balls,
        central=central,
        c1=float(obj["C1"]),
        c2=float(obj["C2"]),
        c3=float(obj["C3"]),
        rho=float(obj["rho"]),
        overlap=int(obj["M"]),
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
    that needs a dilate by it fails with that factor as its witness.
    """
    reports = []
    region = set(space.index(p) for p in dec.region)
    ball_sets = [set(b.idx) for b in dec.balls]

    disjoint, witness = True, ""
    for a in range(len(dec.balls)):
        for b in range(a + 1, len(dec.balls)):
            if not ball_sets[a].isdisjoint(ball_sets[b]):
                disjoint, witness = False, f"balls {a} and {b} intersect"
                break
        if not disjoint:
            break
    reports.append(ConditionReport("disjoint", disjoint, witness))

    def dilates(lam):
        return [dilate(space, b, lam) for b in dec.balls] if lam > 0.0 else None

    def undefined(**factors):
        # The witness of a condition that needs a dilate by a factor <= 0.
        bad = [f"{name}={lam!r}" for name, lam in factors.items() if not lam > 0.0]
        return f"no dilate by non-positive {', '.join(bad)}" if bad else ""

    c1_dilates, c2_dilates, rho_dilates = dilates(dec.c1), dilates(dec.c2), dilates(dec.rho)
    witness = undefined(C1=dec.c1, C2=dec.c2)
    ok = not witness
    if ok:
        u1 = set().union(*(d.idx for d in c1_dilates))
        u2 = set().union(*(d.idx for d in c2_dilates))
        ok = u1 == region and u2 == region
        witness = "" if ok else (
            f"C1 union {'==' if u1 == region else '!='} region, "
            f"C2 union {'==' if u2 == region else '!='} region"
        )
    reports.append(ConditionReport("i-union", ok, witness))

    witness = undefined(C2=dec.c2)
    ok = not witness
    for a, da in enumerate(c2_dilates if ok else ()):
        meets = set(da.idx)
        count = sum(1 for db in c2_dilates if not meets.isdisjoint(db.idx))
        if count > dec.overlap:
            ok, witness = False, f"C2 dilate of ball {a} meets {count} > M={dec.overlap}"
            break
    reports.append(ConditionReport("ii-overlap", ok, witness))

    def leaves_family(chain):
        return any(not (0 <= v < len(dec.balls)) for v in chain)

    ok, witness = True, ""
    for bi in range(len(dec.balls)):
        chain = dec.chains.get(bi)
        if chain is None:
            ok, witness = False, f"ball {bi} has no chain"
            break
        if chain[0] != dec.central or chain[-1] != bi:
            ok, witness = False, f"chain of ball {bi} must run central -> ball"
            break
        if leaves_family(chain):
            ok, witness = False, f"chain of ball {bi} leaves the family"
            break
    reports.append(ConditionReport("iii-chains", ok, witness))

    witness = undefined(C1=dec.c1)
    ok = not witness
    ball_mu = [space.mu(b.idx) for b in dec.balls] if ok else []
    for bi in range(len(dec.balls) if ok else 0):
        chain = dec.chains.get(bi) or ()
        if leaves_family(chain):
            ok, witness = False, f"chain of ball {bi} leaves the family"
            break
        for pos in range(1, len(chain)):
            link = dec.links.get((bi, pos))
            if link is None:
                ok, witness = False, f"missing link {bi}:{pos}"
                break
            link_idx = [space.index(p) for p in link]
            inter = set(c1_dilates[chain[pos]].idx).intersection(c1_dilates[chain[pos - 1]].idx)
            if not inter.issuperset(link_idx):
                ok, witness = False, f"link {bi}:{pos} leaves the C1 intersection"
                break
            need = dec.c3 * (ball_mu[chain[pos]] + ball_mu[chain[pos - 1]])
            if space.mu(link_idx) < need * (1.0 - 1e-12):
                ok, witness = False, (
                    f"link {bi}:{pos} has measure {space.mu(link_idx):.6g} < "
                    f"C3 (mu+mu) = {need:.6g}"
                )
                break
        if not ok:
            break
    reports.append(ConditionReport("iv-links", ok, witness))

    witness = undefined(rho=dec.rho)
    ok = not witness
    for bi in range(len(dec.balls) if ok else 0):
        chain = dec.chains.get(bi) or ()
        if leaves_family(chain):
            ok, witness = False, f"chain of ball {bi} leaves the family"
            break
        for v in chain:
            if not ball_sets[bi].issubset(rho_dilates[v].idx):
                ok, witness = False, f"ball {bi} escapes rho * ball {v}"
                break
        if not ok:
            break
    reports.append(ConditionReport("v-absorption", ok, witness))

    params_ok = dec.c2 > dec.c1 > 1.0 and dec.c3 > 1.0 and dec.rho > 1.0 and dec.overlap >= 1
    reports.append(
        ConditionReport(
            "parameters", params_ok, "" if params_ok else "need C2 > C1 > 1, C3 > 1, rho > 1, M >= 1"
        )
    )
    return BomanCertificate(tuple(reports), all(r.passed for r in reports))


# ---------------------------------------------------------------- grid helper


def _grid_layout(space: Space):
    if space.coords is None:
        raise InvalidParameter("grid decomposition needs coordinate geometry")
    dims = space.coords.shape[1]
    if dims not in (1, 2):
        raise InvalidParameter("grid decomposition supports 1-D and 2-D only")
    diffs = np.diff(np.unique(space.coords[:, 0]))
    spacing = float(diffs.min()) if len(diffs) else 1.0
    return dims, spacing


def grid_boman_decomposition(
    space: Space, target_ball: Ball, granularity: int = 1
) -> BomanDecomposition:
    """Construct and verify a chain decomposition of a grid region.

    Places one small ball per target point (or per block of ``granularity``
    points on 1-D grids), chains each through grid-adjacent neighbors to a
    central ball, and searches a fixed lattice of (C1, C2, C3) window
    parameters until verification passes.  Raises ConstructionFailed with
    the best near-miss when nothing verifies.
    """
    if target_ball.size == 0:
        raise InvalidParameter("target ball is empty")
    dims, spacing = _grid_layout(space)
    if granularity < 1 or (granularity > 1 and granularity % 2 == 0):
        raise InvalidParameter("granularity must be 1 or an odd block size")

    if target_ball.size == 1:
        return _trivial_decomposition(space, target_ball)

    best_cert: BomanCertificate | None = None
    best_dec: BomanDecomposition | None = None
    for half_window in (2, 3, 4, 6, 8):
        for c3 in (1.5, 1.25, 1.1, 1.01):
            dec = _windowed_decomposition(
                space, target_ball, spacing, dims, half_window, c3, granularity
            )
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


def _windowed_decomposition(
    space, target_ball, spacing, dims, half_window, c3, granularity
) -> BomanDecomposition | None:
    r0 = 0.5 * spacing * granularity
    c1 = (2.0 * half_window + granularity) * spacing / (2.0 * r0)
    c2 = (2.0 * (half_window + 1) + granularity) * spacing / (2.0 * r0)

    target = list(target_ball.idx)
    if granularity == 1:
        centers = target
    else:
        if dims != 1:
            return None
        ordered = sorted(target, key=lambda i: space.coords[i, 0])
        if len(ordered) % granularity != 0:
            return None
        centers = [
            ordered[k + granularity // 2]
            for k in range(0, len(ordered), granularity)
        ]
    balls = tuple(ball_at(space, space.point_ids[c], r0) for c in centers)

    # Central ball: nearest to the centroid of the target, ties by index.
    centroid = space.coords[target].mean(axis=0)
    dists = np.linalg.norm(space.coords[centers] - centroid[None, :], axis=1)
    central = int(np.argmin(dists))

    pos = {tuple(np.round(space.coords[c] / (spacing * granularity)).astype(int)): k
           for k, c in enumerate(centers)}
    chains = {}
    for k in range(len(centers)):
        path = _grid_chain(pos, centers, central, k, space, spacing * granularity)
        if path is None:
            return None
        chains[k] = tuple(path)

    c1_dilates = [set(dilate(space, b, c1).idx) for b in balls]
    links = {}
    for bi, chain in chains.items():
        for p in range(1, len(chain)):
            inter = c1_dilates[chain[p]] & c1_dilates[chain[p - 1]]
            links[(bi, p)] = tuple(space.point_ids[i] for i in sorted(inter))

    rho = 1.5
    for bi, chain in chains.items():
        for v in chain:
            d = float(
                np.linalg.norm(space.coords[centers[bi]] - space.coords[centers[v]])
            )
            rho = max(rho, (d + r0) / r0 * 1.01)
    overlap = 0
    c2_dilates = [set(dilate(space, b, c2).idx) for b in balls]
    for da in c2_dilates:
        overlap = max(overlap, sum(1 for db in c2_dilates if not da.isdisjoint(db)))
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


def _grid_chain(pos, centers, start, goal, space, step):
    """March from the central cell to the goal cell, row first then column."""
    cur = tuple(np.round(space.coords[centers[start]] / step).astype(int))
    end = tuple(np.round(space.coords[centers[goal]] / step).astype(int))
    path = [pos[cur]]
    cur = list(cur)
    for axis in range(len(cur)):
        while cur[axis] != end[axis]:
            cur[axis] += 1 if end[axis] > cur[axis] else -1
            key = tuple(cur)
            if key not in pos:
                return None
            path.append(pos[key])
    return path


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
    """``chain_ratio`` on a decomposition already verified."""
    vals = _as_values(space, f)
    c1_dilates = [dilate(space, b, dec.c1) for b in dec.balls]
    m_star = maximal_median(space, f, c1_dilates[dec.central], s)
    lhs = 0.0
    rhs = 0.0
    for d in c1_dilates:
        m_b = maximal_median(space, f, d, s)
        lhs += abs(m_b - m_star) ** p * space.mu(d.idx)
        rhs += weak_lp_norm(space, vals - m_b, d, p) ** p
    if rhs == 0.0:
        c0 = 0.0 if lhs == 0.0 else math.inf
    else:
        c0 = lhs / rhs
    return ChainRatioResult(lhs=float(lhs), rhs_sum=float(rhs), c0=float(c0))


# ---------------------------------------------------------------- global verifier


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
    ratio.  Raises UnverifiedDecomposition and InvalidS.
    """
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
    if lambda_grid is None:
        lambda_grid = (
            np.geomspace(hi * 1e-3, hi, 50) if hi > 0.0 else np.array([1.0])
        )
    entries = []
    c_meas = 0.0
    w = space.weights
    for lam in np.asarray(lambda_grid, dtype=float):
        lhs = float(sum(w[i] for i in region_idx if g[i] > lam))
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
    is reported.  Both norms zero counts as trivially equivalent.
    """
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
