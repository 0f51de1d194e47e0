"""The Boman layer on member arrays against test-local copies of the set-based code.

The copies below are the per-ball set loops that ``verify_boman``,
``_windowed_decomposition``, ``_chain_ratio`` and ``weak_lp_norm`` ran
before they were rebuilt on member rows.  Certificates, decompositions
(as JSON text), chain-ratio floats (as hex) and raised exceptions must
match them exactly.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import medianjn as mj
from medianjn import boman
from medianjn.boman import BomanCertificate, BomanDecomposition, ChainRatioResult, ConditionReport
from medianjn.errors import ConstructionFailed, InvalidParameter, UnknownCenter
from medianjn.czd import _s0, _sum_in_order, alpha_of
from medianjn.median import _as_values, _maximal_median_rows
from medianjn.norms import _region_idx, _weak_lp_rows

# ---------------------------------------------------------------- set-based references


def reference_verify(space, dec):
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
        return [mj.dilate(space, b, lam) for b in dec.balls] if lam > 0.0 else None

    def undefined(**factors):
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


def reference_windowed(space, target_ball, spacing, half_window, c3):
    r0 = 0.5 * spacing
    c1 = (2.0 * half_window + 1) * spacing / (2.0 * r0)
    c2 = (2.0 * (half_window + 1) + 1) * spacing / (2.0 * r0)

    target = list(target_ball.idx)
    centers = target
    balls = tuple(mj.ball_at(space, space.point_ids[c], r0) for c in centers)

    centroid = space.coords[target].mean(axis=0)
    dists = np.linalg.norm(space.coords[centers] - centroid[None, :], axis=1)
    central = int(np.argmin(dists))

    pos = {tuple(np.round(space.coords[c] / spacing).astype(int)): k
           for k, c in enumerate(centers)}
    chains = {}
    for k in range(len(centers)):
        path = reference_grid_chain(pos, centers, central, k, space, spacing)
        if path is None:
            return None
        chains[k] = tuple(path)

    c1_dilates = [set(mj.dilate(space, b, c1).idx) for b in balls]
    links = {}
    for bi, chain in chains.items():
        for p in range(1, len(chain)):
            inter = c1_dilates[chain[p]] & c1_dilates[chain[p - 1]]
            links[(bi, p)] = tuple(space.point_ids[i] for i in sorted(inter))

    rho = 1.5
    for bi, chain in chains.items():
        for v in chain:
            d = float(np.linalg.norm(space.coords[centers[bi]] - space.coords[centers[v]]))
            rho = max(rho, (d + r0) / r0 * 1.01)
    overlap = 0
    c2_dilates = [set(mj.dilate(space, b, c2).idx) for b in balls]
    for da in c2_dilates:
        overlap = max(overlap, sum(1 for db in c2_dilates if not da.isdisjoint(db)))
    return BomanDecomposition(
        region=target_ball.members, balls=balls, central=central, c1=c1, c2=c2, c3=c3,
        rho=rho, overlap=overlap, chains=chains, links=links,
    )


def reference_grid_chain(pos, centers, start, goal, space, step):
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


def reference_weak_lp(space, g, region, p):
    if not p > 0.0:
        raise InvalidParameter(f"p must be positive, got {p}")
    idx = list(_region_idx(space, region))
    vals = np.abs(_as_values(space, g)[idx])
    w = space.weights[idx]
    levels, inverse = np.unique(vals, return_inverse=True)
    mass = np.bincount(inverse, weights=w)
    mass_ge = np.cumsum(mass[::-1])[::-1]
    positive = levels > 0.0
    if not positive.any():
        return 0.0
    best = float((levels[positive] ** p * mass_ge[positive]).max())
    return best ** (1.0 / p)


def reference_chain_ratio(space, f, dec, p, s):
    vals = _as_values(space, f)
    c1_dilates = [mj.dilate(space, b, dec.c1) for b in dec.balls]
    m_star = mj.maximal_median(space, f, c1_dilates[dec.central], s)
    lhs = 0.0
    rhs = 0.0
    for d in c1_dilates:
        m_b = mj.maximal_median(space, f, d, s)
        lhs += abs(m_b - m_star) ** p * space.mu(d.idx)
        rhs += reference_weak_lp(space, vals - m_b, d, p) ** p
    if rhs == 0.0:
        c0 = 0.0 if lhs == 0.0 else float("inf")
    else:
        c0 = lhs / rhs
    return ChainRatioResult(lhs=float(lhs), rhs_sum=float(rhs), c0=float(c0))


# ---------------------------------------------------------------- fixtures

# The builder's window lattice; C3 only scales the link measure test.
LATTICE = [(hw, c3) for hw in (2, 3, 4, 6, 8) for c3 in (1.5, 1.01)]


def _spaces():
    """(name, space, target ball) of the comparison suite."""
    line32 = mj.grid_space(1, 32, spacing=1 / 32)
    line64 = mj.grid_space(1, 64, spacing=1 / 64)
    line96 = mj.grid_space(1, 96, spacing=1 / 96)
    line30 = mj.grid_space(1, 30, spacing=1 / 30)
    rand32 = mj.grid_space(1, 32, spacing=1 / 32, weight_profile="random", seed=3)
    rand48 = mj.grid_space(1, 48, spacing=1 / 48, weight_profile="random", seed=11)
    grids = {k: mj.grid_space(2, k) for k in (6, 8, 12)}
    return [
        ("line32", line32, mj.ball_at(line32, "p15", 10.0)),
        ("line32-part", line32, mj.ball_at(line32, "p16", 5.0 / 32)),
        ("line64", line64, mj.ball_at(line64, "p31", 10.0)),
        ("line96", line96, mj.ball_at(line96, "p40", 10.0)),
        ("line30", line30, mj.ball_at(line30, "p15", 5.0)),
        ("rand32", rand32, mj.ball_at(rand32, "p15", 10.0)),
        ("rand48", rand48, mj.ball_at(rand48, "p20", 0.3)),
        ("grid6", grids[6], mj.ball_at(grids[6], "p0", 100.0)),
        ("grid8", grids[8], mj.ball_at(grids[8], "p0", 100.0)),
        ("grid8-disc", grids[8], mj.ball_at(grids[8], "p27", 2.5)),
        ("grid12", grids[12], mj.ball_at(grids[12], "p0", 100.0)),
    ]


SPACES = _spaces()


# Partial regions admit no decomposition: their C1 dilates reach past the region.
PARTIAL = {"line32-part", "rand48", "grid8-disc"}


@pytest.fixture(scope="module")
def decompositions():
    decs = {}
    for name, space, target in SPACES:
        if name in PARTIAL:
            with pytest.raises(ConstructionFailed):
                mj.grid_boman_decomposition(space, target)
        else:
            decs[name] = (space, mj.grid_boman_decomposition(space, target))
    return decs


def _text(dec):
    return None if dec is None else json.dumps(dec.to_json())


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the exception itself is the compared outcome
        return ("raise", type(exc), str(exc))


def _cert(space, dec, verify):
    out = _outcome(verify, space, dec)
    return ("value", out[1].to_json()) if out[0] == "value" else out


def _hex(result):
    return tuple(float(getattr(result, k)).hex() for k in ("lhs", "rhs_sum", "c0"))


# ---------------------------------------------------------------- builder and verifier


@pytest.mark.parametrize("name, space, target", SPACES, ids=[s[0] for s in SPACES])
def test_windowed_decomposition_matches_set_loops(name, space, target):
    spacing = boman._grid_spacing(space)
    for hw, c3 in LATTICE:
        args = (space, target, spacing, hw, c3)
        new, old = boman._windowed_decomposition(*args), reference_windowed(*args)
        assert _text(new) == _text(old), (hw, c3)
        if new is not None:
            assert new.rho == old.rho and new.overlap == old.overlap
            assert _cert(space, new, mj.verify_boman) == _cert(space, old, reference_verify)


def test_grid_decompositions_verify_as_before(decompositions):
    for name, (space, dec) in decompositions.items():
        cert = mj.verify_boman(space, dec)
        assert cert.ok, name
        assert cert.to_json() == reference_verify(space, dec).to_json()
        back = mj.decomposition_from_json(space, json.dumps(dec.to_json()))
        assert _text(back) == _text(dec)
        assert back.balls == dec.balls and back.chains == dec.chains and back.links == dec.links


def test_chain_ratio_matches_per_ball_loop(decompositions):
    rng = np.random.default_rng(12)
    for name, (space, dec) in decompositions.items():
        functions = [
            rng.normal(size=space.n),
            np.round(rng.normal(size=space.n), 1),  # ties
            mj.canonical_function("log_blowup", space).values,
        ]
        for vals in functions:
            f = mj.SampleFunction.from_values(space, vals)
            for p, s in ((2.0, 0.5), (1.5, 0.25), (3.0, 1.0), (0.7, 0.1)):
                new = boman._chain_ratio(space, f, dec, p, s)
                old = reference_chain_ratio(space, f, dec, p, s)
                assert _hex(new) == _hex(old), (name, p, s)


def test_chain_ratio_validation_errors(decompositions):
    space, dec = decompositions["line32"]
    f = mj.canonical_function("log_blowup", space)
    for p, s in ((2.0, 0.0), (2.0, 1.5), (0.0, 0.5), (-1.0, 2.0), (float("nan"), 0.5)):
        new = _outcome(boman._chain_ratio, space, f, dec, p, s)
        old = _outcome(reference_chain_ratio, space, f, dec, p, s)
        assert new[0] == old[0] == "raise" and new[1:] == old[1:], (p, s)


def _tamper(rng, space, dec):
    """One seeded tampering of a decomposition, and its kind."""
    m = len(dec.balls)
    chains, links = dict(dec.chains), dict(dec.links)
    kind = str(rng.choice([
        "widen", "move", "drop-link", "shorten-link", "extend-link", "unknown-id",
        "out-of-range", "negative", "swap", "c1", "c2", "rho", "smaller-M", "trim-region",
        "no-chain", "central", "c3",
    ]))
    k = int(rng.integers(m))
    keys = sorted(links)
    key = keys[int(rng.integers(len(keys)))] if keys else None
    long_chains = [bi for bi, c in chains.items() if len(c) >= 3]
    if kind == "widen":
        ball = dec.balls[k]
        wide = mj.ball_at(space, ball.center, ball.radius * float(rng.choice([1.5, 2.0, 3.0, 5.0])))
        return kind, dataclasses.replace(dec, balls=(*dec.balls[:k], wide, *dec.balls[k + 1:]))
    if kind == "move":
        ball = dec.balls[k]
        moved = mj.ball_at(space, space.point_ids[int(rng.integers(space.n))], ball.radius)
        return kind, dataclasses.replace(dec, balls=(*dec.balls[:k], moved, *dec.balls[k + 1:]))
    if kind == "drop-link" and key:
        del links[key]
        return kind, dataclasses.replace(dec, links=links)
    if kind == "shorten-link" and key:
        link = links[key]
        links[key] = link[: int(rng.integers(len(link)))]
        return kind, dataclasses.replace(dec, links=links)
    if kind == "extend-link" and key:
        extra = space.point_ids[int(rng.integers(space.n))]
        link = list(links[key])
        link.insert(int(rng.integers(len(link) + 1)), extra)
        links[key] = tuple(link)
        return kind, dataclasses.replace(dec, links=links)
    if kind == "unknown-id" and key:
        link = list(links[key])
        link.insert(int(rng.integers(len(link) + 1)), "zz")
        links[key] = tuple(link)
        return kind, dataclasses.replace(dec, links=links)
    if kind in ("out-of-range", "negative", "swap") and long_chains:
        bi = long_chains[int(rng.integers(len(long_chains)))]
        chain = list(chains[bi])
        at = int(rng.integers(1, len(chain) - 1))
        if kind == "out-of-range":
            chain[at] = m + int(rng.integers(0, 3 * m))
        elif kind == "negative":
            chain[at] = -int(rng.integers(1, m + 1))
        else:
            other = int(rng.integers(0, len(chain)))
            chain[at], chain[other] = chain[other], chain[at]
        chains[bi] = tuple(chain)
        return kind, dataclasses.replace(dec, chains=chains)
    if kind in ("c1", "c2", "rho"):
        field = {"c1": "c1", "c2": "c2", "rho": "rho"}[kind]
        value = float(rng.choice([0.0, -1.0, 0.5, 1.0, 1.01]))
        return kind, dataclasses.replace(dec, **{field: value})
    if kind == "smaller-M" and dec.overlap > 1:
        return kind, dataclasses.replace(dec, overlap=int(rng.integers(1, dec.overlap)))
    if kind == "trim-region":
        size = int(rng.integers(1, 3))
        drop = set(rng.choice(len(dec.region), size=size, replace=False).tolist())
        region = tuple(p for i, p in enumerate(dec.region) if i not in drop)
        return kind, dataclasses.replace(dec, region=region)
    if kind == "no-chain":
        del chains[k]
        return kind, dataclasses.replace(dec, chains=chains)
    if kind == "central":
        return kind, dataclasses.replace(dec, central=int(rng.integers(m)))
    return "c3", dataclasses.replace(dec, c3=float(rng.uniform(1.5, 4.0)))


def test_tampered_decompositions_match_set_loops(decompositions):
    # 264 seeded tamperings, one to three at a time, over every space of the
    # suite: certificates, or the raised exception, must match.
    rng = np.random.default_rng(2024)
    names = sorted(decompositions)
    kinds = set()
    failing = 0
    for case in range(264):
        name = names[case % len(names)]
        space, dec = decompositions[name]
        for _ in range(1 + case % 3):
            kind, dec = _tamper(rng, space, dec)
            kinds.add(kind)
        new, old = _cert(space, dec, mj.verify_boman), _cert(space, dec, reference_verify)
        assert new == old, (case, name, kind)
        failing += new[0] == "raise" or not new[1]["ok"]
        if new[0] == "value" and new[1]["ok"]:
            f = mj.SampleFunction.from_values(space, rng.normal(size=space.n))
            assert _hex(boman._chain_ratio(space, f, dec, 2.0, 0.5)) == _hex(
                reference_chain_ratio(space, f, dec, 2.0, 0.5)
            )
    assert len(kinds) == 17 and failing > 200


def test_unknown_link_id_raises_only_when_reached(decompositions):
    space, dec = decompositions["line32"]
    first = sorted(dec.links)[0]
    links = {**dec.links, first: ("zz", *dec.links[first])}
    with pytest.raises(UnknownCenter, match="'zz'"):
        mj.verify_boman(space, dataclasses.replace(dec, links=links))
    # An earlier failing link ends the scan before the unknown id.
    last = max(dec.links)
    short = {**dec.links, first: dec.links[first][:1], last: ("zz",)}
    cert = mj.verify_boman(space, dataclasses.replace(dec, links=short))
    assert cert.failing() == ("iv-links",)


def test_link_measure_keeps_its_summation_order():
    # Link 0:1, the first one scanned, gets an order of its points whose
    # sum differs in the last bit from the reversed order, and C3 puts the
    # threshold between the two sums: the verdict then hangs on the order.
    g = mj.grid_space(1, 32, spacing=1 / 32, weight_profile="random", seed=1)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p15", 10.0))
    for link in itertools.permutations(dec.links[(0, 1)]):
        idx = [g.index(p) for p in link]
        forward, backward = g.mu(idx), g.mu(idx[::-1])
        if forward != backward:
            break
    assert forward != backward
    chain = dec.chains[0]
    base = g.mu(dec.balls[chain[1]].idx) + g.mu(dec.balls[chain[0]].idx)
    lo, hi = sorted((forward, backward))
    c3 = hi / base
    while c3 * base * (1.0 - 1e-12) > hi:
        c3 = np.nextafter(c3, 0.0)
    while c3 * base * (1.0 - 1e-12) <= lo:
        c3 = np.nextafter(c3, np.inf)
    assert c3 * base * (1.0 - 1e-12) <= hi
    bad = dataclasses.replace(dec, c3=float(c3), links={**dec.links, (0, 1): link})
    assert mj.verify_boman(g, bad).to_json() == reference_verify(g, bad).to_json()
    flipped = dataclasses.replace(bad, links={**dec.links, (0, 1): tuple(link[::-1])})
    assert mj.verify_boman(g, flipped).to_json() == reference_verify(g, flipped).to_json()
    witness = {c.name: c.witness for c in mj.verify_boman(g, bad).conditions}["iv-links"]
    assert witness.startswith("link 0:1 ") == (forward < backward)


def test_empty_chain_fails_the_chain_condition():
    g = mj.grid_space(1, 32, spacing=1 / 32)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p16", 5.0))
    bad = dataclasses.replace(dec, chains={**dec.chains, 0: ()})
    cert = mj.verify_boman(g, bad)
    assert [(c.name, c.witness) for c in cert.conditions if not c.passed] == [
        ("iii-chains", "chain of ball 0 is empty")
    ]


def test_decomposition_json_refuses_fractional_numbers():
    g = mj.grid_space(1, 32, spacing=1 / 32)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p16", 5.0))
    obj = dec.to_json()
    for change in (
        {"M": 13.9},
        {"M": float("inf")},
        {"chains": {**obj["chains"], "0": [obj["chains"]["0"][0] + 0.5]}},
        {"chains": {**obj["chains"], "0": [*obj["chains"]["0"][:-1], 0.5]}},
    ):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            mj.decomposition_from_json(g, {**obj, **change})
    # Integral numbers load as the same integers.
    whole = {**obj, "M": float(obj["M"]),
             "chains": {k: [float(i) for i in v] for k, v in obj["chains"].items()}}
    back = mj.decomposition_from_json(g, whole)
    assert back.overlap == dec.overlap and back.chains == dec.chains
    assert all(type(i) is int for c in back.chains.values() for i in c)
    # Non-integer strings stay a ValueError, as int() reports them.
    with pytest.raises(ValueError):
        mj.decomposition_from_json(g, {**obj, "chains": {**obj["chains"], "0": ["x"]}})


def test_decomposition_json_refuses_links_that_are_not_id_lists():
    g = mj.grid_space(1, 32, spacing=1 / 32)
    obj = mj.grid_boman_decomposition(g, mj.ball_at(g, "p16", 5.0)).to_json()
    for bad in ([["p0"]], "p0", ["p0", 1], None, {"p0": 1}):
        with pytest.raises(InvalidParameter, match="list of point ids"):
            mj.decomposition_from_json(g, {**obj, "links": {**obj["links"], "0:1": bad}})
    # An unknown id is still a string: it loads, and the verifier names it.
    back = mj.decomposition_from_json(g, {**obj, "links": {**obj["links"], "0:1": ["zz"]}})
    assert back.links[(0, 1)] == ("zz",)


# ---------------------------------------------------------------- row kernels


def test_row_kernels_match_the_one_set_functions():
    # Ties, inexact weights and zero values, in rows of one length.
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 7, 16, 33):
        for _ in range(20):
            rows = 40
            values = np.round(rng.normal(size=(rows, k)), int(rng.integers(0, 3)))
            weights = rng.uniform(0.1, 3.0, size=(rows, k)) / 3.0
            s = float(rng.choice([0.1, 0.25, 0.5, 0.9, 1.0]))
            p = float(rng.choice([0.5, 1.0, 2.0, 2.5]))
            med = _maximal_median_rows(values, weights, s)
            lp = _weak_lp_rows(np.abs(values), weights, p)
            space = mj.build_space([f"p{i}" for i in range(k)], np.ones(k),
                                   coords=np.arange(k, dtype=float))
            for t in range(rows):
                one = mj.weighted_maximal_median(values[t], weights[t], s)
                assert float(med[t]).hex() == one.hex()
                sp = dataclasses.replace(space, weights=weights[t])
                ref = reference_weak_lp(sp, values[t], None, p)
                assert lp[t].hex() == ref.hex()
                assert mj.weak_lp_norm(sp, values[t], None, p).hex() == ref.hex()


# ---------------------------------------------------------------- report sums


def test_global_lhs_is_a_left_to_right_sum():
    g = mj.grid_space(1, 32, spacing=1 / 32, weight_profile="random", seed=7)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p15", 10.0))
    rng = np.random.default_rng(8)
    for _ in range(3):
        f = mj.SampleFunction.from_values(g, rng.normal(size=g.n))
        profile = mj.doubling_profile(g)
        s = 0.9 * _s0(profile, alpha_of(profile, dec.c2 / dec.c1 - 1.0))
        rep = mj.global_jn_verify(g, f, dec, 2.0, s, 0.5)
        vals = np.abs(f.values - rep.center_value)
        region = [g.index(p) for p in dec.region]
        for lam, lhs, _ in rep.entries:
            total = 0.0
            for i in region:
                if vals[i] > lam:
                    total += float(g.weights[i])
            assert lhs == total


def test_good_lambda_sums_are_left_to_right():
    # Inexact weights near 1 keep the cluster's doubling constant, so the
    # spike's levels stay admissible.
    rng = np.random.default_rng(9)
    base = mj.cluster_space(6)
    for seed in range(4):
        w = np.random.default_rng(seed).uniform(0.99, 1.01, size=base.n)
        cs = mj.build_space(base.point_ids, w, coords=base.coords)
        star = int(rng.integers(0, cs.n))
        params = mj.cz_params(cs, mj.ball_at(cs, cs.point_ids[star], 2.0), eta=1e5, t=0.5, p=2.0)
        vals = rng.uniform(0.1, 2.0, size=cs.n)
        vals[star] = height = float(vals.max() * 20.0 + 5.0)
        f = mj.SampleFunction.from_values(cs, vals)
        hat = list(params.b0_hat.idx)
        thr = mj.weighted_maximal_median(vals[hat], cs.weights[hat], params.t / params.alpha)
        lam = 0.5 * (thr + 0.9 * height / params.K)
        s = params.t / params.beta * 0.999
        res = mj.good_lambda_sides(f, params, 2.0, s, lam)
        high = 0.0
        for b in res.high.balls:
            high += cs.mu(b.idx)
        low = 0.0
        for b in res.low.balls:
            low += cs.mu(b.idx)
        total = mj.jn_median_norm(cs, f, params.b0_hat, 2.0, s, mode="exact", force=True).total
        K, c3 = params.K, params.profile.c_mu**3
        assert res.lhs == high
        assert res.rhs == (2.0**2.0 * c3 / (K - 1.0) ** 2.0) * total / lam**2.0 + low / (
            2.0 * K**2.0
        )


def test_sum_in_order_does_not_compensate():
    # Python 3.12's sum() compensates float additions and gives 2.0 here.
    assert _sum_in_order([0.1] * 10 + [1e16, 1.0, -1e16]) == 0.0
    rng = np.random.default_rng(10)
    for n in (0, 1, 5, 100):
        values = (rng.normal(size=n) * 10.0 ** rng.integers(-8, 17, size=n)).tolist()
        total = 0.0
        for v in values:
            total += v
        assert _sum_in_order(values) == total
