import dataclasses
import math

import numpy as np
import pytest

import medianjn as mj
from medianjn import boman
from medianjn.errors import (
    ConstructionFailed,
    InvalidLevel,
    InvalidParameter,
    InvalidS,
    UnknownBall,
    UnverifiedDecomposition,
)

from util import fn, random_space


@pytest.fixture(scope="module")
def grid32():
    return mj.grid_space(1, 32, spacing=1.0 / 32)


@pytest.fixture(scope="module")
def dec32(grid32):
    return mj.grid_boman_decomposition(grid32, mj.ball_at(grid32, "p15", 10.0))


def test_grid_decomposition_verifies(grid32, dec32):
    cert = mj.verify_boman(grid32, dec32)
    assert cert.ok, cert.failing()
    assert dec32.c2 > dec32.c1 > 1.0


def test_trivial_single_ball():
    g = mj.grid_space(1, 8)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p3", 0.25))
    cert = mj.verify_boman(g, dec)
    assert cert.ok
    assert len(dec.balls) == 1 and dec.links == {}


def test_violation_detection(grid32, dec32):
    bad = mj.BomanDecomposition(
        region=dec32.region,
        balls=dec32.balls,
        central=dec32.central,
        c1=dec32.c1,
        c2=dec32.c2,
        c3=dec32.c3,
        rho=1.01,
        overlap=dec32.overlap,
        chains=dec32.chains,
        links=dec32.links,
    )
    cert = mj.verify_boman(grid32, bad)
    assert not cert.ok and "v-absorption" in cert.failing()


def test_construction_failed_two_points():
    sp = mj.build_space(["a", "b"], [1, 1], coords=[[0.0], [500.0]])
    with pytest.raises(ConstructionFailed):
        mj.grid_boman_decomposition(sp, mj.ball_at(sp, "a", 1000.0))


def test_chain_ratio_trivial_cases(grid32):
    single = mj.grid_boman_decomposition(grid32, mj.ball_at(grid32, "p5", 1.0 / 64))
    f = mj.canonical_function("log_blowup", grid32)
    res = mj.chain_ratio(grid32, f, single, 2.0, 0.5)
    assert res.lhs == 0.0 and res.c0 == 0.0


def test_chain_ratio_constant_function(grid32, dec32):
    const = fn(grid32, np.full(grid32.n, 1.5))
    res = mj.chain_ratio(grid32, const, dec32, 2.0, 0.5)
    assert res.lhs == 0.0 and res.rhs_sum == 0.0 and res.c0 == 0.0


def test_chain_ratio_requires_verified(grid32, dec32):
    bad = mj.BomanDecomposition(
        region=dec32.region[:-1],
        balls=dec32.balls,
        central=dec32.central,
        c1=dec32.c1,
        c2=dec32.c2,
        c3=dec32.c3,
        rho=dec32.rho,
        overlap=dec32.overlap,
        chains=dec32.chains,
        links=dec32.links,
    )
    f = mj.canonical_function("log_blowup", grid32)
    with pytest.raises(UnverifiedDecomposition):
        mj.chain_ratio(grid32, f, bad, 2.0, 0.5)


def test_global_matches_local_on_single_ball(grid32):
    single = mj.grid_boman_decomposition(grid32, mj.ball_at(grid32, "p7", 1.0 / 64))
    f = mj.canonical_function("log_blowup", grid32)
    base = mj.dilate(grid32, single.balls[0], single.c1)
    eta = single.c2 / single.c1 - 1.0
    params = mj.cz_params(grid32, base, eta=eta)
    s = params.s0 * 0.9
    grid_l = np.geomspace(0.05, 5.0, 15)
    local = mj.local_jn_verify(f, params, 2.0, s, 0.5, lambda_grid=grid_l)
    glob = mj.global_jn_verify(grid32, f, single, 2.0, s, 0.5, lambda_grid=grid_l)
    for e_loc, (lam, lhs, _) in zip(local.entries, glob.entries):
        assert abs(e_loc.lhs - lhs) <= 1e-12


def test_global_verify_log_fixture(grid32, dec32):
    f = mj.canonical_function("log_blowup", grid32)
    rep = mj.global_jn_verify(grid32, f, dec32, 2.0, 0.0005, 0.5)
    assert rep.passed
    assert math.isfinite(rep.c_measured) and math.isfinite(rep.c0_empirical)
    with pytest.raises(InvalidS):
        mj.global_jn_verify(grid32, f, dec32, 2.0, 0.4, 0.5)


def test_global_verify_refuses_an_empty_or_non_finite_lambda_grid(grid32, dec32):
    # A NaN level used to pass, and so did an empty grid.
    f = mj.canonical_function("log_blowup", grid32)
    for grid in ([math.nan], [1.0, math.inf], []):
        with pytest.raises(InvalidLevel):
            mj.global_jn_verify(grid32, f, dec32, 2.0, 0.0005, 0.5, lambda_grid=grid)


def test_global_verify_refuses_a_budget_that_is_not_finite_and_positive(grid32, dec32):
    # A NaN budget used to report a failed inequality.
    f = mj.canonical_function("log_blowup", grid32)
    for budget in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidParameter) as info:
            mj.global_jn_verify(grid32, f, dec32, 2.0, 0.0005, 0.5, c_budget=budget)
        assert str(info.value) == f"the budget must be finite and positive, got {budget}"


def test_equivalence_refuses_a_budget_that_is_not_finite_and_positive(grid32):
    f = mj.canonical_function("log_blowup", grid32)
    for budget in (math.nan, math.inf, 0.0):
        with pytest.raises(InvalidParameter, match="budget must be finite and positive"):
            mj.jn_equivalence_check(grid32, f, ["p0", "p1", "p2"], 2.0, 1.0, 0.25, budget)


def test_constant_function_global(grid32, dec32):
    const = fn(grid32, np.full(grid32.n, 2.0))
    rep = mj.global_jn_verify(grid32, const, dec32, 2.0, 0.0005, 0.5)
    assert rep.c_measured == 0.0 and rep.passed


def test_equivalence_two_point():
    sp = mj.build_space(["p0", "p1"], [1, 1], coords=[[0.0], [1.0]])
    f = fn(sp, [0.0, 1.0])
    rep = mj.jn_equivalence_check(sp, f, None, 2.0, 1.0, 0.5, c_budget=10.0)
    assert rep.lower_bound_ok
    assert rep.upper_ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.median_norm == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_equivalence_degenerate():
    sp = mj.build_space(["p0", "p1"], [1, 1], coords=[[0.0], [1.0]])
    rep = mj.jn_equivalence_check(sp, fn(sp, [3.0, 3.0]), None, 2.0, 1.0, 0.5, 10.0)
    assert rep.degenerate and rep.lower_bound_ok and rep.upper_ok


def test_equivalence_lower_bound_random():
    rng = np.random.default_rng(41)
    for _ in range(30):
        sp = random_space(rng, max_n=7)
        f = fn(sp, rng.normal(size=sp.n))
        p = float(rng.uniform(1.5, 3.0))
        q = float(rng.uniform(0.4, 0.9) * p)
        s = float(rng.uniform(0.05, 0.5))
        rep = mj.jn_equivalence_check(sp, f, None, p, q, s, c_budget=50.0)
        assert rep.lower_bound_ok


def test_decomposition_json_roundtrip(grid32, dec32):
    back = mj.decomposition_from_json(grid32, dec32.to_json())
    assert back.region == dec32.region
    assert back.chains == dec32.chains
    assert back.links == dec32.links
    assert mj.verify_boman(grid32, back).ok


def test_unknown_central_ball_is_named_error(grid32, dec32):
    obj = dec32.to_json()
    obj["central"]["radius"] = 123
    with pytest.raises(UnknownBall):
        mj.decomposition_from_json(grid32, obj)


def test_non_positive_dilation_fails_certificate(grid32, dec32):
    cert = mj.verify_boman(grid32, dataclasses.replace(dec32, c1=0.0))
    assert not cert.ok
    assert cert.failing() == ("i-union", "iv-links", "parameters")
    witness = {c.name: c.witness for c in cert.conditions}
    assert witness["i-union"] == witness["iv-links"] == "no dilate by non-positive C1=0.0"
    cert = mj.verify_boman(grid32, dataclasses.replace(dec32, c2=-1.0, rho=0.0))
    assert cert.failing() == ("i-union", "ii-overlap", "v-absorption", "parameters")


@pytest.mark.parametrize("bad", [99, -1])
def test_chain_index_outside_the_family_fails_certificate(grid32, dec32, bad):
    # Chain 0 runs central -> bad -> 0 with both of its links present.  The
    # index neither raises (99) nor wraps to the last ball (-1): the three
    # conditions that read the chain fail on it.
    chains = {**dec32.chains, 0: (dec32.central, bad, 0)}
    links = {**dec32.links, (0, 1): ("p0",), (0, 2): ("p0",)}
    bad_dec = dataclasses.replace(dec32, chains=chains, links=links)
    witness = "chain of ball 0 leaves the family"
    assert _failures(grid32, bad_dec) == [
        ("iii-chains", witness),
        ("iv-links", witness),
        ("v-absorption", witness),
    ]


def _failures(space, dec):
    return [(c.name, c.witness) for c in mj.verify_boman(space, dec).conditions if not c.passed]


def test_tampered_decomposition_witnesses(grid32, dec32):
    # Every failing condition and its witness string, as the certificate prints them.
    links = dict(dec32.links)
    far = dec32.balls[-1].members[-1]
    wide = mj.ball_at(grid32, dec32.balls[0].center, 3 / 32)
    cases = [
        (dataclasses.replace(dec32, balls=(wide, *dec32.balls[1:])), [
            ("disjoint", "balls 0 and 1 intersect"),
            ("ii-overlap", "C2 dilate of ball 0 meets 24 > M=13"),
            ("iv-links", "link 0:15 has measure 3 < C3 (mu+mu) = 6"),
        ]),
        (dataclasses.replace(dec32, region=dec32.region[:-1]), [
            ("i-union", "C1 union != region, C2 union != region"),
        ]),
        (dataclasses.replace(dec32, overlap=2), [
            ("ii-overlap", "C2 dilate of ball 0 meets 7 > M=2"),
        ]),
        (dataclasses.replace(dec32, links={**links, (0, 1): (*links[(0, 1)], far)}), [
            ("iv-links", "link 0:1 leaves the C1 intersection"),
        ]),
        (dataclasses.replace(dec32, links={**links, (0, 1): links[(0, 1)][:1]}), [
            ("iv-links", "link 0:1 has measure 1 < C3 (mu+mu) = 3"),
        ]),
        (dataclasses.replace(dec32, rho=1.01), [
            ("v-absorption", "ball 0 escapes rho * ball 15"),
        ]),
    ]
    for bad, expected in cases:
        assert _failures(grid32, bad) == expected
    # Random weights: measures that are not integers.
    g = mj.grid_space(1, 32, spacing=1 / 32, weight_profile="random", seed=3)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p15", 10.0))
    short = dataclasses.replace(dec, links={**dec.links, (3, 2): dec.links[(3, 2)][:1]})
    assert _failures(g, short) == [
        ("iv-links", "link 3:2 has measure 0.930628 < C3 (mu+mu) = 3.48695")
    ]
    assert _failures(g, dataclasses.replace(dec, c3=2.5)) == [
        ("iv-links", "link 0:1 has measure 4.5651 < C3 (mu+mu) = 6.73526")
    ]


def test_global_verify_checks_the_decomposition_once(grid32, dec32, monkeypatch):
    calls = []
    verify = boman.verify_boman
    monkeypatch.setattr(boman, "verify_boman", lambda *a: calls.append(a) or verify(*a))
    f = mj.canonical_function("log_blowup", grid32)
    mj.global_jn_verify(grid32, f, dec32, 2.0, 0.0005, 0.5)
    assert len(calls) == 1
    mj.chain_ratio(grid32, f, dec32, 2.0, 0.5)
    assert len(calls) == 2
