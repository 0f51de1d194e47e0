"""Tests of the benchmark's oracles and checks; they need no medianjn.

Run from the root of the repository:

    python3 -m pytest bench/tests
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracles as orc  # noqa: E402
from checks import Checker  # noqa: E402


def line(positions):
    return orc.distances([[x] for x in positions])


def grid(dim, n):
    if dim == 1:
        return [[i + 1.0] for i in range(n)]
    return [[i + 1.0, j + 1.0] for i in range(n) for j in range(n)]


# ---------------------------------------------------------------- README examples


def test_two_point_examples():
    vals, w = np.array([0.0, 1.0]), np.ones(2)
    assert orc.maximal_median(vals, w, 0.5) == 1.0
    assert orc.median_oscillation(vals, w, 0.5) == 0.5
    assert orc.oscillation_at(vals, w, 0.5, 0.5) == 0.5
    dist = line([0.0, 1.0])
    sets = orc.member_sets(dist)
    assert sets == [(0,), (1,), (0, 1)]
    terms = [w[list(m)].sum() * orc.median_oscillation(vals[list(m)], w[list(m)], 0.5) ** 2
             for m in sets]
    assert math.sqrt(orc.interval_packing([0, 1], sets, terms)) == pytest.approx(math.sqrt(0.5))
    assert orc.doubling_constant(dist, w) == 2.0


# ---------------------------------------------------------------- closed forms


def test_doubling_closed_forms_on_integer_grids():
    assert orc.doubling_constant(orc.distances(grid(1, 20)), np.ones(20)) == 3.0
    assert orc.doubling_constant(orc.distances(grid(2, 8)), np.ones(64)) == 9.0


def test_member_sets_by_hand():
    assert orc.member_sets(line([0.0, 1.0, 3.0])) == [
        (0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)
    ]
    assert orc.member_sets(line([0.0, 1.0, 3.0]), region=[0, 1]) == [(0,), (1,), (0, 1)]


def test_one_dimensional_balls_are_runs():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 10.0, size=15)
    order = list(np.argsort(x))
    for m in orc.member_sets(line(x)):
        pos = sorted(order.index(i) for i in m)
        assert pos == list(range(pos[0], pos[0] + len(pos)))


# ---------------------------------------------------------------- oscillations


def brute_median_oscillation(vals, w, s):
    """inf over c of m^s_{|f-c|} on the pairwise-midpoint candidate set."""
    cands = {(a + b) / 2.0 for a in vals for b in vals}
    return min(orc.oscillation_at(vals, w, s, c) for c in cands)


@pytest.mark.parametrize("seed", range(30))
def test_shortest_window_matches_definition(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    vals = np.round(rng.normal(size=k), int(rng.integers(0, 3)))  # ties on purpose
    w = rng.choice([np.ones(k), rng.uniform(0.2, 2.0, size=k)])
    s = float(rng.choice([0.1, 0.25, 0.5, 0.75, 1.0]))
    assert orc.median_oscillation(vals, w, s) == pytest.approx(
        brute_median_oscillation(vals, w, s), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_q1_oscillation_is_least_mean_deviation(seed):
    rng = np.random.default_rng(seed)
    vals, w = rng.normal(size=7), rng.uniform(0.2, 2.0, size=7)
    brute = min((w * np.abs(vals - c)).sum() / w.sum() for c in vals)
    assert orc.integral_oscillation_q1(vals, w) == pytest.approx(brute, rel=1e-12)


def test_weak_lp_power():
    assert orc.weak_lp_power([1.0, -2.0], [1.0, 1.0], 1.0) == 2.0
    assert orc.weak_lp_power([0.0, 0.0], [1.0, 1.0], 2.0) == 0.0


# ---------------------------------------------------------------- packing


def exhaustive(sets, terms):
    best = 0.0
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), r):
            pts = [p for j in combo for p in sets[j]]
            if len(pts) == len(set(pts)):
                best = max(best, sum(terms[j] for j in combo))
    return best


@pytest.mark.parametrize("seed", range(20))
def test_interval_packing_matches_exhaustive(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, size=int(rng.integers(2, 8)))
    sets = orc.member_sets(line(x))
    if len(sets) > 12:
        sets = [sets[i] for i in sorted(rng.choice(len(sets), size=12, replace=False))]
    terms = list(rng.uniform(0.0, 3.0, size=len(sets)))
    order = np.argsort(x)
    assert orc.interval_packing(order, sets, terms) == pytest.approx(exhaustive(sets, terms),
                                                                     rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_milp_matches_interval_packing(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(0.0, 10.0, size=20)
    sets = orc.member_sets(line(x))
    terms = list(rng.uniform(0.0, 3.0, size=len(sets)) ** 3)
    dp = orc.interval_packing(np.argsort(x), sets, terms)
    assert orc.milp_packing(len(x), sets, terms) == pytest.approx(dp, rel=1e-12)


def test_interval_packing_rejects_non_runs():
    with pytest.raises(ValueError):
        orc.interval_packing([0, 1, 2], [(0, 2)], [1.0])


# ---------------------------------------------------------------- checks are not vacuous


def small_inputs():
    coords = [[0.0], [1.0], [3.0], [4.5]]
    return {"spaces": {"s": {"coords": coords, "weights": [1.0, 2.0, 1.0, 1.5]}},
            "functions": {"f": {"space": "s", "values": [0.0, 2.0, -1.0, 0.5]}}}


def test_checker_accepts_oracle_answers_and_flags_corruption():
    checker = Checker(small_inputs())
    sp = checker.spaces["s"]
    profile = {"c_mu": sp.c_mu(), "certificate_ok": True}
    ok = {"op": "space.doubling_profile", "ctx": {"space": "s"}, "error": None, "out": profile}
    assert checker.check(ok) == []
    assert checker.check(dict(ok, out=dict(profile, c_mu=profile["c_mu"] * 1.01)))

    ctx = {"space": "s", "function": "f", "p": 2.0, "s": 0.25}
    osc = checker.osc("f", (0, 1), "med", 0.25)
    assert osc == 1.0
    entry = {"center": "p0", "radius": 1.5, "oscillation": osc, "term": 3.0 * osc**2}
    good = {"norm": math.sqrt(entry["term"]), "total": entry["term"], "packing": [entry]}
    rec = {"op": "norms.jn_median_norm.greedy", "ctx": ctx, "error": None, "out": good}
    assert checker.check(rec) == []
    bad_term = dict(entry, term=entry["term"] * 1.01)
    assert checker.check(dict(rec, out=dict(good, packing=[bad_term])))
    overlap = [entry, dict(entry, center="p1", radius=1.5)]
    assert checker.check(dict(rec, out=dict(good, packing=overlap)))
    assert checker.check(dict(rec, error="RecursionError: too deep")) == [
        "raised RecursionError: too deep"]
