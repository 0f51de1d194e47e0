import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medianjn as mj
from medianjn.acceptance import spike_cluster_config
from medianjn.errors import (
    EmptyLevelSet,
    InvalidCenterLevel,
    InvalidLevel,
    InvalidParameter,
    InvalidS,
    NonPositiveQ,
    PreconditionViolated,
    ThresholdViolated,
)
from medianjn.space import DoublingProfile

from util import fn, two_point_space


def _profile(c_mu):
    return DoublingProfile(c_mu, np.log2(c_mu), True, ("x", 1.0, "x", 1.0), 0.0)


def test_alpha_values():
    assert mj.alpha_of(_profile(2.0), 1.0) == pytest.approx(40.0, rel=1e-12)
    assert mj.alpha_of(_profile(2.0), 1e9) == pytest.approx(20.0, rel=1e-6)
    assert mj.alpha_of(_profile(4.0), 1.0) == pytest.approx(1600.0, rel=1e-12)
    # monotone decreasing in eta
    assert mj.alpha_of(_profile(2.0), 0.5) > mj.alpha_of(_profile(2.0), 2.0)


def test_local_jn_constant_value():
    exact = 2048.0 * (3.0 + 2.0 * np.sqrt(2.0))
    assert mj.local_jn_constant(2.0, 2.0) == pytest.approx(exact, rel=1e-12)


def test_cz_family_two_point():
    sp = two_point_space()
    pair = [b for b in mj.canonical_balls(sp) if len(b.members) == 2][0]
    family = mj.cz_family(sp, pair, 1.0)
    assert sorted(b.members for b in family) == [("p0",), ("p0", "p1"), ("p1",)]
    for b in family:
        assert b.radius <= pair.radius * (1 + 1e-12)


def test_cz_family_matches_enumeration():
    g = mj.grid_space(1, 5)
    b0 = mj.ball_at(g, "p2", 1.5)
    eta = 5.0
    budget = eta * b0.radius
    family = mj.cz_family(g, b0, eta)
    # oracle: per center in B0, one ball per member-set class reachable
    # below the budget, represented by the largest admissible radius and
    # deduplicated keeping (largest radius, smallest center index)
    best = {}
    for ci in b0.idx:
        row = g.dist[ci]
        ds = np.unique(row)
        radii = [min(float(ds[k + 1]), budget) for k in range(len(ds) - 1) if ds[k] < budget]
        if budget > ds[-1]:
            radii.append(budget)
        for r in radii:
            members = tuple(int(i) for i in np.nonzero(row < r)[0])
            cur = best.get(members)
            if cur is None or (-r, ci) < cur[0]:
                best[members] = ((-r, ci), r)
    expect = {(m, info[1]) for m, info in best.items()}
    assert {(b.idx, b.radius) for b in family} == expect


def test_cz_family_tiny_eta_singletons():
    g = mj.grid_space(1, 5)
    b0 = mj.ball_at(g, "p2", 1.5)
    family = mj.cz_family(g, b0, 0.1)  # budget 0.15 < grid spacing
    assert all(len(b.members) == 1 for b in family)
    assert len(family) == b0.size


def test_median_maximal_conventions():
    g = mj.grid_space(1, 5)
    f = fn(g, [1.0, 2.0, 3.0, 4.0, 5.0])
    singletons = [mj.ball_at(g, p, 0.5) for p in ("p0", "p1")]
    assert mj.median_maximal(g, f, "p4", singletons, 0.5) == 0.0
    assert mj.median_maximal(g, f, "p1", singletons, 0.5) == 2.0
    const = fn(g, [3.0] * 5)
    assert mj.median_maximal(g, const, "p0", singletons, 0.5) == 3.0


def test_sharp_maximal_conventions():
    g = mj.grid_space(1, 5)
    const = fn(g, [3.0] * 5)
    family = mj.cz_family(g, mj.ball_at(g, "p2", 2.5), 1.0)
    assert mj.sharp_maximal(g, const, "p2", family, 0.5, 4.0) == 0.0
    f = fn(g, [0.0, 1.0, 0.0, 1.0, 0.0])
    assert mj.sharp_maximal(g, f, "p4", [], 0.5, 4.0) == 0.0
    pair = two_point_space()
    fam = mj.cz_family(pair, mj.canonical_balls(pair)[1], 1.0)
    fp = fn(pair, [0.0, 1.0])
    # pair ball: t-median is 1, |f - 1| has values (1, 0); at level 1/8 the
    # maximal median is the larger value.
    assert mj.sharp_maximal(pair, fp, "p0", fam, 0.5, 4.0) == 1.0


def test_each_parameter_is_checked_wherever_it_is_read():
    # One check per parameter, with its exception type and message, at
    # every entry point that reads it; sharp_maximal used to accept t = 1.5.
    line = mj.grid_space(1, 256, spacing=1 / 256)
    f = fn(line, np.random.default_rng(0).normal(size=256))
    b0 = mj.ball_at(line, "p128", 2.0)
    family = mj.cz_family(line, mj.ball_at(line, "p128", 4 / 256), 1.0)
    cases = [
        (InvalidParameter, "t must lie in (0, 1], got 1.5", [
            lambda: mj.sharp_maximal(line, f, "p128", family, 1.5, 4.0),
            lambda: mj.median_maximal(line, f, "p128", family, 1.5),
            lambda: mj.cz_params(line, b0, 1.0, t=1.5),
        ]),
        (InvalidS, "s must lie in (0, 1/2], got 0.75", [
            lambda: mj.bmo_median_norm(line, f, None, 0.75),
            lambda: mj.jn_median_norm(line, f, None, 2.0, 0.75),
        ]),
        (InvalidParameter, "p must exceed 1, got 1.0", [
            lambda: mj.jn_median_norm(line, f, None, 1.0, 0.25),
            lambda: mj.jn_integral_norm(line, f, None, 1.0, 0.5),
            lambda: mj.cz_params(line, b0, 1.0, p=1.0),
        ]),
        (NonPositiveQ, "q must be positive, got 0.0", [
            lambda: mj.integral_oscillation(line, f, None, 0.0),
            lambda: mj.jn_integral_norm(line, f, None, 2.0, 0.0),
        ]),
        (InvalidParameter, "eta must be positive, got 0.0", [
            lambda: mj.alpha_of(_profile(2.0), 0.0),
            lambda: mj.cz_family(line, b0, 0.0),
        ]),
    ]
    for error, message, calls in cases:
        for call in calls:
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == message


def test_decompose_spike_cluster():
    rng = np.random.default_rng(31)
    params, f, thr, height = spike_cluster_config(rng)
    lam = 0.5 * (thr + height)
    dec = mj.cz_decompose(f, params, lam)
    assert dec.certificates.ok
    e_set = set(dec.e_lambda)
    for b in dec.balls:
        assert set(b.members) <= e_set
    covered = set()
    for d in dec.cover.dilates:
        covered.update(d.members)
    assert e_set <= covered


def test_decompose_named_errors():
    g = mj.grid_space(1, 16)
    vals = np.ones(16)
    vals[7] = 30.0
    f = fn(g, vals)
    params = mj.cz_params(g, mj.ball_at(g, "p7", 2.5), eta=1.0)
    # Below the base-ball median threshold (here the max of f).
    with pytest.raises(ThresholdViolated):
        mj.cz_decompose(f, params, 5.0)
    # Above every median: the level set is empty.
    with pytest.raises(EmptyLevelSet):
        mj.cz_decompose(f, params, 50.0)


def test_nested_same_level_and_below():
    rng = np.random.default_rng(32)
    params, f, thr, height = spike_cluster_config(rng)
    lam = 0.6 * (thr + height)
    low, high, pairs = mj.cz_nested(f, params, lam, lam)
    assert len(pairs) == len(high.balls)
    low2, high2, pairs2 = mj.cz_nested(f, params, 0.5 * lam + 0.5 * thr, lam)
    assert len(pairs2) == len(high2.balls)
    assert set(high2.e_lambda) <= set(low2.e_lambda)


def test_good_lambda_preconditions():
    rng = np.random.default_rng(33)
    params, f, thr, height = spike_cluster_config(rng)
    lam = 0.5 * (thr + height / params.K)
    with pytest.raises(PreconditionViolated):
        mj.good_lambda_sides(f, params, 2.0, 0.4, lam)  # s too large
    const = fn(params.space, np.ones(params.space.n))
    with pytest.raises(PreconditionViolated):
        mj.good_lambda_sides(const, params, 2.0, params.t / params.beta * 0.9, 1.0)


def test_good_lambda_rejects_other_p():
    # K and beta were fixed from params.p, so another p would mix exponents.
    rng = np.random.default_rng(33)
    params, f, thr, height = spike_cluster_config(rng, p=2.0)
    lam = 0.5 * (thr + 0.9 * height / params.K)
    with pytest.raises(InvalidParameter, match="params.p"):
        mj.good_lambda_sides(f, params, 3.0, params.t / params.beta * 0.5, lam)


def test_good_lambda_passes():
    rng = np.random.default_rng(34)
    params, f, thr, height = spike_cluster_config(rng)
    lam = 0.5 * (thr + 0.9 * height / params.K)
    res = mj.good_lambda_sides(f, params, 2.0, params.t / params.beta * 0.999, lam)
    assert res.passed
    assert res.lhs <= res.rhs * (1 + 1e-9)


def test_local_verify_constant_passes():
    g = mj.grid_space(1, 8)
    params = mj.cz_params(g, mj.ball_at(g, "p3", 2.5), eta=1.0)
    f = fn(g, np.full(8, 2.0))
    rep = mj.local_jn_verify(f, params, 2.0, params.s0 * 0.9, 0.5)
    assert rep.passed and rep.lambda0 == 0.0
    assert all(e.lhs == 0.0 for e in rep.entries)


def test_local_verify_level_guards():
    g = mj.grid_space(1, 8)
    params = mj.cz_params(g, mj.ball_at(g, "p3", 2.5), eta=1.0)
    f = fn(g, np.arange(8, dtype=float))
    with pytest.raises(InvalidS):
        mj.local_jn_verify(f, params, 2.0, params.s0 * 2.0, 0.5)
    with pytest.raises(InvalidCenterLevel):
        mj.local_jn_verify(f, params, 2.0, params.s0 * 0.9, 0.6)


def test_local_verify_refuses_an_empty_or_non_finite_lambda_grid():
    # A NaN or infinite level used to pass with a NaN or infinite rhs, and
    # an empty grid passed with no level at all.
    g = mj.grid_space(1, 8)
    params = mj.cz_params(g, mj.ball_at(g, "p3", 2.5), eta=1.0)
    f = fn(g, np.arange(8, dtype=float))
    for grid, message in (([math.nan], "lambda levels must be finite, got nan"),
                          ([1.0, math.inf], "lambda levels must be finite, got inf"),
                          ([], "the lambda grid is empty")):
        with pytest.raises(InvalidLevel) as info:
            mj.local_jn_verify(f, params, 2.0, params.s0 * 0.9, 0.5, lambda_grid=grid)
        assert str(info.value) == message


def test_cz_params_refuses_infinite_eta():
    g = mj.grid_space(1, 8)
    with pytest.raises(InvalidParameter) as info:
        mj.cz_params(g, mj.ball_at(g, "p3", 2.5), eta=math.inf)
    assert str(info.value) == "eta must be finite, got inf"


def test_cz_params_refuses_infinite_K():
    g = mj.grid_space(1, 8)
    with pytest.raises(InvalidParameter) as info:
        mj.cz_params(g, mj.ball_at(g, "p3", 2.5), eta=1.0, K=math.inf)
    assert str(info.value) == "K must be finite, got inf"


def test_local_verify_report_json():
    g = mj.grid_space(1, 8)
    params = mj.cz_params(g, mj.ball_at(g, "p3", 2.5), eta=1.0)
    f = fn(g, np.arange(8, dtype=float))
    rep = mj.local_jn_verify(f, params, 2.0, params.s0 * 0.9, 0.5)
    payload = rep.to_json()
    for key in ("lambda0", "entries", "constant_c", "s0", "alpha"):
        assert key in payload
    assert {"lambda", "lhs", "rhs", "pass"} <= set(payload["entries"][0])


_NO_MA_SCRIPT = """
import sys
import numpy as np
import medianjn as mj
from medianjn.acceptance import spike_cluster_config

grid = mj.grid_space(2, 8)
mj.grid_boman_decomposition(grid, mj.ball_at(grid, "p0", 1000.0))
params, f, thr, height = spike_cluster_config(np.random.default_rng(31))
mj.cz_nested(f, params, thr + 0.25 * (height - thr), 0.5 * (thr + height))
print("numpy.ma" in sys.modules)
"""


def test_decompositions_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, about 10 ms inside the
    # first timed operation; grid Boman and CZ decompositions do without it.
    def run(code):
        env = dict(os.environ, PYTHONPATH=str(Path(mj.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        return out.stdout.split()[-1]

    if run("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    assert run(_NO_MA_SCRIPT) == "False"
