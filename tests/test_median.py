import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medianjn as mj
from medianjn.errors import EmptySet, InvalidS
from medianjn.median import _shorth_rows

from util import fn, line_space, packed, random_space, two_point_space


def test_indicator_half_median():
    # Discretized indicator of the upper half with equal masses: the median
    # interval is [0, 1] and the maximal 1/2-median is its top.
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    assert mj.maximal_median(sp, f, None, 0.5) == 1.0
    assert mj.is_s_median(sp, 0.5, f, None, 0.5)
    assert not mj.is_s_median(sp, 2.0, f, None, 0.5)


def test_constant_function():
    sp = two_point_space()
    f = fn(sp, [5.0, 5.0])
    for s in (0.1, 0.5, 1.0):
        assert mj.maximal_median(sp, f, None, s) == 5.0


def test_weighted_threshold_enumeration():
    sp = mj.build_space(["a", "b", "c"], [1, 1, 2], coords=[[0], [1], [2]])
    f = fn(sp, [1.0, 2.0, 3.0])
    # mu(A) = 4; the strict tail first drops below 2 at the value 3.
    assert mj.maximal_median(sp, f, None, 0.5) == 3.0


def test_s_one_is_min_and_singleton_is_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sp = random_space(rng, max_n=9)
        vals = rng.normal(size=sp.n)
        f = fn(sp, vals)
        assert mj.maximal_median(sp, f, None, 1.0) == vals.min()
        x = sp.point_ids[int(rng.integers(0, sp.n))]
        s = float(rng.uniform(0.01, 1.0))
        assert mj.maximal_median(sp, f, [x], s) == vals[sp.index(x)]


def test_maximal_median_is_s_median():
    rng = np.random.default_rng(6)
    for _ in range(200):
        sp = random_space(rng, max_n=10)
        f = fn(sp, np.round(rng.normal(size=sp.n), 1))
        s = float(rng.uniform(0.02, 1.0))
        m = mj.maximal_median(sp, f, None, s)
        assert mj.is_s_median(sp, m, f, None, s)


def test_errors():
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    with pytest.raises(InvalidS):
        mj.maximal_median(sp, f, None, 0.0)
    with pytest.raises(InvalidS):
        mj.maximal_median(sp, f, None, 1.5)
    with pytest.raises(EmptySet):
        mj.maximal_median(sp, f, [], 0.5)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    s=st.floats(0.01, 1.0),
    shift=st.floats(-20, 20),
)
def test_shift_property(vals, s, shift):
    w = np.ones(len(vals))
    v = np.array(vals)
    m = mj.weighted_maximal_median(v, w, s)
    assert mj.weighted_maximal_median(v + shift, w, s) == m + shift


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    s=st.floats(0.01, 0.99),
    bump=st.floats(0.0, 0.9),
)
def test_level_monotonicity(vals, s, bump):
    w = np.ones(len(vals))
    v = np.array(vals)
    s_hi = min(1.0, s + bump)
    assert mj.weighted_maximal_median(v, w, s_hi) <= mj.weighted_maximal_median(v, w, s)


def test_oscillation_two_points():
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    assert mj.median_oscillation(sp, f, None, 0.5) == (0.5, 0.5)


def test_oscillation_constant():
    sp = two_point_space()
    f = fn(sp, [3.0, 3.0])
    assert mj.median_oscillation(sp, f, None, 0.5) == (0.0, 3.0)


def test_oscillation_degenerates_above_half():
    # Two-valued samples at a level above 1/2: centering on the heavier
    # value drives the oscillation to zero.
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    value, c = mj.median_oscillation(sp, f, None, 0.6)
    assert value == 0.0 and c == 0.0


def test_oscillation_grid_oracle_spot():
    from medianjn.acceptance import _median_osc_grid_oracle

    rng = np.random.default_rng(8)
    for _ in range(50):
        sp = random_space(rng, max_n=9)
        f = fn(sp, rng.normal(size=sp.n))
        s = float(rng.uniform(0.05, 1.0))
        mine = mj.median_oscillation(sp, f, None, s)[0]
        oracle = _median_osc_grid_oracle(f.values, sp.weights, s)
        span = float(f.values.max() - f.values.min())
        assert abs(mine - oracle) <= 1e-6 * max(span, 1e-9)


def _pairwise_midpoint_oscillation(vals, w, s):
    """The former exhaustive scan: every pairwise midpoint as a candidate c."""
    u = np.unique(vals)
    if len(u) == 1:
        return (0.0, float(u[0]))
    if s * w.sum() <= w.min():
        return (float((u[-1] - u[0]) / 2.0), float((u[0] + u[-1]) / 2.0))
    cands = np.unique((u[:, None] + u[None, :]).ravel() / 2.0)
    rows = np.abs(vals[None, :] - cands[:, None])
    order = np.argsort(rows, axis=1)
    tails = w.sum() - np.cumsum(w[order], axis=1)
    meds = np.take_along_axis(rows, order, axis=1)[
        np.arange(len(cands)), np.argmax(tails < s * w.sum(), axis=1)
    ]
    i = int(np.argmin(meds))
    return (float(meds[i]), float(cands[i]))


def test_oscillation_matches_pairwise_midpoint_scan():
    # Ties (rounded and integer values), integer, dyadic and real weights,
    # s over (0, 1].  The value is bit-identical; c may differ only by rounding
    # where two value pairs share a midpoint, and it must still attain the
    # value.
    rng = np.random.default_rng(41)
    for trial in range(1500):
        n = int(rng.integers(1, 26))
        vals = [
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),
            rng.integers(0, 5, size=n).astype(float),
            np.round(rng.uniform(-3.0, 3.0, size=n), 2),
        ][trial % 4]
        w = [
            rng.integers(1, 5, size=n).astype(float),
            rng.uniform(0.2, 2.0, size=n),
            np.ones(n),
            rng.integers(1, 10, size=n) / 8.0,
        ][trial % 4]
        s = float(rng.choice([1.0, 0.75, 0.5, 0.3, 0.25, 0.1, rng.uniform(0.01, 1.0)]))
        sp = line_space(range(n), weights=list(w))
        value, c = mj.median_oscillation(sp, vals, None, s)
        old_value, old_c = _pairwise_midpoint_oscillation(vals, w, s)
        assert value == old_value, (trial, vals, w, s)
        if c != old_c:
            assert trial % 4 in (1, 3)  # decimal data, where midpoints coincide
            assert abs(c - old_c) <= np.spacing(np.abs(vals).max())
            assert mj.weighted_maximal_median(np.abs(vals - c), w, s) == value


@pytest.mark.parametrize(
    "vals, w, s, expected",
    [
        ([1.0, 4.0, 1.0, 3.0], [0.5, 0.1, 0.30000000000000004, 0.1], 0.2, (0.0, 1.0)),
        ([5.0, 1.0, 2.0, 0.0], [4 / 3, 1.0, 3.0, 4 / 3], 0.2, (1.0, 1.0)),
    ],
)
def test_oscillation_rounded_threshold(vals, w, s, expected):
    # Outside masses that round onto s * mu(B): windows pass or fail by the
    # same float test total - inside < s * total as the midpoint scan.
    vals, w = np.array(vals), np.array(w)
    sp = line_space(range(len(vals)), weights=list(w))
    assert mj.median_oscillation(sp, vals, None, s) == expected
    assert _pairwise_midpoint_oscillation(vals, w, s) == expected


def test_oscillation_shorth_closed_form():
    # Values 0..n-1 with unit weights at s = 1/2: the shortest window with
    # mass above n/2 spans n/2 + 1 values, so the optimum is n/4 and the
    # leftmost window [0, n/2] centers it at n/4.  The pairwise scan would
    # need an (2n - 1) x n candidate matrix here.
    n = 4096
    # Median oscillation reads only the weights; a zero-stride placeholder
    # keeps the n x n metric out of memory.
    sp = mj.Space(
        point_ids=tuple(f"p{i}" for i in range(n)),
        weights=np.ones(n),
        dist=np.broadcast_to(1.0, (n, n)),
    )
    assert mj.median_oscillation(sp, np.arange(n, dtype=float), None, 0.5) == (1024.0, 1024.0)


def _old_shortest_window(u, mass, total, s):
    """The former two-pointer scan over sorted distinct values."""
    vals = u.tolist()
    cum = np.cumsum(mass).tolist()
    thr = s * total
    best = (math.inf, 0.0)
    below = 0.0
    j = 0
    for i, lo in enumerate(vals):
        while j < len(vals) and not total - (cum[j] - below) < thr:
            j += 1
        if j == len(vals):
            break
        mid = (lo + vals[j]) / 2.0
        width = max(abs(lo - mid), abs(vals[j] - mid))
        if width < best[0]:
            best = (width, mid)
        below = cum[i]
    return best


def _old_oscillation(values, weights, idx, s):
    """The former per-ball path: np.unique, bincount and the light-atom shortcut."""
    vals, w = values[list(idx)], weights[list(idx)]
    u, inverse = np.unique(vals, return_inverse=True)
    if len(u) == 1:
        return (0.0, float(u[0]))
    if s * w.sum() <= w.min():
        return (float((u[-1] - u[0]) / 2.0), float((u[0] + u[-1]) / 2.0))
    return _old_shortest_window(u, np.bincount(inverse, weights=w), float(w.sum()), s)


def test_batched_kernel_matches_per_ball_path():
    # Per ball: osc, mu(B) and mu * osc**p as float hex, c under == (the
    # sign of a zero c followed numpy's unstable sort before; now it is the
    # sign of the lowest-index member).  Families: canonical balls of random
    # spaces and random rows of sizes around the pairwise-sum block edges 8
    # and 128; values with ties (integers, tenths, thirds), with both signed
    # zeros, and constant rows; s = 1 and s below the lightest atom.
    rng = np.random.default_rng(43)
    checked = 0
    for trial in range(180):
        kind = trial % 6
        weights = [
            rng.uniform(0.2, 2.0, size=260),
            rng.integers(1, 10, size=260) / 10.0,
            np.ones(260),
            rng.integers(1, 4, size=260) / 3.0,
        ][trial % 4]
        if trial % 3 == 0:
            sp = random_space(rng, max_n=16, dim=1 + trial % 2)
            n = sp.n
            rows = [b.idx for b in mj.canonical_balls(sp)]
            weights = sp.weights
        elif trial % 3 == 1:
            n = int(rng.integers(130, 260))
            sizes = rng.choice([1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 130, n], size=40)
            rows = [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist())) for k in sizes]
        else:
            # Small tie-heavy rows, where the order in which equal values'
            # weights are summed can decide a window at the threshold.
            n = 40
            rows = [tuple(sorted(rng.choice(n, size=int(rng.integers(2, 30)), replace=False).tolist()))
                    for _ in range(200)]
            weights = [rng.integers(1, 10, size=n) / 10.0, rng.integers(1, 4, size=n) / 3.0][trial % 2]
            kind = 1
        values = [
            rng.normal(size=n),
            rng.integers(0, 4, size=n).astype(float),
            np.round(rng.normal(size=n), 1),
            np.round(rng.uniform(-3.0, 3.0, size=n) * 3.0) / 3.0,
            np.where(rng.random(n) < 0.4, np.where(rng.random(n) < 0.5, -0.0, 0.0),
                     rng.integers(-1, 2, size=n).astype(float)),
            np.full(n, float(rng.normal())),
        ][kind]
        s = float(rng.choice([1.0, 0.5, 0.3, 0.25, 0.2, 0.1, 1e-3, rng.uniform(0.01, 1.0)]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        osc, c, mu = _shorth_rows(values, weights, *packed(rows, n), s)
        for b, idx in enumerate(rows):
            old_osc, old_c = _old_oscillation(values, weights, idx, s)
            old_mu = float(weights[list(idx)].sum())
            assert float(osc[b]).hex() == old_osc.hex(), (trial, b)
            assert float(c[b]) == old_c, (trial, b)
            assert float(mu[b]).hex() == old_mu.hex(), (trial, b)
            term = float(mu[b]) * float(osc[b]) ** p
            assert term.hex() == (old_mu * old_osc**p).hex(), (trial, b)
            checked += 1
    assert checked > 15000


def test_non_finite_raw_values_rejected():
    g = mj.grid_space(1, 5)
    for bad in (np.nan, np.inf, -np.inf):
        f = np.array([1.0, bad, 2.0, 3.0, 0.0])
        calls = [
            lambda: mj.maximal_median(g, f, None, 0.5),
            lambda: mj.median_oscillation(g, f, None, 0.25),
            lambda: mj.bmo_median_norm(g, f, None, 0.25),
            lambda: mj.jn_median_norm(g, f, None, 2.0, 0.25),
        ]
        for call in calls:
            with pytest.raises(mj.errors.InvalidParameter, match="must be finite"):
                call()


def test_function_loading():
    sp = two_point_space()
    f = mj.SampleFunction.from_mapping(sp, {"p0": 1.0, "p1": 2.0})
    assert list(f.values) == [1.0, 2.0]
    with pytest.raises(mj.errors.InvalidParameter):
        mj.SampleFunction.from_mapping(sp, {"p0": 1.0})
    with pytest.raises(mj.errors.InvalidParameter):
        mj.SampleFunction.from_values(sp, [np.inf, 0.0])
    back = mj.SampleFunction.from_json(sp, f.to_json(sp))
    assert np.array_equal(back.values, f.values)


def _old_weighted_maximal_median(values, weights, s):
    """The former 1-D kernel of ``weighted_maximal_median``."""
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    total = w.sum()
    tails = total - np.cumsum(w)  # mass strictly above each sorted position
    j = int(np.argmax(tails < s * total))
    return float(v[j])


def test_weighted_maximal_median_matches_the_former_1d_kernel():
    # Tied rows draw few values, signed zeros among them, and weights in
    # tenths and thirds, so that ties of value and of mass both occur.
    rng = np.random.default_rng(18)
    levels = (0.5, 1.0, 0.25, 1 / 3, 0.1)
    for trial in range(4000):
        k = int(rng.integers(1, 200 if trial % 5 == 0 else 24))
        if trial % 2:
            values = rng.choice([-2.0, -0.0, 0.0, 1.0, 1.5], size=k)
            weights = rng.choice([0.1, 0.2, 0.3, 1 / 3, 1.0], size=k)
        else:
            values = rng.normal(size=k)
            weights = rng.uniform(0.1, 2.0, size=k)
        s = levels[trial % len(levels)] if trial % 3 else float(rng.uniform(1e-3, 1.0))
        got = mj.weighted_maximal_median(values, weights, s)
        assert float.hex(got) == float.hex(_old_weighted_maximal_median(values, weights, s))


def test_from_mapping_reports_missing_and_extra_ids():
    sp = mj.grid_space(1, 3)
    with pytest.raises(mj.errors.InvalidParameter, match=r"missing \['p2'\], extra \['q'\]"):
        mj.SampleFunction.from_mapping(sp, {"p0": 1.0, "p1": 2.0, "q": 3.0})
    f = mj.SampleFunction.from_mapping(sp, {"p2": 3.0, "p0": 1.0, "p1": 2.0})
    assert f.values.tolist() == [1.0, 2.0, 3.0]
