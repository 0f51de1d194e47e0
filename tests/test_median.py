import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medianjn as mj
from medianjn.errors import EmptySet, InvalidS
from medianjn import acceptance
from medianjn.median import _maximal_median_rows, _shorth_rows
from medianjn.space import _member_matrix

from util import family_of, fn, line_space, packed, random_space, two_point_space


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


@pytest.mark.parametrize(
    "vals, s, expected, pinned",
    [
        # Below the lightest atom: the midrange (low + high) / 2 overflowed.
        ((1e308, 1.7e308), 0.25, (3.5e307, 1.35e308),
         ("0x1.8ebbb5516e5acp+1021", "0x1.807e25b31820bp+1023")),
        # Below the lightest atom: the half-range (high - low) / 2 overflowed.
        ((-1e308, 1.7e308), 0.25, (1.35e308, 3.5e307),
         ("0x1.807e25b31820bp+1023", "0x1.8ebbb5516e5acp+1021")),
        # The shortest window's midpoint overflowed, so every window read inf.
        ((1e308, 1.5e308, 1.7e308), 0.5, (1e307, 1.6e308),
         ("0x1.c7b1f3cac7430p+1019", "0x1.c7b1f3cac7433p+1023")),
        # The shortest window's midpoint overflowed and a longer window won.
        ((-1.7e308, 1.5e308, 1.7e308), 0.5, (1e307, 1.6e308),
         ("0x1.c7b1f3cac7430p+1019", "0x1.c7b1f3cac7433p+1023")),
    ],
    ids=["midrange", "half-range", "window", "longer-window"],
)
def test_oscillation_midpoints_do_not_overflow(vals, s, expected, pinned):
    sp = line_space(range(len(vals)))
    got = mj.median_oscillation(sp, fn(sp, vals), None, s)
    for value, want in zip(got, expected):
        assert abs(value - want) <= 1e-15 * abs(want)
    assert tuple(value.hex() for value in got) == pinned


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


def _former_shorth_rows(values, weights, words, sizes, s):
    """The former padded kernel: a stable sort per row, bisection over every cell."""
    block_elems = 1 << 14
    sizes = np.asarray(sizes, dtype=np.intp)
    m = len(sizes)
    osc, c, mu = np.empty(m), np.empty(m), np.empty(m)
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    a = 0
    while a < m:
        b = m
        while b - a > 1 and (b - a) * ordered[b - 1] > block_elems:
            b = a + max(1, block_elems // int(ordered[b - 1]))
        sel = by_size[a:b]
        members = np.flatnonzero(_member_matrix(words[sel], len(values))) % len(values)
        osc[sel], c[sel], mu[sel] = _former_shorth_block(values, weights, members, ordered[a:b], s)
        a = b
    return osc, c, mu


def _former_shorth_block(values, weights, members, sizes, s):
    r, k = len(sizes), int(sizes[-1])
    rows = np.arange(r)
    col = np.arange(k)
    base = (rows * k)[:, None]
    pad = col >= sizes[:, None]
    pts = np.zeros((r, k), dtype=np.intp)
    pts[~pad] = members
    mu, w_min = np.empty(r), np.empty(r)
    cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), r]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = weights[pts[lo:hi, : sizes[lo]]]
        mu[lo:hi] = part.sum(axis=1)
        w_min[lo:hi] = part.min(axis=1)
    v = np.where(pad, np.inf, values[pts])
    order = np.argsort(v, axis=1, kind="stable") + base
    sv = v.ravel()[order]
    sw = np.where(pad, 0.0, weights[pts]).ravel()[order]
    step = sv[:, 1:] != sv[:, :-1]
    group = np.zeros((r, k), dtype=np.intp)
    np.cumsum(step, axis=1, out=group[:, 1:])
    n_distinct = group[rows, sizes - 1] + 1
    mass = np.bincount((group + base).ravel(), weights=sw.ravel(), minlength=r * k)
    cum = np.cumsum(mass.reshape(r, k), axis=1)
    below = np.zeros((r, k))
    below[:, 1:] = cum[:, :-1]
    u = np.repeat(sv[:, :1], k, axis=1)
    first = np.ones((r, k), dtype=bool)
    first[:, 1:] = step
    first &= ~pad
    fr, fc = np.nonzero(first)
    u[fr, group[fr, fc]] = sv[fr, fc]
    total = mu[:, None]
    thr = (s * mu)[:, None]
    lo = np.broadcast_to(col, (r, k)).copy()
    hi = np.broadcast_to(n_distinct[:, None], (r, k)).copy()
    for _ in range(k.bit_length()):
        mid = (lo + hi) >> 1
        ok = total - (cum.ravel()[np.minimum(mid, k - 1) + base] - below) < thr
        active = lo < hi
        np.copyto(hi, mid, where=active & ok)
        np.copyto(lo, mid + 1, where=active & ~ok)
    valid = lo < n_distinct[:, None]
    top = u.ravel()[np.minimum(lo, k - 1) + base]
    mid_v = (u + top) / 2.0
    width = np.where(valid, np.maximum(np.abs(u - mid_v), np.abs(top - mid_v)), np.inf)
    best = width.argmin(axis=1)
    osc = width[rows, best]
    c = mid_v[rows, best]
    low, high = u[:, 0], u[rows, n_distinct - 1]
    light = s * mu <= w_min
    osc = np.where(light, (high - low) / 2.0, osc)
    c = np.where(light, (low + high) / 2.0, c)
    single = n_distinct == 1
    osc = np.where(single, 0.0, osc)
    c = np.where(single, low, c)
    return osc, c, mu


def _hex(arr):
    return [float(x).hex() for x in arr]


def _assert_matches_former_kernel(values, weights, words, sizes, s, context):
    """The kernel, on the whole family and on single rows, against the former kernel in hex.

    Hex tells the two signed zeros apart, which == does not.  Returns the
    family result.
    """
    got = _shorth_rows(values, weights, words, sizes, s)
    want = _former_shorth_rows(values, weights, words, sizes, s)
    for name, g, w in zip(("osc", "c", "mu"), got, want):
        assert _hex(g) == _hex(w), (context, name)
    for b in {0, len(sizes) // 2, len(sizes) - 1}:
        one = _shorth_rows(values, weights, words[b : b + 1], [sizes[b]], s)
        assert [_hex(x)[0] for x in one] == [_hex(x)[b] for x in want], (context, b)
    return got


def _kernel_values(rng, kind, n):
    """Generic values, ties (integers, tenths, thirds), both signed zeros, or one constant."""
    return [
        rng.normal(size=n),
        rng.integers(0, 4, size=n).astype(float),
        np.round(rng.normal(size=n), 1),
        np.round(rng.uniform(-3.0, 3.0, size=n) * 3.0) / 3.0,
        np.where(rng.random(n) < 0.4, np.where(rng.random(n) < 0.5, -0.0, 0.0),
                 rng.integers(-1, 2, size=n).astype(float)),
        np.full(n, float(rng.normal())),
    ][kind]


def test_batched_kernel_matches_per_ball_path():
    # Per ball: osc, mu(B) and mu * osc**p as float hex, c under == (the
    # sign of a zero c followed numpy's unstable sort in the per-ball path;
    # the kernel takes the sign of the lowest-index member).  Every call is
    # also checked in hex, c's zero sign included, against the former padded
    # kernel, on the family and on one-row calls.  Families: canonical
    # balls of random spaces and random rows of sizes around the
    # pairwise-sum block edges 8 and 128; values with ties (integers,
    # tenths, thirds), with both signed zeros, and constant rows; s = 1 and
    # s below the lightest atom.
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
        values = _kernel_values(rng, kind, n)
        s = float(rng.choice([1.0, 0.5, 0.3, 0.25, 0.2, 0.1, 1e-3, rng.uniform(0.01, 1.0)]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        osc, c, mu = _assert_matches_former_kernel(values, weights, *packed(rows, n), s, trial)
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


def test_kernel_matches_the_former_kernel_on_larger_spaces():
    # Canonical families of spaces of 65-130 points, whose member rows take
    # two or three 64-bit words, against the former padded kernel in hex;
    # s = 1, s = 1/4 and an s with s * mu(B) below every ball's lightest
    # atom.  The last kind of values is zeros of both signs only, so every
    # ball is a single value and its c is the sign of its lowest-index point.
    rng = np.random.default_rng(19)
    checked = 0
    for trial in range(14):
        sp = acceptance.random_space(rng, min_n=65, max_n=130, dim=1 + trial % 2,
                                     weight_lo=[0.2, 1.0][trial % 2], weight_hi=2.0)
        family = family_of(sp)
        if trial % 7 < 6:
            values = _kernel_values(rng, trial % 7, sp.n)
        else:
            values = np.where(rng.random(sp.n) < 0.5, -0.0, 0.0)
        light = 0.5 * float(sp.weights.min() / sp.weights.sum())
        for s in (1.0, 0.25, light):
            _assert_matches_former_kernel(values, sp.weights, family.words, family.sizes, s, trial)
            checked += len(family)
    assert checked > 50000


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
    """The former 1-D kernel of ``weighted_maximal_median``, in stable sorted order."""
    order = np.argsort(values, kind="stable")
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


def _stable_maximal_median(values, weights, s):
    """Maximal s-median with the members sorted by Python's stable sort, equal values in index order."""
    order = sorted(range(len(values)), key=values.__getitem__)
    w = np.array([weights[i] for i in order])
    total = w.sum()
    tails = (total - np.cumsum(w)).tolist()
    return next(values[i] for i, tail in zip(order, tails) if tail < s * total)


def test_maximal_median_ties_keep_index_order():
    # The default argsort may reorder equal values (it did on AVX-512 even
    # at k = 8), which moved the running sums and here the answer: 1.0.
    values = [2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    weights = [1.4, 0.8, 1.4, 1.8, 0.5, 1.8, 1.6, 1.2, 0.3, 0.4, 0.4, 2.0, 0.2, 1.0]
    assert _stable_maximal_median(values, weights, 0.5) == 2.0
    assert mj.weighted_maximal_median(np.array(values), np.array(weights), 0.5) == 2.0
    rng = np.random.default_rng(0)
    for k in range(8, 40):
        values = rng.integers(0, 3, size=(60, k)).astype(float)
        weights = rng.integers(1, 21, size=(60, k)) / 10.0
        got = _maximal_median_rows(values, weights, 0.5).tolist()
        for row, value in enumerate(got):
            assert value == _stable_maximal_median(values[row].tolist(), weights[row].tolist(), 0.5)


def test_padded_maximal_median_rows_match_each_row_in_hex():
    # Rows of sizes straddling 8, 16, 128 and 129 in one padded block, as
    # space._row_blocks lays them out: value +inf and weight 0 after each
    # row's own entries.  Rows hold generic values, ties with signed zeros,
    # or near-equal weights; s = 1e-6 lies below every lightest weight
    # share, and at s = 1e-300 some rows pass no tail (the running sum ends
    # below the pairwise total) and give their first sorted value.
    rng = np.random.default_rng(23)
    sizes, rows = [], []
    for k in (129, 1, 8, 128, 9, 2, 16, 127, 7, 17, 15, 129):
        for kind in range(3):
            if kind == 0:
                values, weights = rng.normal(size=k), rng.uniform(0.1, 2.0, size=k)
            elif kind == 1:
                values = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.0], size=k)
                weights = rng.integers(1, 21, size=k) / 10.0
            else:
                values = rng.integers(0, 4, size=k).astype(float)
                weights = 1.0 + rng.uniform(-1e-9, 1e-9, size=k)
            sizes.append(k)
            rows.append((values, weights))
    width = max(sizes)
    block_v, block_w = np.full((len(rows), width), np.inf), np.zeros((len(rows), width))
    for i, (values, weights) in enumerate(rows):
        block_v[i, : len(values)], block_w[i, : len(weights)] = values, weights
    no_tail = 0
    for s in (0.5, 0.25, 1e-6, 1e-300):
        got = _maximal_median_rows(block_v, block_w, s, sizes).tolist()
        for value, (values, weights) in zip(got, rows):
            assert value.hex() == mj.weighted_maximal_median(values, weights, s).hex()
            ordered = weights[np.argsort(values, kind="stable")]
            if ordered.sum() - np.cumsum(ordered)[-1] >= s * ordered.sum():
                assert value == values.min()
                no_tail += 1
    assert no_tail > 0


def test_from_mapping_reports_missing_and_extra_ids():
    sp = mj.grid_space(1, 3)
    with pytest.raises(mj.errors.InvalidParameter, match=r"missing \['p2'\], extra \['q'\]"):
        mj.SampleFunction.from_mapping(sp, {"p0": 1.0, "p1": 2.0, "q": 3.0})
    f = mj.SampleFunction.from_mapping(sp, {"p2": 3.0, "p0": 1.0, "p1": 2.0})
    assert f.values.tolist() == [1.0, 2.0, 3.0]
