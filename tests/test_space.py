import math

import numpy as np
import pytest

import medianjn as mj
from medianjn import acceptance
from medianjn.errors import (
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

from medianjn.space import (
    FULL_BALL_BUMP,
    MIN_DOUBLING,
    SINGLETON_SPACE_RADIUS,
    _canonical_family,
    _make_ball,
    _prefix_family,
    _size_blocks,
)

from util import line_space, random_space, two_point_space


def test_build_from_coords():
    sp = two_point_space()
    assert sp.total_measure == 2.0
    assert sp.dist[0, 1] == 1.0


def test_build_from_matrix():
    sp = mj.build_space(["a", "b"], [1, 2], distances=[[0, 1], [1, 0]])
    assert sp.total_measure == 3.0


def test_zero_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        mj.build_space(["a", "b"], [1, 0], coords=[[0.0], [1.0]])


def test_asymmetric_matrix_rejected():
    with pytest.raises(AsymmetricMetric):
        mj.build_space(["a", "b"], [1, 1], distances=[[0, 1], [2, 0]])


def test_small_asymmetry_averaged():
    sp = mj.build_space(["a", "b"], [1, 1], distances=[[0, 1], [1 + 4e-13, 0]])
    assert sp.dist[0, 1] == sp.dist[1, 0]


def test_triangle_violation_reports_triple():
    bad = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(TriangleViolation):
        mj.build_space(["a", "b", "c"], [1, 1, 1], distances=bad)


def test_ball_strict_inequality():
    g = mj.grid_space(1, 5)
    assert mj.ball_at(g, "p2", 1.0).members == ("p2",)
    assert mj.ball_at(g, "p2", 1.5).members == ("p1", "p2", "p3")


def test_ball_errors():
    g = mj.grid_space(1, 5)
    with pytest.raises(NonPositiveRadius):
        mj.ball_at(g, "p2", 0.0)
    with pytest.raises(UnknownCenter):
        mj.ball_at(g, "nope", 1.0)
    # A JSON center that is not a string: a list is not even hashable.
    for center in (["p2"], 2, None, {"id": "p2"}):
        with pytest.raises(UnknownCenter):
            mj.ball_at(g, center, 1.0)


@pytest.mark.parametrize("radius", ["0.5", None, [1.0], True, False, np.True_])
def test_non_numeric_radius_is_invalid_parameter(radius):
    # A JSON radius of "0.5" or true reaches ball_at unconverted.
    g = mj.grid_space(1, 5)
    with pytest.raises(InvalidParameter, match="real number"):
        mj.ball_at(g, "p2", radius)


def test_numeric_radius_types_are_accepted():
    g = mj.grid_space(1, 5)
    for radius in (2, 1.5, np.int64(2), np.float32(1.5), np.float64(1.5)):
        assert mj.ball_at(g, "p2", radius).members == ("p1", "p2", "p3")
    with pytest.raises(NonPositiveRadius):
        mj.ball_at(g, "p2", float("nan"))


def test_dilate():
    g = mj.grid_space(1, 5)
    b = mj.ball_at(g, "p2", 1.0)
    assert mj.dilate(g, b, 1.0).members == b.members
    assert mj.dilate(g, b, 2.0).members == ("p1", "p2", "p3")
    assert mj.dilate(g, b, 5.0).members == ("p0", "p1", "p2", "p3", "p4")
    with pytest.raises(NonPositiveDilation):
        mj.dilate(g, b, 0.0)


def test_canonical_balls_two_point():
    sp = two_point_space()
    balls = mj.canonical_balls(sp)
    assert sorted(b.members for b in balls) == [("p0",), ("p0", "p1"), ("p1",)]


def test_canonical_balls_single_point():
    sp = mj.build_space(["a"], [1.0], coords=[[0.0]])
    balls = mj.canonical_balls(sp)
    assert len(balls) == 1 and balls[0].radius > 0.0


def test_canonical_balls_distinct_and_complete():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sp = random_space(rng, max_n=9)
        balls = mj.canonical_balls(sp)
        member_sets = [b.idx for b in balls]
        assert len(member_sets) == len(set(member_sets))
        # Every ball of the space realizes exactly one canonical member set.
        for center in sp.point_ids:
            for r in np.unique(sp.dist[sp.index(center)])[1:]:
                got = mj.ball_at(sp, center, float(r) * 1.0).idx
                assert sum(1 for m in member_sets if m == got) == 1


def test_canonical_balls_region_filter():
    g = mj.grid_space(1, 5)
    balls = mj.canonical_balls(g, ["p0", "p1"])
    for b in balls:
        assert set(b.members) <= {"p0", "p1"}
    with pytest.raises(EmptyRegion):
        mj.canonical_balls(g, [])


def test_integer_subset_out_of_range():
    sp = line_space([0.0, 1.0, 2.0])
    f = mj.SampleFunction.from_values(sp, [1.0, 2.0, 3.0])
    calls = [
        lambda bad: mj.maximal_median(sp, f, bad, 0.5),
        lambda bad: mj.lp_norm(sp, f, bad, 2.0),
        lambda bad: mj.canonical_balls(sp, bad),
    ]
    for call in calls:
        for bad in ([-1], [-3], [7], [0, 3]):
            with pytest.raises(UnknownCenter):
                call(bad)
    assert mj.maximal_median(sp, f, [2, np.int64(0)], 0.5) == 3.0
    assert mj.lp_norm(sp, f, [0], 2.0) == 1.0


def test_radius_monotonicity():
    rng = np.random.default_rng(11)
    sp = random_space(rng, max_n=10)
    for _ in range(50):
        center = sp.point_ids[int(rng.integers(0, sp.n))]
        r1 = float(rng.uniform(0.05, 8.0))
        r2 = r1 + float(rng.uniform(0.0, 4.0))
        assert set(mj.ball_at(sp, center, r1).idx) <= set(mj.ball_at(sp, center, r2).idx)


def test_dilation_consistency():
    rng = np.random.default_rng(12)
    sp = random_space(rng, max_n=10)
    for _ in range(50):
        b = mj.ball_at(
            sp,
            sp.point_ids[int(rng.integers(0, sp.n))],
            float(rng.uniform(0.1, 4.0)),
        )
        a, c = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        lhs = mj.dilate(sp, mj.dilate(sp, b, a), c)
        rhs = mj.ball_at(sp, b.center, (a * c) * b.radius)
        assert lhs.idx == rhs.idx


def test_doubling_examples():
    single = mj.build_space(["a"], [2.0], coords=[[0.0]])
    assert mj.doubling_profile(single).c_mu == pytest.approx(1.0 + 2.0**-20)
    assert mj.doubling_profile(two_point_space()).c_mu == 2.0
    assert mj.doubling_profile(mj.grid_space(1, 5)).c_mu == 3.0


def test_doubling_certificate_random():
    rng = np.random.default_rng(13)
    for _ in range(15):
        sp = random_space(rng, max_n=12, dim=int(rng.integers(1, 3)))
        prof = mj.doubling_profile(sp)
        assert prof.certificate_ok, prof.worst_quadruple
        assert prof.c_mu >= 2.0  # any two-point doubling forces at least 2


def test_doubling_counts_every_center():
    # B(p6, 1.10934) has mu(2B)/mu(B) = 4.5907, but its member set is kept
    # by canonical_balls only as a ball around p5, whose doubled ball is
    # smaller.
    rng = np.random.default_rng(0)
    spaces = [acceptance.random_space(rng, max_n=12, min_n=3) for _ in range(9)]
    assert mj.doubling_profile(spaces[8]).c_mu == pytest.approx(4.590713948414572, rel=1e-12)


def test_ball_fields_past_one_word():
    # 72 points, so member rows need two 64-bit words.
    rng = np.random.default_rng(14)
    sp = random_space(rng, min_n=72, max_n=72, dim=2)
    balls = mj.canonical_balls(sp)
    for b in balls:
        assert b.members == tuple(sp.point_ids[i] for i in b.idx)


def _old_center_radii(space, center_idx):
    """The former ``space.center_radii``: d_{k+1} per prefix, then d_max * bump."""
    ds = np.unique(space.dist[center_idx])
    if len(ds) == 1:
        return np.array([SINGLETON_SPACE_RADIUS])
    return np.concatenate([ds[1:], [ds[-1] * FULL_BALL_BUMP]])


def _old_center_balls(space, center_idx, budget=None):
    """The former per-center radius loop, one ``_make_ball`` call per radius."""
    ds = np.unique(space.dist[center_idx])
    if budget is None:
        return [_make_ball(space, center_idx, r) for r in _old_center_radii(space, center_idx)]
    radii = [min(float(upper), budget) for k, upper in enumerate(ds[1:]) if ds[k] < budget]
    if budget > ds[-1]:
        radii.append(float(budget))
    return [_make_ball(space, center_idx, r) for r in radii]


def _old_distinct_balls(pairs, rank):
    """The former dedup dict over (center index, ball) pairs."""
    best = {}
    for ci, ball in pairs:
        key = rank(ci, ball)
        prev = best.get(ball.idx)
        if prev is None or key < prev[0]:
            best[ball.idx] = (key, ci, ball)
    return tuple(e[2] for e in sorted(best.values(), key=lambda e: (e[1], e[2].radius)))


def _old_canonical_balls(space, region_idx):
    outside = (1 << space.n) - 1
    for i in region_idx:
        outside ^= 1 << i
    return _old_distinct_balls(
        ((ci, b) for ci in region_idx for b in _old_center_balls(space, ci)
         if not sum(1 << i for i in b.idx) & outside),
        lambda ci, b: (ci, -b.radius),
    )


def _old_cz_family(space, b0, eta):
    budget = eta * b0.radius
    return _old_distinct_balls(
        ((ci, b) for ci in b0.idx for b in _old_center_balls(space, ci, budget=budget)),
        lambda ci, b: (-b.radius, ci),
    )


def _fields(balls):
    return [(b.center, b.radius.hex(), b.members, b.idx) for b in balls]


def _family_fields(space, family):
    """``_fields`` of a family's rows, members read bit by bit from its words."""
    fields = []
    for c, r, size, row in zip(
        family.centers.tolist(), family.radii.tolist(), family.sizes.tolist(), family.words.tolist()
    ):
        bits = "".join(f"{w:064b}"[::-1] for w in row)
        idx = tuple(i for i, bit in enumerate(bits) if bit == "1")
        # No bit is set past the last point, and sizes count the members.
        assert idx[-1] < space.n and size == len(idx)
        fields.append((space.point_ids[c], r.hex(), tuple(space.point_ids[i] for i in idx), idx))
    return fields


def test_prefix_enumeration_matches_per_center_loop():
    # Field for field, radii as float hex, against the former per-center
    # radius loop and dedup dict, on random spaces, the 64-point line at
    # spacing 1/64, the 8x8 grid, the depth-6 cluster space and spaces of
    # 65-71 points, whose member rows need a second 64-bit word.  The
    # family arrays behind canonical_balls and cz_family match too.
    rng = np.random.default_rng(15)
    spaces = [mj.build_space(["a"], [1.0], coords=[[0.0]])]
    spaces += [random_space(rng, max_n=14, dim=1 + k % 2) for k in range(30)]
    spaces += [mj.grid_space(1, 64, spacing=1.0 / 64), mj.grid_space(2, 8), mj.cluster_space(6)]
    spaces += [random_space(rng, min_n=n, max_n=n, dim=1 + n % 2) for n in (65, 68, 71)]
    for sp in spaces:
        everything = tuple(range(sp.n))
        expected = _fields(_old_canonical_balls(sp, everything))
        assert _fields(mj.canonical_balls(sp)) == expected
        assert _family_fields(sp, _canonical_family(sp, everything)) == expected
        for _ in range(3):
            region = sorted(rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)), replace=False))
            region = tuple(int(i) for i in region)
            expected = _fields(_old_canonical_balls(sp, region))
            assert _fields(mj.canonical_balls(sp, list(region))) == expected
            assert _family_fields(sp, _canonical_family(sp, region)) == expected
        for _ in range(3):
            center = sp.point_ids[int(rng.integers(0, sp.n))]
            radius = float(rng.choice(sp.dist[sp.index(center)])) * float(rng.uniform(0.5, 1.5))
            b0 = mj.ball_at(sp, center, max(radius, 1e-3))
            for eta in (0.05, 0.5, 3.0, 1e5):
                expected = _fields(_old_cz_family(sp, b0, eta))
                assert _fields(mj.cz_family(sp, b0, eta)) == expected
                family = _prefix_family(sp, b0.idx, budget=eta * b0.radius)
                assert _family_fields(sp, family) == expected


def _old_doubling_profile(space):
    """The former per-(center, radius) masked sums and per-(x, R) certificate loop."""
    n = space.n
    radii_list = [_old_center_radii(space, c) for c in range(n)]
    mus = []
    worst = 1.0
    w = space.weights
    for c in range(n):
        row = space.dist[c]
        mu_r = np.array([w[row < r].sum() for r in radii_list[c]])
        mu_2r = np.array([w[row < 2.0 * r].sum() for r in radii_list[c]])
        worst = max(worst, float((mu_2r / mu_r).max()))
        mus.append(mu_r)
    c_mu = max(worst, MIN_DOUBLING)
    dim = math.log2(c_mu)

    mmax = max(len(r) for r in radii_list)
    rad_mat = np.full((n, mmax), np.inf)
    g_pref = np.zeros((n, mmax))
    arg_pref = np.zeros((n, mmax), dtype=int)
    for c in range(n):
        rr = radii_list[c]
        g = rr**dim / mus[c]
        best_i = 0
        for i in range(len(rr)):
            if g[i] >= g[best_i]:
                best_i = i
            arg_pref[c, i] = best_i
        rad_mat[c, : len(rr)] = rr
        g_pref[c, : len(rr)] = np.maximum.accumulate(g)

    worst_ratio = 0.0
    worst_quad = None
    c_sq = c_mu * c_mu
    for x in range(n):
        for big_r, mu_big in zip(radii_list[x], mus[x]):
            members = np.flatnonzero(space.dist[x] < big_r)
            lead = mu_big / (c_sq * big_r**dim)
            counts = (rad_mat[members] <= big_r).sum(axis=1)
            ok = counts > 0
            if not ok.any():
                continue
            ys = members[ok]
            ratios = lead * g_pref[ys, counts[ok] - 1]
            j = int(ratios.argmax())
            if ratios[j] > worst_ratio:
                worst_ratio = float(ratios[j])
                y = int(ys[j])
                r_small = radii_list[y][arg_pref[y, counts[ok][j] - 1]]
                worst_quad = (space.point_ids[x], float(big_r), space.point_ids[y], float(r_small))
    return c_mu, dim, worst_ratio <= 1.0 + 1e-9, worst_quad, worst_ratio


def _profile_hex(c_mu, dim, ok, quad, ratio):
    x, big_r, y, r_small = quad
    return (c_mu.hex(), dim.hex(), ok, x, big_r.hex(), y, r_small.hex(), ratio.hex())


def test_doubling_profile_matches_per_radius_loop():
    # All five fields, floats as hex, against the former masked-sum loop:
    # the 300 small acceptance draws (draw 8 is the c_mu = 4.5907 case),
    # larger random spaces, equal weights of 0.1, lines whose distances
    # tie (the grid of spacing 1/64) or split ties by rounding (coordinates
    # (i + 1)/96), the 8x8 grid, the depth-6 cluster space, one- and
    # two-point spaces, and ties.
    rng = np.random.default_rng(0)
    spaces = [acceptance.random_space(rng, max_n=12, min_n=3) for _ in range(300)]
    rng = np.random.default_rng(16)
    spaces += [random_space(rng, min_n=n, max_n=n, dim=1 + n % 2) for n in range(20, 73, 4)]
    spaces += [
        mj.build_space([f"p{i}" for i in range(n)], [0.1] * n, coords=rng.uniform(0, 3, (n, 1 + n % 2)))
        for n in range(2, 40, 3)
    ]
    spaces += [mj.grid_space(1, 64, spacing=1.0 / 64), line_space([(i + 1) / 96 for i in range(96)])]
    spaces += [mj.grid_space(2, 8), mj.cluster_space(6)]
    spaces += [mj.build_space(["a"], [2.0], coords=[[0.0]]), two_point_space(1.0, 3.0)]
    # Spaces whose worst y attains its largest r^D / mu(B(y, r)) at two
    # radii; the certificate names the larger one.
    spaces += [
        line_space([2.0, 4.0, 6.0, 8.0], weights=[2.0, 4.0, 4.0, 4.0]),
        line_space([0.0, 4.0, 6.0, 8.0], weights=[4.0, 1.0, 2.0, 1.0]),
        mj.build_space(["a", "b", "c"], [4.0, 1.0, 2.0], coords=[[4.0, 1.0], [6.0, 5.0], [8.0, 6.0]]),
    ]
    # Tie-heavy spaces, where several centers reach the worst ratio or a
    # center's bound equals it: the sweep must stop only strictly below it.
    spaces += [mj.grid_space(1, n, spacing=h) for h in (1.0, 0.25, 1.0 / 64) for n in range(2, 40)]
    spaces += [mj.grid_space(2, n) for n in range(2, 10)]
    spaces += [mj.cluster_space(depth) for depth in range(1, 7)]
    # Points 4, 5 and 9 with weights 3, 1 and 3: the per-center bounds
    # (largest lead(x, R) times the largest r^D / mu(B(y, r)) over r <= R)
    # are 0.1875 for p0, 0.1458 for p1 and 0.1094 for p2.  The sweep visits
    # p0 first, but the worst ratio, 0.1458 at (p1, 4 * FULL_BALL_BUMP),
    # is p1's; p2 is never swept.
    spaces.append(line_space([4.0, 5.0, 9.0], weights=[3.0, 1.0, 3.0]))
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        positions = rng.choice(20, size=n, replace=False).tolist()
        spaces.append(line_space(positions, weights=rng.integers(1, 4, size=n).astype(float).tolist()))
    for sp in spaces:
        prof = mj.doubling_profile(sp)
        got = (prof.c_mu, prof.dimension, prof.certificate_ok, prof.worst_quadruple, prof.worst_ratio)
        assert _profile_hex(*got) == _profile_hex(*_old_doubling_profile(sp))


def test_space_json_roundtrip():
    sp = line_space([0.0, 1.0, 3.5], weights=[1.0, 2.0, 0.5])
    back = mj.space_from_json(mj.space_to_json(sp))
    assert back.point_ids == sp.point_ids
    assert np.allclose(back.weights, sp.weights)
    assert np.allclose(back.dist, sp.dist)

    matrix_sp = mj.build_space(["a", "b"], [1, 2], distances=[[0, 1], [1, 0]])
    back2 = mj.space_from_json(mj.space_to_json(matrix_sp))
    assert np.allclose(back2.dist, matrix_sp.dist)


def test_grid_json_keeps_lattice_ties():
    # Spacing 1/96 is not dyadic: the coordinates alone would split equal
    # lattice distances, so the matrix is written next to them.
    grid = mj.grid_space(1, 96, spacing=1 / 96)
    payload = mj.space_to_json(grid)
    assert payload["metric"]["kind"] == "matrix"
    back = mj.space_from_json(payload)
    assert np.array_equal(back.dist, grid.dist)
    assert np.array_equal(back.coords, grid.coords)
    assert mj.doubling_profile(back).c_mu == 3.0
    # Dyadic spacings round-trip through the coordinates alone.
    for dim, n, spacing in ((1, 64, 1 / 64), (2, 8, 1.0), (1, 9, 1 / 4)):
        grid = mj.grid_space(dim, n, spacing=spacing)
        payload = mj.space_to_json(grid)
        assert payload["metric"] == {"kind": "euclidean"}
        assert np.array_equal(mj.space_from_json(payload).dist, grid.dist)


def test_duplicate_points_rejected():
    with pytest.raises(InvalidParameter):
        mj.build_space(["a", "b"], [1, 1], coords=[[0.0], [0.0]])


def test_size_blocks_cover_each_row_once_with_the_bits_of_mu():
    rng = np.random.default_rng(12)
    space = mj.grid_space(1, 40, weight_profile="random", seed=12)
    sizes = rng.integers(0, 30, size=300)
    flat = np.concatenate([rng.permutation(space.n)[:k] for k in sizes])
    starts = np.cumsum(sizes) - sizes
    seen = []
    for rows, cols in _size_blocks(sizes, lambda k: 500 // k):
        k = int(sizes[rows[0]])
        assert k > 0 and (sizes[rows] == k).all()
        assert len(rows) <= max(1, 500 // k) and cols.flags.c_contiguous
        assert np.array_equal(cols, starts[rows, None] + np.arange(k))
        mu = space.weights[flat[cols]].sum(axis=1)
        for r, m in zip(rows.tolist(), mu.tolist()):
            assert m.hex() == space.mu(flat[starts[r] : starts[r] + k]).hex()
        seen.extend(rows.tolist())
    assert sorted(seen) == np.flatnonzero(sizes).tolist()


# Every entry point that takes a subset or a region, with the error class of
# an empty one: the medians and oscillations of a set raise EmptySet, the
# norms and the ball family of a region EmptyRegion.
_SUBSET_ENTRY_POINTS = [
    (lambda sp, f, r: mj.maximal_median(sp, f, r, 0.5), EmptySet),
    (lambda sp, f, r: mj.is_s_median(sp, 0.0, f, r, 0.5), EmptySet),
    (lambda sp, f, r: mj.median_oscillation(sp, f, r, 0.25), EmptySet),
    (lambda sp, f, r: mj.integral_oscillation(sp, f, r, 1.0), EmptySet),
    (lambda sp, f, r: mj.canonical_balls(sp, r), EmptyRegion),
    (lambda sp, f, r: mj.bmo_median_norm(sp, f, r, 0.25), EmptyRegion),
    (lambda sp, f, r: mj.jn_median_norm(sp, f, r, 2.0, 0.25), EmptyRegion),
    (lambda sp, f, r: mj.lp_norm(sp, f, r, 2.0), EmptyRegion),
    (lambda sp, f, r: mj.weak_lp_norm(sp, f, r, 2.0), EmptyRegion),
]


@pytest.mark.parametrize(
    "call, empty_error",
    _SUBSET_ENTRY_POINTS,
    ids=["maximal_median", "is_s_median", "median_oscillation", "integral_oscillation",
         "canonical_balls", "bmo_median_norm", "jn_median_norm", "lp_norm", "weak_lp_norm"],
)
def test_subset_entry_points_share_one_contract(call, empty_error):
    sp = mj.grid_space(1, 4)
    f = mj.SampleFunction.from_values(sp, [3.0, -1.0, 2.0, 5.0])
    # A bool is neither a point id nor an index, whether Python's or numpy's.
    for bad in (["zz"], ["p1", "zz"], [4], [-1], [True], [True, True], [np.True_], [1, False]):
        with pytest.raises(UnknownCenter):
            call(sp, f, bad)
    for empty in ([], ()):
        with pytest.raises(empty_error):
            call(sp, f, empty)
    by_index, by_id = call(sp, f, [2, np.int64(1)]), call(sp, f, ["p1", "p2"])
    assert repr(by_index) == repr(by_id)
