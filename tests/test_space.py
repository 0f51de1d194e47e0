import numpy as np
import pytest

import medianjn as mj
from medianjn import acceptance
from medianjn.errors import (
    AsymmetricMetric,
    EmptyRegion,
    InvalidParameter,
    NonPositiveDilation,
    NonPositiveRadius,
    NonPositiveWeight,
    TriangleViolation,
    UnknownCenter,
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
    # 72 points, so member masks need two 64-bit words.
    rng = np.random.default_rng(14)
    sp = random_space(rng, min_n=72, max_n=72, dim=2)
    balls = mj.canonical_balls(sp)
    assert max(b.mask for b in balls).bit_length() == 72
    for b in balls:
        assert b.mask == sum(1 << i for i in b.idx)
        assert b.members == tuple(sp.point_ids[i] for i in b.idx)


def test_space_json_roundtrip():
    sp = line_space([0.0, 1.0, 3.5], weights=[1.0, 2.0, 0.5])
    back = mj.space_from_json(mj.space_to_json(sp))
    assert back.point_ids == sp.point_ids
    assert np.allclose(back.weights, sp.weights)
    assert np.allclose(back.dist, sp.dist)

    matrix_sp = mj.build_space(["a", "b"], [1, 2], distances=[[0, 1], [1, 0]])
    back2 = mj.space_from_json(mj.space_to_json(matrix_sp))
    assert np.allclose(back2.dist, matrix_sp.dist)


def test_duplicate_points_rejected():
    with pytest.raises(InvalidParameter):
        mj.build_space(["a", "b"], [1, 1], coords=[[0.0], [0.0]])
