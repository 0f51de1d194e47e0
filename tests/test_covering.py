import numpy as np
import pytest

import medianjn as mj
from medianjn.errors import EmptyFamily

from util import line_space, random_space


def test_single_ball():
    sp = line_space([0.0, 1.0])
    b = mj.ball_at(sp, "p0", 0.5)
    cover = mj.five_cover(sp, [b])
    assert cover.selected == (b,)
    assert cover.assignment == (0,)


def test_disjoint_family_kept():
    sp = line_space([0.0, 1.0, 10.0, 11.0])
    balls = [mj.ball_at(sp, "p0", 1.5), mj.ball_at(sp, "p2", 1.5)]
    cover = mj.five_cover(sp, balls)
    assert len(cover.selected) == 2


def test_line_example():
    sp = line_space([0.0, 1.0, 10.0], ids=["a", "b", "c"])
    balls = [
        mj.ball_at(sp, "a", 3.0),
        mj.ball_at(sp, "b", 1.0),
        mj.ball_at(sp, "c", 1.0),
    ]
    cover = mj.five_cover(sp, balls)
    assert [(b.center, b.radius) for b in cover.selected] == [("a", 3.0), ("c", 1.0)]
    # the discarded middle ball lands inside the 15-dilate of the first
    assert cover.assignment == (0, 0, 1)


def test_random_families():
    rng = np.random.default_rng(21)
    for _ in range(100):
        sp = random_space(rng, max_n=15, dim=int(rng.integers(1, 3)))
        diam = max(float(sp.dist.max()), 1.0)
        balls = [
            mj.ball_at(
                sp,
                sp.point_ids[int(rng.integers(0, sp.n))],
                float(rng.uniform(0.05, 1.2)) * diam,
            )
            for _ in range(int(rng.integers(1, 12)))
        ]
        cover = mj.five_cover(sp, balls)
        for i in range(len(cover.selected)):
            for j in range(i + 1, len(cover.selected)):
                assert set(cover.selected[i].idx).isdisjoint(cover.selected[j].idx)
        for i, ball in enumerate(balls):
            owner = cover.selected[cover.assignment[i]]
            assert set(ball.idx) & set(owner.idx), "assigned ball must intersect its owner"
            assert owner.radius >= ball.radius - 1e-12
            blown = cover.dilates[cover.assignment[i]]
            assert set(ball.idx) <= set(blown.idx)


def test_deterministic_under_repeat():
    rng = np.random.default_rng(22)
    sp = random_space(rng, max_n=10)
    balls = [
        mj.ball_at(sp, sp.point_ids[i % sp.n], 1.0 + 0.1 * i) for i in range(6)
    ]
    first = mj.five_cover(sp, balls)
    second = mj.five_cover(sp, balls)
    assert first.assignment == second.assignment
    assert [b.ball_id() for b in first.selected] == [b.ball_id() for b in second.selected]


def test_empty_family():
    sp = line_space([0.0, 1.0])
    with pytest.raises(EmptyFamily):
        mj.five_cover(sp, [])
