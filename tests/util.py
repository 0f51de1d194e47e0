"""Shared helpers for the test suite."""

import functools

import medianjn as mj
from medianjn import acceptance


def two_point_space(w0=1.0, w1=1.0):
    return mj.build_space(["p0", "p1"], [w0, w1], coords=[[0.0], [1.0]])


def line_space(positions, weights=None, ids=None):
    positions = list(positions)
    ids = ids or [f"p{i}" for i in range(len(positions))]
    weights = weights or [1.0] * len(positions)
    return mj.build_space(ids, weights, coords=[[x] for x in positions])


def fn(space, values):
    return mj.SampleFunction.from_values(space, values)


# The acceptance suite's generator, restricted by default to 1-D spaces of
# at most 12 points.
random_space = functools.partial(acceptance.random_space, max_n=12, dim=1)
