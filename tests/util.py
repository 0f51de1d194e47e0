"""Shared helpers for the test suite."""

import functools

import numpy as np

import medianjn as mj
from medianjn import acceptance
from medianjn.space import _canonical_family, _resolve_region


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


def family_of(space, region=None):
    """The array family behind ``canonical_balls(space, region)``."""
    return _canonical_family(space, _resolve_region(space, region))


def packed(rows, n):
    """Index sets as the kernels' packed member words and sizes.

    Point i of a set is bit i % 64 of word i // 64 of its row, as in a
    ball family.
    """
    n_words = -(-n // 64)
    words = np.zeros((len(rows), n_words), dtype="<u8")
    for t, idx in enumerate(rows):
        mask = sum(1 << i for i in idx)
        words[t] = [mask >> (64 * w) & (1 << 64) - 1 for w in range(n_words)]
    return words, [len(idx) for idx in rows]
