"""Canonical desk-scale spaces and sample functions for tests and the CLI."""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InvalidDim, InvalidParameter, UnknownKind
from .median import SampleFunction
from .space import Space, build_space

WEIGHT_PROFILES = ("uniform", "normalized", "random")


def _weights(profile: str, n: int, seed: int) -> np.ndarray:
    if profile == "uniform":
        return np.ones(n)
    if profile == "normalized":
        return np.full(n, 1.0 / n)
    if profile == "random":
        return np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    raise InvalidParameter(f"unknown weight profile {profile!r}")


def grid_space(
    dim: int, n: int, spacing: float = 1.0, weight_profile: str = "uniform", seed: int = 0
) -> Space:
    """Uniform grid with Euclidean metric; n points (1-D) or n x n (2-D).

    Coordinates start at ``spacing`` rather than zero, so a grid with
    spacing 1/n covers (0, 1] and stays clear of the singularity of the
    blow-up functions.  Distances are lattice distances times the
    spacing, so the member sets of the balls and the doubling constant
    are those of the unit grid at any spacing.  Raises InvalidDim.
    """
    if dim not in (1, 2):
        raise InvalidDim(f"dim must be 1 or 2, got {dim}")
    if n < 1:
        raise InvalidParameter(f"n must be at least 1, got {n}")
    lattice = np.arange(1.0, n + 1.0)
    if dim == 1:
        points = lattice[:, None]
    else:
        points = np.stack(np.meshgrid(lattice, lattice, indexing="ij"), axis=-1).reshape(-1, 2)
    ids = [f"p{k}" for k in range(len(points))]
    space = build_space(ids, _weights(weight_profile, len(ids), seed), coords=points * spacing)
    # Differences of the rounded coordinates would split equal lattice
    # distances unless the spacing is a power of two.
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1)) * abs(spacing)
    dist.setflags(write=False)
    return dataclasses.replace(space, dist=dist)


def cluster_space(
    depth: int,
    ratio: float = 10.0,
    spacing: float = 1.0,
    weight_profile: str = "uniform",
    seed: int = 0,
) -> Space:
    """Hierarchical 1-D space of 2^depth points with dyadic cluster gaps.

    Point k sits at sum of spacing * ratio^j over the set bits j of k, so
    points pair at the finest scale, pairs pair at the next, and so on.
    For well-separated scales the doubling constant stays at 2, which makes
    small median levels nondegenerate on far fewer points than a uniform
    grid needs.
    """
    if depth < 1:
        raise InvalidParameter(f"depth must be at least 1, got {depth}")
    if ratio <= 2.0:
        raise InvalidParameter("scale ratio must exceed 2 for separated clusters")
    n = 2**depth
    coords = []
    for k in range(n):
        pos = 0.0
        for j in range(depth):
            if (k >> j) & 1:
                pos += spacing * ratio**j
        coords.append([pos])
    ids = [f"p{k}" for k in range(n)]
    return build_space(ids, _weights(weight_profile, n, seed), coords=coords)


def canonical_function(kind: str, space: Space, params: dict | None = None, seed: int = 0) -> SampleFunction:
    """Deterministic sample functions: log blow-up, power, step, and friends.

    Raises UnknownKind; the coordinate-based kinds require strictly
    positive first coordinates.
    """
    params = dict(params or {})
    n = space.n
    rng = np.random.default_rng(seed)

    def first_coords() -> np.ndarray:
        if space.coords is None:
            raise InvalidParameter(f"kind {kind!r} needs coordinate geometry")
        x = space.coords[:, 0]
        if not np.all(x > 0.0):
            raise InvalidParameter(f"kind {kind!r} needs positive coordinates")
        return x

    if kind == "log_blowup":
        return SampleFunction.from_values(space, np.log(1.0 / first_coords()))
    if kind == "power":
        beta = float(params.get("beta", 0.5))
        return SampleFunction.from_values(space, first_coords() ** (-beta))
    if kind == "step":
        levels = list(params.get("levels", [0.0, 1.0]))
        breaks = list(params.get("breaks", []))
        if len(breaks) != len(levels) - 1:
            raise InvalidParameter("step needs len(breaks) == len(levels) - 1")
        if not breaks:
            return SampleFunction.from_values(space, np.full(n, levels[0]))
        x = first_coords()
        out = np.array([levels[int(np.searchsorted(breaks, xi))] for xi in x])
        return SampleFunction.from_values(space, out)
    if kind == "two_valued":
        if n < 2:
            raise InvalidParameter("two_valued needs at least two points")
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", 1.0))
        if lo == hi:
            raise InvalidParameter("two_valued needs lo != hi")
        picks = rng.integers(0, 2, size=n)
        picks[0], picks[-1] = 0, 1
        return SampleFunction.from_values(space, np.where(picks == 1, hi, lo))
    if kind == "random_piecewise":
        pieces = int(params.get("pieces", 4))
        if pieces < 1:
            raise InvalidParameter("random_piecewise needs at least one piece")
        levels = rng.uniform(-1.0, 1.0, size=pieces)
        block = max(1, -(-n // pieces))
        out = np.array([levels[min(i // block, pieces - 1)] for i in range(n)])
        return SampleFunction.from_values(space, out)
    raise UnknownKind(f"unknown function kind {kind!r}")
