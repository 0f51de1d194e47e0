"""The CZ layer on family arrays against test-local copies of the per-ball code.

The copies below are the loops that ``cz_params``, ``cz_decompose``,
``cz_nested``, ``jn_centered_sup``, ``median_maximal`` and
``sharp_maximal`` ran before the CZ family was read as cached arrays:
the per-point ball lists (``point_balls``), the family medians per
``Ball``, the maximal function and witness loops, and the per-ball terms
and medians.  Every decomposition field, nested pair,
good-lambda side (as hex), centered total (as hex) and packing, and
every raised error, must match them exactly.
"""

import numpy as np
import pytest

import medianjn as mj
from medianjn import acceptance
from medianjn.covering import five_cover
from medianjn import czd
from medianjn.czd import (
    _REL_EPS,
    CZCertificates,
    CZDecomposition,
    _sum_in_order,
)
from medianjn.errors import (
    CertificateViolation,
    EmptyLevelSet,
    InvalidParameter,
    MedianJNError,
    PreconditionViolated,
    ThresholdViolated,
)
from medianjn.median import _as_values
from medianjn.norms import _canonical_family, _jn_norm, _region_idx
from medianjn.space import _row_blocks

# ---------------------------------------------------------------- per-ball references


_POINT_BALLS = {}


def reference_point_balls(params):
    """The former ``CZParams.point_balls``: the family balls through each point."""
    key = id(params.family)
    if key not in _POINT_BALLS:
        point_balls = [[] for _ in range(params.space.n)]
        for bi, ball in enumerate(params.family):
            for x in ball.idx:
                point_balls[x].append(bi)
        _POINT_BALLS[key] = params.family, point_balls  # the family keeps its id
    return _POINT_BALLS[key][1]


def reference_dilate_class_sets(space, ball, budget):
    """Member index arrays of sigma * ball for sigma >= 2 with sigma r <= budget."""
    lo = 2.0 * ball.radius
    cap = budget * (1.0 + _REL_EPS)
    if lo > cap:
        return []
    row = space.dist[space.index(ball.center)]
    ds = np.unique(row)
    sets = []
    for k in range(len(ds) - 1):
        if ds[k + 1] >= lo and ds[k] < cap:
            sets.append(np.nonzero(row < ds[k + 1])[0])
    if cap > ds[-1]:
        sets.append(np.arange(space.n))
    return sets


def reference_family_medians(params, g, level):
    w = params.space.weights
    return np.array(
        [mj.weighted_maximal_median(g[list(b.idx)], w[list(b.idx)], level) for b in params.family]
    )


def reference_decompose(f, params, lam, medians=None, containment=None):
    space = params.space
    g = np.abs(_as_values(space, f))
    med = medians if medians is not None else reference_family_medians(params, g, params.t)
    point_balls = reference_point_balls(params)

    hat_idx = list(params.b0_hat.idx)
    threshold = mj.weighted_maximal_median(
        g[hat_idx], space.weights[hat_idx], params.t / params.alpha
    )
    if threshold > lam:
        raise ThresholdViolated(f"median threshold {threshold:.6g} exceeds level {lam:.6g}")

    maximal = np.zeros(space.n)
    for bi, ball in enumerate(params.family):
        idx = list(ball.idx)
        maximal[idx] = np.maximum(maximal[idx], med[bi])
    e_idx = [x for x in params.b0_hat.idx if maximal[x] > lam]
    if not e_idx:
        raise EmptyLevelSet(f"no point of hat-B0 has maximal function above {lam:.6g}")

    witness_index = {}
    for x in e_idx:
        required = containment.get(space.point_ids[x]) if containment else None
        need = set(required.idx) if required is not None else set()
        best = None
        for bi in point_balls[x]:
            if med[bi] <= lam:
                continue
            ball = params.family[bi]
            if not need.issubset(ball.idx):
                continue
            rank = (-ball.radius, space.index(ball.center), bi)
            if best is None or rank < best[0]:
                best = (rank, bi)
        if best is None:
            raise CertificateViolation(
                f"no admissible witness ball for point {space.point_ids[x]!r}"
            )
        witness_index[x] = best[1]

    witness_ids = sorted(set(witness_index.values()))
    witnesses = tuple(params.family[bi] for bi in witness_ids)
    witness_of = {space.point_ids[x]: witness_ids.index(bi) for x, bi in witness_index.items()}
    cover = five_cover(space, witnesses)

    e_set = set(e_idx)
    union_ok = all(i in e_set for b in cover.selected for i in b.idx)
    covered = set()
    for d in cover.dilates:
        covered.update(d.idx)
    limit = (params.eta / 5.0) * params.b0.radius * (1.0 + _REL_EPS)
    w_all = space.weights
    lam_cap = lam + _REL_EPS * max(1.0, abs(lam))
    certificates = CZCertificates(
        union_in_level_set=union_ok,
        level_set_in_dilates=e_set <= covered,
        radius_bound=all(b.radius <= limit for b in cover.selected),
        family_radius_bound=all(
            ball.radius <= limit for ball, m in zip(params.family, med) if m > threshold
        ),
        medians_above_level=all(
            mj.weighted_maximal_median(g[list(b.idx)], w_all[list(b.idx)], params.t) > lam
            for b in cover.selected
        ),
        dilates_at_most_level=all(
            mj.weighted_maximal_median(g[members], w_all[members], params.t) <= lam_cap
            for ball in cover.selected
            for members in reference_dilate_class_sets(space, ball, params.budget)
        ),
    )
    if not certificates.ok:
        raise CertificateViolation(f"decomposition at level {lam:.6g} failed {certificates}")
    return CZDecomposition(
        lam=float(lam),
        threshold=float(threshold),
        balls=cover.selected,
        e_lambda=tuple(space.point_ids[x] for x in e_idx),
        witnesses=witnesses,
        witness_of=witness_of,
        cover=cover,
        certificates=certificates,
    )


def reference_nested(f, params, lam_low, lam_high):
    if lam_low > lam_high:
        raise InvalidParameter("lam_low must not exceed lam_high")
    g = np.abs(_as_values(params.space, f))
    med = reference_family_medians(params, g, params.t)
    high = reference_decompose(f, params, lam_high, medians=med)
    constraint = {pid: high.witnesses[wi] for pid, wi in high.witness_of.items()}
    low = reference_decompose(f, params, lam_low, medians=med, containment=constraint)
    pairs = []
    for hi_pos, ball in enumerate(high.balls):
        rep = next(pid for pid, wi in high.witness_of.items() if high.witnesses[wi] == ball)
        low_pos = low.cover.assignment[low.witness_of[rep]]
        if not set(ball.idx).issubset(low.cover.dilates[low_pos].idx):
            raise CertificateViolation("high ball escapes a low 5-dilate")
        pairs.append((hi_pos, low_pos))
    return low, high, tuple(pairs)


def reference_good_lambda(f, params, p, s, lam):
    """(lhs, rhs) of ``good_lambda_sides`` over the reference decompositions."""
    space, K = params.space, params.K
    c3 = params.profile.c_mu**3
    low, high, _ = reference_nested(f, params, lam, K * lam)
    norm = mj.jn_median_norm(space, f, params.b0_hat, p, s, mode="exact", force=True)
    lhs = _sum_in_order(space.mu(b.idx) for b in high.balls)
    rhs = (2.0**p * c3 / (K - 1.0) ** p) * norm.total / lam**p + _sum_in_order(
        space.mu(b.idx) for b in low.balls
    ) / (2.0 * K**p)
    return lhs, rhs


def reference_median_maximal(space, f, x, family, t):
    """The former ``median_maximal``: one ``weighted_maximal_median`` per ball through x."""
    g = np.abs(_as_values(space, f))
    xi = space.index(x)
    best = 0.0
    for ball in family:
        if xi in ball.idx:
            idx = list(ball.idx)
            best = max(best, mj.weighted_maximal_median(g[idx], space.weights[idx], t))
    return best


def reference_sharp_maximal(space, f, x, family, t, beta):
    """The former ``sharp_maximal``: two ``weighted_maximal_median`` calls per ball through x."""
    vals = _as_values(space, f)
    xi = space.index(x)
    best = 0.0
    for ball in family:
        if xi in ball.idx:
            idx = list(ball.idx)
            w = space.weights[idx]
            center = mj.weighted_maximal_median(vals[idx], w, t)
            best = max(best, mj.weighted_maximal_median(np.abs(vals[idx] - center), w, t / beta))
    return best


def reference_centered_sup(space, f, region, p, s, t, mode="exact", force=False):
    vals = _as_values(space, f)

    def per_ball(ball):
        idx = list(ball.idx)
        w = space.weights[idx]
        center = mj.weighted_maximal_median(vals[idx], w, t)
        osc = mj.weighted_maximal_median(np.abs(vals[idx] - center), w, s)
        return osc, space.mu(ball.idx) * osc**p

    idx = _region_idx(space, region)
    oscs, terms = zip(*map(per_ball, mj.canonical_balls(space, idx)))
    return _jn_norm(space, _canonical_family(space, idx), oscs, terms, p, mode, force)


# ---------------------------------------------------------------- comparisons


def decomposition_fields(dec):
    return (
        dec.lam.hex(),
        dec.threshold.hex(),
        dec.balls,
        dec.e_lambda,
        dec.witnesses,
        list(dec.witness_of.items()),
        dec.cover,
        dec.certificates,
        dec.lambda0,
    )


def outcome(fn, *args):
    """``fn(*args)`` with a decomposition flattened to its fields, or the error it raised."""
    try:
        result = fn(*args)
    except MedianJNError as exc:
        return "raised", type(exc).__name__, str(exc)
    if isinstance(result, CZDecomposition):
        return decomposition_fields(result)
    low, high, pairs = result
    return decomposition_fields(low), decomposition_fields(high), pairs


def assert_levels_match(f, params, lam_low, lam_high):
    """The decomposition at the low level and the nested pair equal the reference's.

    The nested pair holds the decomposition at the high level.
    """
    assert outcome(mj.cz_decompose, f, params, lam_low) == outcome(
        reference_decompose, f, params, lam_low
    )
    nested = outcome(mj.cz_nested, f, params, lam_low, lam_high)
    assert nested == outcome(reference_nested, f, params, lam_low, lam_high)
    return nested


def spike_line(n, plateau, rng):
    """A unit line of n points with a few high values in its middle.

    With a large eta the t/alpha threshold on the whole line ignores a
    mass up to t n / alpha, alpha = 5^D c_mu^2 = 115.4: at t = 1/2 one
    point of a 256-point line and two of a 512-point line, at t = 1 six
    of a 700-point line.
    """
    line = acceptance.grid_fixture(n)
    vals = rng.uniform(0.0, 1.0, size=n)
    mid = n // 2
    vals[mid : mid + len(plateau)] = plateau
    return line, mj.SampleFunction.from_values(line, vals), mid


def levels(rng, thr, top):
    lam_high = thr + float(rng.uniform(0.05, 0.95)) * (top - thr)
    lam_low = thr + float(rng.uniform(0.0, 1.0)) * (lam_high - thr)
    return lam_low, lam_high


# ---------------------------------------------------------------- instances


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cluster_spikes_match_the_per_ball_code(p):
    rng = np.random.default_rng(int(p * 10) + 1500)
    built = 0
    for _ in range(40):
        K = float(rng.choice([0.0, 1.3, 1.6]))
        params, f, thr, height = acceptance.spike_cluster_config(
            rng, p=p, K=K if K > 1 else None
        )
        if rng.uniform() < 0.5:  # a plain array: no medians cache
            f = np.array(f.values)
        lam_low, lam_high = levels(rng, thr, height)
        nested = assert_levels_match(f, params, lam_low, lam_high)
        built += nested[0] != "raised"
        s = params.t / params.beta * 0.999
        lam = thr + float(rng.uniform(0.1, 0.9)) * (0.98 * height / params.K - thr)
        try:
            res = mj.good_lambda_sides(f, params, p, s, lam)
        except PreconditionViolated as exc:
            with pytest.raises(MedianJNError) as ref_exc:
                reference_good_lambda(f, params, p, s, lam)
            assert str(ref_exc.value) in str(exc)
            continue
        lhs, rhs = reference_good_lambda(f, params, p, s, lam)
        assert (res.lhs.hex(), res.rhs.hex()) == (lhs.hex(), rhs.hex())
    assert built >= 30


def assert_maximal_functions_match(space, f, family, ts, beta):
    for x in space.point_ids:
        for t in ts:
            got = mj.median_maximal(space, f, x, family, t)
            assert got.hex() == reference_median_maximal(space, f, x, family, t).hex()
            got = mj.sharp_maximal(space, f, x, family, t, beta)
            assert got.hex() == reference_sharp_maximal(space, f, x, family, t, beta).hex()


def test_maximal_functions_match_the_per_ball_code():
    # M and f-sharp at every point as hex: on CZ families of spike
    # configurations and of the 256-point line, on hand-made ball lists
    # with repeats and a point outside every ball, and on no balls.
    rng = np.random.default_rng(1601)
    for t in (0.5, 1.0):
        params, f, _, _ = acceptance.spike_cluster_config(rng)
        assert_maximal_functions_match(params.space, f, params.family, (t,), 4.0)
    line = mj.grid_space(1, 256, spacing=1 / 256)
    f = mj.SampleFunction.from_values(line, rng.normal(size=256))
    family = mj.cz_family(line, mj.ball_at(line, "p128", 8 / 256), 1.0)
    assert_maximal_functions_match(line, f, family, (0.5, 0.2), 2.0)
    space = acceptance.random_space(rng, max_n=12, min_n=10, dim=2)
    f = mj.SampleFunction.from_values(space, np.round(rng.normal(size=space.n), 1))
    outside = space.point_ids[-1]
    others = [pid for pid in space.point_ids if pid != outside]
    balls = [
        b for b in mj.canonical_balls(space) if space.index(outside) not in b.idx
    ]
    balls = [balls[i] for i in rng.integers(len(balls), size=20)]
    assert all(space.index(outside) not in b.idx for b in balls) and others
    assert_maximal_functions_match(space, f, balls, (0.5, 0.3), 3.0)
    assert mj.median_maximal(space, f, outside, balls, 0.5) == 0.0
    assert mj.sharp_maximal(space, f, outside, balls, 0.5, 3.0) == 0.0
    assert_maximal_functions_match(space, f, [], (0.5,), 3.0)


def test_grids_match_the_per_ball_code():
    # Lines long enough for a nonempty level set; the 2-D grids here
    # (alpha = 13310 for c_mu = 9) and the short line only reach the
    # named errors, which must match too.
    rng = np.random.default_rng(1501)
    built = 0
    for trial in range(60):
        kind = trial % 10
        if kind in (0, 5):
            g = mj.grid_space(2, int(rng.choice([5, 8])))
            f = mj.SampleFunction.from_values(g, rng.normal(size=g.n))
            b0 = mj.ball_at(g, g.point_ids[int(rng.integers(g.n))], float(rng.uniform(1.1, 3.0)))
            params = mj.cz_params(g, b0, eta=float(rng.choice([1.0, 4.0, 1e5])))
            thr, top = 0.0, float(np.abs(f.values).max())
        else:
            n, t, k = (24, 0.5, 1) if kind in (1, 6) else (256, 0.5, 1)
            if kind == 9:
                n, t, k = 700, 1.0, int(rng.integers(1, 7))
            plateau = rng.uniform(2.0, 5.0, size=k)
            g, f, mid = spike_line(n, plateau, rng)
            center = g.point_ids[mid + int(rng.integers(-1, k + 1))]
            b0 = mj.ball_at(g, center, float(rng.choice([1.5, 2.5])) if n == 24 else 1.5)
            params = mj.cz_params(g, b0, eta=1e5, t=t)
            thr, top = 1.0, float(plateau.max())
        nested = assert_levels_match(f, params, *levels(rng, thr, top))
        built += nested[0] != "raised"
    assert built >= 20


def test_random_spaces_match_the_per_ball_code():
    # C04's random spaces, with the decompositions' named errors and the
    # centered sup's totals and packings.
    rng = np.random.default_rng(1502)
    for _ in range(60):
        space = acceptance.random_space(rng, max_n=7, min_n=2)
        f = acceptance.random_function(rng, space)
        s = float(rng.uniform(0.02, 0.5))
        t = float(rng.uniform(s, 0.5))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        got = mj.jn_centered_sup(space, f, None, p, s, t, mode="exact", force=True)
        ref = reference_centered_sup(space, f, None, p, s, t, mode="exact", force=True)
        assert got.total.hex() == ref.total.hex() and got.value.hex() == ref.value.hex()
        assert got.packing == ref.packing
        region = acceptance.random_subset(rng, space)
        got = mj.jn_centered_sup(space, f, region, p, s, t, mode="greedy")
        ref = reference_centered_sup(space, f, region, p, s, t, mode="greedy")
        assert got.total.hex() == ref.total.hex() and got.packing == ref.packing

        b0 = mj.ball_at(space, space.point_ids[int(rng.integers(space.n))],
                        float(rng.uniform(0.5, 12.0)))
        params = mj.cz_params(space, b0, eta=float(rng.choice([0.5, 2.0, 1e5])),
                              t=float(rng.choice([0.25, 0.5, 1.0])))
        top = float(np.abs(f.values).max())
        assert_levels_match(f, params, *levels(rng, 0.0, top))


# ---------------------------------------------------------------- witness rules


def test_witness_tie_goes_to_the_smaller_center():
    # Two adjacent high values: the three-point balls around both carry
    # them, with the same radius 2.  The one at the smaller center is the
    # witness of both high points; the other only of the point it alone
    # holds.
    rng = np.random.default_rng(1503)
    g, f, mid = spike_line(512, [4.0, 3.0], rng)
    params = mj.cz_params(g, mj.ball_at(g, g.point_ids[mid], 1.5), eta=1e5)
    dec = mj.cz_decompose(f, params, 2.0)
    witness = dec.witnesses[dec.witness_of[g.point_ids[mid + 1]]]
    assert (witness.center, witness.radius) == (g.point_ids[mid], 2.0)
    assert any(b.radius == 2.0 and b.center == g.point_ids[mid + 1] for b in dec.witnesses)
    assert decomposition_fields(dec) == decomposition_fields(
        reference_decompose(f, params, 2.0)
    )


def test_nested_containment_moves_a_witness():
    # At t = 1 a ball's median is its minimum.  Above 2 only the three
    # top points remain, and the high witness of each is the ball around
    # the middle one.  Above 1.2 the five-point balls around the points
    # one and two to its left both fit; the farther one, which misses the
    # last top point, goes first unless the containment rule holds.
    rng = np.random.default_rng(1504)
    g, f, mid = spike_line(700, [1.5, 1.5, 1.5, 3.0, 3.0, 3.0], rng)
    params = mj.cz_params(g, mj.ball_at(g, g.point_ids[mid + 3], 1.5), eta=1e5, t=1.0)
    lam_low, lam_high = 1.2, 2.0
    low, high, pairs = mj.cz_nested(f, params, lam_low, lam_high)
    free = mj.cz_decompose(f, params, lam_low)
    moved = [
        pid
        for pid in high.witness_of
        if free.witnesses[free.witness_of[pid]] != low.witnesses[low.witness_of[pid]]
    ]
    assert moved
    ref = reference_nested(f, params, lam_low, lam_high)
    assert (decomposition_fields(low), decomposition_fields(high), pairs) == (
        decomposition_fields(ref[0]),
        decomposition_fields(ref[1]),
        ref[2],
    )


def test_dilate_class_beyond_the_budget_is_computed_directly():
    # Budget 400 * 0.5 = 200, a lattice distance: around the selected
    # singleton, the class {d <= 200} is admitted by the _REL_EPS slack
    # alone, and no family row (all have d < 200) holds that set.  Its
    # median is the one computed from the values; the others are read
    # from the family's medians.
    rng = np.random.default_rng(1505)
    g, f, mid = spike_line(700, [4.0, 3.5, 3.0], rng)
    params = mj.cz_params(g, mj.ball_at(g, g.point_ids[mid], 0.5), eta=400.0, t=1.0)
    assert params.budget == 200.0
    calls = []

    def counted(values, weights, s):
        calls.append(len(values))
        return mj.weighted_maximal_median(values, weights, s)

    lam = 2.0
    mj.cz_decompose(f, params, lam)  # the family's medians, cached
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(czd, "weighted_maximal_median", counted)
        dec = mj.cz_decompose(f, params, lam)
    # One call for the threshold, one per selected ball for (iii), and one
    # for the class {d <= 200}: 401 points around the singleton.
    assert [b.idx for b in dec.balls] == [(mid,)]
    assert len(calls) == 1 + len(dec.balls) + 1 and calls[-1] == 401
    assert decomposition_fields(dec) == decomposition_fields(reference_decompose(f, params, lam))
    assert outcome(mj.cz_nested, f, params, lam, 3.2) == outcome(
        reference_nested, f, params, lam, 3.2
    )


# ---------------------------------------------------------------- the family cache


def test_cz_params_reuses_the_family():
    g = mj.grid_space(1, 32)
    b0 = mj.ball_at(g, "p10", 3.0)
    first = mj.cz_params(g, b0, eta=2.0)
    second = mj.cz_params(g, mj.ball_at(g, "p10", 3.0), eta=2, t=0.25, p=3.0)
    assert second.family is first.family
    assert mj.cz_family(g, b0, 2.0) is first.family
    assert mj.cz_params(g, b0, eta=1.0).family is not first.family


def test_cluster_cz_family_goes_through_one_block():
    # The 65-row CZ family of the depth-6 cluster space used to take one
    # kernel call per size, 64 in all; its padded rows fit one block.
    cs = mj.cluster_space(6)
    for star in (0, 7, 63):
        params = mj.cz_params(cs, mj.ball_at(cs, f"p{star}", 2.0), eta=1e5)
        family = _canonical_family(cs, params.b0.idx, params.budget)
        blocks = list(_row_blocks(cs.n, family.sizes, family.words))
        assert len(family) == 65 and len(set(family.sizes.tolist())) == 64
        assert len(blocks) == 1 and sorted(blocks[0][0].tolist()) == list(range(65))
