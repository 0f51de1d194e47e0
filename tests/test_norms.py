import bisect
import gc
import inspect
import math
import sys
import weakref

import numpy as np
import pytest

import medianjn as mj
from medianjn import acceptance, czd, norms
from medianjn import space as space_module
from medianjn.errors import (
    EmptyRegion,
    ExactModeTooLarge,
    InvalidParameter,
    InvalidS,
    NonPositiveQ,
)

from util import family_of, fn, line_space, packed, random_space, two_point_space


def test_lp_norm_examples():
    sp = two_point_space()
    assert mj.lp_norm(sp, fn(sp, [0.0, 0.0]), None, 2.0) == 0.0
    assert mj.lp_norm(sp, fn(sp, [3.0, 4.0]), None, 2.0) == 5.0
    single = mj.build_space(["a"], [2.0], coords=[[0.0]])
    assert mj.lp_norm(single, fn(single, [3.0]), None, 1.0) == 6.0
    with pytest.raises(EmptyRegion):
        mj.lp_norm(sp, fn(sp, [1.0, 1.0]), [], 2.0)


def test_weak_lp_examples():
    sp = two_point_space()
    assert mj.weak_lp_norm(sp, fn(sp, [0.0, 0.0]), None, 2.0) == 0.0
    assert mj.weak_lp_norm(sp, fn(sp, [2.0, 1.0]), None, 2.0) == 2.0


def test_weak_lp_constant_identity():
    rng = np.random.default_rng(3)
    for _ in range(40):
        sp = random_space(rng, max_n=8)
        c = float(rng.normal())
        p = float(rng.uniform(1.0, 4.0))
        got = mj.weak_lp_norm(sp, fn(sp, np.full(sp.n, c)), None, p)
        assert got == pytest.approx(abs(c) * sp.total_measure ** (1.0 / p), rel=1e-12)


def test_exponents_must_be_finite():
    # p = inf passed "p > 1": jn_median_norm returned 1.0 with 0 balls (the
    # BMO of these values is 2.0) and lp_norm returned 1.0.
    g = mj.grid_space(1, 6)
    f = fn(g, np.arange(6.0))
    cases = [
        (InvalidParameter, "p must be finite, got inf", [
            lambda: mj.jn_median_norm(g, f, None, math.inf, 0.25),
            lambda: mj.jn_integral_norm(g, f, None, math.inf, 1.0),
            lambda: mj.lp_norm(g, f, None, math.inf),
            lambda: mj.weak_lp_norm(g, f, None, math.inf),
        ]),
        (InvalidParameter, "p must be positive, got -inf", [
            lambda: mj.lp_norm(g, f, None, -math.inf),
        ]),
        (NonPositiveQ, "q must be finite, got inf", [
            lambda: mj.integral_oscillation(g, f, None, math.inf),
            lambda: mj.jn_integral_norm(g, f, None, 2.0, math.inf),
        ]),
        (NonPositiveQ, "q must be positive, got -inf", [
            lambda: mj.integral_oscillation(g, f, None, -math.inf),
        ]),
    ]
    for error, message, calls in cases:
        for call in calls:
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == message


def test_integral_oscillation_examples():
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    assert mj.integral_oscillation(sp, fn(sp, [2.0, 2.0]), None, 1.0) == (0.0, 2.0)
    v1, _ = mj.integral_oscillation(sp, f, None, 1.0)
    assert v1 == pytest.approx(0.5, abs=1e-12)
    v2, c2 = mj.integral_oscillation(sp, f, None, 2.0)
    assert v2 == pytest.approx(0.25, abs=1e-12)
    assert c2 == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(NonPositiveQ):
        mj.integral_oscillation(sp, f, None, 0.0)


def test_integral_oscillation_subunit_exponent():
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    value, c = mj.integral_oscillation(sp, f, None, 0.5)
    # concave power: the best center sits at a sample value
    assert value == pytest.approx(0.5, abs=1e-9)
    assert min(abs(c - 0.0), abs(c - 1.0)) < 1e-6


def test_integral_oscillation_q1_center_is_sample():
    # At q = 1 the objective is linear between sample values, so the
    # smallest optimal c is a sample value.
    g = mj.grid_space(1, 64, spacing=1 / 64)
    f = mj.canonical_function("log_blowup", g)
    _, c = mj.integral_oscillation(g, f, None, 1.0)
    assert c in set(f.values.tolist())


def test_integral_oscillation_at_most_one_is_sample_minimum():
    rng = np.random.default_rng(17)
    for _ in range(150):
        sp = random_space(rng, max_n=10)
        f = fn(sp, np.round(rng.normal(size=sp.n), int(rng.integers(1, 4))))
        q = float(rng.choice([0.25, 0.5, 1.0]))
        wn = sp.weights / sp.weights.sum()
        brute = min(float((wn * np.abs(f.values - c) ** q).sum()) for c in f.values)
        value, c = mj.integral_oscillation(sp, f, None, q)
        assert value == brute
        assert c in set(f.values.tolist())


def _old_golden_min(fn, lo, hi, rel_tol=1e-10):
    """The former scalar golden-section search of the q > 1 per-ball path."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    span = max(hi - lo, 1e-300)
    while (b - a) > rel_tol * span:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _old_integral_oscillation(values, weights, idx, q):
    """The former per-ball path: each distinct value scored in turn.

    For q > 1 the weighted mean and a golden-section minimum join the
    distinct values, and the candidates are scored in sorted order.
    """
    vals, w = values[list(idx)], weights[list(idx)]
    wn = w / w.sum()
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return (0.0, lo)

    def objective(c):
        return float((wn * np.abs(vals - c) ** q).sum())

    cands = list(np.unique(vals))
    if q > 1.0:
        cands += [float((wn * vals).sum()), _old_golden_min(objective, lo, hi)]
    best_val, best_c = np.inf, None
    for c in sorted(cands):
        val = objective(c)
        if val < best_val:
            best_val, best_c = val, c
    return (float(best_val), float(best_c))


def test_integral_kernel_matches_per_ball_path():
    # Per set: osc and mu as float hex, c under == against the former
    # per-ball loop.  A zero c that is a sample value takes the sign of the
    # lowest-index member holding it (stable sort); before, it followed
    # numpy's unstable sort, for q > 1 as well.  Families: canonical balls
    # of random spaces, and rows of sizes around the pairwise-sum block
    # edges 8 and 128; values generic, rounded, integer with both signed
    # zeros, and constant; q on both sides of 1.
    rng = np.random.default_rng(44)
    checked = 0
    for trial in range(80):
        kind = trial % 4
        if trial % 2 == 0:
            sp = random_space(rng, max_n=16, dim=1 + trial % 3 % 2)
            n, weights = sp.n, sp.weights
            rows = [b.idx for b in mj.canonical_balls(sp)]
        else:
            n = int(rng.integers(130, 200))
            weights = [rng.uniform(0.2, 2.0, size=n), rng.integers(1, 10, size=n) / 10.0][trial % 4 // 2]
            sizes = rng.choice([1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 130], size=12)
            rows = [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist())) for k in sizes]
        values = [
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),
            np.where(rng.random(n) < 0.4, np.where(rng.random(n) < 0.5, -0.0, 0.0),
                     rng.integers(-1, 2, size=n).astype(float)),
            np.full(n, float(rng.normal())),
        ][kind]
        for q in (1.0, 0.7, 0.5, 0.25, 1.3, 2.0, 3.0):
            osc, c, mu = norms._integral_rows(values, weights, *packed(rows, n), q)
            for b, idx in enumerate(rows):
                old_osc, old_c = _old_integral_oscillation(values, weights, idx, q)
                assert float(osc[b]).hex() == old_osc.hex(), (trial, q, b)
                assert float(c[b]) == old_c, (trial, q, b)
                assert float(mu[b]).hex() == float(weights[list(idx)].sum()).hex()
                holder = next((i for i in idx if values[i] == c[b]), None)
                assert holder is not None or q > 1.0
                if holder is not None:
                    assert math.copysign(1.0, c[b]) == math.copysign(1.0, values[holder])
                checked += 1
    assert checked > 14000


def test_integral_oscillation_is_a_one_row_block():
    # The one-set call and the family kernel give the same bits for every q.
    rng = np.random.default_rng(46)
    for _ in range(8):
        sp = random_space(rng, max_n=10)
        f = fn(sp, np.round(rng.normal(size=sp.n), int(rng.integers(0, 3))))
        rows = [b.idx for b in mj.canonical_balls(sp)]
        for q in (0.5, 1.0, 2.0):
            osc, c, _ = norms._integral_rows(f.values, sp.weights, *packed(rows, sp.n), q)
            for b, idx in enumerate(rows):
                one = mj.integral_oscillation(sp, f, idx, q)
                assert (one[0].hex(), one[1].hex()) == (float(osc[b]).hex(), float(c[b]).hex())


def test_jn_integral_norm_matches_per_ball_path():
    # Totals as float hex and identical packings, against terms built from
    # the former per-ball oscillations, for q on both sides of 1.
    rng = np.random.default_rng(45)
    for trial in range(60):
        sp = random_space(rng, max_n=9, dim=1 + trial % 2)
        f = fn(sp, np.round(rng.normal(size=sp.n), int(rng.integers(0, 3))))
        p = float(rng.choice([1.5, 2.0, 3.0, 4.5]))
        q = float(rng.choice([x for x in (1.0, 0.7, 0.5, 0.25, 1.3, 2.0, 3.0) if x < p]))
        mode = ("exact", "greedy")[trial % 2]
        got = mj.jn_integral_norm(sp, f, None, p, q, mode=mode, force=True)
        balls = mj.canonical_balls(sp)
        oscs = [_old_integral_oscillation(f.values, sp.weights, b.idx, q)[0] for b in balls]
        terms = [sp.mu(b.idx) * osc ** (p / q) for b, osc in zip(balls, oscs)]
        want = norms._jn_norm(sp, family_of(sp), oscs, terms, p, mode, True)
        assert got.total.hex() == want.total.hex() and got.value.hex() == want.value.hex()
        assert got.packing.balls == want.packing.balls
        assert [t.hex() for t in got.packing.terms] == [t.hex() for t in want.packing.terms]
        assert [o.hex() for o in got.packing.oscillations] == [
            o.hex() for o in want.packing.oscillations
        ]


def test_bmo_examples():
    sp = two_point_space()
    assert mj.bmo_median_norm(sp, fn(sp, [7.0, 7.0]), None, 0.5) == 0.0
    assert mj.bmo_median_norm(sp, fn(sp, [0.0, 1.0]), None, 0.5) == 0.5
    three = mj.grid_space(1, 3)
    f = fn(three, [1.0, 0.0, 0.0])
    best = max(
        mj.median_oscillation(three, f, b, 0.5)[0]
        for b in mj.canonical_balls(three)
    )
    assert mj.bmo_median_norm(three, f, None, 0.5) == best


def test_norm_path_builds_balls_only_for_the_packing(monkeypatch):
    # Cold norms on fresh spaces read the family arrays: a packed norm makes
    # a Ball only for each ball of the packing it returns, the BMO norm none.
    made = []

    class Counted(space_module.Ball):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(space_module, "Ball", Counted)
    rng = np.random.default_rng(73)
    for mode, sp in [("greedy", mj.grid_space(2, 6)), ("exact", mj.grid_space(1, 40)),
                     ("greedy", random_space(rng, min_n=20, max_n=20, dim=2))]:
        f = fn(sp, rng.normal(size=sp.n))
        made.clear()
        res = mj.jn_median_norm(sp, f, None, 2.0, 0.25, mode=mode, force=True)
        assert 0 < len(made) <= len(res.packing.balls)
    sp = mj.grid_space(1, 40)
    made.clear()
    assert mj.bmo_median_norm(sp, fn(sp, rng.normal(size=sp.n)), None, 0.25) > 0.0
    assert made == []


def test_jn_median_two_point():
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    res = mj.jn_median_norm(sp, f, None, 2.0, 0.5)
    assert res.value == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert len(res.packing.balls) == 1
    assert res.packing.balls[0].members == ("p0", "p1")
    const = mj.jn_median_norm(sp, fn(sp, [4.0, 4.0]), None, 2.0, 0.5)
    assert const.value == 0.0 and const.packing.balls == ()


def test_jn_integral_two_point():
    sp = two_point_space()
    f = fn(sp, [0.0, 1.0])
    res = mj.jn_integral_norm(sp, f, None, 2.0, 1.0)
    assert res.value == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_greedy_below_exact():
    rng = np.random.default_rng(4)
    for _ in range(60):
        sp = random_space(rng, max_n=7)
        f = fn(sp, rng.normal(size=sp.n))
        s = float(rng.uniform(0.05, 0.5))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        exact = mj.jn_median_norm(sp, f, None, p, s, mode="exact", force=True)
        greedy = mj.jn_median_norm(sp, f, None, p, s, mode="greedy")
        assert greedy.total <= exact.total * (1 + 1e-12) + 1e-15


def test_exact_mode_refusal_and_force():
    g = mj.grid_space(1, 20)
    f = fn(g, np.log(np.arange(1, 21, dtype=float)))
    with pytest.raises(ExactModeTooLarge):
        mj.jn_median_norm(g, f, None, 2.0, 0.25, mode="exact")
    forced = mj.jn_median_norm(g, f, None, 2.0, 0.25, mode="exact", force=True)
    greedy = mj.jn_median_norm(g, f, None, 2.0, 0.25, mode="greedy")
    assert greedy.total <= forced.total * (1 + 1e-12)


def test_packing_disjointness_and_region():
    rng = np.random.default_rng(9)
    sp = random_space(rng, max_n=8)
    f = fn(sp, rng.normal(size=sp.n))
    region = [sp.point_ids[i] for i in range(sp.n - 1)]
    res = mj.jn_median_norm(sp, f, region, 2.0, 0.25, mode="exact", force=True)
    used = set()
    region_idx = {sp.index(p) for p in region}
    for b in res.packing.balls:
        assert used.isdisjoint(b.idx)
        used.update(b.idx)
        assert set(b.idx) <= region_idx


def test_centered_sup_sandwich_smoke():
    rng = np.random.default_rng(10)
    sp = random_space(rng, max_n=6)
    f = fn(sp, rng.normal(size=sp.n))
    norm = mj.jn_median_norm(sp, f, None, 2.0, 0.2, mode="exact", force=True)
    centered = mj.jn_centered_sup(sp, f, None, 2.0, 0.2, 0.5, force=True)
    assert norm.total <= centered.total * (1 + 1e-12) + 1e-15
    assert centered.total <= 4.0 * norm.total * (1 + 1e-12) + 1e-15
    with pytest.raises(InvalidS):
        mj.jn_centered_sup(sp, f, None, 2.0, 0.4, 0.3)


@pytest.mark.parametrize(
    "p, message",
    [(math.inf, "p must be finite, got inf"), (0.5, "p must exceed 1, got 0.5"),
     (-1.0, "p must exceed 1, got -1.0")],
    ids=["inf", "below-one", "negative"],
)
def test_centered_sup_refuses_p_outside_one_to_inf(p, message):
    # Unchecked, p = inf returned 1.0 with total inf, p = 0.5 about 72 and
    # p = -1 raised ZeroDivisionError.
    g = mj.grid_space(1, 6)
    with pytest.raises(InvalidParameter) as info:
        mj.jn_centered_sup(g, fn(g, np.arange(6.0)), None, p, 0.25, 0.5)
    assert str(info.value) == message


def test_norm_algebra():
    # Subadditivity under split levels, absolute-value contraction, and the
    # max/min bounds at quartered levels.
    rng = np.random.default_rng(17)
    for _ in range(60):
        sp = random_space(rng, max_n=6)
        f = fn(sp, rng.normal(size=sp.n))
        g = fn(sp, rng.normal(size=sp.n))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        s = float(rng.uniform(0.05, 0.5))
        u = float(rng.uniform(0.2, 0.8))
        t1, t2 = u * s, (1.0 - u) * s

        def norm(h, level):
            return mj.jn_median_norm(sp, h, None, p, level, force=True).value

        slack = 1e-9
        total = fn(sp, f.values + g.values)
        assert norm(total, s) <= (norm(f, t1) + norm(g, t2)) * (1 + slack) + 1e-14
        assert norm(fn(sp, np.abs(f.values)), s) <= norm(f, s) * (1 + slack) + 1e-14
        hi = fn(sp, np.maximum(f.values, g.values))
        lo = fn(sp, np.minimum(f.values, g.values))
        bound = norm(f, t1 / 2.0) + norm(g, t2 / 2.0)
        assert norm(hi, s) <= bound * (1 + slack) + 1e-14
        assert norm(lo, s) <= bound * (1 + slack) + 1e-14


def test_result_json_shape():
    sp = two_point_space()
    res = mj.jn_median_norm(sp, fn(sp, [0.0, 1.0]), None, 2.0, 0.5)
    payload = res.to_json()
    assert set(payload) == {"norm", "packing", "mode"}
    assert set(payload["packing"][0]) == {"center", "radius", "oscillation", "term"}


def test_exact_packing_depth_bounded_by_packing():
    # 419 live candidates against a recursion limit about 100 frames above
    # the caller: the search may nest only once per chosen ball.
    g = mj.grid_space(1, 40)
    f = fn(g, np.random.default_rng(0).normal(size=40))
    live = sum(
        mj.median_oscillation(g, f, b, 0.25)[0] > 0.0 for b in mj.canonical_balls(g)
    )
    expected = mj.jn_median_norm(g, f, None, 2.0, 0.25, mode="exact", force=True)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert live > sys.getrecursionlimit()
        got = mj.jn_median_norm(g, f, None, 2.0, 0.25, mode="exact", force=True)
    finally:
        sys.setrecursionlimit(saved)
    assert got.total == expected.total
    assert got.packing == expected.packing


def _list_and_dict_packed_sup(space, balls, terms):
    """The former exact search: Python lists, int bitmasks and an anchor dict."""
    live = [j for j, t in enumerate(terms) if t > 0.0]
    if not live:
        return 0.0, []
    order = sorted(
        live,
        key=lambda j: (-terms[j], space.index(balls[j].center), balls[j].radius),
    )
    masks = [sum(1 << i for i in balls[j].idx) for j in order]
    term_arr = np.array([terms[j] for j in order])
    used, greedy = 0, []
    for j in range(len(order)):
        if masks[j] & used == 0:
            used |= masks[j]
            greedy.append(j)
    n = space.n
    member_matrix = np.zeros((len(order), n), dtype=bool)
    for row, j in enumerate(order):
        member_matrix[row, list(balls[j].idx)] = True
    density = term_arr / member_matrix.dot(space.weights)
    counts = member_matrix.sum(axis=0)
    anchors = np.empty(len(order), dtype=int)
    for row in range(len(order)):
        pts = np.array(member_matrix[row].nonzero()[0])
        anchors[row] = int(pts[np.argmax(counts[pts])])
    weights = space.weights
    best_total = float(term_arr[greedy].sum())
    best_choice = list(greedy)

    def clique_bound(rem):
        seen = {}
        for j in rem:
            a = anchors[j]
            if term_arr[j] > seen.get(a, 0.0):
                seen[a] = term_arr[j]
        return sum(seen.values())

    def density_bound(rem, avail):
        sub = member_matrix[rem] & avail[None, :]
        per_point = (sub * density[rem, None]).max(axis=0)
        return float((per_point * weights * avail).sum())

    def dfs(rem, avail, current, chosen):
        nonlocal best_total, best_choice
        if current > best_total:
            best_total = current
            best_choice = list(chosen)
        while rem:
            slack = best_total - current
            if float(term_arr[rem].sum()) <= slack:
                return
            if clique_bound(rem) <= slack:
                return
            if density_bound(rem, avail) <= slack:
                return
            j = rem[0]
            sub_rem = [k for k in rem[1:] if masks[k] & masks[j] == 0]
            sub_avail = avail.copy()
            sub_avail[list(member_matrix[j].nonzero()[0])] = False
            chosen.append(j)
            dfs(sub_rem, sub_avail, current + float(term_arr[j]), chosen)
            chosen.pop()
            rem = rem[1:]

    dfs(list(range(len(order))), np.ones(n, dtype=bool), 0.0, [])
    return best_total, [order[j] for j in best_choice]


def _median_terms(space, f, s, p, region=None):
    balls = mj.canonical_balls(space, region)
    terms = [space.mu(b.idx) * mj.median_oscillation(space, f, b, s)[0] ** p for b in balls]
    return balls, terms


def _near_region(space, size):
    """The ``size`` points nearest to the last one, in index order."""
    return sorted(np.argsort(space.dist[-1], kind="stable")[:size].tolist())


def _search_identity_instances():
    rng = np.random.default_rng(23)
    for trial in range(24):
        # Random 1-D and 2-D spaces with generic values.
        dim = 1 + trial % 2
        sp = acceptance.random_space(rng, min_n=16, max_n=30 if dim == 1 else 24, dim=dim)
        yield sp, fn(sp, rng.normal(size=sp.n)), None
    for trial in range(24):
        # Unit-weight grids with integer or one-decimal values: many equal terms.
        if trial % 2:
            sp = mj.grid_space(2, int(rng.integers(3, 6)))
        else:
            sp = mj.grid_space(1, int(rng.integers(12, 29)))
        if trial % 4 < 2:
            values = rng.integers(0, 4, size=sp.n).astype(float)
        else:
            values = np.round(rng.normal(size=sp.n), 1)
        yield sp, fn(sp, values), None
    for n in (65, 67, 69, 70, 71):
        # More than 64 points, not a multiple of 8: member rows span two
        # words, and the region straddles the word boundary.
        line = mj.grid_space(1, n)
        yield line, fn(line, np.round(rng.normal(size=n), 1)), list(range(n - 24, n))
        plane = acceptance.random_space(rng, min_n=n, max_n=n, dim=2)
        yield plane, fn(plane, rng.normal(size=n)), _near_region(plane, 22)


def test_exact_search_matches_list_and_dict_search():
    # Total and chosen balls must match bit for bit, ties included.
    levels = [(0.25, 2.0), (0.5, 1.5), (0.25, 3.0)]
    searched = 0
    for k, (sp, f, region) in enumerate(_search_identity_instances()):
        s, p = levels[k % len(levels)]
        balls, terms = _median_terms(sp, f, s, p, region)
        if sum(t > 0.0 for t in terms) > 400:
            continue
        expected = _list_and_dict_packed_sup(sp, balls, terms)
        assert norms._packed_sup(sp, family_of(sp, region), terms, "exact", True) == expected
        searched += 1
    assert searched >= 40


def test_exact_search_on_the_8x8_grid():
    # 1197 live candidates, above the cut of the test before: the priced
    # rows are gathered in five blocks.  Seed 1 is checked against the
    # former search (seed 0 takes it several seconds); both totals are pinned.
    g = mj.grid_space(2, 8)
    totals = []
    for seed in (0, 1):
        f = fn(g, np.random.default_rng(seed).normal(size=64))
        balls, terms = _median_terms(g, f, 0.25, 2.0)
        assert sum(t > 0.0 for t in terms) == 1197
        got = norms._packed_sup(g, family_of(g), terms, "exact", True)
        if seed == 1:
            assert got == _list_and_dict_packed_sup(g, balls, terms)
        totals.append(got[0].hex())
    assert totals == ["0x1.36a34cc078b74p+6", "0x1.056f40d4dbb9cp+6"]


def test_exact_packing_matches_milp_optimum():
    # Mid-size cross-check: the weighted set-packing integer program, one
    # row per point (at most one chosen ball covers it), solved by HiGHS.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 6:
        sp = acceptance.random_space(rng, min_n=18, max_n=28, dim=2)
        f = fn(sp, rng.normal(size=sp.n))
        s, p = float(rng.choice([0.25, 0.5])), float(rng.choice([1.5, 2.0, 3.0]))
        balls, terms = _median_terms(sp, f, s, p)
        if not 150 <= sum(t > 0.0 for t in terms) <= 500:
            continue
        total, chosen = norms._packed_sup(sp, family_of(sp), terms, "exact", True)
        cover = np.zeros((sp.n, len(balls)))
        for j, b in enumerate(balls):
            cover[list(b.idx), j] = 1.0
        res = optimize.milp(
            -np.array(terms),
            constraints=optimize.LinearConstraint(cover, -np.inf, 1.0),
            integrality=np.ones(len(balls)),
            bounds=optimize.Bounds(0.0, 1.0),
            options={"mip_rel_gap": 0.0},
        )
        assert res.success
        picked = np.flatnonzero(res.x > 0.5)
        assert cover[:, picked].sum(axis=1).max() <= 1.0
        assert total == pytest.approx(sum(terms[j] for j in picked), rel=1e-9)
        assert total == pytest.approx(sum(terms[j] for j in chosen), rel=1e-12)
        checked += 1


@pytest.mark.parametrize(
    "seed, total, packing",
    [
        (0, "0x1.37547ae147ae2p+6", "p0 3, p4 2, p9 4, p32 20, p55 4, p63 5"),
        (1, "0x1.0726666666666p+6", "p0 4, p12 9, p31 10, p48 8, p57 2, p63 5"),
    ],
)
def test_exact_packing_tie_heavy_line_is_pinned(seed, total, packing):
    # One-decimal values on the 67-point unit line: many equal terms, so
    # many packings tie with the optimum.  The total and the chosen balls
    # are those of the search without the interval bound.
    g = mj.grid_space(1, 67)
    f = fn(g, np.round(np.random.default_rng(seed).normal(size=67), 1))
    res = mj.jn_median_norm(g, f, None, 2.0, 0.25, force=True)
    assert res.total.hex() == total
    assert ", ".join(f"{b.center} {b.radius:g}" for b in res.packing.balls) == packing


def _interval_scheduling_optimum(space, balls, terms):
    """Weighted interval scheduling over coordinate runs, by binary search on ends."""
    rank = np.empty(space.n, dtype=int)
    rank[np.argsort(space.coords[:, 0], kind="stable")] = np.arange(space.n)
    jobs = []
    for b, t in zip(balls, terms):
        r = sorted(rank[list(b.idx)].tolist())
        assert r[-1] - r[0] + 1 == len(r)
        jobs.append((r[-1], r[0], t))
    jobs.sort()
    ends = [hi for hi, _, _ in jobs]
    best = [0.0]
    for k, (hi, lo, t) in enumerate(jobs):
        best.append(max(best[k], best[bisect.bisect_left(ends, lo, 0, k)] + t))
    return best[-1]


def _interval_instances():
    rng = np.random.default_rng(47)
    for trial in range(30):
        if trial % 3 == 0:
            # Random coordinates: point 0 usually lies inside the line.
            sp = acceptance.random_space(rng, min_n=20, max_n=45, dim=1)
            values = rng.normal(size=sp.n)
        else:
            sp = mj.grid_space(1, int(rng.integers(20, 60)))
            values = np.round(rng.normal(size=sp.n), trial % 3)
        yield sp, fn(sp, values), float(rng.choice([0.25, 0.5])), float(rng.choice([1.5, 2.0, 3.0]))


def test_exact_packing_matches_interval_scheduling_on_lines(monkeypatch):
    calls = []
    table = norms._interval_table
    monkeypatch.setattr(norms, "_interval_table", lambda *args: calls.append(1) or table(*args))
    for sp, f, s, p in _interval_instances():
        _, oscs, mus = norms._family_oscillations(sp, f, tuple(range(sp.n)), norms._shorth_rows, s)
        balls = mj.canonical_balls(sp)
        terms = [mu * osc**p for mu, osc in zip(mus.tolist(), oscs.tolist())]
        res = mj.jn_median_norm(sp, f, None, p, s, force=True)
        assert res.total == pytest.approx(
            _interval_scheduling_optimum(sp, balls, terms), rel=1e-12
        )
    assert calls


def _old_interval_optimum(spans, rows):
    """The former per-step dynamic program: the optimum over ``rows``, listed by hi."""
    before, reach = [], 0.0
    for lo, hi, term in map(list(zip(*spans)).__getitem__, rows.tolist()):
        while len(before) <= hi:
            before.append(reach)
        total = before[lo] + term
        if total > reach:
            reach = total
    return reach


def _position_sum(spans, packing):
    """A packing's total added from left to right."""
    total = 0.0
    for _, term in sorted((spans[0][r], spans[2][r]) for r in packing):
        total += term
    return total


def test_interval_tables_match_brute_force():
    # Unit lines and random lines, terms in hundredths (many ties) or
    # generic.  On small random row subsets every entry of the left and the
    # right table is the largest position-order float sum over the packings
    # that end before (start after) the rank, found by enumeration, and the
    # witness is such a packing; on large subsets the optimum has the bits
    # of the former dynamic program.
    rng = np.random.default_rng(71)
    for trial in range(24):
        if trial % 2:
            sp = acceptance.random_space(rng, min_n=12, max_n=40, dim=1)
        else:
            sp = mj.grid_space(1, int(rng.integers(12, 70)))
        n = sp.n
        family = family_of(sp)
        lo, hi = norms._interval_rows(sp, space_module._member_matrix(family.words, n))
        terms = rng.uniform(0.0, 1.0, size=len(lo))
        if trial % 3:
            terms = np.round(terms, 2) + 0.01
        spans = (lo.tolist(), hi.tolist(), terms.tolist())
        mirrored = ((n - 1 - hi).tolist(), (n - 1 - lo).tolist(), spans[2])
        by_end, by_start = np.argsort(hi, kind="stable"), np.argsort(-lo, kind="stable")
        for size in (10, 12, len(lo) // 2, len(lo)):
            alive = np.zeros(len(lo), dtype=bool)
            alive[rng.choice(len(lo), size=min(size, len(lo)), replace=False)] = True
            left, witness = norms._interval_table(spans, by_end[alive[by_end]], n)
            right, _ = norms._interval_table(mirrored, by_start[alive[by_start]], n)
            assert len(left) == len(right) == n + 1
            assert left[n].hex() == _old_interval_optimum(spans, by_end[alive[by_end]]).hex()
            assert right[n].hex() == _old_interval_optimum(mirrored, by_start[alive[by_start]]).hex()
            assert witness <= set(np.flatnonzero(alive).tolist())
            runs = sorted((spans[0][r], spans[1][r]) for r in witness)
            assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))
            assert _position_sum(spans, witness) == left[n]
            if size > 12:
                continue
            rows = np.flatnonzero(alive).tolist()
            want_left, want_right = [0.0] * (n + 1), [0.0] * (n + 1)
            for k in range(1 << len(rows)):
                pack = [r for b, r in enumerate(rows) if k >> b & 1]
                runs = sorted((spans[0][r], spans[1][r]) for r in pack)
                if any(a[1] >= b[0] for a, b in zip(runs, runs[1:])):
                    continue
                # left[x]: packings that end below rank x, added from the left;
                # right[n - x]: packings that start at rank x or later, added
                # from the right.
                total, total_r = _position_sum(spans, pack), _position_sum(mirrored, pack)
                first, last = (runs[0][0], runs[-1][1]) if runs else (n, -1)
                for x in range(last + 1, n + 1):
                    want_left[x] = max(want_left[x], total)
                for x in range(first + 1):
                    want_right[n - x] = max(want_right[n - x], total_r)
            assert [v.hex() for v in left] == [v.hex() for v in want_left]
            assert [v.hex() for v in right] == [v.hex() for v in want_right]


def _priced_rows(space, family, terms):
    """The search's priced rows for a family: w(x) term(b) / mu(b) on b, else 0."""
    member_matrix = space_module._member_matrix(family.words, space.n)
    density = terms / member_matrix.dot(space.weights)
    priced = np.multiply(member_matrix, density[:, None])
    priced *= space.weights
    return member_matrix, priced


def test_suffix_bounds_match_the_density_bound_of_each_suffix():
    # Random 2-D families, some of them on more than 64 points (two words)
    # and long enough for several blocks of rows.  bound[i] has the bits of
    # the density bound of rem[i:]; pre[i] is at least the density bound of
    # the child that includes rem[i].
    rng = np.random.default_rng(73)
    for trial in range(8):
        n = (16, 24, 70, 90)[trial % 4]
        sp = acceptance.random_space(rng, min_n=n, max_n=n, dim=2)
        family = family_of(sp)
        terms = rng.uniform(0.0, 1.0, size=len(family))
        if trial % 2:
            terms = np.round(terms, 2) + 0.01
        member_matrix, priced = _priced_rows(sp, family, terms)
        k = min(len(family), int(rng.integers(150, 400)))
        rem = np.sort(rng.choice(len(family), size=k, replace=False))
        bound, pre = norms._suffix_bounds(priced, rem)
        assert n < 64 or k > norms._BLOCK_ELEMS // 2 // n
        for i in range(k):
            want = norms._density_bound(priced, rem[i:])
            assert want.hex() == float(np.add.reduce(priced[rem[i:]].max(axis=0))).hex()
            assert bound[i].hex() == want.hex()
            child = rem[i + 1 :][~(member_matrix[rem[i + 1 :]] & member_matrix[rem[i]]).any(axis=1)]
            child_bound = norms._density_bound(priced, child) if len(child) else 0.0
            assert pre[i] >= child_bound


def test_interval_bound_stays_off_in_the_plane(monkeypatch):
    # On a 2-D grid some candidate is not a run in the point order, so the
    # interval data is refused and only the other three bounds prune.
    built = []
    rows = norms._interval_rows
    monkeypatch.setattr(norms, "_interval_rows", lambda *args: built.append(rows(*args)) or built[-1])
    rng = np.random.default_rng(53)
    g = mj.grid_space(2, 5)
    f = fn(g, rng.normal(size=g.n))
    balls, terms = _median_terms(g, f, 0.25, 2.0)
    assert norms._packed_sup(g, family_of(g), terms, "exact", True) == _list_and_dict_packed_sup(
        g, balls, terms
    )
    assert built == [None]


def _recorded_dominance(monkeypatch):
    """Record each dominance pre-pass: its arguments and the rows it drops."""
    seen = []
    rows = norms._dominated_rows

    def record(*args):
        seen.append((*args, rows(*args)))
        return seen[-1][-1]

    monkeypatch.setattr(norms, "_dominated_rows", record)
    return seen


def _ball_and_sub_ball_terms(excess):
    """Terms on the 5x5 grid: B(p0) = {p0, p1, p5} at 1, its sub-ball {p1} at 1 + excess.

    Every other ball that meets {p0, p1, p5} gets 0 and the rest small
    dyadic terms, so the two balls combine with the same other balls.
    """
    g = mj.grid_space(2, 5)
    balls = mj.canonical_balls(g)
    big = next(j for j, b in enumerate(balls) if b.members == ("p0", "p1", "p5"))
    sub = next(j for j, b in enumerate(balls) if b.members == ("p1",))
    rng = np.random.default_rng(61)
    near = set(balls[big].idx)
    terms = [0.0 if near.intersection(b.idx) else int(rng.integers(1, 32)) / 64 for b in balls]
    terms[big], terms[sub] = 1.0, 1.0 + excess
    return g, balls, terms, big, sub


def test_dominance_keeps_a_ball_tied_with_its_sub_ball(monkeypatch):
    # Equal terms: the bigger ball sorts first, so it is the one chosen.
    seen = _recorded_dominance(monkeypatch)
    g, balls, terms, big, sub = _ball_and_sub_ball_terms(0.0)
    total, chosen = norms._packed_sup(g, family_of(g), terms, "exact", True)
    assert (total, chosen) == _list_and_dict_packed_sup(g, balls, terms)
    assert big in chosen and sub not in chosen
    assert len(seen) == 1


def test_dominance_needs_more_than_the_margin(monkeypatch):
    # The margin is 4 * 25 * 2^-52 times a term sum above 2, so above 2^-45:
    # a sub-ball ahead by 2^-46 leaves the bigger ball in the search, one
    # ahead by 2^-30 drops it.
    seen = _recorded_dominance(monkeypatch)
    for excess, dropped in [(2.0**-46, False), (2.0**-30, True)]:
        g, balls, terms, big, sub = _ball_and_sub_ball_terms(excess)
        result = norms._packed_sup(g, family_of(g), terms, "exact", True)
        assert result == _list_and_dict_packed_sup(g, balls, terms)
        assert sub in result[1]
        _, _, term_arr, _, dominated = seen[-1]
        assert dominated[term_arr == 1.0].tolist() == [dropped]
    assert len(seen) == 2


def test_dominance_rule_is_strict_beyond_the_slack():
    # Row 0 = {0} lies inside row 1 = {0, 1}; row 2 = {2} lies inside neither.
    words = np.array([[1], [3], [4]], dtype=np.uint64)
    sizes = np.array([1, 2, 1])
    for excess, dropped in [(2.0**-41, False), (2.0**-40, False), (2.0**-39, True)]:
        term_arr = np.array([1.0 + excess, 1.0, 0.5])
        got = norms._dominated_rows(words, sizes, term_arr, 2.0**-40)
        assert got.tolist() == [False, dropped, False]


def test_dominated_rows_match_brute_force(monkeypatch):
    # Random 2-D families, some of them on more than 64 points (two words),
    # with terms in hundredths, some of them raised by a few units of 2^-50:
    # exact ties, gaps within the margin and gaps far beyond it.
    seen = _recorded_dominance(monkeypatch)
    rng = np.random.default_rng(67)
    for trial in range(8):
        n = (14, 18, 70, 90)[trial % 4]
        sp = acceptance.random_space(rng, min_n=n, max_n=n, dim=2)
        region = _near_region(sp, 14)
        balls = mj.canonical_balls(sp, region)
        terms = np.round(rng.uniform(0.0, 1.0, size=len(balls)), 2)
        terms *= 1.0 + rng.integers(0, 3, size=len(balls)) * 2.0**-50
        terms = terms.tolist()
        norms._packed_sup(sp, family_of(sp, region), terms, "exact", True)
        assert len(seen) == trial + 1
        _, _, term_arr, slack, dominated = seen[-1]
        assert slack == 4 * sp.n * 2.0**-52 * float(term_arr.sum())
        order = sorted((j for j, t in enumerate(terms) if t > 0.0), key=lambda j: -terms[j])
        members = [set(balls[j].idx) for j in order]
        expected = [
            any(members[a] < members[b] and term_arr[a] - term_arr[b] > slack for a in range(len(order)))
            for b in range(len(order))
        ]
        assert dominated.tolist() == expected
        assert any(expected) and not all(expected)


def test_function_results_are_kept_per_space():
    # One function object on two 8-point spaces: the second space must not
    # read the first one's oscillations.
    a = mj.grid_space(1, 8)
    b = line_space([0, 1, 2, 3, 10, 11, 12, 30])
    values = np.random.default_rng(0).normal(size=8)
    fresh = mj.jn_median_norm(b, fn(b, values), None, 2.0, 0.25)
    assert round(fresh.value, 4) == 2.0310
    f = fn(a, values)
    mj.bmo_median_norm(a, f, None, 0.25)
    got = mj.jn_median_norm(b, f, None, 2.0, 0.25)
    assert (got.value.hex(), got.packing) == (fresh.value.hex(), fresh.packing)
    # The results go with the function.
    kept = weakref.ref(f)
    del f
    gc.collect()
    assert kept() is None
    assert len(a._cache()["functions"]) == 0 and len(b._cache()["functions"]) == 0


def test_family_caches_are_read_only_arrays():
    sp = mj.grid_space(1, 12)
    f = fn(sp, np.random.default_rng(4).normal(size=12))
    mj.bmo_median_norm(sp, f, None, 0.25)
    mj.jn_integral_norm(sp, f, None, 2.0, 1.0, force=True)
    mj.jn_centered_sup(sp, f, None, 2.0, 0.25, 0.5, force=True)
    czd._family_medians(f, mj.cz_params(sp, mj.ball_at(sp, "p6", 3.0), eta=1.0))
    cache = sp._cache()
    entries = [v for k, v in cache["functions"][f].items() if k[0] != "osc"]
    entries += [v for k, v in cache.items() if isinstance(k, tuple) and k[0] == "measures"]
    assert len(entries) == 5  # three norms, the CZ medians and one measure array
    for arr in entries:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_one_measure_array_serves_every_level_and_kernel():
    sp = random_space(np.random.default_rng(8), min_n=10, max_n=10)
    f, g = (fn(sp, np.random.default_rng(seed).normal(size=sp.n)) for seed in (1, 2))
    idx = tuple(range(sp.n))
    _, _, mus = norms._family_oscillations(sp, f, idx, norms._shorth_rows, 0.25)
    assert norms._family_oscillations(sp, f, idx, norms._shorth_rows, 0.5)[2] is mus
    assert norms._family_oscillations(sp, f, idx, norms._integral_rows, 1.0)[2] is mus
    assert norms._family_oscillations(sp, g, idx, norms._integral_rows, 2.0)[2] is mus
    mj.jn_centered_sup(sp, g, None, 2.0, 0.25, 0.5, force=True)
    assert sp._cache()[("measures", idx)] is mus
    balls = mj.canonical_balls(sp)
    assert [m.hex() for m in mus.tolist()] == [sp.mu(b.idx).hex() for b in balls]
