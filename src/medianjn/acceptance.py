"""The acceptance suite: every shipped guarantee as a runnable case.

Each criterion function builds its own deterministic fixtures (seeded
generators, no files, no network), checks the stated property at the
stated tolerance, and returns a :class:`CaseResult`.  ``run_all`` executes
the criteria one after another; all case functions are pure, so repeated
runs produce identical reports.

Where the stopping-time machinery needs its preconditions to be
satisfiable, fixtures use hierarchical cluster spaces: their doubling
constant is exactly 2, which puts the level t/alpha above the lightest
atom already at 64 points.  On uniform grids of at most 64 points the
level sits below every atom, the base-ball median equals the maximum, and
the decomposition preconditions are provably unsatisfiable; those
configurations are asserted to raise the named errors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boman import (
    chain_ratio,
    global_jn_verify,
    grid_boman_decomposition,
    jn_equivalence_check,
    verify_boman,
)
from .covering import five_cover
from .czd import (
    _threshold,
    cz_decompose,
    cz_nested,
    cz_params,
    good_lambda_sides,
    local_jn_verify,
)
from .errors import EmptyLevelSet, PreconditionViolated, ThresholdViolated
from .generators import canonical_function, cluster_space, grid_space
from .median import (
    SampleFunction,
    maximal_median,
    median_oscillation,
    weighted_maximal_median,
)
from .norms import (
    bmo_median_norm,
    integral_oscillation,
    jn_centered_sup,
    jn_integral_norm,
    jn_median_norm,
    lp_norm,
)
from .space import ball_at, build_space, canonical_balls, dilate


@dataclass(frozen=True)
class CaseResult:
    cid: str
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "pass": self.passed,
            "detail": self.detail,
        }


def _tol(*values, eps=1e-12):
    return eps * max(1.0, *(abs(v) for v in values))


# ---------------------------------------------------------------- fixtures


def random_space(rng, max_n=20, min_n=2, dim=None, weight_lo=0.2, weight_hi=2.0):
    n = int(rng.integers(min_n, max_n + 1))
    d = int(dim if dim is not None else rng.integers(1, 3))
    while True:
        coords = rng.uniform(0.0, 10.0, size=(n, d))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1)) + np.eye(n)
        if dist.min() > 1e-6:
            break
    weights = rng.uniform(weight_lo, weight_hi, size=n)
    return build_space([f"p{i}" for i in range(n)], weights, coords=coords)


def random_function(rng, space, scale=None):
    scale = scale if scale is not None else float(rng.uniform(0.5, 3.0))
    vals = rng.normal(0.0, scale, size=space.n)
    if rng.uniform() < 0.35:
        vals = np.round(vals, 1)  # force ties
    return SampleFunction.from_values(space, vals)


def random_subset(rng, space, min_k=1):
    k = int(rng.integers(min_k, space.n + 1))
    picks = sorted(rng.choice(space.n, size=k, replace=False))
    return [space.point_ids[i] for i in picks]


_CLUSTER_CACHE: dict = {}


def cluster_fixture(depth=6, ratio=10.0):
    key = (depth, ratio)
    if key not in _CLUSTER_CACHE:
        _CLUSTER_CACHE[key] = cluster_space(depth, ratio=ratio)
    return _CLUSTER_CACHE[key]


_GRID_CACHE: dict = {}


def grid_fixture(n, spacing=1.0):
    key = (n, spacing)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = grid_space(1, n, spacing=spacing)
    return _GRID_CACHE[key]


def spike_cluster_config(rng, p=2.0, K=None):
    """Cluster space, spike function, and parameters with satisfiable levels.

    The spike sits at a random point x*, the base ball is the finest pair
    through x*, and the enlargement reaches the whole space.  The
    background keeps its maximum strictly below the spike, so the t/alpha
    median threshold on the enlarged ball is a background value and levels
    between it and the spike have nonempty level sets.
    """
    cs = cluster_fixture()
    star = int(rng.integers(0, cs.n))
    b0 = ball_at(cs, cs.point_ids[star], 2.0)
    params = cz_params(cs, b0, eta=1e5, t=0.5, p=p, K=K)

    style = int(rng.integers(0, 3))
    if style == 0:
        vals = np.full(cs.n, float(rng.uniform(0.2, 2.0)))
    elif style == 1:
        vals = rng.uniform(0.1, 2.0, size=cs.n)
    else:
        vals = np.where(rng.integers(0, 2, size=cs.n) == 1, 2.0, 0.5).astype(float)
    height = float(vals.max() * rng.uniform(8.0, 40.0) + 5.0)
    vals[star] = height
    f = SampleFunction.from_values(cs, vals)

    return params, f, _threshold(params, np.abs(f.values)), height


# ---------------------------------------------------------------- criterion 1


def criterion_01(seed=1001, instances=1000) -> CaseResult:
    rng = np.random.default_rng(seed)
    checks = 0
    failures = []

    for trial in range(instances):
        space = random_space(rng)
        f = random_function(rng, space)
        g = random_function(rng, space)
        subset = random_subset(rng, space)
        s = float(rng.uniform(0.02, 0.99))

        def fail(name, lhs, rhs):
            failures.append(f"#{trial} {name}: {lhs} vs {rhs}")

        m_s = maximal_median(space, f, subset, s)

        s_hi = float(rng.uniform(s, 1.0))
        if maximal_median(space, f, subset, s_hi) > m_s + _tol(m_s):
            fail("(i)", maximal_median(space, f, subset, s_hi), m_s)
        checks += 1

        upper = SampleFunction.from_values(
            space, f.values + np.abs(rng.normal(0.0, 1.0, size=space.n))
        )
        if m_s > maximal_median(space, upper, subset, s) + _tol(m_s):
            fail("(ii)", m_s, maximal_median(space, upper, subset, s))
        checks += 1

        extra = random_subset(rng, space)
        sup_set = sorted(set(subset) | set(extra))
        ratio = space.mu([space.index(p) for p in sup_set]) / space.mu(
            [space.index(p) for p in subset]
        )
        rhs = maximal_median(space, f, sup_set, s / ratio)
        if m_s > rhs + _tol(m_s, rhs):
            fail("(iii)", m_s, rhs)
        checks += 1

        a, b = float(rng.uniform(0.1, 3.0)), float(rng.uniform(-5.0, 5.0))
        affine = SampleFunction.from_values(space, a * f.values + b)
        lhs = maximal_median(space, affine, subset, s)
        if abs(lhs - (a * m_s + b)) > _tol(lhs):
            fail("(iv) affine", lhs, a * m_s + b)
        cubic = SampleFunction.from_values(space, f.values**3)
        lhs = maximal_median(space, cubic, subset, s)
        if abs(lhs - m_s**3) > _tol(lhs):
            fail("(iv) cubic", lhs, m_s**3)
        checks += 2

        c = float(rng.uniform(-4.0, 4.0))
        shifted = SampleFunction.from_values(space, f.values + c)
        lhs = maximal_median(space, shifted, subset, s)
        if abs(lhs - (m_s + c)) > _tol(lhs):
            fail("(v)", lhs, m_s + c)
        c_pos = float(rng.uniform(0.1, 4.0))
        scaled = SampleFunction.from_values(space, c_pos * f.values)
        lhs = maximal_median(space, scaled, subset, s)
        if abs(lhs - c_pos * m_s) > _tol(lhs):
            fail("(vi)", lhs, c_pos * m_s)
        checks += 2

        absf = SampleFunction.from_values(space, np.abs(f.values))
        rhs = maximal_median(space, absf, subset, min(s, 1.0 - s))
        if abs(m_s) > rhs + _tol(rhs):
            fail("(vii)", abs(m_s), rhs)
        if s <= 0.5:
            alt = maximal_median(space, absf, subset, s)
            if abs(alt - rhs) > _tol(alt, rhs):
                fail("(vii) remark", alt, rhs)
        checks += 1

        u = float(rng.uniform(0.05, 0.95))
        t1, t2 = u * s, (1.0 - u) * s
        total = SampleFunction.from_values(space, f.values + g.values)
        lhs = maximal_median(space, total, subset, s)
        rhs = maximal_median(space, f, subset, t1) + maximal_median(space, g, subset, t2)
        if lhs > rhs + _tol(lhs, rhs):
            fail("(viii)", lhs, rhs)
        checks += 1

        idx = [space.index(p) for p in subset]
        w = space.weights[idx]
        for p_exp in (1.0, 2.0, 4.0):
            mean_p = float((w * np.abs(f.values[idx]) ** p_exp).sum() / w.sum())
            rhs = (mean_p / s) ** (1.0 / p_exp)
            lhs = maximal_median(space, absf, subset, s)
            if lhs > rhs + _tol(lhs, rhs):
                fail(f"(ix) p={p_exp}", lhs, rhs)
            checks += 1

        parts = max(2, min(4, len(subset)))
        labels = rng.integers(0, parts, size=len(subset))
        blocks = [
            [p for p, lab in zip(subset, labels) if lab == j]
            for j in range(parts)
        ]
        blocks = [blk for blk in blocks if blk]
        if len(blocks) >= 2:
            meds = [maximal_median(space, f, blk, s) for blk in blocks]
            union = sorted(set(p for blk in blocks for p in blk))
            mid = maximal_median(space, f, union, s)
            if not (min(meds) - _tol(mid) <= mid <= max(meds) + _tol(mid)):
                fail("(x)", mid, (min(meds), max(meds)))
            checks += 1

        x = space.point_ids[int(rng.integers(0, space.n))]
        if maximal_median(space, f, [x], s) != float(f.values[space.index(x)]):
            fail("lebesgue", maximal_median(space, f, [x], s), f.values[space.index(x)])
        m_one = maximal_median(space, f, subset, 1.0)
        if m_one != float(f.values[idx].min()):
            fail("s=1", m_one, f.values[idx].min())
        checks += 2

        if failures:
            break

    passed = not failures
    detail = f"{instances} instances, {checks} checks"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C01", "median-property-suite", passed, detail)


# ---------------------------------------------------------------- criterion 2


def _maximal_median_rows(rows: np.ndarray, weights: np.ndarray, s: float) -> np.ndarray:
    """Row-wise maximal s-median of each row under shared weights."""
    order = np.argsort(rows, axis=1)
    v = np.take_along_axis(rows, order, axis=1)
    w = weights[order]
    total = weights.sum()
    tails = total - np.cumsum(w, axis=1)
    j = np.argmax(tails < s * total, axis=1)
    return v[np.arange(rows.shape[0]), j]


def _median_osc_grid_oracle(vals, w, s, points=10_001, rounds=3):
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return 0.0
    grid = np.linspace(lo, hi, points)
    meds = _maximal_median_rows(np.abs(vals[None, :] - grid[:, None]), w, s)
    best = float(meds.min())
    step = (hi - lo) / (points - 1)
    for _ in range(rounds):
        # The objective is piecewise linear with slope +-1, so only cells
        # within one step of the best can hide a lower value.
        centers = grid[meds <= best + step]
        locals_ = np.unique(
            np.concatenate([np.linspace(c - step, c + step, 41) for c in centers])
        )
        meds = _maximal_median_rows(np.abs(vals[None, :] - locals_[:, None]), w, s)
        grid = locals_
        best = min(best, float(meds.min()))
        step = step / 10.0
    return best


def _integral_osc_grid_oracle(vals, wn, q, points=10_001, rounds=4):
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return 0.0
    grid = np.linspace(lo, hi, points)
    scores = (wn[None, :] * np.abs(vals[None, :] - grid[:, None]) ** q).sum(axis=1)
    best = float(scores.min())
    step = (hi - lo) / (points - 1)
    center = float(grid[int(scores.argmin())])
    for _ in range(rounds):
        local = np.linspace(center - step, center + step, 201)
        scores = (wn[None, :] * np.abs(vals[None, :] - local[:, None]) ** q).sum(axis=1)
        j = int(scores.argmin())
        best = min(best, float(scores[j]))
        center = float(local[j])
        step /= 100.0
    return best


def criterion_02(seed=1002, instances=500) -> CaseResult:
    rng = np.random.default_rng(seed)
    worst_med, worst_int = 0.0, 0.0
    failures = []
    for trial in range(instances):
        space = random_space(rng, max_n=14)
        f = random_function(rng, space)
        subset = random_subset(rng, space, min_k=2)
        idx = [space.index(p) for p in subset]
        vals, w = f.values[idx], space.weights[idx]
        rng_span = float(vals.max() - vals.min())

        s = float(rng.uniform(0.05, 1.0))
        mine = median_oscillation(space, f, subset, s)[0]
        oracle = _median_osc_grid_oracle(vals, w, s)
        gap = abs(mine - oracle)
        worst_med = max(worst_med, gap)
        if gap > 1e-6 * max(rng_span, 1e-9):
            failures.append(f"#{trial} median osc: {mine} vs oracle {oracle}")
            break

        q = float(rng.choice([1.0, 1.3, 2.0, 3.0]))
        mine_i = integral_oscillation(space, f, subset, q)[0]
        oracle_i = _integral_osc_grid_oracle(vals, w / w.sum(), q)
        rel = abs(mine_i - oracle_i) / max(abs(oracle_i), 1e-12)
        worst_int = max(worst_int, rel if oracle_i > 0 else 0.0)
        if mine_i > oracle_i * (1.0 + 1e-8) + 1e-14 or rel > 1e-8 and oracle_i > 1e-10:
            failures.append(f"#{trial} integral osc q={q}: {mine_i} vs {oracle_i}")
            break
    passed = not failures
    detail = (
        f"{instances} median + {instances} integral oracles; "
        f"worst median gap {worst_med:.2e}, worst integral rel {worst_int:.2e}"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C02", "oscillation-oracle", passed, detail)


# ---------------------------------------------------------------- criterion 3


def _exhaustive_pack(masks, terms):
    best = 0.0

    def rec(i, used, cur):
        nonlocal best
        if cur > best:
            best = cur
        for j in range(i, len(masks)):
            if masks[j] & used == 0:
                rec(j + 1, used | masks[j], cur + terms[j])

    rec(0, 0, 0.0)
    return best


def _small_packing_instance(rng, max_candidates=12):
    while True:
        space = random_space(rng, max_n=7, min_n=3)
        f = random_function(rng, space)
        s = float(rng.uniform(0.05, 0.5))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        balls = canonical_balls(space)
        cand = []
        for ball in balls:
            osc = median_oscillation(space, f, ball, s)[0]
            term = space.mu(ball.idx) * osc**p
            if term > 0.0:
                cand.append((sum(1 << i for i in ball.idx), term))
        if 1 <= len(cand) <= max_candidates:
            return space, f, s, p, cand


def criterion_03(seed=1003, instances=200) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(instances):
        space, f, s, p, cand = _small_packing_instance(rng)
        oracle = _exhaustive_pack([m for m, _ in cand], [t for _, t in cand])
        exact = jn_median_norm(space, f, None, p, s, mode="exact")
        greedy = jn_median_norm(space, f, None, p, s, mode="greedy")
        if abs(exact.total - oracle) > _tol(oracle, eps=1e-11):
            failures.append(f"#{trial} exact {exact.total} != oracle {oracle}")
            break
        if greedy.total > exact.total + _tol(exact.total):
            failures.append(f"#{trial} greedy {greedy.total} > exact {exact.total}")
            break
    detail = f"{instances} instances (<= 12 candidates), exact == exhaustive, greedy <= exact"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C03", "packing-oracle", not failures, detail)


# ---------------------------------------------------------------- criterion 4


def criterion_04(seed=1004, instances=200) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(instances):
        space = random_space(rng, max_n=7, min_n=2)
        f = random_function(rng, space)
        s = float(rng.uniform(0.02, 0.5))
        t = float(rng.uniform(s, 0.5))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        norm = jn_median_norm(space, f, None, p, s, mode="exact", force=True)
        centered = jn_centered_sup(space, f, None, p, s, t, mode="exact", force=True)
        lo, mid, hi = norm.total, centered.total, 2.0**p * norm.total
        if not (lo <= mid * (1 + 1e-12) + 1e-15 and mid <= hi * (1 + 1e-12) + 1e-15):
            failures.append(f"#{trial} sandwich {lo} <= {mid} <= {hi} fails")
            break
    detail = f"{instances} instances, norm^p <= centered sup <= 2^p norm^p"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C04", "constant-replacement-sandwich", not failures, detail)


# ---------------------------------------------------------------- criterion 5


def criterion_05(seed=1005, instances=200) -> CaseResult:
    rng = np.random.default_rng(seed)
    fixed = [(2.0, 1.0, 0.25), (3.0, 2.0, 0.125), (1.5, 1.0, 0.125)]
    failures = []
    for trial in range(instances):
        if trial < len(fixed) or rng.uniform() < 0.4:
            p, q, s = fixed[trial % len(fixed)]
        else:
            p = float(rng.uniform(1.3, 4.0))
            q = float(rng.uniform(0.3, 0.9) * p)
            s = float(rng.uniform(0.05, 0.5))
        space = random_space(rng, max_n=8, min_n=2)
        f = random_function(rng, space)
        med = jn_median_norm(space, f, None, p, s, mode="exact", force=True)
        integ = jn_integral_norm(space, f, None, p, q, mode="exact", force=True)
        lp = lp_norm(space, f, None, p)
        slack = 1e-9
        if s ** (1.0 / q) * med.value > integ.value * (1 + slack) + 1e-14:
            failures.append(
                f"#{trial} lower: s^(1/q) {s**(1/q)*med.value} > {integ.value}"
            )
            break
        if integ.value > lp * (1 + slack) + 1e-14:
            failures.append(f"#{trial} upper: {integ.value} > Lp {lp}")
            break
        bmo = bmo_median_norm(space, f, None, s)
        bound = space.total_measure ** (1.0 / p) * bmo
        if med.value > bound * (1 + slack) + 1e-14:
            failures.append(f"#{trial} bmo bound: {med.value} > {bound}")
            break
    detail = f"{instances} instances, s^(1/q) JN_med <= JN_int <= Lp and JN_med <= mu^(1/p) BMO"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C05", "embedding-chain", not failures, detail)


# ---------------------------------------------------------------- criterion 6


def criterion_06(seed=1006, instances=50) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []
    p_list = (4.0, 16.0, 64.0, 200.0)
    for trial in range(instances):
        space = random_space(rng, max_n=10, min_n=2, weight_lo=0.5, weight_hi=1.5)
        scale = space.total_measure
        space = build_space(
            space.point_ids, space.weights / scale, coords=space.coords
        )
        vals = rng.uniform(-2.0, 2.0, size=space.n)
        f = SampleFunction.from_values(space, vals)
        s = float(rng.uniform(0.05, 0.5))
        norms = [
            jn_median_norm(space, f, None, p, s, mode="exact", force=True).value
            for p in p_list
        ]
        for a, b in zip(norms, norms[1:]):
            if a > b * (1 + 1e-9) + 1e-14:
                failures.append(f"#{trial} monotonicity: {norms}")
                break
        if failures:
            break
        bmo = bmo_median_norm(space, f, None, s)
        if abs(norms[-1] - bmo) > 0.02 * bmo + 1e-14:
            failures.append(f"#{trial} limit: JN200 {norms[-1]} vs BMO {bmo}")
            break
    detail = f"{instances} normalized instances, nondecreasing in p and JN_200 within 2% of BMO"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C06", "bmo-limit", not failures, detail)


# ---------------------------------------------------------------- criterion 7


def criterion_07(seed=1007, instances=500) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(instances):
        space = random_space(rng, max_n=20, min_n=2)
        diam = float(space.dist.max())
        k = int(rng.integers(1, 13))
        balls = [
            ball_at(
                space,
                space.point_ids[int(rng.integers(0, space.n))],
                float(rng.uniform(0.05, 1.2) * max(diam, 1.0)),
            )
            for _ in range(k)
        ]
        cover = five_cover(space, balls)
        selected = [set(b.idx) for b in cover.selected]
        for a in range(len(selected)):
            for b in range(a + 1, len(selected)):
                if not selected[a].isdisjoint(selected[b]):
                    failures.append(f"#{trial} selected not disjoint")
        for i, ball in enumerate(balls):
            owner = cover.selected[cover.assignment[i]]
            blown = cover.dilates[cover.assignment[i]]
            if not set(ball.idx).issubset(blown.idx):
                failures.append(f"#{trial} ball {i} escapes its 5-dilate")
            if owner.radius < ball.radius - 1e-12:
                failures.append(f"#{trial} ball {i} assigned to smaller ball")
            if selected[cover.assignment[i]].isdisjoint(ball.idx):
                failures.append(f"#{trial} ball {i} misses its owner")
        if failures:
            break

    fired = 0
    if not failures:
        # Radius bound sweep on stopping-time families where it can fire.
        rng2 = np.random.default_rng(seed + 1)
        for _ in range(10):
            params, f, thr, _ = spike_cluster_config(rng2)
            g = np.abs(f.values)
            limit = params.eta / 5.0 * params.b0.radius * (1 + 1e-12)
            for ball in params.family:
                idx = list(ball.idx)
                med = weighted_maximal_median(
                    g[idx], params.space.weights[idx], params.t
                )
                if med > thr:
                    fired += 1
                    if ball.radius > limit:
                        failures.append(
                            f"radius bound: r={ball.radius} > {limit}"
                        )
                        break
            if failures:
                break
    detail = (
        f"{instances} random families covered and disjoint; "
        f"radius bound fired {fired} times, zero violations"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C07", "five-covering", not failures, detail)


# ---------------------------------------------------------------- criterion 8


def criterion_08(seed=1008, satisfiable=200, violating=60) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []

    # (a) small uniform grids: the t/alpha median on the enlarged ball is
    # the maximum of |f|, so one of the two preconditions must fail; the
    # named error is required, a wrong decomposition is a failure.
    for trial in range(violating):
        n = int(rng.choice([16, 32, 48, 64]))
        g = grid_fixture(n)
        vals = np.abs(rng.normal(1.0, 0.5, size=g.n)) + 0.1
        vals[int(rng.integers(0, g.n))] *= 10.0
        f = SampleFunction.from_values(g, vals)
        center = g.point_ids[int(rng.integers(0, g.n))]
        b0 = ball_at(g, center, float(rng.uniform(1.5, 4.5)))
        params = cz_params(g, b0, eta=float(rng.choice([1.0, 2.0, 8.0])))
        lam = float(rng.uniform(0.2, 1.5) * vals.max())
        try:
            cz_decompose(f, params, lam)
            failures.append(f"violating #{trial}: decomposition unexpectedly built")
            break
        except (ThresholdViolated, EmptyLevelSet):
            pass

    # (b) cluster spaces: preconditions satisfiable, certificates verified.
    if not failures:
        done = 0
        while done < satisfiable:
            params, f, thr, height = spike_cluster_config(rng)
            max_m = height  # the spike's singleton family ball
            if thr >= 0.98 * max_m:
                continue
            lam = thr + float(rng.uniform(0.2, 0.95)) * (0.98 * max_m - thr)
            lam_low = thr + float(rng.uniform(0.0, 1.0)) * (lam - thr)
            if rng.uniform() < 0.1:
                lam_low = lam  # same-level containment case
            try:
                low, high, pairs = cz_nested(f, params, lam_low, lam)
            except EmptyLevelSet:
                continue
            if not (low.certificates.ok and high.certificates.ok):
                failures.append(f"satisfiable #{done}: certificates failed")
                break
            if len(pairs) != len(high.balls):
                failures.append(f"satisfiable #{done}: containment not total")
                break
            done += 1

    detail = (
        f"{violating} precondition violations raised named errors; "
        f"{satisfiable} cluster-space configs with certificates (i)-(iv) "
        f"and nested containment verified"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C08", "cz-decomposition-suite", not failures, detail)


# ---------------------------------------------------------------- criterion 9


def criterion_09(seed=1009, instances=200) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []
    done = 0
    while done < instances and not failures:
        p = float(rng.choice([1.5, 2.0, 3.0]))
        K = float(rng.choice([0.0, 1.3, 1.6]))
        params, f, thr, height = spike_cluster_config(rng, p=p, K=K if K > 1 else None)
        s = params.t / params.beta * 0.999
        lam_hi = 0.98 * height / params.K
        if thr >= lam_hi:
            continue
        lam = thr + float(rng.uniform(0.1, 0.9)) * (lam_hi - thr)
        try:
            res = good_lambda_sides(f, params, p, s, lam)
        except PreconditionViolated:
            continue
        if not res.passed:
            failures.append(
                f"#{done} lhs {res.lhs} > rhs {res.rhs} at lam {lam}"
            )
            break
        done += 1

    if not failures:
        # Named preconditions: a constant function has empty level sets.
        params, f, thr, _ = spike_cluster_config(np.random.default_rng(seed + 7))
        const = SampleFunction.from_values(params.space, np.ones(params.space.n))
        try:
            good_lambda_sides(const, params, 2.0, params.t / params.beta * 0.9, 5.0)
            failures.append("constant function did not raise")
        except PreconditionViolated:
            pass
        try:
            good_lambda_sides(f, params, 2.0, 0.49, thr + 1.0)
            failures.append("oversized s did not raise")
        except PreconditionViolated:
            pass

    detail = f"{instances} configurations, lhs <= rhs at 1e-9 relative slack"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C09", "good-lambda", not failures, detail)


# ---------------------------------------------------------------- criterion 10


def criterion_10(seed=1010, instances=100) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []

    g = grid_fixture(64, spacing=1.0 / 64)
    f = canonical_function("log_blowup", g)
    b0 = ball_at(g, "p15", 0.26)
    params = cz_params(g, b0, eta=1.0, t=0.5, p=2.0)
    report = local_jn_verify(f, params, p=2.0, s=params.s0 * 0.999, r_center=0.5)
    if not (report.passed and len(report.entries) == 50):
        failures.append("log-blowup fixture failed the lambda grid")
    if not report.trivial_bound_ok:
        failures.append("log-blowup fixture failed the below-threshold bound")

    done = 0
    while done < instances and not failures:
        space = random_space(rng, max_n=12, min_n=3, weight_lo=0.5, weight_hi=1.5)
        f = random_function(rng, space)
        center = space.point_ids[int(rng.integers(0, space.n))]
        b0 = ball_at(space, center, float(rng.uniform(0.3, 1.0) * space.dist.max()))
        eta = float(rng.choice([0.5, 1.0, 2.0]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        params = cz_params(space, b0, eta=eta, t=0.5, p=p)
        s = params.s0 * float(rng.uniform(0.3, 0.999))
        r_center = float(rng.uniform(0.25, 0.5))
        rep = local_jn_verify(f, params, p=p, s=s, r_center=r_center)
        if not rep.passed:
            failures.append(f"#{done} local verify failed (lambda0={rep.lambda0})")
            break
        done += 1

    detail = (
        "64-point log-blowup fixture (50 lambdas) plus "
        f"{instances} random fixtures, all entries and the 2^p "
        "below-threshold bound verified"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C10", "local-john-nirenberg", not failures, detail)


# ---------------------------------------------------------------- criterion 11


def criterion_11(seed=1011, lower_instances=100) -> CaseResult:
    rng = np.random.default_rng(seed)
    failures = []

    g = grid_fixture(32, spacing=1.0 / 32)
    full = ball_at(g, "p15", 10.0)
    dec = grid_boman_decomposition(g, full)
    if not verify_boman(g, dec).ok:
        failures.append("grid decomposition does not verify")

    # single-condition violations, each detected by name
    tampered = [
        ("i-union", replace(dec, region=dec.region[:-1])),
        ("ii-overlap", replace(dec, overlap=dec.overlap - 1)),
        ("iii-chains", replace(dec, chains={**dec.chains, 5: tuple(dec.chains[5][1:])})),
        ("iv-links", replace(dec, links={**dec.links, (5, 1): dec.links[(5, 1)][:1]})),
        ("v-absorption", replace(dec, rho=1.01)),
    ]
    for name, bad in tampered:
        cert = verify_boman(g, bad)
        if cert.ok or name not in cert.failing():
            failures.append(f"tampered condition {name} not detected: {cert.failing()}")

    # single-ball decomposition: global lhs values equal local lhs values
    if not failures:
        single = grid_boman_decomposition(g, ball_at(g, "p7", 1.0 / 64))
        f = canonical_function("log_blowup", g)
        base = dilate(g, single.balls[0], single.c1)
        eta = single.c2 / single.c1 - 1.0
        params = cz_params(g, base, eta=eta, t=0.5, p=2.0)
        s = min(params.s0, 0.5) * 0.9
        grid_l = np.geomspace(0.05, 5.0, 20)
        local = local_jn_verify(f, params, 2.0, s, 0.5, lambda_grid=grid_l)
        glob = global_jn_verify(g, f, single, 2.0, s, 0.5, lambda_grid=grid_l)
        for e_loc, e_glo in zip(local.entries, glob.entries):
            if abs(e_loc.lhs - e_glo[1]) > 1e-12:
                failures.append(
                    f"single-ball lhs mismatch {e_loc.lhs} vs {e_glo[1]}"
                )
                break

    # equivalence lower bound on random instances
    if not failures:
        for trial in range(lower_instances):
            space = random_space(rng, max_n=8, min_n=2)
            f = random_function(rng, space)
            p = float(rng.uniform(1.5, 3.0))
            q = float(rng.uniform(0.4, 0.9) * p)
            s = float(rng.uniform(0.05, 0.5))
            rep = jn_equivalence_check(space, f, None, p, q, s, c_budget=100.0)
            if not rep.lower_bound_ok:
                failures.append(f"#{trial} equivalence lower bound violated")
                break

    # empirical constants on the grid fixture: finite and within budget
    c0 = c_meas = float("nan")
    if not failures:
        f = canonical_function("log_blowup", g)
        ratio = chain_ratio(g, f, dec, 2.0, 0.5)
        c0 = ratio.c0
        s_glob = 0.0005
        rep = global_jn_verify(g, f, dec, 2.0, s_glob, 0.5)
        c_meas = rep.c_measured
        if not (math.isfinite(c0) and math.isfinite(c_meas) and rep.passed):
            failures.append(
                f"global fixture: C0 {c0}, C_meas {c_meas}, budget {rep.c_budget}"
            )

    detail = (
        "five tampered conditions detected; single-ball global == local; "
        f"{lower_instances} lower bounds; C0 {c0:.4g}, C_meas {c_meas:.4g}"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C11", "global-boman-suite", not failures, detail)


# ---------------------------------------------------------------- criterion 12


def criterion_12(seed=1012) -> CaseResult:
    """Determinism probe: a fast subset re-run twice.

    The full suite's run-to-run determinism is asserted by the test suite,
    which compares complete reports; this case keeps a fast,
    self-contained probe inside every run.
    """
    failures = []
    fast = [3, 7]
    a = run_all(criteria=fast)
    b = run_all(criteria=fast)
    as_json = [r.to_json() for r in a]
    if as_json != [r.to_json() for r in b]:
        failures.append("two sequential runs differ")
    for entry in as_json:
        if set(entry) != {"id", "name", "pass", "detail"}:
            failures.append(f"report schema violated: {sorted(entry)}")
            break
    detail = "subset re-run twice, identical reports"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CaseResult("C12", "determinism-probe", not failures, detail)


# ---------------------------------------------------------------- runner


CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_all(criteria=None) -> list[CaseResult]:
    picks = sorted(criteria) if criteria else sorted(CRITERIA)
    return [CRITERIA[k]() for k in picks]


def report_json(results) -> dict:
    return {
        "pass": all(r.passed for r in results),
        "cases": [r.to_json() for r in results],
    }
