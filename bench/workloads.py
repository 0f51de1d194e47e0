"""Fixtures and operations of the workloads.

Each workload has ``build(mj, rng, rec, work)``, which makes the run's
inputs from ``rng`` (the same in every round) and turns them into program objects (set-up), and
``run(mj, fx, rec)``, which makes the round's timed calls.  Every call
into the program goes through the recorder, so a traced run sees a span
around each one.  Outputs are serialised to JSON for the checker in the
parent process; inputs are recorded as plain coordinates, weights and
values, so the checker needs nothing from the program.

Point ids are ``p0 .. p{n-1}`` in coordinate-row order everywhere.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from oracles import stopping_constants

# Per-ball level and exponent of the grid operations of weak-type.
S_GRID = 0.25
P_GRID = 2.0


class Fixtures:
    """Program objects of one round plus their plain-array description."""

    def __init__(self, mj, rec):
        self.mj = mj
        self.rec = rec
        self.spaces: dict = {}
        self.functions: dict = {}
        self.inputs: dict = {"spaces": {}, "functions": {}}

    def space(self, key, coords, weights):
        coords = [list(map(float, row)) for row in coords]
        weights = [float(w) for w in weights]
        ids = [f"p{i}" for i in range(len(coords))]
        self.spaces[key] = self.rec.setup(
            "space.build_space", self.mj.build_space, ids, weights, coords=coords
        )
        self.inputs["spaces"][key] = {"coords": coords, "weights": weights}
        return self.spaces[key]

    def function(self, key, space_key, values):
        values = [float(v) for v in values]
        self.functions[key] = self.rec.setup(
            "median.SampleFunction.from_values",
            self.mj.SampleFunction.from_values,
            self.spaces[space_key],
            values,
        )
        self.inputs["functions"][key] = {"space": space_key, "values": values}
        return self.functions[key]


def grid_coords(dim: int, n: int, spacing: float = 1.0):
    """n points (1-D) or n x n points (2-D) at multiples of the spacing."""
    if dim == 1:
        return [[(i + 1) * spacing] for i in range(n)]
    return [[(i + 1) * spacing, (j + 1) * spacing] for i in range(n) for j in range(n)]


def cluster_coords(depth: int, ratio: float = 10.0):
    """2^depth points on a line, point k at the sum of ratio^j over its set bits j."""
    return [
        [sum(ratio**j for j in range(depth) if (k >> j) & 1)] for k in range(2**depth)
    ]


def random_coords(rng, n: int, dim: int):
    while True:
        coords = rng.uniform(0.0, 10.0, size=(n, dim))
        gaps = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
        if (gaps + np.eye(n)).min() > 1e-6:
            return coords


# ---------------------------------------------------------------- serialisers


def balls_json(balls):
    return [[b.center, b.radius] for b in balls]


def jn_json(res):
    doc = res.to_json()
    doc["total"] = res.total
    return doc


def dec_json(dec):
    return {
        "lam": dec.lam,
        "threshold": dec.threshold,
        "balls": balls_json(dec.balls),
        "e_lambda": list(dec.e_lambda),
        "certificates_ok": dec.certificates.ok,
    }


def params_json(params):
    return {
        "b0": [params.b0.center, params.b0.radius],
        "b0_hat": [params.b0_hat.center, params.b0_hat.radius],
        "eta": params.eta,
        "t": params.t,
        "p": params.p,
        "K": params.K,
        "alpha": params.alpha,
        "beta": params.beta,
        "s0": params.s0,
        "c_mu": params.profile.c_mu,
        "family": balls_json(params.family),
    }


def nested_json(res):
    low, high, pairs = res
    return {"low": dec_json(low), "high": dec_json(high), "pairs": [list(p) for p in pairs]}


def good_lambda_json(res):
    return {
        "lam": res.lam,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "passed": res.passed,
        "jn_norm": res.jn_norm,
        "low": dec_json(res.low),
        "high": dec_json(res.high),
    }


def cover_json(cover):
    return {"selected": balls_json(cover.selected), "assignment": list(cover.assignment)}


def to_json(obj):
    return obj.to_json()


# ---------------------------------------------------------------- trace counts


def live_candidates(mj, space, f, region, p, s):
    """Work counts of a median-type norm call, from the warm oscillation cache."""

    def counts(res):
        live = 0
        for ball in mj.canonical_balls(space, region):
            osc, _ = mj.median_oscillation(space, f, ball, s)
            live += osc > 0.0
        return {"norms.live_candidates": live, "norms.packing_size": len(res.packing.balls)}

    return counts


def first_evaluation(mj, space, region):
    """Counts for the first call that evaluates every ball of a region at one s."""

    def counts(_res):
        return {"median.oscillations": len(mj.canonical_balls(space, region))}

    return counts


def merged(*makers):
    def counts(res):
        out = {}
        for make in makers:
            out.update(make(res))
        return out

    return counts


# ---------------------------------------------------------------- exact-packing

# (dimension, points, s) of the spaces of a run: a fixed mix of sizes and
# levels (s = 1/4 searches about three times longer than s = 1/2), three
# times over; the geometry, weights, values and p are drawn from the seed.
# Per-space search time is heavy-tailed, and one slow space among 24 moved
# a run's wall_s by up to a fifth, so every run draws 72 of them.
PACKING_SPACES = 3 * [(dim, n, s) for s in (0.25, 0.5)
                      for dim, n in [(1, 22), (1, 24), (1, 26), (1, 28), (1, 30), (1, 32),
                                     (2, 18), (2, 20), (2, 22), (2, 24), (2, 26), (2, 28)]]


class ExactPacking:
    """Greedy then exact (force=True) median JN norms on random spaces."""

    def build(self, mj, rng, rec, work):
        fx = Fixtures(mj, rec)
        fx.levels = {}
        for k, (dim, n, s) in enumerate(PACKING_SPACES):
            key = f"rand{k}"
            fx.space(key, random_coords(rng, n, dim), rng.uniform(0.5, 1.5, size=n))
            fx.function(key, key, rng.normal(0.0, 1.0, size=n))
            fx.levels[key] = (float(rng.uniform(1.5, 3.0)), s)
        return fx

    def run(self, mj, fx, rec):
        for key, (p, s) in fx.levels.items():
            g, f = fx.spaces[key], fx.functions[key]
            ctx = {"space": key, "function": key, "p": p, "s": s}
            rec.op("norms.jn_median_norm.greedy", mj.jn_median_norm, g, f, None, p, s,
                   mode="greedy", force=True, ctx=ctx, out=jn_json,
                   traced=merged(first_evaluation(mj, g, None),
                                 live_candidates(mj, g, f, None, p, s),
                                 lambda res: {"norms.greedy_total": res.total}))
            rec.op("norms.jn_median_norm.exact", mj.jn_median_norm, g, f, None, p, s,
                   mode="exact", force=True, ctx=ctx, out=jn_json,
                   traced=merged(live_candidates(mj, g, f, None, p, s),
                                 lambda res: {"norms.exact_total": res.total}))


# ---------------------------------------------------------------- weak-type

CLUSTER_DEPTH = 6
CLUSTER_ETA = 1e5


def spike_values(rng, n, star):
    """Background below 2 with a spike at ``star`` well above it.

    Returns (values, background maximum, spike height).  On the depth-6
    cluster space (c_mu = 2) the t/alpha median of |f| over the whole
    space is a background value, so every level strictly between the
    background maximum and the spike has a nonempty level set and clears
    the median threshold.
    """
    style = int(rng.integers(0, 3))
    if style == 0:
        vals = np.full(n, float(rng.uniform(0.2, 2.0)))
    elif style == 1:
        vals = rng.uniform(0.1, 2.0, size=n)
    else:
        vals = np.where(rng.integers(0, 2, size=n) == 1, 2.0, 0.5).astype(float)
    background = float(vals.max())
    height = float(background * rng.uniform(8.0, 40.0) + 5.0)
    vals[star] = height
    return vals, background, height


# Closed-form doubling constants of the integer grids the workload uses.
GRID_C_MU = {"line64": 3.0, "grid8": 9.0}


class WeakType:
    """Stopping-time configurations, five-covers and chain decompositions."""

    configs = 8
    families = 3
    family_size = 30

    def build(self, mj, rng, rec, work):
        fx = Fixtures(mj, rec)
        cs = fx.space("cluster", cluster_coords(CLUSTER_DEPTH), np.ones(2**CLUSTER_DEPTH))
        fx.configs = []
        for k in range(self.configs):
            star = int(rng.integers(0, cs.n))
            vals, background, height = spike_values(rng, cs.n, star)
            key = f"spike{k}"
            fx.function(key, "cluster", vals)
            b0 = rec.setup("space.ball_at", mj.ball_at, cs, f"p{star}", 2.0)
            fx.configs.append({
                "function": key, "b0": b0, "p": float(rng.choice([1.5, 2.0, 3.0])),
                "u": float(rng.uniform(0.1, 0.9)), "background": background,
                "height": height, "r": float(rng.uniform(0.25, 0.5)),
            })

        line = fx.space("line64", grid_coords(1, 64), np.ones(64))
        blowup = rec.setup("generators.canonical_function", mj.canonical_function,
                           "log_blowup", line)
        fx.function("line64", "line64", rng.uniform(0.5, 2.0) * blowup.values + rng.uniform(-1, 1))
        fx.space("grid8", grid_coords(2, 8), np.ones(64))
        fx.function("grid8", "grid8", rng.normal(0.0, rng.uniform(0.5, 2.0), size=64))
        # Equivalence region on the 2-D grid: the 21-point disc of radius 2.5
        # around an interior point, so the exact packing stays small.
        i, j = rng.integers(3, 7, size=2)
        fx.disc = rec.setup("space.ball_at", mj.ball_at, fx.spaces["grid8"],
                            f"p{(i - 1) * 8 + (j - 1)}", 2.5)

        fx.targets = {key: rec.setup("space.ball_at", mj.ball_at, fx.spaces[key], "p0", 1000.0)
                      for key in ("line64", "grid8")}
        fx.families = []
        for k in range(self.families):
            key = ("cluster", "line64", "grid8")[k % 3]
            g = fx.spaces[key]
            centers = rng.integers(0, g.n, size=self.family_size)
            if key == "cluster":
                radii = 10.0 ** rng.uniform(0.0, 3.0, size=self.family_size)
            else:
                radii = rng.uniform(0.5, 4.0, size=self.family_size)
            balls = [rec.setup("space.ball_at", mj.ball_at, g, f"p{c}", float(r))
                     for c, r in zip(centers, radii)]
            fx.families.append((key, balls))
        return fx

    def run(self, mj, fx, rec):
        cs = fx.spaces["cluster"]
        for cfg in fx.configs:
            f = fx.functions[cfg["function"]]
            ctx = {"space": "cluster", "function": cfg["function"], "eta": CLUSTER_ETA}
            params = rec.op("czd.cz_params", mj.cz_params, cs, cfg["b0"], eta=CLUSTER_ETA,
                            t=0.5, p=cfg["p"], ctx=ctx, out=params_json,
                            traced=lambda res: {"czd.family_balls": len(res.family)})
            if params is None:
                continue
            ctx = dict(ctx, params=params_json(params))
            lam_top = 0.98 * cfg["height"] / params.K
            lam = cfg["background"] + cfg["u"] * (lam_top - cfg["background"])
            rec.op("czd.cz_decompose", mj.cz_decompose, f, params, params.K * lam,
                   ctx=ctx, out=dec_json,
                   traced=lambda res: {"czd.cz_balls": len(res.balls),
                                       "czd.level_set_points": len(res.e_lambda)})
            rec.op("czd.cz_nested", mj.cz_nested, f, params, lam, params.K * lam,
                   ctx=ctx, out=nested_json,
                   traced=lambda res: {"czd.cz_balls": len(res[0].balls) + len(res[1].balls),
                                       "czd.level_set_points":
                                           len(res[0].e_lambda) + len(res[1].e_lambda)})
            s = params.t / params.beta * 0.999
            rec.op("czd.good_lambda_sides", mj.good_lambda_sides, f, params, params.p, s, lam,
                   ctx=dict(ctx, s=s), out=good_lambda_json)
            s_loc = params.s0 * 0.999
            rec.op("czd.local_jn_verify", mj.local_jn_verify, f, params, params.p, s_loc,
                   cfg["r"], ctx=dict(ctx, s=s_loc, r=cfg["r"]), out=to_json)

        for key, balls in fx.families:
            rec.op("covering.five_cover", mj.five_cover, fx.spaces[key], balls,
                   ctx={"space": key, "family": balls_json(balls)}, out=cover_json,
                   traced=lambda res, n=len(balls): {"covering.selected": len(res.selected),
                                                     "covering.offered": n})

        for key in ("line64", "grid8"):
            g, f = fx.spaces[key], fx.functions[key]
            ctx = {"space": key, "function": key, "p": P_GRID}
            dec = rec.op("boman.grid_boman_decomposition", mj.grid_boman_decomposition, g,
                         fx.targets[key], ctx=ctx, out=to_json,
                         traced=lambda res: {"boman.chain_balls": len(res.balls)})
            if dec is None:
                continue
            ctx = dict(ctx, dec=dec.to_json())
            rec.op("boman.verify_boman", mj.verify_boman, g, dec, ctx=ctx, out=to_json)
            rec.op("boman.chain_ratio", mj.chain_ratio, g, f, dec, P_GRID, 0.5,
                   ctx=dict(ctx, s=0.5),
                   out=lambda r: {"lhs": r.lhs, "rhs_sum": r.rhs_sum, "c0": r.c0})
            s = 0.9 * stopping_constants(GRID_C_MU[key], dec.c2 / dec.c1 - 1.0)[1]
            rec.op("boman.global_jn_verify", mj.global_jn_verify, g, f, dec, P_GRID, s, 0.5,
                   ctx=dict(ctx, s=s, r=0.5), out=to_json)
            region = None if key == "line64" else list(fx.disc.members)
            rec.op("boman.jn_equivalence_check", mj.jn_equivalence_check, g, f, region,
                   P_GRID, 1.0, S_GRID, 100.0,
                   ctx={"space": key, "function": key, "p": P_GRID, "q": 1.0, "s": S_GRID,
                        "region": region}, out=to_json)


# ---------------------------------------------------------------- cli-pipeline


class CliPipeline:
    """In-process ``medianjn.cli.main`` runs on the README fixtures."""

    def build(self, mj, rng, rec, work):
        import medianjn.cli  # noqa: F401  (part of the CLI's import cost)

        fx = Fixtures(mj, rec)
        fx.work = work
        g = fx.space("readme64", grid_coords(1, 64, 1.0 / 64), np.ones(64))
        f = rec.setup("generators.canonical_function", mj.canonical_function, "log_blowup", g)
        fx.inputs["functions"]["readme64"] = {"space": "readme64", "values": f.values.tolist()}
        target = rec.setup("space.ball_at", mj.ball_at, g, "p31", 10.0)
        dec = rec.setup("boman.grid_boman_decomposition", mj.grid_boman_decomposition, g, target)

        cs = fx.space("cluster", cluster_coords(CLUSTER_DEPTH), np.ones(2**CLUSTER_DEPTH))
        star = int(rng.integers(0, cs.n))
        vals, background, height = spike_values(rng, cs.n, star)
        fx.function("spike", "cluster", vals)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        K = 2.0 ** (1.0 / p)
        lam = background + float(rng.uniform(0.1, 0.9)) * (0.98 * height / K - background)
        # With c_mu = 2, beta = 2 K^p c_mu^3 = 32.
        fx.cluster = {"center": f"p{star}", "radius": 2.0, "eta": CLUSTER_ETA, "p": p,
                      "level": lam, "s_good": 0.5 / 32.0 * 0.999,
                      "s_local": 0.999 * stopping_constants(2.0, CLUSTER_ETA)[1],
                      "r": float(rng.uniform(0.25, 0.5))}
        subset = sorted(rng.choice(64, size=int(rng.integers(3, 12)), replace=False))
        fx.subset = ",".join(f"p{i}" for i in subset)
        fx.median_s = float(rng.choice([0.25, 0.5, 0.75]))

        for name, doc in (("space", mj.space_to_json(g)), ("f", f.to_json(g)),
                          ("dec", dec.to_json()), ("cluster", mj.space_to_json(cs)),
                          ("spike", fx.functions["spike"].to_json(cs))):
            with open(work / f"{name}.json", "w") as fh:
                json.dump(doc, fh)
        fx.inputs["dec"] = dec.to_json()
        fx.inputs["cluster"] = fx.cluster
        return fx

    def run(self, mj, fx, rec):
        from medianjn.cli import main

        w = fx.work
        grid = ["--space", str(w / "space.json")]
        fn = grid + ["--function", str(w / "f.json")]
        cl = ["--space", str(w / "cluster.json"), "--function", str(w / "spike.json"),
              "--center", fx.cluster["center"], "--radius", str(fx.cluster["radius"]),
              "--eta", repr(fx.cluster["eta"])]
        p = fx.cluster["p"]
        commands = [
            ["generate", "--kind", "grid-space", "--dim", "1", "--n", "64",
             "--spacing", "0.015625", "--out", str(w / "gen_space.json")],
            ["generate", "--kind", "log_blowup", "--space", str(w / "gen_space.json"),
             "--out", str(w / "gen_f.json")],
            ["doubling", *grid],
            ["median", *fn, "--s", repr(fx.median_s), "--set", "all"],
            ["oscillation", *fn, "--s", "0.5", "--set", fx.subset],
            ["bmo", *fn, "--s", "0.25"],
            ["jn-median", *fn, "--p", "2", "--s", "0.25", "--mode", "greedy"],
            ["jn-integral", *fn, "--p", "2", "--q", "1", "--mode", "greedy"],
            ["equivalence", *fn, "--p", "2", "--q", "1", "--s", "0.25"],
            ["verify-boman", *grid, "--decomposition", str(w / "dec.json")],
            ["verify-global-jn", *fn, "--decomposition", str(w / "dec.json"),
             "--p", "2", "--s", "0.0005", "--r", "0.5"],
            ["cz", *cl, "--level", repr(fx.cluster["level"])],
            ["good-lambda", *cl, "--p", repr(p), "--s", repr(fx.cluster["s_good"]),
             "--level", repr(fx.cluster["level"])],
            ["verify-local-jn", *cl, "--p", repr(p), "--s", repr(fx.cluster["s_local"]),
             "--r", repr(fx.cluster["r"]), "--lambda-grid", "log:0.1:100:40"],
        ]
        g = fx.spaces["readme64"]
        for argv in commands:
            if argv[0] != "generate":
                argv = argv + ["--output", "json"]
            traced = None
            if argv[0] in ("bmo", "jn-median"):
                traced = first_evaluation(mj, g, None)
            rec.op(f"cli.{argv[0]}", _run_cli, main, argv, w,
                   ctx={"argv": [a.replace(str(w) + "/", "") for a in argv]},
                   traced=_cli_counts(traced))


def _run_cli(main, argv, work):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    text = buf.getvalue()
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    out = {"bytes": len(text.encode())}
    if "--output" in argv:
        out["json"] = json.loads(text)
    else:
        with open(argv[argv.index("--out") + 1]) as fh:
            out["json"] = json.load(fh)
    return out


def _cli_counts(extra):
    def counts(res):
        out = {"cli.output_bytes": res["bytes"]}
        if extra is not None:
            out.update(extra(res))
        return out

    return counts


class Library:
    """exact-packing, then weak-type, on their own inputs in one round."""

    parts = (ExactPacking(), WeakType())

    def build(self, mj, rng, rec, work):
        fx = Fixtures(mj, rec)
        fx.parts = [part.build(mj, rng, rec, work) for part in self.parts]
        for part in fx.parts:
            for kind in ("spaces", "functions"):
                assert not fx.inputs[kind].keys() & part.inputs[kind].keys()
                fx.inputs[kind].update(part.inputs[kind])
        return fx

    def run(self, mj, fx, rec):
        for part, pfx in zip(self.parts, fx.parts):
            part.run(mj, pfx, rec)


WORKLOADS = {
    "library": Library(),
    "exact-packing": ExactPacking(),
    "weak-type": WeakType(),
    "cli-pipeline": CliPipeline(),
}
