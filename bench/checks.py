"""Checks of every operation's output against ``oracles.py``.

``Checker(inputs)`` rebuilds each space from its coordinates and weights
and answers every question with the oracles; ``check(record)`` returns
the problems found with one operation's output (an empty list when it
passes).  No stored copy of an earlier output is used anywhere, and
nothing from ``medianjn`` is imported.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as orc

REL = 1e-9


def close(a, b, rel=REL, abs_=1e-12) -> bool:
    return abs(float(a) - float(b)) <= max(rel * max(abs(float(a)), abs(float(b))), abs_)


def below(a, b, rel=REL) -> bool:
    return float(a) <= float(b) * (1.0 + rel) + 1e-12


class Space:
    """A space as plain arrays, with member sets by strict inequality."""

    def __init__(self, coords, weights):
        self.coords = np.asarray(coords, dtype=float)
        self.w = np.asarray(weights, dtype=float)
        self.dist = orc.distances(self.coords)
        self.n = len(self.w)
        self._sets: dict = {}

    @staticmethod
    def index(pid: str) -> int:
        return int(pid[1:])

    def members(self, center, radius) -> tuple[int, ...]:
        return tuple(np.nonzero(orc.ball(self.dist, self.index(center), radius))[0].tolist())

    def ids(self, pids) -> tuple[int, ...]:
        return tuple(sorted(self.index(p) for p in pids))

    def mu(self, members) -> float:
        return float(self.w[list(members)].sum())

    def sets(self, region=None):
        key = None if region is None else tuple(sorted(region))
        if key not in self._sets:
            self._sets[key] = orc.member_sets(self.dist, key)
        return self._sets[key]

    def c_mu(self) -> float:
        if "c_mu" not in self._sets:
            self._sets["c_mu"] = orc.doubling_constant(self.dist, self.w)
        return self._sets["c_mu"]


def central_index(dec, balls) -> int:
    cc, cr = dec["central"]["center"], dec["central"]["radius"]
    return next(i for i, (c, r) in enumerate(balls) if c == cc and r == cr)


def disjoint(sets) -> bool:
    seen: set = set()
    for m in sets:
        if seen & set(m):
            return False
        seen |= set(m)
    return True


class Checker:
    def __init__(self, inputs):
        self.spaces = {k: Space(v["coords"], v["weights"]) for k, v in inputs["spaces"].items()}
        self.values = {k: np.asarray(v["values"], dtype=float)
                       for k, v in inputs["functions"].items()}
        self.fspace = {k: v["space"] for k, v in inputs["functions"].items()}
        self.inputs = inputs
        self._osc: dict = {}
        self._opt: dict = {}
        self.greedy_total: dict = {}

    # ------------------------------------------------------------ oracle values

    def osc(self, fkey, members, kind, level):
        """Median (kind 'med', level s) or q = 1 integral oscillation of a set."""
        key = (fkey, members, kind, level)
        if key not in self._osc:
            sp = self.spaces[self.fspace[fkey]]
            vals, w = self.values[fkey][list(members)], sp.w[list(members)]
            if kind == "med":
                self._osc[key] = orc.median_oscillation(vals, w, level)
            else:
                self._osc[key] = orc.integral_oscillation_q1(vals, w)
        return self._osc[key]

    def optimum(self, fkey, region, kind, level, power):
        """Exact packing optimum of mu(B) osc(B)^power over balls in the region."""
        key = (fkey, None if region is None else tuple(sorted(region)), kind, level, power)
        if key not in self._opt:
            sp = self.spaces[self.fspace[fkey]]
            sets = sp.sets(region)
            terms = [sp.mu(m) * self.osc(fkey, m, kind, level) ** power for m in sets]
            self._opt[key] = orc.packing_optimum(sp.coords, sets, terms)
        return self._opt[key]

    def bmo_oracle(self, fkey, s):
        sp = self.spaces[self.fspace[fkey]]
        return max(self.osc(fkey, m, "med", s) for m in sp.sets())

    # ------------------------------------------------------------ shared checks

    def packing(self, fkey, packing, norm, total, p, kind, level, region=None):
        """Structure of a JN result; returns (problems, total)."""
        sp = self.spaces[self.fspace[fkey]]
        power = p if kind == "med" else p / level
        problems = []
        sets = []
        for entry in packing:
            m = sp.members(entry["center"], entry["radius"])
            sets.append(m)
            if region is not None and not set(m) <= set(region):
                problems.append(f"packed ball {entry['center']} leaves the region")
            osc = self.osc(fkey, m, kind, level)
            if not close(entry["oscillation"], osc):
                problems.append(f"ball {entry['center']}@{entry['radius']}: oscillation "
                                f"{entry['oscillation']} != oracle {osc}")
            if not close(entry["term"], sp.mu(m) * osc**power):
                problems.append(f"ball {entry['center']}: term {entry['term']} != oracle")
        if not disjoint(sets):
            problems.append("packing is not pairwise disjoint")
        summed = sum(e["term"] for e in packing)
        if total is None:
            total = summed
        if not close(total, summed):
            problems.append(f"total {total} != sum of terms {summed}")
        if not close(norm, total ** (1.0 / p)):
            problems.append(f"value {norm} != total^(1/p)")
        return problems, total

    def jn(self, out, ctx, mode, kind="med", region=None):
        fkey, p = ctx["function"], ctx["p"]
        level = ctx["s"] if kind == "med" else ctx["q"]
        problems, total = self.packing(fkey, out["packing"], out["norm"], out.get("total"),
                                       p, kind, level, region)
        power = p if kind == "med" else p / level
        opt = self.optimum(fkey, region, kind, level, power)
        if mode == "exact" and not close(total, opt):
            problems.append(f"exact total {total} != oracle optimum {opt}")
        if mode == "greedy" and not below(total, opt):
            problems.append(f"greedy total {total} > oracle optimum {opt}")
        return problems, total

    def family(self, sp, b0_members, budget):
        """Member sets of {B(x, r) : x in B0, 0 < r <= budget}."""
        found = set()
        for x in b0_members:
            radii = [d for d in np.unique(sp.dist[x]) if 0.0 < d <= budget] + [budget]
            for r in radii:
                found.add(tuple(np.nonzero(sp.dist[x] < r)[0].tolist()))
        return found

    def cz_geometry(self, sp, cz):
        """Oracle view of a CZ configuration: B0, hat-B0, family, alpha, s0."""
        c0, r0 = cz["center"], cz["radius"]
        eta, t = cz["eta"], cz.get("t", 0.5)
        b0 = sp.members(c0, r0)
        hat = sp.members(c0, (1.0 + eta) * r0)
        fam = self.family(sp, b0, eta * r0)
        c = sp.c_mu()
        alpha, s0 = orc.stopping_constants(c, eta)
        return {"b0": b0, "hat": hat, "family": fam, "alpha": alpha, "s0": s0, "c": c,
                "eta": eta, "t": t, "r0": r0}

    def level_set(self, sp, fkey, geo, lam):
        g = np.abs(self.values[fkey])
        best = np.zeros(sp.n)
        for m in geo["family"]:
            med = orc.maximal_median(g[list(m)], sp.w[list(m)], geo["t"])
            best[list(m)] = np.maximum(best[list(m)], med)
        return {x for x in geo["hat"] if best[x] > lam}

    def decomposition(self, sp, fkey, geo, dec, lam):
        problems = []
        g = np.abs(self.values[fkey])
        e_oracle = self.level_set(sp, fkey, geo, lam)
        e_prog = set(sp.ids(dec["e_lambda"] if "e_lambda" in dec else dec["level_set"]))
        if e_prog != e_oracle:
            problems.append(f"E_lambda has {len(e_prog)} points, oracle {len(e_oracle)}")
        sets = [sp.members(c, r) for c, r in _balls(dec["balls"])]
        if not disjoint(sets):
            problems.append("CZ balls are not disjoint")
        if not all(set(m) <= e_oracle for m in sets):
            problems.append("a CZ ball leaves E_lambda")
        covered = set()
        for c, r in _balls(dec["balls"]):
            covered |= set(sp.members(c, 5.0 * r))
        if not e_oracle <= covered:
            problems.append("E_lambda is not inside the union of 5-dilates")
        limit = geo["eta"] * geo["r0"] / 5.0 * (1.0 + 1e-12)
        if any(r > limit for _, r in _balls(dec["balls"])):
            problems.append("a CZ ball exceeds radius eta r_B0 / 5")
        for m in sets:
            if not orc.maximal_median(g[list(m)], sp.w[list(m)], geo["t"]) > lam:
                problems.append("a CZ ball has t-median <= lambda")
        thr = orc.maximal_median(g[list(geo["hat"])], sp.w[list(geo["hat"])],
                                 geo["t"] / geo["alpha"])
        if not close(dec["threshold"], thr):
            problems.append(f"threshold {dec['threshold']} != oracle {thr}")
        if not (dec.get("certificates_ok") is True):
            problems.append("certificates not ok")
        return problems

    def boman(self, sp, dec):
        """Conditions of a chain decomposition of the whole space, from member sets."""
        problems = []
        balls = _balls(dec["balls"])
        region = set(sp.ids(dec["region"]))
        if region != set(range(sp.n)):
            problems.append("decomposition region is not the whole grid")
        sets = [sp.members(c, r) for c, r in balls]
        c1 = [set(sp.members(c, dec["C1"] * r)) for c, r in balls]
        c2 = [set(sp.members(c, dec["C2"] * r)) for c, r in balls]
        if not disjoint(sets):
            problems.append("decomposition balls are not disjoint")
        if set().union(*c1) != region or set().union(*c2) != region:
            problems.append("C1 or C2 dilates do not tile the region")
        for a in c2:
            if sum(1 for b in c2 if a & b) > dec["M"]:
                problems.append("C2 overlap exceeds M")
                break
        central = central_index(dec, balls)
        chains = {int(k): v for k, v in dec["chains"].items()}
        for bi in range(len(balls)):
            chain = chains.get(bi)
            if not chain or chain[0] != central or chain[-1] != bi:
                problems.append(f"chain of ball {bi} does not run central -> ball")
                break
            for pos in range(1, len(chain)):
                link = set(sp.ids(dec["links"][f"{bi}:{pos}"]))
                if not link <= (c1[chain[pos]] & c1[chain[pos - 1]]):
                    problems.append(f"link {bi}:{pos} leaves the C1 intersection")
                need = dec["C3"] * (sp.mu(sets[chain[pos]]) + sp.mu(sets[chain[pos - 1]]))
                if sp.mu(link) < need * (1.0 - 1e-12):
                    problems.append(f"link {bi}:{pos} is too light")
            for v in chain:
                c, r = balls[v]
                if not set(sets[bi]) <= set(sp.members(c, dec["rho"] * r)):
                    problems.append(f"ball {bi} escapes rho * ball {v}")
        if not (dec["C2"] > dec["C1"] > 1.0 and dec["C3"] > 1.0 and dec["rho"] > 1.0
                and dec["M"] >= 1):
            problems.append("decomposition constants out of range")
        return problems

    def local(self, rep, fkey, geo, p, s, r):
        sp = self.spaces[self.fspace[fkey]]
        vals = self.values[fkey]
        b0, hat = list(geo["b0"]), list(geo["hat"])
        problems = []
        center = orc.maximal_median(vals[b0], sp.w[b0], r)
        g = np.abs(vals - center)
        lam0 = orc.maximal_median(g[hat], sp.w[hat], geo["t"] / geo["alpha"])
        opt = self.optimum(fkey, hat, "med", s, p)
        const = 2.0 ** (p + 3.0) * geo["c"] ** 6 / (2.0 ** (1.0 / p) - 1.0) ** p
        for name, got, want in (("lambda0", rep["lambda0"], lam0),
                                ("jn_norm", rep["jn_norm"], opt ** (1.0 / p)),
                                ("constant_c", rep["constant_c"], const),
                                ("s0", rep["s0"], geo["s0"]),
                                ("alpha", rep["alpha"], geo["alpha"])):
            if not close(got, want):
                problems.append(f"local {name} {got} != oracle {want}")
        in_b0 = np.zeros(sp.n, dtype=bool)
        in_b0[b0] = True
        for e in rep["entries"]:
            lhs = float(sp.w[in_b0 & (g > e["lambda"])].sum())
            if not close(e["lhs"], lhs):
                problems.append(f"local lhs {e['lhs']} != oracle {lhs} at {e['lambda']}")
                break
            if not (e["pass"] and below(e["lhs"], const * opt / e["lambda"] ** p)):
                problems.append(f"local entry fails at lambda {e['lambda']}")
                break
        if not below(sp.mu(hat) * lam0**p, 2.0**p * opt) or not rep["trivial_bound"]:
            problems.append("below-threshold bound fails")
        if rep["pass"] is not True:
            problems.append("local report does not pass")
        return problems

    def global_report(self, rep, fkey, dec, p, s, r):
        sp = self.spaces[self.fspace[fkey]]
        vals = self.values[fkey]
        problems = []
        balls = _balls(dec["balls"])
        c, rad = balls[central_index(dec, balls)]
        cm = list(sp.members(c, dec["C1"] * rad))
        a = orc.maximal_median(vals[cm], sp.w[cm], r)
        region = sp.ids(dec["region"])
        opt = self.optimum(fkey, region, "med", s, p)
        _, s0 = orc.stopping_constants(sp.c_mu(), dec["C2"] / dec["C1"] - 1.0)
        for name, got, want in (("a", rep["a"], a), ("jn_norm", rep["jn_norm"], opt ** (1.0 / p)),
                                ("s0", rep["s0"], s0)):
            if not close(got, want):
                problems.append(f"global {name} {got} != oracle {want}")
        g = np.abs(vals - a)
        inside = np.zeros(sp.n, dtype=bool)
        inside[list(region)] = True
        c_meas = 0.0
        for e in rep["entries"]:
            lhs = float(sp.w[inside & (g > e["lambda"])].sum())
            if not close(e["lhs"], lhs):
                problems.append(f"global lhs {e['lhs']} != oracle {lhs}")
                break
            if lhs > 0.0:
                c_meas = max(c_meas, lhs * e["lambda"] ** p / opt)
        if not close(rep["c_measured"], c_meas):
            problems.append(f"c_measured {rep['c_measured']} != oracle {c_meas}")
        if not (rep["pass"] is True and below(rep["c_measured"], rep["c_budget"])):
            problems.append("global report does not pass")
        return problems

    def equivalence(self, rep, fkey, region, p, q, s):
        problems = []
        med = self.optimum(fkey, region, "med", s, p) ** (1.0 / p)
        integ = self.optimum(fkey, region, "int", q, p / q) ** (1.0 / p)
        if not close(rep["median_norm"], med):
            problems.append(f"median norm {rep['median_norm']} != oracle {med}")
        if not close(rep["integral_norm"], integ):
            problems.append(f"integral norm {rep['integral_norm']} != oracle {integ}")
        if not (rep["lower_bound_ok"] and below(s ** (1.0 / q) * med, integ)):
            problems.append("s^(1/q) JN_med > JN_int")
        return problems

    def chain_ratio(self, out, fkey, dec, p, s):
        sp = self.spaces[self.fspace[fkey]]
        vals = self.values[fkey]
        balls = _balls(dec["balls"])
        dil = [list(sp.members(c, dec["C1"] * r)) for c, r in balls]
        central = central_index(dec, balls)
        m_star = orc.maximal_median(vals[dil[central]], sp.w[dil[central]], s)
        lhs = rhs = 0.0
        for d in dil:
            m_b = orc.maximal_median(vals[d], sp.w[d], s)
            lhs += abs(m_b - m_star) ** p * sp.mu(d)
            rhs += orc.weak_lp_power(vals[d] - m_b, sp.w[d], p)
        problems = []
        if not (close(out["lhs"], lhs) and close(out["rhs_sum"], rhs)):
            problems.append(f"chain ratio sides ({out['lhs']}, {out['rhs_sum']}) != "
                            f"oracle ({lhs}, {rhs})")
        c0 = 0.0 if rhs == 0.0 and lhs == 0.0 else (math.inf if rhs == 0.0 else lhs / rhs)
        if not close(out["c0"], c0):
            problems.append(f"c0 {out['c0']} != oracle {c0}")
        return problems

    # ------------------------------------------------------------ per operation

    def check(self, record) -> list[str]:
        if record["error"] is not None:
            return [f"raised {record['error']}"]
        handler = getattr(self, "op_" + record["op"].replace(".", "_").replace("-", "_"))
        return handler(record["out"], record["ctx"])

    def op_space_doubling_profile(self, out, ctx):
        c = self.spaces[ctx["space"]].c_mu()
        problems = []
        if not close(out["c_mu"], c, rel=1e-12):
            problems.append(f"c_mu {out['c_mu']} != oracle {c}")
        if out["certificate_ok"] is not True:
            problems.append("doubling certificate not ok")
        return problems

    def op_norms_jn_median_norm_greedy(self, out, ctx):
        problems, total = self.jn(out, ctx, "greedy")
        self.greedy_total[ctx["function"]] = total
        return problems

    def op_norms_jn_median_norm_exact(self, out, ctx):
        problems, total = self.jn(out, ctx, "exact")
        greedy = self.greedy_total.get(ctx["function"])
        if greedy is not None and not below(greedy, total):
            problems.append(f"greedy total {greedy} > exact total {total}")
        return problems

    def op_czd_cz_params(self, out, ctx):
        sp = self.spaces[ctx["space"]]
        c0, r0 = out["b0"]
        geo = self.cz_geometry(sp, {"center": c0, "radius": r0, "eta": ctx["eta"], "t": out["t"]})
        problems = []
        fam = [sp.members(c, r) for c, r in out["family"]]
        if len(fam) != len(geo["family"]) or set(fam) != geo["family"]:
            problems.append(f"family has {len(fam)} balls, oracle {len(geo['family'])}")
        beta = 2.0 * out["K"] ** out["p"] * geo["c"] ** 3
        for name, want in (("alpha", geo["alpha"]), ("s0", geo["s0"]), ("c_mu", geo["c"]),
                           ("beta", beta), ("K", 2.0 ** (1.0 / out["p"]))):
            if not close(out[name], want):
                problems.append(f"{name} {out[name]} != oracle {want}")
        return problems

    def _cz_ctx(self, ctx):
        sp = self.spaces[ctx["space"]]
        prm = ctx["params"]
        geo = self.cz_geometry(sp, {"center": prm["b0"][0], "radius": prm["b0"][1],
                                    "eta": prm["eta"], "t": prm["t"]})
        return sp, prm, geo

    def op_czd_cz_decompose(self, out, ctx):
        sp, prm, geo = self._cz_ctx(ctx)
        return self.decomposition(sp, ctx["function"], geo, out, out["lam"])

    def op_czd_cz_nested(self, out, ctx):
        sp, prm, geo = self._cz_ctx(ctx)
        problems = self.decomposition(sp, ctx["function"], geo, out["low"], out["low"]["lam"])
        problems += self.decomposition(sp, ctx["function"], geo, out["high"], out["high"]["lam"])
        high, low = _balls(out["high"]["balls"]), _balls(out["low"]["balls"])
        if len(out["pairs"]) != len(high):
            problems.append("containment pairs do not cover the high balls")
        for hi, lo in out["pairs"]:
            c, r = low[lo]
            if not set(sp.members(*high[hi])) <= set(sp.members(c, 5.0 * r)):
                problems.append(f"high ball {hi} escapes 5 * low ball {lo}")
        return problems

    def op_czd_good_lambda_sides(self, out, ctx):
        sp, prm, geo = self._cz_ctx(ctx)
        f, p, s, lam, K = ctx["function"], prm["p"], ctx["s"], out["lam"], prm["K"]
        problems = self.decomposition(sp, f, geo, out["low"], lam)
        problems += self.decomposition(sp, f, geo, out["high"], K * lam)
        lhs = sum(sp.mu(sp.members(c, r)) for c, r in _balls(out["high"]["balls"]))
        low = sum(sp.mu(sp.members(c, r)) for c, r in _balls(out["low"]["balls"]))
        opt = self.optimum(f, geo["hat"], "med", s, p)
        rhs = (2.0**p * geo["c"] ** 3 / (K - 1.0) ** p) * opt / lam**p + low / (2.0 * K**p)
        if not close(out["lhs"], lhs):
            problems.append(f"good-lambda lhs {out['lhs']} != oracle {lhs}")
        if not close(out["rhs"], rhs):
            problems.append(f"good-lambda rhs {out['rhs']} != oracle {rhs}")
        if not close(out["jn_norm"], opt ** (1.0 / p)):
            problems.append(f"good-lambda norm {out['jn_norm']} != oracle")
        if not (out["passed"] is True and below(lhs, rhs)):
            problems.append("good-lambda estimate fails")
        return problems

    def op_czd_local_jn_verify(self, out, ctx):
        sp, prm, geo = self._cz_ctx(ctx)
        return self.local(out, ctx["function"], geo, prm["p"], ctx["s"], ctx["r"])

    def op_covering_five_cover(self, out, ctx):
        sp = self.spaces[ctx["space"]]
        family = _balls(ctx["family"])
        sets = [set(sp.members(c, r)) for c, r in family]
        chosen = _balls(out["selected"])
        problems = []
        if not all(b in family for b in chosen):
            problems.append("a selected ball is not from the family")
        if not disjoint([sp.members(c, r) for c, r in chosen]):
            problems.append("selected balls are not disjoint")
        if len(out["assignment"]) != len(family):
            return problems + ["assignment does not cover the family"]
        for j, a in enumerate(out["assignment"]):
            c, r = chosen[a]
            if not (sets[j] & set(sp.members(c, r))) or not sets[j] <= set(sp.members(c, 5 * r)):
                problems.append(f"family ball {j} is not inside the 5-dilate it is assigned")
                break
        return problems

    def op_boman_grid_boman_decomposition(self, out, ctx):
        return self.boman(self.spaces[ctx["space"]], out)

    def op_boman_verify_boman(self, out, ctx):
        if out["ok"] is not True or not all(c["pass"] for c in out["conditions"]):
            return ["verify_boman rejects a decomposition the oracle accepts"]
        return []

    def op_boman_chain_ratio(self, out, ctx):
        return self.chain_ratio(out, ctx["function"], ctx["dec"], ctx["p"], ctx["s"])

    def op_boman_global_jn_verify(self, out, ctx):
        return self.global_report(out, ctx["function"], ctx["dec"], ctx["p"], ctx["s"], ctx["r"])

    def op_boman_jn_equivalence_check(self, out, ctx):
        region = ctx["region"]
        if region is not None:
            region = self.spaces[ctx["space"]].ids(region)
        return self.equivalence(out, ctx["function"], region, ctx["p"], ctx["q"], ctx["s"])

    # ------------------------------------------------------------ CLI commands

    def cli(self, out, ctx):
        argv = ctx["argv"]
        opts = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
                if argv[i].startswith("--")}
        doc = out["json"]
        cmd = argv[0]
        sp = self.spaces["readme64"]
        f = "readme64"
        if cmd == "generate" and opts["kind"] == "grid-space":
            coords = [p["coords"] for p in doc["points"]]
            want = [[(i + 1) / 64.0] for i in range(64)]
            ok = coords == want and all(p["weight"] == 1.0 for p in doc["points"]) and \
                [p["id"] for p in doc["points"]] == [f"p{i}" for i in range(64)]
            return [] if ok else ["generated grid differs from the README grid"]
        if cmd == "generate":
            got = [doc["values"][f"p{i}"] for i in range(64)]
            want = [math.log(64.0 / (i + 1)) for i in range(64)]
            return [] if all(close(a, b, rel=1e-15) for a, b in zip(got, want)) else \
                ["generated log blow-up differs from log(1/x)"]
        if cmd == "doubling":
            return self.op_space_doubling_profile(doc, {"space": "readme64"})
        if cmd == "median":
            want = orc.maximal_median(self.values[f], sp.w, float(opts["s"]))
            return [] if close(doc["median"], want) else [f"median {doc['median']} != {want}"]
        if cmd == "oscillation":
            m = sp.ids(opts["set"].split(","))
            s = float(opts["s"])
            want = self.osc(f, m, "med", s)
            vals = self.values[f][list(m)]
            at = orc.oscillation_at(vals, sp.w[list(m)], s, doc["argmin"])
            if close(doc["oscillation"], want) and close(at, want):
                return []
            return [f"oscillation {doc['oscillation']} (at its argmin {at}) != oracle {want}"]
        if cmd == "bmo":
            want = self.bmo_oracle(f, float(opts["s"]))
            return [] if close(doc["bmo"], want) else [f"BMO {doc['bmo']} != oracle {want}"]
        if cmd in ("jn-median", "jn-integral"):
            c = {"function": f, "p": float(opts["p"]), "s": float(opts.get("s", 0)),
                 "q": float(opts.get("q", 1))}
            problems = self.jn(doc, c, opts["mode"], "med" if cmd == "jn-median" else "int")[0]
            if cmd == "jn-median" and not below(
                    doc["norm"], sp.w.sum() ** (1.0 / c["p"]) * self.bmo_oracle(f, c["s"])):
                problems.append("JN_med > mu(X)^(1/p) BMO")
            return problems
        if cmd == "equivalence":
            return self.equivalence(doc, f, None, float(opts["p"]), float(opts["q"]),
                                    float(opts["s"]))
        if cmd == "verify-boman":
            return self.boman(sp, self.inputs["dec"]) + self.op_boman_verify_boman(doc, {})
        if cmd == "verify-global-jn":
            return self.global_report(doc, f, self.inputs["dec"], float(opts["p"]),
                                      float(opts["s"]), float(opts["r"]))
        cs = self.spaces["cluster"]
        geo = self.cz_geometry(cs, self.inputs["cluster"])
        if cmd == "cz":
            return self.decomposition(cs, "spike", geo, doc, float(opts["level"]))
        if cmd == "good-lambda":
            p = float(opts["p"])
            opt = self.optimum("spike", geo["hat"], "med", float(opts["s"]), p)
            problems = [] if close(doc["jn_norm"], opt ** (1.0 / p)) else \
                [f"good-lambda norm {doc['jn_norm']} != oracle"]
            if not (doc["pass"] is True and below(doc["lhs"], doc["rhs"])):
                problems.append("good-lambda estimate fails")
            return problems
        if cmd == "verify-local-jn":
            return self.local(doc, "spike", geo, float(opts["p"]), float(opts["s"]),
                              float(opts["r"]))
        return [f"no check for command {cmd}"]


for _cmd in ("generate", "doubling", "median", "oscillation", "bmo", "jn-median",
             "jn-integral", "equivalence", "verify-boman", "verify-global-jn", "cz",
             "good-lambda", "verify-local-jn"):
    setattr(Checker, "op_cli_" + _cmd.replace("-", "_"), Checker.cli)


def _balls(entries):
    out = []
    for e in entries:
        if isinstance(e, dict):
            out.append((e["center"], e["radius"]))
        else:
            out.append((e[0], e[1]))
    return out
