"""Command-line interface.

Exit codes: 0 all assertions pass, 1 a verified inequality failed (the
report names it), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .boman import (
    decomposition_from_json,
    global_jn_verify,
    jn_equivalence_check,
    verify_boman,
)
from .covering import five_cover
from .czd import cz_decompose, cz_params, good_lambda_sides, local_jn_verify
from .errors import MedianJNError
from .generators import canonical_function, cluster_space, grid_space
from .median import SampleFunction, maximal_median, median_oscillation
from .norms import (
    bmo_median_norm,
    integral_oscillation,
    jn_integral_norm,
    jn_median_norm,
)
from .space import _balls_from_json, ball_at, doubling_profile, space_from_json, space_to_json


def _load_space(path):
    with open(path) as fh:
        return space_from_json(json.load(fh))


def _load_function(space, path):
    with open(path) as fh:
        return SampleFunction.from_json(space, json.load(fh))


def _emit(args, payload: dict, text_lines) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_set(space, raw):
    if raw is None or raw == "all":
        return None
    return [p.strip() for p in raw.split(",") if p.strip()]


def _parse_lambda_grid(raw):
    if raw is None:
        return None
    kind, _, rest = raw.partition(":")
    if kind == "list":
        return np.array([float(v) for v in rest.split(",")])
    if kind == "log":
        lo, hi, count = rest.split(":")
        return np.geomspace(float(lo), float(hi), int(count))
    raise MedianJNError(f"bad --lambda-grid {raw!r}; use log:lo:hi:count or list:v1,v2")


def _base_ball(space, args):
    if args.center is None or args.radius is None:
        raise MedianJNError("this command needs --center and --radius for the base ball")
    return ball_at(space, args.center, args.radius)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medianjn",
        description="Median oscillation, BMO/John-Nirenberg norms, and "
        "weak-type inequality verifiers on finite metric measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, function=True):
        p.add_argument("--space", required=True, help="space JSON path")
        if function:
            p.add_argument("--function", required=True, help="function JSON path")
        p.add_argument("--output", choices=("json", "text"), default="text")
        return p

    p = common(sub.add_parser("doubling", help="doubling constant and certificate"), function=False)

    p = common(sub.add_parser("median", help="maximal s-median over a set"))
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--set", default="all")

    p = common(sub.add_parser("oscillation", help="median (--s) or integral (--q) oscillation"))
    p.add_argument("--s", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--set", default="all")

    p = common(sub.add_parser("bmo", help="median-type BMO norm"))
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--set", default="all")

    p = common(sub.add_parser("jn-median", help="median-type John-Nirenberg norm"))
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--set", default="all")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--force", action="store_true")

    p = common(sub.add_parser("jn-integral", help="integral-type John-Nirenberg norm"))
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--set", default="all")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--force", action="store_true")

    p = common(sub.add_parser("five-cover", help="disjoint subfamily with 5-dilate coverage"), function=False)
    p.add_argument("--balls", required=True, help="JSON path: [{center, radius}, ...]")

    p = common(sub.add_parser("cz", help="Calderon-Zygmund balls at one level"))
    p.add_argument("--center", help="base ball center")
    p.add_argument("--radius", type=float, help="base ball radius")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--level", type=float, required=True)

    p = common(sub.add_parser("good-lambda", help="good-lambda inequality sides"))
    p.add_argument("--center", help="base ball center")
    p.add_argument("--radius", type=float, help="base ball radius")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--K", type=float)
    p.add_argument("--level", type=float, required=True)

    p = common(sub.add_parser("verify-local-jn", help="local weak-type inequality"))
    p.add_argument("--center", help="base ball center")
    p.add_argument("--radius", type=float, help="base ball radius")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--lambda-grid", dest="lambda_grid")

    p = common(sub.add_parser("verify-global-jn", help="global weak-type inequality on a region"))
    p.add_argument("--decomposition", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--lambda-grid", dest="lambda_grid")
    p.add_argument("--budget", type=float)

    p = common(sub.add_parser("verify-boman", help="verify a chain decomposition"), function=False)
    p.add_argument("--decomposition", required=True)

    p = common(sub.add_parser("equivalence", help="integral vs median norm comparison"))
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--set", default="all")
    p.add_argument("--budget", type=float, default=100.0)

    p = sub.add_parser("generate", help="write space or function fixtures")
    p.add_argument("--kind", required=True,
                   help="grid-space | cluster-space | log_blowup | power | step | two_valued | random_piecewise")
    p.add_argument("--space", help="space JSON path (function kinds)")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--weight-profile", default="uniform")
    p.add_argument("--params", default="{}", help="JSON dict of function parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--output", choices=("json", "text"), default="text")

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default all)")
    p.add_argument("--output", choices=("json", "text"), default="text")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by later ones.

    Building it makes about a hundred help formatters; in-process callers
    that run many commands pay that once.  No argument has a mutable
    default, so each parse starts from the same state.
    """
    return build_parser()


def _run(args) -> int:
    cmd = args.command

    if cmd == "generate":
        if args.kind == "grid-space":
            space = grid_space(args.dim, args.n, args.spacing, args.weight_profile, args.seed)
            payload = space_to_json(space)
        elif args.kind == "cluster-space":
            space = cluster_space(args.depth, spacing=args.spacing,
                                  weight_profile=args.weight_profile, seed=args.seed)
            payload = space_to_json(space)
        else:
            if not args.space:
                raise MedianJNError("function kinds need --space")
            space = _load_space(args.space)
            f = canonical_function(args.kind, space, json.loads(args.params), args.seed)
            payload = f.to_json(space)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
        return 0

    if cmd == "verify-all":
        from . import acceptance  # the one command that needs the acceptance suite

        criteria = None
        if args.criteria:
            criteria = [int(v) for v in args.criteria.split(",")]
        results = acceptance.run_all(criteria=criteria)
        payload = acceptance.report_json(results)
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.cid} {r.name}: {r.detail}"
            for r in results
        ]
        lines.append(f"overall: {'PASS' if payload['pass'] else 'FAIL'}")
        _emit(args, payload, lines)
        return 0 if payload["pass"] else 1

    space = _load_space(args.space)

    if cmd == "doubling":
        prof = doubling_profile(space)
        payload = {
            "c_mu": prof.c_mu,
            "dimension": prof.dimension,
            "certificate_ok": prof.certificate_ok,
            "worst_quadruple": list(prof.worst_quadruple),
            "worst_ratio": prof.worst_ratio,
        }
        _emit(args, payload, [
            f"c_mu = {prof.c_mu:.12g}",
            f"dimension = {prof.dimension:.12g}",
            f"certificate ok = {prof.certificate_ok} (worst ratio {prof.worst_ratio:.6g})",
        ])
        return 0 if prof.certificate_ok else 1

    if cmd == "verify-boman":
        with open(args.decomposition) as fh:
            dec = decomposition_from_json(space, json.load(fh))
        cert = verify_boman(space, dec)
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name} {c.witness}".rstrip()
                 for c in cert.conditions]
        lines.append(f"overall: {'PASS' if cert.ok else 'FAIL'}")
        _emit(args, cert.to_json(), lines)
        return 0 if cert.ok else 1

    if cmd == "five-cover":
        with open(args.balls) as fh:
            balls = _balls_from_json(space, json.load(fh))
        cover = five_cover(space, balls)
        payload = {
            "selected": [{"center": b.center, "radius": b.radius} for b in cover.selected],
            "assignment": list(cover.assignment),
        }
        _emit(args, payload, [
            f"selected {len(cover.selected)} of {len(balls)} balls",
            *(f"  {b.center} r={b.radius:.12g}" for b in cover.selected),
        ])
        return 0

    f = _load_function(space, args.function)

    if cmd == "median":
        value = maximal_median(space, f, _parse_set(space, args.set), args.s)
        _emit(args, {"median": value}, [f"{value:.12g}"])
        return 0

    if cmd == "oscillation":
        subset = _parse_set(space, args.set)
        if args.q is not None:
            value, c = integral_oscillation(space, f, subset, args.q)
        elif args.s is not None:
            value, c = median_oscillation(space, f, subset, args.s)
        else:
            raise MedianJNError("oscillation needs --s (median) or --q (integral)")
        _emit(args, {"oscillation": value, "argmin": c},
              [f"{value:.12g} at c = {c:.12g}"])
        return 0

    if cmd == "bmo":
        value = bmo_median_norm(space, f, _parse_set(space, args.set), args.s)
        _emit(args, {"bmo": value}, [f"{value:.12g}"])
        return 0

    if cmd in ("jn-median", "jn-integral"):
        region = _parse_set(space, args.set)
        if cmd == "jn-median":
            res = jn_median_norm(space, f, region, args.p, args.s, args.mode, args.force)
        else:
            res = jn_integral_norm(space, f, region, args.p, args.q, args.mode, args.force)
        _emit(args, res.to_json(), [
            f"{res.value:.12g} ({res.mode} mode, {len(res.packing.balls)} balls)",
            *(f"  {b.center} r={b.radius:.6g} osc={o:.6g} term={t:.6g}"
              for b, o, t in zip(res.packing.balls, res.packing.oscillations, res.packing.terms)),
        ])
        return 0

    if cmd in ("cz", "good-lambda", "verify-local-jn"):
        b0 = _base_ball(space, args)
        params = cz_params(space, b0, eta=args.eta, t=args.t,
                           p=getattr(args, "p", 2.0) or 2.0,
                           K=getattr(args, "K", None))
        if cmd == "cz":
            dec = cz_decompose(f, params, args.level)
            payload = {
                "level": dec.lam,
                "threshold": dec.threshold,
                "balls": [{"center": b.center, "radius": b.radius} for b in dec.balls],
                "level_set": list(dec.e_lambda),
                "certificates_ok": dec.certificates.ok,
            }
            _emit(args, payload, [
                f"{len(dec.balls)} balls at level {dec.lam:.6g} "
                f"(threshold {dec.threshold:.6g}), certificates ok",
            ])
            return 0
        if cmd == "good-lambda":
            res = good_lambda_sides(f, params, args.p, args.s, args.level)
            payload = {"lhs": res.lhs, "rhs": res.rhs, "pass": res.passed,
                       "jn_norm": res.jn_norm}
            _emit(args, payload, [
                f"lhs = {res.lhs:.12g}",
                f"rhs = {res.rhs:.12g}",
                f"{'PASS' if res.passed else 'FAIL'} good-lambda measure estimate",
            ])
            return 0 if res.passed else 1
        rep = local_jn_verify(f, params, args.p, args.s, args.r,
                              _parse_lambda_grid(args.lambda_grid))
        lines = [
            f"lambda0 = {rep.lambda0:.12g}, c = {rep.constant_c:.12g}, "
            f"s0 = {rep.s0:.6g}, alpha = {rep.alpha:.6g}",
            f"below-threshold bound: {'PASS' if rep.trivial_bound_ok else 'FAIL'}",
            f"{'PASS' if rep.passed else 'FAIL'} local weak-type inequality "
            f"({len(rep.entries)} levels)",
        ]
        _emit(args, rep.to_json(), lines)
        return 0 if rep.passed else 1

    if cmd == "verify-global-jn":
        with open(args.decomposition) as fh:
            dec = decomposition_from_json(space, json.load(fh))
        rep = global_jn_verify(space, f, dec, args.p, args.s, args.r,
                               _parse_lambda_grid(args.lambda_grid), args.budget)
        _emit(args, rep.to_json(), [
            f"C_measured = {rep.c_measured:.12g}, budget = {rep.c_budget:.12g}, "
            f"C0 = {rep.c0_empirical:.12g}",
            f"{'PASS' if rep.passed else 'FAIL'} global weak-type inequality",
        ])
        return 0 if rep.passed else 1

    if cmd == "equivalence":
        rep = jn_equivalence_check(space, f, _parse_set(space, args.set),
                                   args.p, args.q, args.s, args.budget)
        _emit(args, rep.to_json(), [
            f"median norm = {rep.median_norm:.12g}, integral norm = {rep.integral_norm:.12g}",
            f"lower bound: {'PASS' if rep.lower_bound_ok else 'FAIL'}",
            f"upper ratio {rep.upper_ratio:.6g} vs budget {rep.upper_budget:.6g}: "
            f"{'within' if rep.upper_ok else 'exceeds'}"
            + (" (degenerate, trivially equivalent)" if rep.degenerate else ""),
        ])
        return 0 if rep.lower_bound_ok else 1

    raise MedianJNError(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except MedianJNError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
