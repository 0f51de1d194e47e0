"""Benchmark of medianjn: three workloads, checked against independent oracles.

Usage (from the root of a checkout):

    python3 bench/run.py --workload exact-packing --seed 1 --seconds 36 --trace 0

Each round runs in a fresh worker process (``bench/worker.py``) that
imports the program from ``src/``, builds the fixtures of the seed and
times the round's operations; every round of a run has the same inputs.
This process then checks every output with ``bench/oracles.py`` and, once
``--seconds`` have passed, prints one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics.  With ``--trace 0`` those are
the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of the traced rounds, and the
spans go to ``bench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from checks import Checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is also measured by this many processes that only set up, so that
# even a workload with long rounds has enough set-up samples for a median.
SETUP_PROBES = 3
# Every run completes at least this many rounds, however short --seconds is.
MIN_ROUNDS = 2
# A worker that runs longer than this is stuck; the run fails.
WORKER_TIMEOUT_S = 150
# One thread per worker on a machine of few cores, and the same hash seed
# in every worker, so that rounds of the same inputs do the same work.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                  OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

SPANS = [
    "space.build_space", "norms.jn_median_norm.greedy", "norms.jn_median_norm.exact",
    "covering.five_cover", "czd.cz_params", "czd.cz_nested", "czd.cz_decompose", "czd.good_lambda_sides", "czd.local_jn_verify",
    "boman.grid_boman_decomposition", "boman.verify_boman", "boman.chain_ratio",
    "boman.global_jn_verify", "boman.jn_equivalence_check",
    "cli.generate", "cli.doubling", "cli.median", "cli.oscillation", "cli.bmo",
    "cli.jn-median", "cli.jn-integral", "cli.equivalence", "cli.verify-boman",
    "cli.verify-global-jn", "cli.cz", "cli.good-lambda", "cli.verify-local-jn",
    "generators.canonical_function",
]
COUNTS = [
    "median.oscillations", "norms.live_candidates",
    "norms.packing_size", "czd.family_balls", "czd.cz_balls", "czd.level_set_points",
    "boman.chain_balls", "cli.output_bytes",
]


def per_layer(doc) -> dict[str, float]:
    """Per-layer metrics of one traced round: busy seconds per span, counts, ratios."""
    busy = {name: 0.0 for name in SPANS}
    for span in doc["spans"]:
        if span["name"] in busy:
            busy[span["name"]] += span["end"] - span["start"]
    c = doc["counts"]
    out = {f"{name}.s": value for name, value in busy.items()}
    out.update({name: c.get(name, 0.0) for name in COUNTS})
    out["median.oscillations_per_s"] = (
        c["median.oscillations"] / c["median.seconds"] if c.get("median.seconds") else 0.0
    )
    out["norms.greedy_to_exact"] = (
        c["norms.greedy_total"] / c["norms.exact_total"] if c.get("norms.exact_total") else 0.0
    )
    out["covering.selected_ratio"] = (
        c["covering.selected"] / c["covering.offered"] if c.get("covering.offered") else 0.0
    )
    return out


def run_worker(workload, seed, round_, trace, setup_only=False) -> dict:
    tag = "-setup" if setup_only else ""
    out = OUT / f"round-{workload}-seed{seed}-r{round_}-t{trace}{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_), "--trace", str(trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        doc = json.load(fh)
    out.unlink()
    return doc


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Verdicts:
    """Checks rounds, reusing the verdict on an output already checked.

    Every round of a run has the same inputs and the program is
    deterministic, so from the second round on most outputs repeat byte
    for byte; their verdict is that of the first.  An output that differs
    in any way is checked in full.
    """

    def __init__(self):
        self.checkers: dict[str, tuple[Checker, dict]] = {}

    def check_round(self, doc) -> tuple[int, int, int, list[str]]:
        """(attempted, failed, failed with a wrong output, problems) of one round."""
        key = digest(doc["inputs"])
        if key not in self.checkers:
            self.checkers[key] = (Checker(doc["inputs"]), {})
        checker, seen = self.checkers[key]
        failed, wrong, problems = 0, 0, []
        for rec in doc["records"]:
            rkey = digest([rec["op"], rec["ctx"], rec["error"], rec.get("out")])
            if rkey not in seen:
                seen[rkey] = checker.check(rec)
            found = seen[rkey]
            if found:
                failed += 1
                wrong += rec["error"] is None
                problems.append(f"round {doc['round']} {rec['op']}: {'; '.join(found[:3])}")
        return len(doc["records"]), failed, wrong, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "medianjn" / "__init__.py").is_file():
        print(f"benchmark: the program is missing ({ROOT / 'src' / 'medianjn'})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setups = [run_worker(args.workload, args.seed, k, 0, setup_only=True)["setup_s"]
              for k in range(SETUP_PROBES)]
    verdicts = Verdicts()
    rounds, attempted, failed, wrong, problems = [], 0, 0, 0, []
    start = last = time.perf_counter()
    # Start another round unless it would end mostly past --seconds; a round's
    # length is predicted from the previous one, checks included.
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start
                                       + (time.perf_counter() - last) / 2 < args.seconds):
        last = time.perf_counter()
        doc = run_worker(args.workload, args.seed, len(rounds), args.trace)
        a, f, w, p = verdicts.check_round(doc)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        problems += p
        setups.append(doc["setup_s"])
        rounds.append(doc)
        print(f"round {doc['round']}: wall {doc['wall_s']:.4f}s setup {doc['setup_s']:.4f}s "
              f"rss {doc['peak_rss_mb']:.1f}MB ops {a} failed {f}", file=sys.stderr)
    for line in problems[:20]:
        print("FAILED " + line, file=sys.stderr)

    if args.trace:
        layers = [per_layer(doc) for doc in rounds]
        with open(ROOT / "BENCHMARK.json") as fh:
            listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        if set(listed) != set(layers[0]):
            raise RuntimeError("per-layer metrics differ from those in BENCHMARK.json")
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
            for name, unit in listed.items()
        }
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": [{"round": d["round"], "wall_s": d["wall_s"],
                                   "spans": d["spans"], "counts": d["counts"]}
                                  for d in rounds]}, fh)
        print(f"traced wall_s median {statistics.median(d['wall_s'] for d in rounds):.4f}",
              file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.mean(d["wall_s"] for d in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(d["peak_rss_mb"] for d in rounds),
                            "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, rounds=len(rounds), problems=problems,
                       round_wall_s=[d["wall_s"] for d in rounds], setup_samples_s=setups),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
