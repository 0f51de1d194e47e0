"""One round of one workload, in a process of its own.

Run by ``bench/run.py``; not meant to be started by hand.  The process
imports ``medianjn`` from ``src/`` of the checkout (timed), builds the
fixtures of the seed through the public API (timed), then runs the round's
operations, timing each call.  It writes a JSON document with the
inputs, every operation's output or error, the timings and the peak
resident memory to the path given by ``--out``.  With ``--trace 1`` it
also records a span around every call into the program and the work
counts of each layer.

Nothing here checks results: the parent process does that with
``bench/oracles.py``, so neither the checks nor scipy count towards this
process's time or memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class Recorder:
    """Times operations and, when tracing, records spans and counts."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.records: list[dict] = []
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.op_seconds = 0.0
        self.setup_seconds = 0.0
        self.phase = "setup"

    def _span(self, name: str, t0: float, t1: float) -> None:
        if self.trace:
            self.spans.append({"name": name, "start": t0, "end": t1, "parent": self.phase})

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    def setup(self, name: str, fn, *args, **kwargs):
        """A fixture-building call into the program (counted in set-up)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self._span(name, t0, t1)
        return result

    def op(self, name: str, fn, *args, ctx=None, out=None, traced=None, **kwargs):
        """One timed operation; a raised exception is recorded, not propagated.

        ``out`` turns the result into JSON for the checker and ``traced``
        returns work counts; both run outside the timed region, and
        ``traced`` only when tracing.
        """
        error = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            result = None
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.op_seconds += t1 - t0
        self._span(name, t0, t1)
        record = {"op": name, "ctx": ctx or {}, "error": error, "seconds": t1 - t0}
        if error is None:
            record["out"] = out(result) if out is not None else result
            if self.trace and traced is not None:
                counts = traced(result)
                for key, value in counts.items():
                    self.count(key, value)
                if "median.oscillations" in counts:
                    # The first call that evaluates a ball carries its cost.
                    self.count("median.seconds", t1 - t0)
        self.records.append(record)
        return result


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also carry the
    parent's resident size at fork time, so it serves only as a fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_program():
    """Import medianjn from this checkout's src/ and return (module, seconds)."""
    src = ROOT / "src"
    if not (src / "medianjn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program at {src / 'medianjn'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import medianjn

    seconds = time.perf_counter() - t0
    if Path(medianjn.__file__).resolve().parent != (src / "medianjn").resolve():
        raise SystemExit(f"benchmark: imported medianjn from {medianjn.__file__}")
    return medianjn, seconds


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    mj, import_seconds = _load_program()
    rec = Recorder(bool(args.trace))
    work = Path(args.out).with_suffix(".work")
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]
        rng = np.random.default_rng(args.seed)
        t0 = time.perf_counter()
        fixtures = workload.build(mj, rng, rec, work)
        rec.setup_seconds = import_seconds + time.perf_counter() - t0
        if not args.setup_only:
            rec.phase = "round"
            workload.run(mj, fixtures, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "import_s": import_seconds,
        "setup_s": rec.setup_seconds,
        "wall_s": rec.op_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "inputs": fixtures.inputs,
        "records": rec.records,
        "spans": rec.spans,
        "counts": rec.counts,
    }
    tmp = args.out + ".part"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
