"""One benchmark run of one workload, in its own process.

Started by run.py, so that peak RSS belongs to this workload alone.  The
set-up time counts from the first line of this file: it covers importing
numpy and shearspec and building the workload's inputs.  Then one untimed
warm-up op, the closed loop (one client: the next op starts when the
previous one has been checked), and a rerun of the warm-up seed whose
result.json bytes must match.  Prints one JSON line on stdout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def run_op(workload, seed: int, tracer=None, op_id: int = 0):
    """One op: returns (seconds, Outcome).  Any exception fails the op."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            value = workload.op(seed)
        else:
            value = tracer.call_op(op_id, workload.op, seed)
    except Exception:  # a crash inside the program is a failed op, not a failed run
        elapsed = time.perf_counter() - t0
        outcome = Outcome("op raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    else:
        elapsed = time.perf_counter() - t0
        try:
            outcome = workload.check(value)
        except Exception:  # unreadable or missing outputs fail the op
            outcome = Outcome("check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
    workload.cleanup()
    return elapsed, outcome


def measure(workload, seeds, seconds: float, tracer=None) -> dict:
    """Closed loop for `seconds`; the op running at the deadline completes."""
    latencies, overlaps, reasons = [], [], []
    bytes_written = 0
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, outcome = run_op(workload, next(seeds), tracer, len(latencies))
        latencies.append(elapsed)
        overlaps.append(outcome.overlap)
        bytes_written += outcome.bytes_written
        if outcome.reason is not None:
            reasons.append(outcome.reason)
        if time.perf_counter() >= deadline:
            break
    return {
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": len(reasons),
        "reasons": reasons[:5],
        "overlap_min": min((o for o in overlaps if o == o), default=0.0),
        "bytes_written": bytes_written,
    }


def seed_stream(workload: str, seed: int):
    rng = random.Random(f"{workload}/ops/{seed}")
    while True:
        yield rng.getrandbits(63)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, random.Random(f"{args.workload}/inputs/{args.seed}"))
    setup_s = time.perf_counter() - T_START
    report = {"setup_s": setup_s, "numpy": numpy.__version__, "tail_pct": workload.TAIL_PCT}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    seeds = seed_stream(args.workload, args.seed)
    first_seed = next(seeds)
    _, first = run_op(workload, first_seed)
    if args.trace:
        report["untraced"] = measure(workload, seeds, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            report["traced"] = traced = measure(workload, seeds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        report["layers"] = tracer.layer_metrics(traced["attempted"])
        report["layers"]["cli.bytes_written"] = traced["bytes_written"] / traced["attempted"]
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        report["untraced"] = measure(workload, seeds, args.seconds)
    _, again = run_op(workload, first_seed)

    report["rerun_failures"] = [o.reason for o in (first, again) if o.reason is not None]
    report["deterministic"] = bool(first.fingerprint) and first.fingerprint == again.fingerprint
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
