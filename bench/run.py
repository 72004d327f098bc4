"""shearspec benchmark: one run of one workload.

    python3 bench/run.py --workload mc-trials --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Prints a readable report, then as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end_to_end metrics named in
BENCHMARK.json; with --trace 1 they are its per_layer metrics, taken from a
run with every layer boundary wrapped in a span.  bench/README.md explains
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("mc-trials", "recon-65k", "reload-analyze")
# Set-up is timed in this many processes and setup_s is their median, since
# one import is too noisy to compare between commits.
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
# One client runs ops one after another, so child processes get one BLAS /
# OpenMP thread; that keeps timings comparable between machines.
THREAD_CAP = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tail(latencies: list, pct: int) -> tuple:
    """Latency at percentile pct and the number of samples above it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(x > value for x in latencies)


def run_worker(args, workdir: Path, deadline: float, env: dict, setup_only=False) -> dict:
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--trace-out", str(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached before the run ended")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running at the {TIME_LIMIT_S:.0f} s limit; stopped") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def ops_per_s(phase: dict) -> float:
    return len(phase["latencies"]) / sum(phase["latencies"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "shearspec" / "__init__.py").is_file():
        print(f"bench: no shearspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + TIME_LIMIT_S

    # The build: byte-compile once so no timed import pays for it.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("bench: shearspec sources do not compile", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    cap = min(THREAD_CAP, nproc)
    env = dict(os.environ, **{var: str(cap) for var in THREAD_VARS})
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [
            run_worker(args, work / f"setup-{i}", deadline, env, setup_only=True)["setup_s"]
            for i in range(SETUP_RUNS - 1)
        ]
        res = run_worker(args, work / "run", deadline, env)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    setups.append(res["setup_s"])

    untraced = res["untraced"]
    lat = untraced["latencies"]
    tail_pct = res["tail_pct"]
    tail_s, beyond = tail(lat, tail_pct) if len(lat) > 1 else (lat[0], 0)
    phases = [untraced] + ([res["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(untraced),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "overlap_min": untraced["overlap_min"],
    }
    if args.trace:
        values.update(res["layers"])
        values["trace.overhead_ops_per_s"] = ops_per_s(res["traced"]) - ops_per_s(untraced)

    py = sys.version.split()[0]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"env python {py}  numpy {res['numpy']}  nproc {nproc}  cpu {cpu_model()!r}  "
        f"threads {cap} ({', '.join(THREAD_VARS)})"
    )
    print(f"setup_s        {values['setup_s']:.4f} s     median of {len(setups)} set-ups")
    print(f"ops_per_s      {values['ops_per_s']:.4f} 1/s   {len(lat)} ops, closed loop, 1 client")
    print(f"op_p50_s       {values['op_p50_s']:.4f} s")
    short = "" if beyond >= TAIL_BEYOND else f" (fewer than {TAIL_BEYOND})"
    print(f"op_tail_s      {tail_s:.4f} s     p{tail_pct}, {beyond} samples beyond{short}, n={len(lat)}")
    print(f"failed_ratio   {failed / attempted:.4f} ratio {failed} of {attempted} ops failed")
    print(f"peak_rss_mb    {values['peak_rss_mb']:.1f} MB")
    print(f"overlap_min    {values['overlap_min']:.6f}")
    if args.trace:
        print(
            f"tracing        {ops_per_s(res['traced']):.4f} 1/s traced vs "
            f"{ops_per_s(untraced):.4f} untraced ({res['traced']['attempted']} and "
            f"{untraced['attempted']} ops); spans in .bench_trace/"
        )
    print(f"determinism    rerun of the first op {'matched' if res['deterministic'] else 'DIFFERED'}")
    for reason in [r for p in phases for r in p["reasons"]] + res["rerun_failures"]:
        print(f"failure        {reason}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for metrics {missing}", file=sys.stderr)
        return 1
    if args.trace:
        print("per-layer metrics, per traced op except the tracing overhead:")
        for m in wanted:
            print(f"  {m['name']:<46s} {values[m['name']]:.6g} {m['unit']}")
    correct = failed == 0 and not res["rerun_failures"] and res["deterministic"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
