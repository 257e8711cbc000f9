"""Benchmark of the tipas pipeline: one workload per invocation.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every process this starts is a fresh
Python with ``src`` on its path, ``TIPAS_THREADS`` unset and the numerical
libraries capped at the machine's core count.  Set-up is timed in
``SETUP_RUNS`` processes (the median is reported); one more process sets up
again, runs the stages and checks their outputs.  The last line of standard
output is the result as JSON.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent / "bench.py"
WORKLOADS = ("demo", "recovery", "long_history")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TIPAS_THREADS", None)
    cores = str(len(os.sched_getaffinity(0)))
    env.update({v: cores for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, role: str, index: int, deadline: float) -> dict:
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {role} process ran past the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="measure as many whole rounds of the stages as fit in this many seconds "
                         "(at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run instead")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "tipas" / "__init__.py").is_file():
        print(f"perfbench: no tipas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    setup_s = [run_child(args, "setup", i, deadline)["setup_s"] for i in range(SETUP_RUNS - 1)]
    result = run_child(args, "main", SETUP_RUNS, deadline)
    setup_s.append(result.pop("setup_s"))
    rounds = result.pop("rounds")
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
    for name, m in result["metrics"].items():
        print(f"{args.workload:>12}  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>12}  rounds={rounds} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
