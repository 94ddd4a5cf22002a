"""dynwalks benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dynwalks checkout.  Each run starts a fresh worker
process (perfbench/worker.py), so peak memory and the program's module
caches belong to that run alone.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 an
untraced worker runs first, then a traced one, and the JSON object holds the
per-layer metrics while an earlier line gives the tracing overhead.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("dynamic-regular", "periodic-large", "commute-static", "mc-trajectories")
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}

# One BLAS thread: a run never competes with itself for the two cores, and
# dense products time the same from run to run.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}


def per_layer_unit(name: str) -> str:
    measure = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_ms": "ms", "hit_ratio": "ratio", "mb_built": "MB-computed",
            "column_steps": "count", "trial_steps": "count"}.get(measure, "1/s")


def worker(args, trace: int, seconds: float) -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(OUT_DIR, args.workload)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dynwalks", "__init__.py")):
        print("perfbench: no src/dynwalks here; run from the root of a dynwalks checkout",
              file=sys.stderr)
        return 2
    # untimed warm-up after a checkout: byte-compile the program and the benchmark
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/dynwalks", "perfbench"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)

    try:
        plain = worker(args, 0, args.seconds)
        if args.trace:
            traced = worker(args, 1, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    if not args.trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in plain["metrics"].items()}
        result = {k: plain[k] for k in ("correct", "attempted", "failed")}
        print(f"{args.workload} seed {args.seed}: {plain['rounds']} rounds of "
              f"{plain['ops_per_round']} operations, op_tail_ms is p{plain['tail_pct']}")
    else:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in traced["metrics"].items()}
        result = {"correct": plain["correct"] and traced["correct"],
                  "attempted": traced["attempted"], "failed": traced["failed"]}
        print(f"tracing overhead: wall_s traced {traced['wall_s']:.4f} s - untraced "
              f"{plain['wall_s']:.4f} s = {traced['wall_s'] - plain['wall_s']:+.4f} s")
        if traced["missing"]:
            print("missing from the program: " + ", ".join(traced["missing"]))
        print(f"spans written to {os.path.relpath(traced['trace_file'], ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted = {result['attempted']}, failed = {result['failed']}")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
