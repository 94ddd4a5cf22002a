"""One measured run of one workload, in a process of its own.

Started by run.py.  After numpy and scipy are imported:

1. set-up, at least seven times and for at least 1.5 s: import dynwalks
   afresh and build the workload's inputs (``setup_s`` is the median);
2. timed rounds of the workload's operations: at least the workload's
   minimum number, and more while one more round, as long as the last one,
   would end within --seconds; exactly its trace rounds when tracing.  The
   first round's outputs are captured outside the timed region; every later
   round must reproduce them;
3. ``peak_rss_mb`` is read, then the captured outputs are checked against
   the reference computations.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

# numpy and scipy are not the program: they are imported before any clock starts
import numpy as np
import scipy.linalg  # noqa: F401
import scipy.sparse  # noqa: F401
import scipy.sparse.csgraph  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

import oracles
import tracer as tracing
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 7, 60, 1.5


def fingerprint(obj, h=None) -> str:
    """Digest of an output's values, to compare a round with the first one."""
    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for x in obj:
            fingerprint(x, h)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            fingerprint(obj[k], h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for reports and trace files")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    tr = tracing.Tracer() if args.trace else None

    # Set up at least SETUP_MIN times and for at least SETUP_BUDGET_S seconds;
    # a traced run traces only its last set-up.
    setup_times = []
    while len(setup_times) < SETUP_MIN or (sum(setup_times) < SETUP_BUDGET_S
                                           and len(setup_times) < SETUP_MAX):
        last = tr is not None and len(setup_times) == SETUP_MIN - 1
        start = time.perf_counter()
        program = workloads.load_program(SRC)
        if last:
            tr.install()
            tr.active = True
        ops = wl.build(program, args.seed, args.out)
        setup_times.append(time.perf_counter() - start)
        if last:
            tr.active = False
            break
        gc.collect()  # drop the previous import, so set-ups do not pile up in peak_rss_mb

    # Round 0 is timed like the others; its outputs are captured (untimed) for
    # the checks, and every later round must reproduce them exactly.
    evidence, digests, broken = {}, {}, {}
    op_times, round_times, failures, mismatches = [], [], set(), 0
    rounds = 0
    clock = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        elapsed = 0.0
        for j, op in enumerate(ops):
            if tr is not None:
                tr.active = True
            start = time.perf_counter()
            try:
                subject, out = op.run()
            except Exception:
                failures.add((rounds, j))
                if rounds == 0:
                    broken[j] = "raised: " + traceback.format_exc(limit=3)
                continue
            finally:
                dt = time.perf_counter() - start
                if tr is not None:
                    tr.active = False
            elapsed += dt
            op_times.append(dt)
            if rounds == 0:
                digests[j] = fingerprint(out)
                try:
                    evidence[j] = op.capture(subject, out)
                except Exception:
                    broken[j] = "capture raised: " + traceback.format_exc(limit=3)
            elif j in digests and fingerprint(out) != digests[j]:
                mismatches += 1
            subject = out = None
        rounds += 1
        round_times.append(elapsed)
        now = time.perf_counter()
        if tr is not None:
            if rounds >= wl.trace_rounds:
                break
        # stop before a round that would end past --seconds, so a run lasts
        # about as long whatever the length of its rounds
        elif rounds >= wl.min_rounds and now - clock + (now - round_start) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for j, ev in evidence.items():
        try:
            ops[j].check(ev)
        except oracles.CheckError as err:
            broken[j] = f"check failed: {err}"
        except Exception:  # a check that cannot run counts as failed, not as a crash
            broken[j] = "check raised: " + traceback.format_exc(limit=3)
    for j, why in sorted(broken.items()):
        print(f"operation {j} ({ops[j].name}) failed: {why}", file=sys.stderr)
    # an operation whose first-round output fails its check fails in every round
    failures |= {(r, j) for r in range(rounds) for j in broken}
    if mismatches:
        print(f"{mismatches} outputs differ from the first round", file=sys.stderr)

    attempted = rounds * len(ops)
    result = {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "wall_s": statistics.median(round_times),
    }
    if tr is None:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(round_times),
            "op_p50_ms": float(np.percentile(op_times, 50)) * 1e3,
            "op_tail_ms": float(np.percentile(op_times, wl.tail_pct)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        result["tail_pct"] = wl.tail_pct
    else:
        result["metrics"] = tr.metrics()
        result["missing"] = tr.missing
        path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        tr.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                        "ops": [op.name for op in ops]})
        result["trace_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
