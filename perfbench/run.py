#!/usr/bin/env python3
"""Benchmark for statbundle: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/`` of
that checkout.  Workloads and metric names are declared in
``BENCHMARK.json`` at the root, which this script reads to decide what to
print.  With ``--trace 0`` it reports the end-to-end metrics: set-up time
(median over fresh interpreters) and the op figures from an untraced
closed loop.  With ``--trace 1`` it reports the per-layer metrics from a
run with span wrappers installed around every layer.

Every op is checked by an oracle independent of the library.  The last
line of output is ``{"correct", "attempted", "failed", "metrics"}``; the
full record, with machine and version info, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 9
# Each run must end within this many seconds, set-up children included.
RUN_LIMIT_S = 170.0
# Pin every BLAS/OpenMP pool to one thread: a single-threaded baseline.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run the worker to completion and parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "statbundle", "__init__.py")):
        return fail(f"no statbundle sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive")

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [child(["setup", *common], env, deadline)["setup_s"]
                      for _ in range(SETUP_RUNS)]
        result = child(["measure", *common, "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", OUT], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))

    computed = result["metrics"]
    if setups:
        computed["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] in computed:
            value = computed[m["name"]]
        elif args.trace:
            # A layer function that no longer exists made no calls.
            value = 0.0
            absent.append(m["name"])
        else:
            return fail(f"worker did not report end-to-end metric {m['name']!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    line = {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_commit=git_commit(), setup_samples_s=setups,
                  all_metrics=computed, not_reported=absent,
                  **{k: v for k, v in result.items() if k not in line})
    record_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # op_p90_ms exists only with at least 100 ops, so the manifest
        # cannot hold it.
        for name in sorted(set(computed) - set(metrics)):
            print(f"{name} = {computed[name]:.6g}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
