"""One benchmark process: ``setup`` times set-up, ``measure`` times ops.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned to
one thread; prints one JSON object as its last line of output.

``measure --trace 0`` runs the closed loop (one caller, next op after the
previous one returns and is checked) for the whole run time and reports
the end-to-end figures.  ``--trace 1`` runs the loop with every other pair
of ops traced, then times each verify check, the four per-call costs and the
kernels at fixed shapes with the tracer off.

numpy and statbundle are imported inside functions, because ``setup``
times the import of statbundle, numpy included, in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import statbundle  # noqa: F401  (numpy comes in here, and is timed)
    bench_side = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    raw = wl.generate(args.seed)
    bench_side = time.perf_counter() - bench_side
    wl.build(raw)
    bench_side += getattr(wl, "generate_s", 0.0)
    return {"setup_s": time.perf_counter() - t0 - bench_side}


def _closed_loop(wl, seconds, tracer=None):
    """Run op 0, 1, ... until ``seconds`` pass.

    With a tracer, ops alternate in pairs between untraced and traced, so
    both groups see the same machine conditions; on ``flow-descent`` each
    group runs every family in both modes.  Returns the op times, which
    ops were traced, the failures and the results of the traced ops.
    """
    times, traced, failures, results = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        on = tracer is not None and i % 4 >= 2
        if on:
            tracer.install()
        t = time.perf_counter()
        try:
            result = tracer.run_op(len(results), wl.op, i) if on else wl.op(i)
        except Exception:  # an op that raises counts as failed; keep going
            result, reason = None, traceback.format_exc(limit=4)
        times.append(time.perf_counter() - t)
        traced.append(on)
        if on:
            tracer.uninstall()
            results.append(result)
        if result is not None:
            try:
                reason = wl.check(i, result)
            except Exception:  # output the oracle cannot read is wrong output
                reason = traceback.format_exc(limit=4)
        if reason is not None:
            failures.append(f"op {i}: {reason}")
        i += 1
        if time.perf_counter() >= deadline:
            return times, traced, failures, results


def _per_call_us(fn, min_seconds=0.01, repeats=5) -> float:
    """Median over repeats of the mean call time, in microseconds."""
    number = 1
    while True:
        t = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t
        if elapsed >= min_seconds:
            break
        number *= 4 if elapsed < min_seconds / 8 else 2
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t) / number)
    return statistics.median(samples) * 1e6


def _space(sb, shape, rng):
    spaces = [sb.make_space(rng.uniform(0.2, 2.0, n)) for n in shape]
    return spaces[0] if len(spaces) == 1 else sb.ProductSpace(*spaces)


def per_call_costs(sb, shape, seed) -> dict:
    """us_per_call of four basic operations on a space of the given shape."""
    import numpy as np

    rng = np.random.default_rng([seed, 4])
    space = _space(sb, shape, rng)
    p, q = sb.random_density(space, rng), sb.random_density(space, rng)
    v = sb.exp_chart(p, q)
    calls = {
        "make_density": lambda: sb.make_density(space, q.values),
        "exp_chart": lambda: sb.exp_chart(p, q),
        "exp_chart_inv": lambda: sb.exp_chart_inv(p, v),
        "kl": lambda: sb.kl(p, q),
    }
    return {f"us_per_call.{k}": _per_call_us(f) for k, f in calls.items()}


# Shapes carried over from benchmarks/bench_kernels.py.
KERNEL_VECTOR_SIZES = (100, 10_000, 1_000_000)
KERNEL_TABLE_SHAPES = ((10, 10), (100, 100), (1000, 1000))
STAT_DIM = 3


def _kernel_cases():
    import numpy as np

    for n in KERNEL_VECTOR_SIZES:
        rng = np.random.default_rng(n)
        a, b, c, d = (rng.uniform(0.1, 2.0, n) for _ in range(4))
        u = rng.normal(0.0, 2.0, n)
        yield f"n{n}", {"dot3": (a, b, c), "dot4": (a, b, c, d),
                        "log_mean_exp": (u, a), "kl_sum": (a, b, c)}
    for shape in KERNEL_TABLE_SHAPES:
        rng = np.random.default_rng(shape)
        q = rng.uniform(0.1, 2.0, shape)
        v = rng.normal(size=shape)
        mu2 = rng.uniform(0.2, 1.5, shape[1])
        stats = rng.normal(size=(STAT_DIM, *shape))
        coef = rng.normal(size=STAT_DIM)
        yield f"{shape[0]}x{shape[1]}", {
            "row_margin": (q, mu2), "cond_expect": (v, q, mu2),
            "lincomb": (stats, coef), "stats_expect": (stats, q),
            "cond_expect_stats": (stats, q, mu2)}


def kernel_costs(K) -> dict:
    """us per call of each kernel, by public name, at the fixed shapes."""
    return {
        f"kernels.{name}.us_{label}": _per_call_us(functools.partial(getattr(K, name), *args))
        for label, cases in _kernel_cases()
        for name, args in cases.items()
        if hasattr(K, name)
    }


def check_costs(sb, wl, budget_s) -> dict:
    """verify.<check>.ms: each check alone through run_verification(names=...).

    Uses the ops' suite seed, so the instances are the ones each op draws;
    repeats the sweep while it fits the budget and keeps medians.
    """
    names = [c.name for c in sb.run_verification(seed=0, trials=1, sizes=[(2, 2)]).checks]
    samples = {name: [] for name in names}
    started = time.perf_counter()
    while True:
        for name in names:
            t = time.perf_counter()
            sb.run_verification(seed=wl.seed, trials=wl.trials, sizes=wl.sizes,
                                names=[name])
            samples[name].append(time.perf_counter() - t)
        spent = time.perf_counter() - started
        sweeps = len(samples[names[0]])
        if sweeps >= 5 or spent * (sweeps + 1) / sweeps > budget_s:
            break
    return {f"verify.{n}.ms": statistics.median(s) * 1e3 for n, s in samples.items()}


def machine_info(sb) -> dict:
    import numpy as np

    K = getattr(sb, "_kernels", None)
    if hasattr(K, "backend"):
        backend = K.backend()
    else:
        backend = "numba" if getattr(K, "NUMBA_ENABLED", False) else "numpy"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25
        blas = {"name": "unknown"}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k) is not None},
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "statbundle": getattr(sb, "__version__", "unknown"),
        "statbundle_path": os.path.dirname(sb.__file__),
        "kernel_backend": backend,
    }


def cmd_measure(args) -> dict:
    import statbundle as sb
    from workloads import WORKLOADS, Verify
    from tracer import Tracer, summarize

    wl = WORKLOADS[args.workload]()
    wl.build(wl.generate(args.seed))
    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl.prepare(workdir)
        try:
            wl.warmup()
        except Exception:  # the measured ops fail the same way and are counted
            traceback.print_exc()
        if not args.trace:
            times, _, failures, _ = _closed_loop(wl, args.seconds)
            total = sum(times)
            metrics = {
                "op_p50_ms": statistics.median(times) * 1e3,
                "items_per_s": wl.items_per_op * len(times) / total,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1.0 - len(failures) / len(times),
            }
            # A percentile is reported only with at least ten samples beyond it.
            if len(times) >= 100:
                metrics["op_p90_ms"] = statistics.quantiles(
                    times, n=10, method="inclusive")[8] * 1e3
            attempted = len(times)
            extra = {}
        else:
            # Alternating ops take 80% of the run time; the per-check,
            # per-call and kernel timings take the rest.
            tracer = Tracer()
            times, on, failures, results = _closed_loop(wl, 0.8 * args.seconds, tracer)
            plain = [t for t, o in zip(times, on) if not o]
            traced = [t for t, o in zip(times, on) if o]
            if not traced:
                raise RuntimeError("the run was too short for a traced op")
            attempted = len(times)
            flows = [r for r in results if isinstance(r, sb.FlowTrace)]
            metrics, extra = summarize(tracer, traced,
                                       [t.final.iteration for t in flows])
            metrics["trace.op_p50_ms"] = statistics.median(traced) * 1e3
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(plain) - 1.0)
            if isinstance(wl, Verify):
                metrics.update(check_costs(sb, wl, budget_s=0.1 * args.seconds))
            metrics.update(per_call_costs(sb, wl.us_shape, args.seed))
            metrics.update(kernel_costs(getattr(sb, "_kernels", None)))
            spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.npz")
            tracer.save(spans_path)
            extra["spans_file"] = os.path.relpath(spans_path, os.path.dirname(HERE))
            extra["traced_ops"] = len(traced)
            extra["untraced_ops"] = len(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "machine": machine_info(sb),
        **extra,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measure only")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="measure only")
    parser.add_argument("--out", help="measure only: directory for records")
    args = parser.parse_args()
    if args.mode == "measure" and None in (args.seconds, args.trace, args.out):
        parser.error("measure needs --seconds, --trace and --out")
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
