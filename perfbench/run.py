#!/usr/bin/env python3
"""it2fuzz benchmark: three seeded workloads, timed from outside the program.

    python3 perfbench/run.py --workload pendulum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root (any directory holding ``perfbench/`` and
``src/it2fuzz`` works).  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment record and every metric by name and unit.  Results
and recorded spans also land in ``.perfbench-out/``.

Each run: set-up (timed, and repeated in child processes for a median;
a few more children time set-up and ops with numpy's BLAS left
multi-threaded, as the CLI runs it), a self-check that a planted NaN engine is counted as failed, untimed
warm-up ops, then ops for ``--seconds`` (and at least ``MIN_OPS`` ops, for
at most a quarter longer).  Each op is preceded by a fixed reference loop,
timed as a yardstick of host speed, and its output is checked outside its
timed interval.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("pendulum", "surface", "design")
# Set-ups per run: this process's own, plus child processes spread
# evenly over the timed phase so that the median spans the host's slow
# and fast spells as the op times do.  Child time does not count as
# timed-phase time.
SETUP_SAMPLES = 21
# The timed process and its set-up children run numpy's BLAS on one
# thread (THREAD_VARS), as single-threaded workloads.  Left to itself on a
# 2-core host, OpenBLAS starts a worker thread that busy-waits: a cold
# import then took 0.09 s in some minutes and 0.17 s in others, which
# moved setup_s by 24-30% between two sets of runs.  What that costs a
# CLI user, who runs unpinned, is still shown: this many more children
# run unpinned, each timing a set-up and, after one warm-up op,
# UNPINNED_OPS ops.  Their figures are printed, not bounded.
UNPINNED_SAMPLES = 5
UNPINNED_OPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_ENV = dict(os.environ)  # as the benchmark was started, before the pin
WARMUP_OPS = 4
MIN_OPS = 100         # so that ten op times lie beyond p90
# Reference work before every timed op: ~3 ms of pure Python, ~1.5 ms of numpy.
REF_LOOP_STEPS = 2000
REF_LOOP_PASSES = 12
# Seeds 1-30 were used while the benchmark was tuned; a claimed gain must
# also hold on this seed, which was not.
HOLDOUT_SEED = 7919


def reference_loop(steps: int = REF_LOOP_STEPS, passes: int = REF_LOOP_PASSES) -> float:
    """Fixed work, timed right before every op as a yardstick of host speed.

    Two parts, in the mix the ops spend their time on: pure-Python float
    arithmetic, math calls and float formatting (~3 ms), then numpy
    element-wise passes over 10001-point arrays, the reference engine's
    grid size (~1.5 ms).  The numpy part makes no BLAS call, so BLAS
    threading, which is the program's to choose, does not move it.  It
    calls nothing in it2fuzz, so no change to the program moves it; an
    op's cost is its wall time over this loop's.
    """
    import numpy as np  # loaded by then: set-up imports it2fuzz first
    sin, cos = math.sin, math.cos
    y, w, chars = 0.1, 0.0, 0
    for _ in range(steps):
        c = cos(y)
        a = (9.81 * sin(y) + c * ((-w - 0.25 * w * w * sin(y)) / 1.5)) / (2.0 / 3.0 - c * c / 6.0)
        w += 1e-3 * a
        y += 1e-3 * w
        chars += len(f"{y:.17g}")
    ys = np.linspace(-1.0, 1.0, 10001)
    g = np.exp(-0.5 * ((ys[None, :] - np.linspace(-1.0, 1.0, 9)[:, None]) / 0.2) ** 2)
    acc = float(chars)
    for r in range(passes):
        total = np.zeros(ys.size)
        for k in range(9):
            np.maximum(total, np.minimum(0.1 * k + 0.01 * r, g[k]), out=total)
        acc += float((ys * total).sum()) / float(total.sum())
    return acc


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and build the workload; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import it2fuzz  # noqa: F401  (the import is part of set-up time)
    import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    return wl, time.perf_counter() - t0


def child_run(workload: str, seed: int, pinned: bool) -> list[float]:
    """One set-up in a fresh interpreter, so the import is cold.

    Pinned, it inherits this process's one-thread BLAS settings and times
    the set-up only.  Unpinned, it gets the environment this benchmark was
    started with and also times UNPINNED_OPS ops.  Returns [set-up s,
    op ms, ...].
    """
    ops = 0 if pinned else UNPINNED_OPS
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--child", str(ops)],
        env=None if pinned else CALLER_ENV,
        capture_output=True, text=True, timeout=60, check=True)
    return [float(v) for v in proc.stdout.split()]


def child_main(args, workdir: Path) -> int:
    """Time one set-up, then (after a warm-up op) ``args.child`` ops, and print them."""
    wl, seconds = setup(args.workload, args.seed, workdir)
    times = [seconds]
    if args.child:
        ok = run_op(wl, wl.make_input(-3))[1]
        for k in range(args.child):
            dt, op_ok, _, _ = run_op(wl, wl.make_input(k))
            ok = ok and op_ok
            times.append(dt / 1e6)
        if not ok:
            print("error: an op failed its check", file=sys.stderr)
            return 1
    print(*times)
    return 0


def run_op(wl, inp, run=None, tracer=None) -> tuple[int, bool, object, str]:
    """Run one op, timed, then check its output outside the timed interval.

    ``run`` replaces ``wl.run`` (the traced run passes its op span); a
    tracer's shims are in place only while the op runs.  Returns
    (wall ns, ok, output, problem).
    """
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter_ns()
    try:
        out, problems = (run or wl.run)(inp), []
    except Exception:
        out, problems = None, [traceback.format_exc()]
    dt = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.uninstall()
    if not problems:
        try:
            problems = wl.check(inp, out)
        except Exception:
            problems = [traceback.format_exc()]
    return dt, not problems, out, "; ".join(problems)


def self_check(wl) -> bool:
    """A planted engine that returns NaN must make an op fail its check."""
    import workloads
    from it2fuzz import cli
    real = cli.build_engine
    cli.build_engine = workloads.nan_build_engine
    try:
        _, ok, _, _ = run_op(wl, wl.make_input(-2))
    finally:
        cli.build_engine = real
    return not ok


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top, _, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.partition("\n")
        # A checkout that is not itself a repository may sit inside one.
        sha = sha.strip() if top and Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    clock = time.get_clock_info("perf_counter")
    deltas = []
    for _ in range(1000):
        t0 = time.perf_counter_ns()
        deltas.append(time.perf_counter_ns() - t0)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu, "git_sha": sha, "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "timer": clock.implementation, "timer_resolution_s": clock.resolution,
        "timer_min_step_ns": min(d for d in deltas if d > 0) if any(deltas) else 0,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "unpinned_blas_threads": CALLER_ENV.get("OPENBLAS_NUM_THREADS"),
    }


def measure(args, workdir: Path) -> dict:
    wl, setup_s = setup(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        # The traced run re-does set-up under the shims so that set-up
        # calls (fits, rule-base loads) are recorded too.
        import tracing
        cal = tracing.calibrate()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op_id = -1
        traced_setup = tracer.wrap("glue.setup", type(wl))
        wl = traced_setup(args.seed, workdir)
        tracer.uninstall()

    selfcheck_ok = self_check(wl)
    setups, unpinned_setups, unpinned_ms = [setup_s], [], []
    children = 0 if args.trace else SETUP_SAMPLES - 1 + UNPINNED_SAMPLES
    every = children // UNPINNED_SAMPLES  # every this-many-th child is unpinned
    warm_ok = all(run_op(wl, wl.make_input(-3 - k))[1] for k in range(WARMUP_OPS))

    op_ms, ref_ms, traced_ops = [], [], []
    op_counts: dict[str, list[float]] = {}
    failed = attempted = inferences = 0
    first_problem = ""
    start = time.perf_counter()
    deadline, hard_deadline = start + args.seconds, start + 1.25 * args.seconds
    child_at = [(start + (k + 0.5) * args.seconds / children, k % every != every - 1)
                for k in range(children)]
    if tracer is not None:
        glue_op = tracer.wrap("glue.op", wl.run)
    while True:
        i = attempted
        inp = wl.make_input(i)
        # Traced runs alternate pairs of untraced and traced ops; a pair
        # covers the pendulum's two-token cycle.
        if tracer is not None and i % 4 >= 2:
            tracer.op_id = i
            _, ok, out, problem = run_op(wl, inp, glue_op, tracer)
            traced_ops.append(i)
            for key, value in wl.counts(out).items() if ok else ():
                op_counts.setdefault(key, []).append(value)
        else:
            t0 = time.perf_counter_ns()
            reference_loop()
            ref_ms.append((time.perf_counter_ns() - t0) / 1e6)
            dt, ok, out, problem = run_op(wl, inp)
            op_ms.append(dt / 1e6)
        attempted += 1
        if ok:
            inferences += wl.inferences(out)
        else:
            failed += 1
            first_problem = first_problem or problem
        now = time.perf_counter()
        if child_at and now >= child_at[0][0]:
            pinned = child_at.pop(0)[1]
            times = child_run(args.workload, args.seed, pinned)
            if pinned:
                setups.append(times[0])
            else:
                unpinned_setups.append(times[0])
                unpinned_ms.extend(times[1:])
            paused = time.perf_counter() - now
            deadline, hard_deadline = deadline + paused, hard_deadline + paused
            child_at = [(t + paused, pin) for t, pin in child_at]
            now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and attempted >= MIN_OPS):
            break
    if first_problem:
        print(f"first failed op: {first_problem}", file=sys.stderr)

    result = {"correct": failed == 0 and selfcheck_ok and warm_ok,
              "attempted": attempted, "failed": failed}
    if tracer is None:
        cost = [o / r for o, r in zip(op_ms, ref_ms)]
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "op_cost_p50": (statistics.median(cost), "ref"),
            "op_ms_p90": (percentile(op_ms, 0.9), "ms"),
            "pass_rate": ((attempted - failed) / attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        # Reported, but not bounded: they mix the host's fast and slow
        # spells in whatever proportion a run happens to meet them (see
        # README.md).
        result["info"] = {
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "infer_per_s": (inferences / (sum(op_ms) / 1e3), "1/s"),
            "ref_ms_p50": (statistics.median(ref_ms), "ms"),
            "unpinned_setup_s": (statistics.median(unpinned_setups), "s"),
            "unpinned_op_ms_p50": (statistics.median(unpinned_ms), "ms"),
        }
    else:
        import tracing
        import workloads
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
        result["metrics"] = tracing.layer_metrics(
            tracer, cal, traced_ops, op_ms, op_counts, workloads.SURFACE_TOKENS)
    result["extra"] = {"setup_samples_s": setups, "unpinned_setup_samples_s": unpinned_setups,
                       "unpinned_op_ms": unpinned_ms, "selfcheck_ok": selfcheck_ok,
                       "warmup_ok": warm_ok, "fail_rate": failed / attempted,
                       "ops": attempted, "timed_s": time.perf_counter() - start,
                       "op_ms": op_ms, "ref_ms": ref_ms}
    return result


def report(args, result: dict, env: dict) -> None:
    """Print the environment, every metric by name and unit, then the JSON line."""
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    info = {k: {"value": v, "unit": u} for k, (v, u) in result.get("info", {}).items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "extra": result["extra"], "metrics": metrics, "info": info}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"env": env}))
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={result['attempted']} "
          f"failed={result['failed']} fail_rate={result['extra']['fail_rate']:.6g} "
          f"correct={result['correct']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, m in info.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}  (not bounded)")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args) -> int:
    """Every workload in its own process, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", type=int, metavar="OPS", default=None,
                   help="time one set-up and then OPS ops, and print the set-up seconds "
                        "and op milliseconds (the benchmark's own child processes)")
    args = p.parse_args(argv)

    if not (SRC / "it2fuzz" / "__init__.py").is_file():
        print(f"error: no it2fuzz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.child is None:
        for var in THREAD_VARS:
            os.environ[var] = "1"

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.child is not None:
            return child_main(args, workdir)
        result = measure(args, workdir)
        env = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, result, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
