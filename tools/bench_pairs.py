#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --parent <ref> --out BENCH_<n>.json
    python3 tools/bench_pairs.py --parent <ref> --out layers.json --trace 1

Run it from anywhere inside the repository.  The parent side is
``git archive <ref>`` unpacked into a temporary directory, the change side
a copy of this working tree's files (tracked and untracked, less what
git ignores) into a sibling one, so both run from fresh directories on
the same file system.  Pair k (k = 1..10) runs
``perfbench/run.py --workload all --seed k --trace T`` on both sides, the
parent first in odd pairs and the change first in even ones; one more
pair runs the holdout seed that perfbench reports in its environment
record.  Every run lasts BENCHMARK.json's ``run_seconds`` per workload.
On SIGTERM or Ctrl-C the running ``perfbench/run.py`` and its child are
killed and both trees removed.

Before the pairs, each ``COLD_COMMANDS`` entry runs ``COLD_RUNS`` times per
side in a fresh interpreter, BLAS pinned: each run takes every command in
turn on both sides, parent first in odd runs, after one untimed run that
writes the bytecode.  The JSON's ``cold_start`` key holds each side's wall
times in ms, their min and median; BENCHMARK.json sets no bound on them.

With ``--trace 0`` (the default) the JSON written holds, for each
workload and each end-to-end metric in BENCHMARK.json, each side's median
and quartiles over the numbered pairs, how many of those pairs the change
won (ties count for neither side), the holdout pair's values, every run's
raw values, and perfbench's environment record of each side.  With
``--trace 1`` the runs are perfbench's traced ones and the same summary
covers BENCHMARK.json's per-layer metrics instead, less those that read
0 in every run of a workload (a layer the workload never calls), so that
a per-layer claim has a spread too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
COLD_RUNS = 7
# Name: (argv after the interpreter, exit code).  ``{out}`` is a scratch
# directory holding ``rejected.json``, a rule file validation rejects.
# ``python`` and ``import numpy`` are the floor that the CLI starts from.
CLI = ("-c", "import sys; from it2fuzz.cli import entry; sys.exit(entry())")
COLD_COMMANDS = {
    "python": (("-c", "pass"), 0),
    "import numpy": (("-c", "import numpy"), 0),
    "it2fuzz pendulum": ((*CLI, "pendulum", "--out", "{out}/pendulum"), 0),
    "it2fuzz surface": ((*CLI, "surface", "--out", "{out}/surface.csv"), 0),
    "it2fuzz fit": ((*CLI, "fit", "--dmu", "0.125", "--sigma", "0.418",
                     "--out", "{out}/fit.json"), 0),
    "it2fuzz surface, rejected rules": (
        (*CLI, "surface", "--rules", "{out}/rejected.json", "--out", "{out}/rejected.csv"), 2),
}


def run_side(tree: Path, seed: int, seconds: float, trace: int) -> dict:
    """One ``--workload all`` run in a source tree: metrics, op counts, env."""
    # A session of its own, so that one killpg stops run.py and its child.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # the group has gone already
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, stdout, stderr)
    lines = stdout.splitlines()
    last = json.loads(lines[-1])
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "env": env,
            "metrics": {k: m["value"] for k, m in last["metrics"].items()}}


def cold_starts(trees: dict[str, Path], out: Path) -> dict:
    """Each ``COLD_COMMANDS`` entry's fresh-interpreter wall times per side."""
    (out / "rejected.json").write_text("{}\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    times = {name: {side: [] for side in trees} for name in COLD_COMMANDS}
    for k in range(COLD_RUNS + 1):
        for name, (args, code) in COLD_COMMANDS.items():
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, *(a.format(out=out) for a in args)],
                                      cwd=out, capture_output=True,
                                      env={**env, "PYTHONPATH": str(trees[side] / "src")})
                elapsed = 1e3 * (time.perf_counter() - t0)
                if proc.returncode != code:
                    raise RuntimeError(f"{name} on the {side} side exited {proc.returncode}, "
                                       f"not {code}: {proc.stderr.decode()}")
                if k:  # run 0 writes the bytecode
                    times[name][side].append(elapsed)
    report = {name: {side: {"min_ms": min(t), "median_ms": statistics.median(t), "runs_ms": t}
                     for side, t in by_side.items()} for name, by_side in times.items()}
    for name, sides in report.items():
        print(f"cold start {name}: " + ", ".join(
            f"{side} {r['min_ms']:.0f}/{r['median_ms']:.0f} ms" for side, r in sides.items())
            + " (min/median)", file=sys.stderr)
    return report


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent side")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: pair perfbench's traced runs and summarise the per-layer "
                        "metrics (default 0: untraced runs, end-to-end metrics)")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    # SIGTERM unwinds as Ctrl-C does: run_side kills its run, and the
    # temporary directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    sha, head = git("rev-parse", args.parent), git("rev-parse", "HEAD")
    modified = bool(git("status", "--porcelain", "--untracked-files=no"))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout  # bytes, not text
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(trees["parent"], filter="data")
        for rel in git("ls-files", "--cached", "--others", "--exclude-standard").splitlines():
            if (ROOT / rel).is_file():  # a deleted tracked file is still listed
                (trees["change"] / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / rel, trees["change"] / rel)
        (Path(tmp) / "cold").mkdir()
        cold = cold_starts(trees, Path(tmp) / "cold")
        for k in range(1, PAIRS + 2):
            # The last pair runs the holdout seed, known once a run has reported it.
            seed = k if k <= PAIRS else runs["parent"][0]["env"]["holdout_seed"]
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                t0 = time.perf_counter()
                runs[side].append(run_side(trees[side], seed, seconds, args.trace))
                print(f"pair {k}/{PAIRS + 1} seed {seed} {side}: "
                      f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    holdout_seed = runs["parent"][-1]["seed"]

    better = {m["name"]: m["better"]
              for m in bench["per_layer" if args.trace else "end_to_end"]}
    workloads = {}
    for w in (wl["name"] for wl in bench["workloads"]):
        rows = {}
        for name, direction in better.items():
            key = f"{w}.{name}"
            par = [r["metrics"][key] for r in runs["parent"]]
            chg = [r["metrics"][key] for r in runs["change"]]
            if not any(par + chg):
                continue
            sign = 1.0 if direction == "lower" else -1.0
            pairs = list(zip(par[:-1], chg[:-1]))
            rows[name] = {
                "better": direction,
                "parent": summarize([a for a, _ in pairs]),
                "change": summarize([b for _, b in pairs]),
                "change_wins": sum(sign * (a - b) > 0 for a, b in pairs),
                "parent_wins": sum(sign * (b - a) > 0 for a, b in pairs),
                "holdout": {"seed": holdout_seed, "parent": par[-1], "change": chg[-1]},
            }
            base = rows[name]["parent"]["median"]
            rows[name]["median_ratio"] = rows[name]["change"]["median"] / base if base else None
        workloads[w] = rows
    report = {
        "command": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None
                                                               else argv),
        "parent_ref": args.parent, "parent_sha": sha,
        "change": "working tree copy", "change_head": head, "change_modified": modified,
        "pairs": PAIRS, "seconds": seconds, "trace": args.trace,
        "order": "parent first in odd pairs, change first in even pairs",
        "env": {side: runs[side][0]["env"] for side in runs},
        "workloads": workloads,
        "cold_start": {"runs": COLD_RUNS, "blas_threads": 1, "commands": cold},
        "runs": {side: [{k: v for k, v in r.items() if k != "env"} for r in runs[side]]
                 for side in runs},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
