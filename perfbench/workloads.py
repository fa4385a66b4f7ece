"""The three benchmark workloads: set-up, one op, and the op's output check.

Every op calls the public functions the ``it2fuzz`` CLI calls, in the
same order, and looks them up on their modules at call time
(``cli.build_engine``, ``pendulum.simulate``, ...), so the traced run can
swap in timing shims and the self-check can plant a broken engine.

Inputs come only from the seed: op ``i`` of a run draws its inputs from
its own generator seeded by (workload, seed, i), so a run's inputs do not
depend on how many ops fit in the time.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from it2fuzz import cli, mf, pendulum, rulebase
from it2fuzz.engine import InferenceResult
from it2fuzz.mf import IT2Gaussian, ScaledGaussian
from it2fuzz.pendulum import LoopConfig
from it2fuzz.rulebase import Partition, Rule, RuleBase

# Output tolerances, the same values tests/test_acceptance.py pins.
EQUIV_TOL = 1e-3
ODD_TOL = 1e-12
SETTLE_CAP_S = 1.0

PENDULUM_TOKENS = ("gc-closed", "nt-closed")
SURFACE_TOKENS = ("gc-closed", "gc-closed-split", "nt-closed",
                  "gc-closed-exact", "gc-closed-split-exact", "nt-closed-exact")
DESIGN_TOKENS = ("gc-ref", "nt-ref", "gc-closed", "nt-closed")

SURFACE_GRID = 17     # points per axis; odd, so the origin is on the grid
SURFACE_SETS = 7      # sets per input of the surface rule base
DESIGN_PROBES = 16    # probes per design op, each through all four engines


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _load_validated(rb: RuleBase, path: Path) -> RuleBase:
    """Dump and reload a rule base, then validate it, as ``--rules`` does."""
    rulebase.dump_rulebase(rb, path)
    loaded = rulebase.load_rulebase(path)
    violations = loaded.validate()
    if violations:
        raise ValueError("invalid rule base: " + "; ".join(v.message for v in violations))
    return loaded


class Workload:
    """One op kind. Subclasses build their rule base in ``__init__`` (set-up)."""

    name = ""

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems with one op's output; empty when the output is correct."""
        raise NotImplementedError

    def inferences(self, out) -> int:
        raise NotImplementedError

    def counts(self, out) -> dict[str, float]:
        """Per-op counts the traced run reports beside its spans."""
        return {}


class PendulumWorkload(Workload):
    """One ``it2fuzz pendulum`` episode: 5 s at 1 ms from a seeded start."""

    name = "pendulum"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rb = _load_validated(rulebase.default_rulebase(), workdir / "pendulum_rules.json")
        self.csv_path = workdir / "pendulum_trace.csv"

    def make_input(self, index: int):
        rng = _rng(self.name, self.seed, index)
        token = PENDULUM_TOKENS[index % len(PENDULUM_TOKENS)]
        return token, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)

    def run(self, inp):
        token, angle, velocity = inp
        engine = cli.build_engine(self.rb, token)
        trace = pendulum.simulate(engine, LoopConfig(initial_angle=angle,
                                                     initial_velocity=velocity))
        settle = pendulum.settle_time(trace)
        pendulum.write_trace_csv(trace, self.csv_path)
        return trace, settle

    def check(self, inp, out) -> list[str]:
        trace, settle = out
        problems = []
        arrays = (trace.times, trace.angles, trace.angular_velocities, trace.forces,
                  trace.controller_inputs, trace.controller_outputs)
        if trace.failed or not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("non-finite trace")
        if settle is None or settle > SETTLE_CAP_S:
            problems.append(f"settle time {settle} above {SETTLE_CAP_S} s")
        with open(self.csv_path, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != trace.times.size:
            problems.append(f"trace CSV has {rows} rows for {trace.times.size} samples")
        return problems

    def inferences(self, out) -> int:
        return int(out[0].times.size)

    def counts(self, out) -> dict[str, float]:
        return {"pendulum.steps": out[0].times.size - 1,
                "pendulum.write_trace_csv.bytes": self.csv_path.stat().st_size}


class SurfaceWorkload(Workload):
    """One ``generate_surface`` call through all six closed-form tokens.

    The 7x7 split rule base is odd-symmetric: the sets of each input are
    mirrored about 0 with one fit per mirror pair, and the consequents of
    mirrored rules are negated, so every surface is odd.
    """

    name = "surface"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _rng(self.name, seed, -1)
        parts = (_mirrored_partition(rng), _mirrored_partition(rng))
        self.rb = _load_validated(RuleBase(parts, _odd_split_rules(rng)),
                                  workdir / "surface_rules.json")
        centers = [r.consequent for r in self.rb.rules]
        self.hull = (min(centers), max(centers))

    def make_input(self, index: int):
        return _rng(self.name, self.seed, index).uniform(0.6, 1.0)

    def run(self, inp):
        spec = cli.SurfaceSpec(grid=SURFACE_GRID, axis_range=(-inp, inp),
                               engines=SURFACE_TOKENS)
        return cli.generate_surface(self.rb, spec)

    def check(self, inp, out) -> list[str]:
        if out[0] != "x1,x2," + ",".join(SURFACE_TOKENS):
            return ["bad header"]
        rows = [[float(v) for v in line.split(",")] for line in out[1:]]
        n = SURFACE_GRID
        if len(rows) != n * n or any(len(r) != 2 + len(SURFACE_TOKENS) for r in rows):
            return ["bad surface shape"]
        if not all(math.isfinite(v) for r in rows for v in r):
            return ["non-finite surface value"]
        problems = []
        lo, hi = self.hull
        engines = {}
        for k, token in enumerate(SURFACE_TOKENS, start=2):
            split = "split" in token
            for idx, row in enumerate(rows):
                mirror = rows[n * n - 1 - idx]
                if abs(row[k] + mirror[k]) > ODD_TOL:
                    problems.append(f"{token} not odd at ({row[0]}, {row[1]})")
                    break
                if not split and not lo <= row[k] <= hi:
                    if token not in engines:
                        engines[token] = cli.build_engine(self.rb, token)
                    if not engines[token].infer((row[0], row[1])).degenerate:
                        problems.append(f"{token} outside the consequent hull")
                        break
        return problems

    def inferences(self, out) -> int:
        return (len(out) - 1) * len(SURFACE_TOKENS)


def _mirrored_partition(rng: random.Random) -> Partition:
    """Seven uncertain-mean sets on [-1, 1], mirrored about 0, one fit per pair."""
    half = SURFACE_SETS // 2
    offsets = [0.0] + [k / half + rng.uniform(-0.04, 0.04) for k in range(1, half)]
    offsets.append(1.0 - rng.uniform(0.0, 0.04))
    pos, neg = [], []
    for a in offsets:
        dmu, sigma = rng.uniform(0.02, 0.05), rng.uniform(0.12, 0.18)
        s = IT2Gaussian.uncertain_mean(a - dmu, a + dmu, sigma)
        umf, lmf = mf.fit_bounds(s)
        pos.append(s.with_fitted(umf, lmf))
        if a:
            neg.append(IT2Gaussian.uncertain_mean(-a - dmu, -a + dmu, sigma).with_fitted(
                ScaledGaussian(-umf.mean, umf.sigma, umf.scale),
                ScaledGaussian(-lmf.mean, lmf.sigma, lmf.scale)))
    return Partition(universe=(-1.0, 1.0), sets=tuple(neg[::-1] + pos))


def _odd_split_rules(rng: random.Random) -> tuple[Rule, ...]:
    """Split consequents with rule (i, j) the negation of rule (n-1-i, n-1-j)."""
    n = SURFACE_SETS
    cons: dict[tuple[int, int], tuple[float, float, float]] = {}
    for i in range(n):
        for j in range(n):
            mirror = (n - 1 - i, n - 1 - j)
            if mirror in cons:
                b, bu, bl = cons[mirror]
                cons[(i, j)] = (-b, -bu, -bl)
            elif (i, j) == mirror:
                cons[(i, j)] = (0.0, 0.0, 0.0)
            else:
                b, d = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.2)
                cons[(i, j)] = (b, b + d, b - d)
    return tuple(Rule((i, j), *cons[(i, j)]) for i in range(n) for j in range(n))


class DesignWorkload(Workload):
    """Fit one seeded FOU, attach it to the demo layout, probe four engines."""

    name = "design"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.layout = _load_validated(rulebase.default_rulebase(), workdir / "design_rules.json")

    def make_input(self, index: int):
        rng = _rng(self.name, self.seed, index)
        dmu, sigma = rng.uniform(0.05, 0.2), rng.uniform(0.3, 0.5)
        probes = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                  for _ in range(DESIGN_PROBES)]
        return dmu, sigma, probes

    def run(self, inp):
        dmu, sigma, probes = inp
        umf, lmf = mf.fit_bounds(IT2Gaussian.uncertain_mean(-dmu, dmu, sigma))
        parts = tuple(
            Partition(p.universe, tuple(
                IT2Gaussian.uncertain_mean(s.center - dmu, s.center + dmu, sigma).with_fitted(
                    ScaledGaussian(s.center + umf.mean, umf.sigma, umf.scale),
                    ScaledGaussian(s.center + lmf.mean, lmf.sigma, lmf.scale))
                for s in p.sets), p.names)
            for p in self.layout.partitions)
        rb = RuleBase(parts, self.layout.rules)
        engines = [cli.build_engine(rb, token) for token in DESIGN_TOKENS]
        return [[e.infer(x).value for e in engines] for x in probes]

    def check(self, inp, out) -> list[str]:
        for gc_ref, nt_ref, gc, nt in out:
            # Written so that a NaN on either side fails.
            if not (abs(gc - gc_ref) <= EQUIV_TOL and abs(nt - nt_ref) <= EQUIV_TOL):
                return [f"closed form off its reference: gc {gc} vs {gc_ref}, "
                        f"nt {nt} vs {nt_ref}"]
        return []

    def inferences(self, out) -> int:
        return len(out) * len(DESIGN_TOKENS)


WORKLOADS = {w.name: w for w in (PendulumWorkload, SurfaceWorkload, DesignWorkload)}


class NanEngine:
    """A planted broken engine: every output is NaN."""

    def infer(self, x):
        return InferenceResult(math.nan, False)


def nan_build_engine(rb, token, ref=None):
    return NanEngine()
