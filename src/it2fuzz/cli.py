"""Command-line workbench: surface export, pendulum runs, bound fitting, benchmarks.

Engine modes are ``<family>[-exact]``, one token per engine, the family one of
``gc-closed``, ``gc-closed-split``, ``nt-closed``, ``gc-ref``, ``nt-ref``;
``-exact`` picks the exact FOU bounds over the default fitted ones.
``parse_engine_mode`` alone decodes a token, into an ``EngineConfig`` and
whether it is the sampled reference: ``<family>-ref`` twins ``<family>-closed``.

Exit codes: 0 success, 2 validation or argument problems (among them a
run or fit too large to allocate and an unusable input or output path),
3 numeric failure (simulation blowup).  Relative output paths land under
$IT2FUZZ_OUT_DIR when it is set; every output path is checked before any work.

The bench probe stream is a fixed linear congruential generator,
state' = (1664525 * state + 1013904223) mod 2^32 from seed 123456789,
with each draw mapped to [-1, 1) via state / 2^31 - 1; identical probe
sequences feed every engine, so reports are reproducible apart from the
timings themselves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import BoundSource, ClosedFormEngine, EngineConfig, Form, infer_batches
from .mf import IT2Gaussian, default_fit_window, fit_bounds
from .pendulum import (LoopConfig, NumericalBlowup, settle_time, simulate,
                       write_trace_csv)
from .reference import RefConfig, ReferenceEngine
from .rulebase import RuleBase, RuleBaseInvalid, default_rulebase, load_rulebase

__all__ = ["SurfaceSpec", "parse_engine_mode", "build_engine", "generate_surface",
           "lcg_probes", "run_bench", "main", "entry"]

OUT_DIR_ENV = "IT2FUZZ_OUT_DIR"

# Inferences run before the timed ones in run_bench.
BENCH_WARMUP = 100

LCG_SEED = 123456789
LCG_MULT = 1664525
LCG_INC = 1013904223
LCG_MOD = 2 ** 32


class CliError(Exception):
    """Anything that should abort the command with exit code 2."""


# Every engine token: a family, with the closed form it computes or is the
# sampled twin of and whether it is that reference, then ``-exact`` or not.
_MODES = {family + suffix: (EngineConfig(form, source), ref)
          for family, form, ref in (("gc-closed", Form.GC_CLOSED, False),
                                    ("gc-closed-split", Form.GC_CLOSED_SPLIT, False),
                                    ("nt-closed", Form.NT_CLOSED, False),
                                    ("gc-ref", Form.GC_CLOSED, True),
                                    ("nt-ref", Form.NT_CLOSED, True))
          for suffix, source in (("", BoundSource.FITTED), ("-exact", BoundSource.EXACT))}


def parse_engine_mode(token: str) -> tuple[EngineConfig, bool]:
    """The config an engine token names, and whether it is the sampled reference."""
    try:
        return _MODES[token.strip()]
    except KeyError:
        raise CliError(f"unknown engine mode {token!r}") from None


def _engine_tokens(text: str) -> tuple[str, ...]:
    """The tokens of a comma-separated ``--engine`` value, stripped once so
    that headers and report keys name the engine that is built; each must
    name a mode and may appear once, as it names one column or report key."""
    tokens = tuple(tok.strip() for tok in text.split(","))
    for tok in tokens:
        parse_engine_mode(tok)
    twice = sorted({tok for tok in tokens if tokens.count(tok) > 1})
    if twice:
        raise CliError(f"engine listed more than once: {', '.join(map(repr, twice))}")
    return tokens


def build_engine(rb: RuleBase, token: str, ref: RefConfig | None = None):
    """Construct the engine object an engine token names.

    ``ref`` is a reference token's grid (``RefConfig()`` when None).  No
    command sets it, but it stays: perfbench's tracing shim passes it on
    by position and reads ``engine.ref``.
    """
    cfg, is_ref = parse_engine_mode(token)
    return ReferenceEngine(rb, cfg, ref) if is_ref else ClosedFormEngine(rb, cfg)


def _out_path(path: str) -> str:
    """An output path joined onto $IT2FUZZ_OUT_DIR as a string, so a trailing
    separator survives, and checked by stats alone before any work."""
    full = os.path.join(os.environ.get(OUT_DIR_ENV, ""), path)
    parent = os.path.dirname(full) or "."
    if os.path.isdir(full):
        raise CliError(f"output path {full!r} is a directory")
    if not os.path.isdir(parent):
        raise CliError(f"output directory {parent!r} is missing or not a directory")
    return full


def _write_out(text: str, out: str | None) -> None:
    """Write text to a checked output path, or to stdout when there is none."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_rules(args: argparse.Namespace) -> RuleBase:
    """The validated ``--rules`` base (the demo when unset), of two inputs."""
    rb = load_rulebase(args.rules) if args.rules else default_rulebase()
    rb.require_valid()
    if rb.n_inputs != 2:
        raise CliError(f"{args.command} evaluates 2 inputs, but the rule base has {rb.n_inputs}")
    return rb


# -- surface ---------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceSpec:
    """Grid definition for a control-surface export."""

    grid: int = 41
    axis_range: tuple[float, float] = (-1.0, 1.0)
    engines: tuple[str, ...] = ("gc-closed",)

    def __post_init__(self) -> None:
        if isinstance(self.grid, bool) or not isinstance(self.grid, int):
            raise ValueError(f"grid must be an int, got {self.grid!r}")
        if self.grid < 2:
            raise ValueError("grid needs at least 2 points per axis")
        lo, hi = self.axis_range
        if not lo < hi:
            raise ValueError(f"bad axis range ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ValueError(f"axis range ends and width must be finite, got ({lo}, {hi})")
        if not self.engines:
            raise ValueError("at least one engine required")


def generate_surface(rb: RuleBase, spec: SurfaceSpec) -> list[str]:
    """CSV lines (header first) for the engines evaluated over the grid.

    Rows run row-major: x1 varies slowest.  Values are printed with 17
    significant digits so equal inputs give byte-identical files.  The
    closed-form engines evaluate the whole grid in one ``infer_batches``
    call, which equals each one's ``infer`` bit for bit and fires once per
    bound source, whatever the forms; other engines run ``infer`` point by
    point.  A single closed-form token has nothing to share and gains
    nothing.
    """
    engines = [build_engine(rb, tok) for tok in spec.engines]
    g = spec.grid
    axis = np.linspace(spec.axis_range[0], spec.axis_range[1], g)
    points = np.column_stack((np.repeat(axis, g), np.tile(axis, g)))
    batches = iter(infer_batches(
        [e for e in engines if isinstance(e, ClosedFormEngine)], points))
    columns = [next(batches)[0].tolist() if isinstance(e, ClosedFormEngine)
               else [e.infer(x).value for x in points.tolist()]
               for e in engines]
    labels = [f"{v:.17g}" for v in axis.tolist()]
    pairs = [f"{l1},{l2}" for l1 in labels for l2 in labels]
    row = "%s" + ",%.17g" * len(columns)
    lines = ["x1,x2," + ",".join(spec.engines)]
    lines.extend(row % vals for vals in zip(pairs, *columns))
    return lines


def cmd_surface(args: argparse.Namespace) -> int:
    out = args.out and _out_path(args.out)
    rb = _load_rules(args)
    spec = SurfaceSpec(grid=args.grid, engines=_engine_tokens(args.engine))
    _write_out("\n".join(generate_surface(rb, spec)) + "\n", out)
    return 0


# -- pendulum ----------------------------------------------------------------

def cmd_pendulum(args: argparse.Namespace) -> int:
    trace_out, summary_out = (_out_path(args.out + end)
                              for end in ("_trace.csv", "_summary.json"))
    rb = _load_rules(args)
    engine = build_engine(rb, args.engine)
    cfg = LoopConfig(step=args.step, duration=args.duration, initial_angle=args.angle0)
    code = 0
    try:
        trace = simulate(engine, cfg)
    except NumericalBlowup as exc:
        trace = exc.trace
        code = 3
        print(f"numeric failure: {exc}", file=sys.stderr)
    write_trace_csv(trace, trace_out)
    summary = {
        "settle_time_s": settle_time(trace) if not trace.failed else None,
        "max_abs_angle_rad": float(np.max(np.abs(trace.angles))) if trace.times.size else None,
        "final_angle_rad": float(trace.angles[-1]) if trace.times.size else None,
        "degenerate_steps": int(trace.degenerate_flags.sum()),
        "failed": trace.failed,
    }
    Path(summary_out).write_text(json.dumps(summary, indent=2) + "\n")
    return code


# -- fit ---------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    out = args.out and _out_path(args.out)
    if args.sigma <= 0.0:
        raise CliError("sigma must be positive")
    if args.dmu < 0.0:
        raise CliError("dmu must be non-negative")
    m = IT2Gaussian.uncertain_mean(-args.dmu, args.dmu, args.sigma)
    window = tuple(args.window) if args.window else default_fit_window(m)
    umf, lmf = fit_bounds(m, window=window, samples=args.samples)
    xs = np.linspace(window[0], window[1], args.samples)
    sse = float(np.sum((m.umf_samples(xs) - umf.sample(xs)) ** 2)
                + np.sum((m.lmf_samples(xs) - lmf.sample(xs)) ** 2))
    report = {
        "umf": {"mean": umf.mean, "sigma": umf.sigma, "scale": umf.scale},
        "lmf": {"mean": lmf.mean, "sigma": lmf.sigma, "scale": lmf.scale},
        "sse": sse,
    }
    _write_out(json.dumps(report, indent=2) + "\n", out)
    return 0


# -- bench ---------------------------------------------------------------------

def lcg_probes(count: int, seed: int = LCG_SEED) -> list[tuple[float, float]]:
    """Deterministic probe points in [-1, 1)^2 from the documented LCG."""
    state = seed % LCG_MOD
    out = []
    for _ in range(count):
        state = (LCG_MULT * state + LCG_INC) % LCG_MOD
        a = state / 2 ** 31 - 1.0
        state = (LCG_MULT * state + LCG_INC) % LCG_MOD
        b = state / 2 ** 31 - 1.0
        out.append((a, b))
    return out


def run_bench(rb: RuleBase, engine_tokens: tuple[str, ...], probes: int,
              seed: int = LCG_SEED) -> dict:
    """Per-inference timing stats for each engine over one shared probe stream.

    Every engine is built before any is timed, and ``BENCH_WARMUP``
    inferences per engine run first and are not measured.  A family
    (``gc``, ``nt``) with exactly one reference present gets a speedup, its
    mean over its twin's, the closed token of the same ``EngineConfig``.
    """
    import statistics  # here, so that importing the package does not load it
    if probes < 1:
        raise CliError("no probes")
    modes = {t: parse_engine_mode(t) for t in engine_tokens}
    engines = {t: build_engine(rb, t) for t in engine_tokens}
    points = lcg_probes(probes, seed)
    warm = lcg_probes(min(BENCH_WARMUP, probes), seed + 1)
    report: dict = {"probes": probes, "seed": seed, "engines": {}}
    for token, engine in engines.items():
        for p in warm:
            engine.infer(p)
        samples = []
        for p in points:
            t0 = time.perf_counter_ns()
            engine.infer(p)
            samples.append(time.perf_counter_ns() - t0)
        report["engines"][token] = {
            "mean_ns": statistics.fmean(samples),
            "median_ns": float(statistics.median(samples)),
            "std_ns": statistics.pstdev(samples),
            "count": len(samples),
        }
    stats, speedup = report["engines"], {}
    for family, form in (("gc", Form.GC_CLOSED), ("nt", Form.NT_CLOSED)):
        refs = [t for t, (cfg, is_ref) in modes.items() if is_ref and cfg.form is form]
        twins = [t for t, m in modes.items() if len(refs) == 1 and m == (modes[refs[0]][0], False)]
        if twins:
            speedup[family] = stats[refs[0]]["mean_ns"] / stats[twins[0]]["mean_ns"]
    if speedup:
        report["speedup"] = speedup
    return report


def cmd_bench(args: argparse.Namespace) -> int:
    out = args.out and _out_path(args.out)
    rb = _load_rules(args)
    report = run_bench(rb, _engine_tokens(args.engine), args.probes, seed=args.seed)
    _write_out(json.dumps(report, indent=2) + "\n", out)
    return 0


# -- wiring ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every float literal with a leading
    minus (-1e-3, -inf, -nan) for a value.  argparse's own test takes -1 and
    -1.5 for numbers but reads -1e-3 and -inf as options."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="it2fuzz",
        description="Closed-form interval type-2 fuzzy inference workbench",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("surface", help="export a control surface as CSV")
    p.add_argument("--grid", type=int, default=41, help="points per axis (default 41)")
    p.add_argument("--engine", default="gc-closed",
                   help="comma-separated engine modes (default gc-closed)")
    p.add_argument("--rules", default=None, help="rule base JSON (default: built-in demo)")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("pendulum", help="run the inverted-pendulum loop")
    p.add_argument("--engine", default="gc-closed", help="engine mode (default gc-closed)")
    p.add_argument("--angle0", type=float, default=0.1, help="initial angle, rad")
    p.add_argument("--step", type=float, default=1e-3, help="integration step, s")
    p.add_argument("--duration", type=float, default=5.0, help="simulated time, s")
    p.add_argument("--rules", default=None, help="rule base JSON (default: built-in demo)")
    p.add_argument("--out", default="pendulum", help="output prefix (default 'pendulum')")
    p.set_defaults(fn=cmd_pendulum)

    p = sub.add_parser("fit", help="fit scaled-Gaussian stand-ins for an uncertain-mean FOU")
    p.add_argument("--dmu", type=float, required=True, help="mean half-spread")
    p.add_argument("--sigma", type=float, required=True, help="Gaussian width")
    p.add_argument("--window", type=float, nargs=2, default=None,
                   help="fit window (default: center +- 3(sigma + dmu))")
    p.add_argument("--samples", type=int, default=1001, help="fit grid points (default 1001)")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("bench", help="per-inference timing comparison")
    p.add_argument("--probes", type=int, default=10000,
                   help="measured inferences per engine (default 10000)")
    p.add_argument("--engine", default="gc-closed,gc-ref",
                   help="comma-separated engine modes (default gc-closed,gc-ref)")
    p.add_argument("--seed", type=int, default=LCG_SEED, help="probe generator seed")
    p.add_argument("--rules", default=None, help="rule base JSON (default: built-in demo)")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(fn=cmd_bench)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RuleBaseInvalid as exc:
        lines = "".join(f"\n  [{v.code}] {v.message}" for v in exc.violations)
        print(f"error: invalid rule base:{lines}", file=sys.stderr)
        return 2
    except (CliError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A size too large to allocate is an argument problem too.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
