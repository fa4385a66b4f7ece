#!/usr/bin/env python3
"""Check that the working tree's outputs equal a parent commit's, bit for bit.

    python3 tools/bitwise_vs_parent.py --parent <ref>

Run it from anywhere inside the repository.  The parent side is
``git archive <ref>`` unpacked into a temporary directory; the change
side is this working tree.  Each side runs ``dump()`` in its own Python
process with that tree's ``src``, ``perfbench`` and ``tests`` helpers
first on the path, and prints one sha1 per key:

* ``surface/...``: the bytes of ``generate_surface`` CSVs over perfbench's
  split surface rule base for seeds 1, 2, 3 and 7919 at grids 17 and 41
  with all six closed-form tokens (the test helpers' ``CLOSED_TOKENS``),
  the demo with its four closed-form tokens and ``gc-ref``, the
  collapsed base with both exact tokens, and the partly collapsed base
  below with all six; and the demo at grid 2 and over the asymmetric
  range (-0.3, 0.9), two reference columns among three closed ones;
* ``trace/...``: pendulum trace CSV bytes for the six closed-form tokens
  (split tokens on the split demo) from starts that include ``-0.0``;
* ``fire/...``, ``infer/...``, ``infer_batch/...``: ``float.hex`` of every
  result on ``lcg_probes(2000)``, signed zeros, infinities and NaN, for
  the demo, split and collapsed bases and for three bases of the test
  helpers: ``uneven_rulebase`` (3 inputs) and ``one_input_rulebase``,
  whose points are the same probes widened to three inputs or cut to
  one, and ``partly_collapsed_rulebase``, whose regular, upper-average
  and no-firing rows interleave.  Each side builds them with its own
  ``tests/helpers.py``, so a parent tree without them cannot be compared;
* ``kernel/...``: for the same engines, the ``co_code``, ``co_consts``,
  ``co_names`` and ``co_varnames`` of the compiled ``infer`` and ``fire``
  (``_infer`` and ``_fire``), so a change to the generated kernels shows
  even where no output moves;
* ``ref/...``: ``float.hex`` and flag of every ``infer`` of ``gc-ref``,
  ``nt-ref``, ``gc-ref-exact`` and ``nt-ref-exact`` on the demo over
  ``lcg_probes(200)``, signed zeros, infinities and NaN, and on the rule
  bases of perfbench's first 20 ``design`` ops at seed 1 (``design_base``)
  over each op's probes and the same special points.  All of them are
  built in one process and share consequent centers, so the engines after
  the first take the reference's cached consequent matrix;
* ``curves/...``: the bytes of ``upper`` then ``lower`` from ``curves`` of
  the same four reference tokens at each demo point of ``ref/``, so a
  NaN or a signed zero anywhere on the grid counts, not only the
  centroid ``infer`` takes of it;
* ``ref-pairs/...``: the same ``design`` bases and points, each through a
  twin pair, ``gc-ref`` with ``nt-ref`` and ``gc-ref-exact`` with
  ``nt-ref-exact``, inferring with one engine and then the other at each
  point as the ``design`` op does, then taking both engines' ``curves``:
  ``float.hex`` and flag of each ``infer`` and the bytes of each curve.
  ``ref/`` and ``curves/`` run one engine over all its points before the
  next, so only here does an engine meet the curves its twin just swept;
* ``samples/...``: the bytes of ``umf_samples`` and ``lmf_samples`` on the
  default fit grid (``default_fit_window``, 1001 points) of the
  ``FIT_SPREADS`` and ``design`` FOUs below and of four uncertain-sigma
  sets (``SIGMA_FOUS``);
* ``fit/...``: the ``float.hex`` of ``fit_bounds``' six parameters for
  uncertain-mean spreads 0 to 0.2 at sigma 0.418 (``FIT_SPREADS``), the
  first 60 inputs of perfbench's ``design`` workload at seed 1 (spread
  0.05 to 0.2, sigma 0.3 to 0.5), the four ``SIGMA_FOUS``, whose lower
  scale clamps at 1 on the first three and rounds to 1 ulp under 1 on the
  last, the scale-free pair at sigma 1e-150 and 1e150 (spread 0.25
  sigma), and spread 0.1 at sigma 0.4 over the windows (-0.1, 1e6) and
  (-0.1, 0.1), the latter's upper search ending on its bracket at sigma
  1.6;
* ``rowsum/...``: the ``float.hex`` of every row sum ``_row_fsum`` returns,
  or the name of the error it raises, over fixed matrices: each of the
  tie and special rows of its tests (``ROWSUM_SPECIAL_ROWS``) with a row
  of 0.25s and its own reverse, 40 seeded random matrices and the same
  followed by their near negation, edge rows of the error-free split
  (``rowsum_edge_matrices``), and the weight and term matrices of the
  first five perfbench ``surface`` ops at seed 1, so that a change to the
  summation shows even where no CSV byte moves.  The ``rowsum/surface-*``
  keys hash those results in the order ``infer_batches`` calls
  ``_row_fsum``, so a change to that order moves them even where every
  sum is the same.

It prints the keys that differ, or that only one side has, and exits 1
if there are any, 0 otherwise.  Both sides run this file's ``dump()``, so
they hash the same keys: 586 of them, 89 under ``fit/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SURFACE_SEEDS = (1, 2, 3, 7919)
TRACE_STARTS = ((0.1, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 0.4), (-0.25, -0.3))
SPECIAL_POINTS = ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (30.0, -30.0),
                  (math.inf, 0.2), (-0.4, -math.inf), (math.nan, 0.1), (0.3, math.nan))

REF_TOKENS = ("gc-ref", "nt-ref", "gc-ref-exact", "nt-ref-exact")
REF_PAIRS = (("gc-ref", "nt-ref"), ("gc-ref-exact", "nt-ref-exact"))
REF_DESIGN_OPS = 20
FIT_SPREADS = tuple(k / 100 for k in range(21))
SIGMA_FOUS = ((0.0, 0.2, 0.35), (-0.4, 0.3, 0.3), (0.7, 0.05, 0.6),
              (0.0, 0.16720000000000002, 0.418))
FIT_SCALE_FREE_SIGMAS = (1e-150, 1e150)
FIT_WINDOWS = ((-0.1, 1e6), (-0.1, 0.1))
ROWSUM_SPECIAL_ROWS = (
    (1.0, 2.0 ** -53, 2.0 ** -105), (1.0, 2.0 ** -53, -(2.0 ** -105)), (1.0, 2.0 ** -53),
    (1.0, -(2.0 ** -54), 2.0 ** -107), (1.0, -(2.0 ** -54), -(2.0 ** -107)),
    (2.0 ** -53, 1.0, 2.0 ** -105, 2.0 ** -200, -(2.0 ** -200)), (1e16, 1.0, -1e16, 2.0 ** -60),
    (0.1, 0.2, -0.3), (0.5, -0.25, -0.25), (1e300, 1e-300, -1e300), (-0.0, -0.0, -0.0),
    (0.0, -0.0), (5e-324, -5e-324, 5e-324), (2.0 ** -1022, -(2.0 ** -1074)),
    (math.nan, 1.0, 2.0), (math.inf, 1.0), (-math.inf, -math.inf), (1e308, 1e308, -1e308, 0.0),
    (math.inf, -math.inf))
ROWSUM_SURFACE_OPS = 5


def _sha1(data: str | bytes) -> str:
    return hashlib.sha1(data.encode() if isinstance(data, str) else data).hexdigest()


def design_base(layout, dmu, sigma):
    """The rule base a perfbench ``design`` op builds, as ``DesignWorkload.run``
    does: one uncertain-mean FOU fitted at 0 and moved to each set's center."""
    from it2fuzz import IT2Gaussian, Partition, RuleBase, ScaledGaussian
    from it2fuzz.mf import fit_bounds

    umf, lmf = fit_bounds(IT2Gaussian.uncertain_mean(-dmu, dmu, sigma))
    parts = tuple(
        Partition(p.universe, tuple(
            IT2Gaussian.uncertain_mean(s.center - dmu, s.center + dmu, sigma).with_fitted(
                ScaledGaussian(s.center + umf.mean, umf.sigma, umf.scale),
                ScaledGaussian(s.center + lmf.mean, lmf.sigma, lmf.scale))
            for s in p.sets), p.names)
        for p in layout.partitions)
    return RuleBase(parts, layout.rules)


def rowsum_edge_matrices():
    """Named matrices at the edges of ``_row_fsum``'s split: the largest
    magnitude an exact power of two, just under and at ``2**1000 / r``, widths
    on both sides of ``2**M >= r + 2``, subnormal and near-underflow rows,
    and rows whose large parts cancel exactly."""
    import numpy as np

    rng = np.random.default_rng(24)
    out = {}
    for r in (2, 3, 6, 7, 8, 9, 14, 15, 16, 17, 62, 63, 64, 65):
        # Same-sign entries just under 1.0 with random low bits: their
        # coarse parts add up to nearly r * 2**-M of sigma.
        out[f"width-{r}"] = ((1.0 - rng.random((20, r)) * 2.0 ** -20)
                             * rng.choice([-1.0, 1.0], (20, 1)))
        out[f"width-{r}-mixed"] = rng.uniform(-1.0, 1.0, (20, r)) * 2.0 ** 30
        top = 2.0 ** 1000 / r
        out[f"limit-{r}"] = np.array([[np.nextafter(top, 0.0)] * r, [top] + [1.0] * (r - 1),
                                      [np.nextafter(top, 0.0), -top / 3] + [0.5] * (r - 2)])
    for k in (-1074, -1060, -1022, -1000, -30, 0, 1, 52, 900):
        m = rng.uniform(-1.0, 1.0, (20, 9)) * 2.0 ** k
        m[:, 0] = 2.0 ** k
        out[f"power-of-two-{k}"] = m
    out["subnormal"] = rng.integers(-2 ** 40, 2 ** 40, (20, 9)) * 2.0 ** -1074
    out["near-underflow"] = (rng.uniform(-1.0, 1.0, (20, 9)) * 2.0 ** -1000
                             + rng.integers(-2 ** 20, 2 ** 20, (20, 9)) * 2.0 ** -1074)
    a = rng.integers(2 ** 48, 2 ** 49, 20) * 2.0 ** -49
    low = rng.integers(-2, 3, (20, 2)) * 2.0 ** -53
    out["cancelling"] = np.column_stack((a + low[:, 0], -a + low[:, 1]))
    return out


def dump() -> dict[str, str]:
    """Keyed sha1s of this process's ``it2fuzz`` outputs (see the module doc)."""
    import numpy as np
    from helpers import (CLOSED_TOKENS, collapsed_rulebase, one_input_rulebase,
                         partly_collapsed_rulebase, split_rulebase, uneven_rulebase)
    from it2fuzz import cli, pendulum
    from it2fuzz import engine as engine_mod
    from it2fuzz.engine import infer_batches
    from it2fuzz.mf import IT2Gaussian, default_fit_window, fit_bounds
    from it2fuzz.rulebase import default_rulebase
    from perfbench.workloads import DesignWorkload, SurfaceWorkload

    demo = default_rulebase()
    bases = {"demo": demo, "split": split_rulebase(demo), "collapsed": collapsed_rulebase(),
             "partly-collapsed": partly_collapsed_rulebase()}
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in SURFACE_SEEDS:
            work = SurfaceWorkload(seed, tmp)
            for grid in (17, 41):
                for radius in (work.make_input(0), 1.0):
                    spec = cli.SurfaceSpec(grid, (-radius, radius), CLOSED_TOKENS)
                    out[f"surface/perfbench-{seed}/{grid}/{radius!r}"] = _sha1(
                        "\n".join(cli.generate_surface(work.rb, spec)))
        for grid in (5, 41):
            demo_tokens = [t for t in CLOSED_TOKENS if "split" not in t]
            if grid == 5:
                demo_tokens.append("gc-ref")
            spec = cli.SurfaceSpec(grid, engines=tuple(demo_tokens))
            out[f"surface/demo/{grid}"] = _sha1("\n".join(cli.generate_surface(demo, spec)))
            spec = cli.SurfaceSpec(grid, engines=("gc-closed-exact", "nt-closed-exact"))
            out[f"surface/collapsed/{grid}"] = _sha1(
                "\n".join(cli.generate_surface(bases["collapsed"], spec)))
            spec = cli.SurfaceSpec(grid, engines=CLOSED_TOKENS)
            out[f"surface/partly-collapsed/{grid}"] = _sha1(
                "\n".join(cli.generate_surface(bases["partly-collapsed"], spec)))
        for grid, axis_range in ((2, (-1.0, 1.0)), (17, (-0.3, 0.9))):
            spec = cli.SurfaceSpec(grid, axis_range, ("gc-closed", "gc-ref", "nt-closed-exact",
                                                      "nt-ref-exact", "gc-closed-exact"))
            out[f"surface/demo-mixed/{grid}/{axis_range!r}"] = _sha1(
                "\n".join(cli.generate_surface(demo, spec)))

        work = SurfaceWorkload(1, tmp)
        row_fsum, sums = engine_mod._row_fsum, []
        engine_mod._row_fsum = lambda m: sums.append(row_fsum(m)) or sums[-1]
        try:
            for k in range(ROWSUM_SURFACE_OPS):
                del sums[:]
                work.run(work.make_input(k))
                out[f"rowsum/surface-1/{k}"] = _sha1(";".join(
                    ",".join(v.hex() for v in s.tolist()) for s in sums))
        finally:
            engine_mod._row_fsum = row_fsum

        csv = tmp / "trace.csv"
        for token in CLOSED_TOKENS:
            engine = cli.build_engine(bases["split" if "split" in token else "demo"], token)
            for angle, velocity in TRACE_STARTS:
                trace = pendulum.simulate(engine, pendulum.LoopConfig(
                    initial_angle=angle, initial_velocity=velocity))
                pendulum.write_trace_csv(trace, csv)
                out[f"trace/{token}/{angle!r},{velocity!r}"] = _sha1(csv.read_bytes())
        design = DesignWorkload(1, tmp)
        fous = [(d, 0.418) for d in FIT_SPREADS]
        fous += [design.make_input(k)[:2] for k in range(60)]

    ref_cases = {"demo": (demo, cli.lcg_probes(200) + list(SPECIAL_POINTS))}
    for k in range(REF_DESIGN_OPS):
        dmu, sigma, probes = design.make_input(k)
        ref_cases[f"design-1/{k}"] = (design_base(design.layout, dmu, sigma),
                                      probes + list(SPECIAL_POINTS))
    for base, (rb, xs) in ref_cases.items():
        for token in REF_TOKENS:
            engine = cli.build_engine(rb, token)
            out[f"ref/{base}/{token}"] = _sha1(",".join(
                f"{r.value.hex()}:{r.degenerate}" for r in map(engine.infer, xs)))
            if base == "demo":
                out[f"curves/{base}/{token}"] = _sha1(b"".join(
                    u.tobytes() + l.tobytes() for u, l in map(engine.curves, xs)))
    design_cases = [base for base in ref_cases if base != "demo"]
    for base, pair in itertools.product(design_cases, REF_PAIRS):
        rb, xs = ref_cases[base]
        engines = [cli.build_engine(rb, token) for token in pair]
        h = hashlib.sha1()
        for x in xs:
            for r in [engine.infer(x) for engine in engines]:
                h.update(f"{r.value.hex()}:{r.degenerate},".encode())
            for engine in engines:
                h.update(b"".join(c.tobytes() for c in engine.curves(x)))
        out[f"ref-pairs/{base}/{'+'.join(pair)}"] = h.hexdigest()

    points = cli.lcg_probes(2000) + list(SPECIAL_POINTS)
    cases = {base: (rb, points) for base, rb in bases.items()}
    cases["three-input"] = uneven_rulebase(), [(a, b, b - a) for a, b in points]
    cases["one-input"] = one_input_rulebase(), [(a,) for x in points for a in x]
    for base, (rb, xs) in cases.items():
        tokens = [t for t in CLOSED_TOKENS if rb.is_split or "split" not in t]
        if base == "collapsed":
            tokens = [t for t in tokens if t.endswith("-exact")]
        for token in tokens:
            engine = cli.build_engine(rb, token)
            fire = [v.hex() for x in xs for f in engine.fire(x) for v in f]
            infer = [f"{r.value.hex()}:{r.degenerate}" for r in map(engine.infer, xs)]
            values, degenerate = infer_batches([engine], np.array(xs))[0]
            batch = [f"{v.hex()}:{d}" for v, d in zip(values.tolist(), degenerate.tolist())]
            out[f"fire/{base}/{token}"] = _sha1(",".join(fire))
            out[f"infer/{base}/{token}"] = _sha1(",".join(infer))
            out[f"infer_batch/{base}/{token}"] = _sha1(",".join(batch))
            for name in ("infer", "fire"):
                code = getattr(engine, f"_{name}").__code__
                out[f"kernel/{base}/{token}/{name}"] = _sha1(repr(
                    (code.co_code, code.co_consts, code.co_names, code.co_varnames)))

    mean_sets = {f"{dmu!r},{sigma!r}": IT2Gaussian.uncertain_mean(-dmu, dmu, sigma)
                 for dmu, sigma in fous}
    sigma_sets = {f"{mean!r},{lo!r},{hi!r}": IT2Gaussian.uncertain_sigma(mean, lo, hi)
                  for mean, lo, hi in SIGMA_FOUS}
    for kind, sets in (("uncertain-mean", mean_sets), ("uncertain-sigma", sigma_sets)):
        for name, m in sets.items():
            xs = np.linspace(*default_fit_window(m), 1001)
            out[f"samples/{kind}/{name}"] = _sha1(m.umf_samples(xs).tobytes()
                                                  + m.lmf_samples(xs).tobytes())
    fits = {name: (m, None) for name, m in (mean_sets | sigma_sets).items()}
    for sigma in FIT_SCALE_FREE_SIGMAS:
        fits[f"{0.25 * sigma!r},{sigma!r}"] = (
            IT2Gaussian.uncertain_mean(-0.25 * sigma, 0.25 * sigma, sigma), None)
    for window in FIT_WINDOWS:
        fits[f"0.1,0.4,window={window!r}"] = (IT2Gaussian.uncertain_mean(-0.1, 0.1, 0.4), window)
    for name, (m, window) in fits.items():
        umf, lmf = fit_bounds(m, window)
        out[f"fit/{name}"] = _sha1(",".join(
            v.hex() for g in (umf, lmf) for v in (g.mean, g.sigma, g.scale)))

    def row_sums(m) -> str:
        try:
            return ",".join(v.hex() for v in engine_mod._row_fsum(np.asarray(m, float)).tolist())
        except (OverflowError, ValueError) as exc:
            return type(exc).__name__

    for k, row in enumerate(ROWSUM_SPECIAL_ROWS):
        out[f"rowsum/special/{k}"] = _sha1(row_sums([row, [0.25] * len(row), row[::-1]]))
    rng = np.random.default_rng(8)
    random, cancelling = [], []
    for _ in range(40):
        n, r = rng.integers(1, 80), rng.integers(1, 130)
        m = (10.0 ** rng.uniform(-20, 1, (n, r))) * rng.choice([-1.0, 1.0], (n, r))
        random.append(row_sums(m))
        cancelling.append(row_sums(np.hstack((m, -m * (1 + 2.0 ** -40)))))
    out["rowsum/random"] = _sha1(";".join(random))
    out["rowsum/cancelling"] = _sha1(";".join(cancelling))
    for name, m in rowsum_edge_matrices().items():
        out[f"rowsum/edge/{name}"] = _sha1(row_sums(m))
    return out


def run_dump(tree: Path) -> dict[str, str]:
    """``dump()`` in a fresh interpreter that imports from ``tree``."""
    paths = [str(tree / "src"), str(tree), str(tree / "tests"), str(ROOT / "tools")]
    code = (f"import json, sys; sys.path[:0] = {paths!r}; import bitwise_vs_parent; "
            "print(json.dumps(bitwise_vs_parent.dump()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git ref of the parent side")
    args = p.parse_args(argv)
    sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bitwise-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        parent = run_dump(Path(tmp))
    change = run_dump(ROOT)
    differ = sorted(k for k in parent.keys() | change.keys()
                    if parent.get(k) != change.get(k))
    for key in differ:
        print(f"differs: {key}  parent {parent.get(key)}  change {change.get(key)}")
    print(f"{len(parent.keys() | change.keys())} keys against {args.parent} ({sha[:12]}): "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
