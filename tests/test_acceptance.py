"""Acceptance gate: one test per shipping criterion, tolerances pinned here.

`pytest -v tests/test_acceptance.py` prints a pass/fail line per criterion.
Each test also enforces the runtime budget it has to live within.
"""

import time

import numpy as np

from it2fuzz import (BoundSource, ClosedFormEngine, EngineConfig, Form,
                     IT2Gaussian, LoopConfig, RefConfig, ReferenceEngine,
                     coa_decomposition_check, default_fit_window,
                     default_rulebase, dump_rulebase, fit_bounds, settle_time,
                     simulate)
from it2fuzz.cli import build_engine, lcg_probes, main, run_bench

import oracles
from helpers import collapsed_rulebase

FIT_COARSE_TOL = 0.05      # fitted params vs coarse expected values
FIT_FROZEN_TOL = 1e-6      # fitted params vs frozen regression values
FIT_LATTICE_TOL = 1e-4     # fitted params vs brute-force lattice optimum
EQUIV_TOL = 1e-3           # closed forms vs sampled reference engine
DECOMP_TOL = 1e-9          # centroid decomposition identity
ODD_TOL = 1e-12            # odd symmetry of the demo surface
T1_TOL = 1e-12             # collapsed FOU vs type-1 center average
SETTLE_CAP_S = 1.0         # pendulum settle bound, every engine mode
TRACE_TOL_RAD = 0.05       # closed-vs-reference and exact-vs-fitted angle gap
HALVING_TOL_RAD = 1e-6     # step-halving agreement at the final sample
SPEEDUP_FLOOR = 10.0       # reference time over closed-form time


def test_criterion_1_fit_regression():
    t0 = time.perf_counter()
    cases = (
        (0.1, oracles.FIT_A, oracles.REF_A, oracles.LATTICE_A),
        (0.125, oracles.FIT_B, oracles.REF_B, oracles.LATTICE_B),
    )
    for dmu, frozen, coarse, lattice in cases:
        m = IT2Gaussian.uncertain_mean(-dmu, dmu, 0.418)
        umf, lmf = fit_bounds(m)
        assert umf.scale == 1.0
        got = (umf.sigma, lmf.sigma, lmf.scale)
        for g, f, c, i in zip(got, frozen, coarse, lattice):
            assert abs(g - f) <= FIT_FROZEN_TOL
            assert abs(g - c) <= FIT_COARSE_TOL
            assert abs(g - i / 1e4) <= FIT_LATTICE_TOL
        window = default_fit_window(m)
        xs = np.linspace(window[0], window[1], 1001)
        found = oracles.lattice_fit(xs, m.umf_samples(xs), m.lmf_samples(xs), 0.0)
        assert tuple(found) == lattice
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_reference_equivalence():
    t0 = time.perf_counter()
    rb = default_rulebase()
    axis = np.linspace(-1.0, 1.0, 21)
    for form, method in ((Form.GC_CLOSED, "gc"), (Form.NT_CLOSED, "nt")):
        closed = ClosedFormEngine(rb, EngineConfig(form=form))
        ref = ReferenceEngine(rb, method=method)
        worst = max(abs(closed.infer((x1, x2)).value - ref.infer((x1, x2)).value)
                    for x1 in axis for x2 in axis)
        assert worst <= EQUIV_TOL
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_centroid_decomposition():
    t0 = time.perf_counter()
    engine = ReferenceEngine(default_rulebase(), RefConfig())
    axis = np.linspace(-1.0, 1.0, 5)
    for x1 in axis:
        for x2 in axis:
            umf, lmf = engine.curves((x1, x2))
            lhs, rhs = coa_decomposition_check(engine.ys, umf, lmf)
            assert abs(lhs - rhs) <= DECOMP_TOL
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_odd_symmetry_and_hull():
    t0 = time.perf_counter()
    rb = default_rulebase()
    peak = max(abs(r.consequent) for r in rb.rules)
    axis = np.linspace(-1.0, 1.0, 41)
    for form in (Form.GC_CLOSED, Form.NT_CLOSED):
        engine = ClosedFormEngine(rb, EngineConfig(form=form))
        for x1 in axis:
            for x2 in axis:
                res = engine.infer((x1, x2))
                mirrored = engine.infer((-x1, -x2))
                assert abs(res.value + mirrored.value) <= ODD_TOL
                if not res.degenerate:
                    assert abs(res.value) <= peak
    assert time.perf_counter() - t0 < 1.0


def test_criterion_5_collapsed_type1_consistency():
    t0 = time.perf_counter()
    rb = collapsed_rulebase()
    gc = ClosedFormEngine(rb, EngineConfig(bound_source=BoundSource.EXACT))
    nt = ClosedFormEngine(rb, EngineConfig(form=Form.NT_CLOSED,
                                           bound_source=BoundSource.EXACT))
    for x1, x2 in lcg_probes(100):
        want = oracles.t1_center_average(x1, x2, 0.418)
        got_gc = gc.infer((x1, x2))
        got_nt = nt.infer((x1, x2))
        assert got_gc.degenerate
        assert abs(got_gc.value - want) <= T1_TOL
        assert not got_nt.degenerate
        assert abs(got_nt.value - want) <= T1_TOL
    assert time.perf_counter() - t0 < 1.0


def test_criterion_6_pendulum_loop():
    t0 = time.perf_counter()
    rb = default_rulebase()
    cfg = LoopConfig()
    traces = {}
    for token in ("gc-closed", "nt-closed", "gc-ref", "nt-ref",
                  "gc-closed-exact", "nt-closed-exact"):
        traces[token] = simulate(build_engine(rb, token), cfg)
    for token in ("gc-closed", "nt-closed", "gc-ref", "nt-ref"):
        settle = settle_time(traces[token])
        assert settle is not None
        assert settle <= SETTLE_CAP_S
    for family in ("gc", "nt"):
        closed = traces[f"{family}-closed"].angles
        assert np.max(np.abs(closed - traces[f"{family}-ref"].angles)) <= TRACE_TOL_RAD
        assert np.max(np.abs(closed - traces[f"{family}-closed-exact"].angles)) \
            <= TRACE_TOL_RAD
    halved = simulate(build_engine(rb, "gc-closed"), LoopConfig(step=5e-4))
    assert abs(traces["gc-closed"].angles[-1] - halved.angles[-1]) < HALVING_TOL_RAD
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_inference_speedup():
    t0 = time.perf_counter()
    report = run_bench(default_rulebase(), ("gc-closed", "gc-ref"), 10000)
    assert report["engines"]["gc-closed"]["count"] == 10000
    assert report["engines"]["gc-ref"]["count"] == 10000
    assert report["speedup"]["gc"] >= SPEEDUP_FLOOR
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_cli_degenerate_workbench(tmp_path):
    t0 = time.perf_counter()
    rules = tmp_path / "collapsed.json"
    dump_rulebase(collapsed_rulebase(), rules)
    out = tmp_path / "surface.csv"
    rc = main(["surface", "--engine", "gc-closed-exact",
               "--rules", str(rules), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 41 * 41
    for line in lines[1:]:
        val = float(line.split(",")[2])
        assert np.isfinite(val) and abs(val) <= 1.0
    engine = ClosedFormEngine(collapsed_rulebase(),
                              EngineConfig(bound_source=BoundSource.EXACT))
    assert engine.infer((0.25, -0.5)).degenerate is True
    assert time.perf_counter() - t0 < 5.0
