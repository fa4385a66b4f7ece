"""Discretized reference pipeline: aggregation, defuzzifiers, convergence."""

import math

import numpy as np
import pytest

from it2fuzz import (
    BoundSource,
    ClosedFormEngine,
    EngineConfig,
    Form,
    IT2Gaussian,
    Partition,
    RefConfig,
    ReferenceEngine,
    Rule,
    RuleBase,
    ZeroArea,
    coa_decomposition_check,
    default_rulebase,
)
from it2fuzz import cli, dump_rulebase
from it2fuzz.reference import _output_grid

from helpers import collapsed_rulebase, split_rulebase

RB = default_rulebase()
EXACT = EngineConfig(bound_source=BoundSource.EXACT)
NT = EngineConfig(form=Form.NT_CLOSED)
NT_EXACT = EngineConfig(form=Form.NT_CLOSED, bound_source=BoundSource.EXACT)
REF_CONFIGS = {"gc-ref": EngineConfig(), "gc-ref-exact": EXACT,
               "nt-ref": NT, "nt-ref-exact": NT_EXACT}


def scaled_demo(k):
    """The demo with every consequent times k: its hull is [-k, k]."""
    return RuleBase(RB.partitions, tuple(Rule(r.antecedent, k * r.consequent)
                                         for r in RB.rules))


def test_config_validation():
    # an int config of 2001 points in the cache must not let an equal
    # float count through on the cache hit
    ReferenceEngine(RB, ref=RefConfig(grid_points=2001))
    for kwargs in ({"grid_points": 2001.0}, {"grid_points": 2003.0},
                   {"grid_points": True}, {"grid_points": "2001"},
                   {"consequent_width": 0.0}, {"consequent_width": math.inf},
                   {"consequent_width": math.nan}):
        with pytest.raises(ValueError):
            RefConfig(**kwargs)


def test_consequent_rows_peak_at_centers():
    # a lone rule firing fully gives its unit consequent bump as the upper
    # curve; the 1e-3 grid spacing puts each center on a grid point
    ref = RefConfig(grid_points=3001)
    p = Partition((-1.0, 1.0), (IT2Gaussian.uncertain_mean(-0.1, 0.1, 0.4),))
    for c in (-1.0, 0.0, 1.0):
        engine = ReferenceEngine(RuleBase((p,), (Rule((0,), c),)), EXACT, ref)
        u, _ = engine.curves((0.0,))
        assert engine.ys[int(np.argmax(u))] == pytest.approx(c, abs=1e-3)
        assert u.max() == pytest.approx(1.0, abs=1e-12)


def test_grid_spans_the_hull_with_fifty_width_margins():
    assert _same_bits(ReferenceEngine(RB).ys, np.linspace(-1.5, 1.5, 10001))
    ref = RefConfig(grid_points=2001, consequent_width=0.02)
    ys = ReferenceEngine(scaled_demo(3.0), ref=ref).ys
    assert (ys[0], ys[-1], ys.size) == (-4.0, 4.0, 2001)
    # a lone center at the origin: -0.0 and 0.0 give one grid
    p = Partition((-1.0, 1.0), (IT2Gaussian.uncertain_mean(-0.1, 0.1, 0.4),))
    for c in (0.0, -0.0):
        ys = ReferenceEngine(RuleBase((p,), (Rule((0,), c),)), EXACT).ys
        assert (ys[0], ys[-1]) == (-0.5, 0.5)


# The demo at its hull's width 2 needs 301 points (spacing 0.01 = the
# width); fewer, or a hull of 120 on the default grid, is too coarse.
@pytest.mark.parametrize("k, grid_points", [(60.0, 10001), (1.0, 300), (1.0, 101),
                                            (1.0, 100), (1.0, 1), (1.0, 0), (1e308, 10001)])
def test_a_grid_coarser_than_the_width_is_rejected(k, grid_points):
    ref = RefConfig(grid_points=grid_points)
    for cfg in REF_CONFIGS.values():
        with pytest.raises(ValueError, match="grid spacing of at most"):
            ReferenceEngine(scaled_demo(k), cfg, ref)


def test_a_grid_as_fine_as_the_width_is_accepted():
    # every row still peaks within half a width of its center
    engine = ReferenceEngine(RB, ref=RefConfig(grid_points=301))
    assert engine.ys[1] - engine.ys[0] == pytest.approx(0.01, rel=1e-12)
    assert engine._gmat.max(axis=1).min() >= math.exp(-0.125)
    assert not engine.infer((0.3, -0.7)).degenerate


@pytest.mark.parametrize("k", [3.0, 40.0])
@pytest.mark.parametrize("token", REF_CONFIGS)
def test_scaled_consequents_agree_with_the_twin(token, k):
    rb, cfg = scaled_demo(k), REF_CONFIGS[token]
    ref, closed = ReferenceEngine(rb, cfg), ClosedFormEngine(rb, cfg)
    for x in cli.lcg_probes(200):
        r, c = ref.infer(x), closed.infer(x)
        assert not r.degenerate and not c.degenerate
        assert abs(r.value - c.value) <= 1e-9, x


@pytest.mark.parametrize("argv", [["bench", "--probes", "50"],
                                  ["surface", "--grid", "5", "--engine", "gc-ref"]],
                         ids=["bench", "surface"])
@pytest.mark.parametrize("k, code", [(3.0, 0), (60.0, 2)])
def test_cli_reference_on_scaled_consequents(argv, k, code, tmp_path, capsys):
    rules = tmp_path / "scaled.json"
    dump_rulebase(scaled_demo(k), rules)
    assert cli.main(argv + ["--rules", str(rules), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and (tmp_path / "out").exists()
    else:
        assert err.startswith("error: consequent centers -60.0 to 60.0 need a grid spacing")
        assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_single_rule_fou_scales_with_firing():
    # one rule, consequent 0: both output curves are the same consequent
    # bump scaled by the firing levels, so lower = fire.lower * upper exactly
    sigma = 0.3
    spread = sigma * math.sqrt(2.0 * math.log(2.0))  # lmf(center) = 1/2
    p = Partition((-1.2, 1.2),
                  (IT2Gaussian.uncertain_mean(-spread, spread, sigma),))
    rb = RuleBase((p,), (Rule((0,), 0.0),))
    f = ClosedFormEngine(rb, EXACT).fire((0.0,))[0]
    assert f.upper == 1.0
    assert f.lower == pytest.approx(0.5, abs=1e-12)
    engine = ReferenceEngine(rb, EXACT)
    u, l = engine.curves((0.0,))
    assert np.array_equal(l, f.lower * u)
    assert u.max() == pytest.approx(1.0, abs=1e-12)
    # fifty widths from the center the bump has fully underflowed
    assert u[int(np.argmin(np.abs(engine.ys - 0.5)))] == 0.0
    assert engine.infer((0.0,)).value == pytest.approx(0.0, abs=1e-12)


def test_three_bumps_from_demo_at_origin():
    engine = ReferenceEngine(RB)
    u, _ = engine.curves((0.0, 0.0))

    def at(y):
        return u[int(np.argmin(np.abs(engine.ys - y)))]

    assert at(-1.0) > 0.1 and at(1.0) > 0.1
    # three rules share center 0, so their mass stacks above one
    assert at(0.0) > 1.0
    assert at(0.5) == 0.0 and at(-0.5) == 0.0


def test_rule_order_does_not_change_curves():
    shuffled = RuleBase(RB.partitions, tuple(RB.rules[k] for k in
                                             (5, 2, 8, 0, 7, 4, 1, 6, 3)))
    a, b = ReferenceEngine(RB), ReferenceEngine(shuffled)
    for x in ((1.0, 1.0), (0.25, -0.7)):
        a_u, a_l = a.curves(x)
        b_u, b_l = b.curves(x)
        assert np.array_equal(a_u, b_u)
        assert np.array_equal(a_l, b_l)


def test_lower_curve_never_exceeds_upper():
    engine = ReferenceEngine(RB)
    for x in ((0.0, 0.0), (0.5, -0.5), (1.0, 1.0), (-0.3, 0.8)):
        u, l = engine.curves(x)
        assert bool(np.all(l <= u))


def test_triangle_centroid():
    ys = np.linspace(-0.7, 1.3, 10001)
    tri = np.maximum(0.0, 1.0 - np.abs(ys - 0.3))
    lhs, _ = coa_decomposition_check(ys, tri, np.zeros(ys.size))
    assert lhs == pytest.approx(0.3, abs=1e-12)


def test_uniform_band_centroid_is_domain_center():
    ys = np.linspace(-1.0, 1.0, 5001)
    lhs, _ = coa_decomposition_check(ys, np.full(ys.size, 0.4), np.zeros(ys.size))
    assert lhs == pytest.approx(0.0, abs=1e-12)


def test_collapsed_band_raises_zero_area_but_nt_still_works():
    rb = collapsed_rulebase()
    engine = ReferenceEngine(rb, EXACT)
    x = (0.2, -0.1)
    u, l = engine.curves(x)
    assert np.array_equal(u, l)
    with pytest.raises(ZeroArea):
        coa_decomposition_check(engine.ys, u, l)
    # midline centroid degenerates to the centroid of the single curve
    expect = float(np.dot(engine.ys, u) / u.sum())
    value, degenerate = ReferenceEngine(rb, NT_EXACT).infer(x)
    assert value == pytest.approx(expect, abs=1e-12) and not degenerate


def test_symmetric_band_centers_both_defuzzifiers():
    for cfg in (EngineConfig(), NT):
        value, degenerate = ReferenceEngine(RB, cfg).infer((0.0, 0.0))
        assert value == pytest.approx(0.0, abs=1e-12) and not degenerate


def test_centroid_decomposition_identity():
    engine = ReferenceEngine(RB)
    for x in ((0.25, 0.75), (-0.6, 0.1), (1.0, 1.0)):
        lhs, rhs = coa_decomposition_check(engine.ys, *engine.curves(x))
        assert abs(lhs - rhs) <= 1e-9


def test_decomposition_with_zero_lower_reduces_to_upper_centroid():
    engine = ReferenceEngine(RB)
    u, _ = engine.curves((0.25, 0.75))
    lhs, rhs = coa_decomposition_check(engine.ys, u, np.zeros(u.size))
    expect = float(np.dot(engine.ys, u) / u.sum())
    assert rhs == pytest.approx(expect, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_reference_engine_infers_the_centroid_of_its_curves():
    gc = ReferenceEngine(RB)
    nt = ReferenceEngine(RB, NT)
    for x in ((0.5, -0.5), (0.25, 0.75), (-1.0, -1.0)):
        u, l = gc.curves(x)
        mid = 0.5 * (u + l)
        assert gc.infer(x) == (coa_decomposition_check(gc.ys, u, l)[0], False)
        assert nt.infer(x) == (float(np.dot(nt.ys, mid) / mid.sum()), False)


def test_reference_engine_flags_degenerate_instead_of_raising():
    gc = ReferenceEngine(collapsed_rulebase(), EXACT)
    assert gc.infer((0.2, -0.1)) == (0.0, True)
    nt = ReferenceEngine(RB, NT)
    assert nt.infer((30.0, 30.0)) == (0.0, True)


def test_reference_engine_flags_non_finite_input():
    for cfg in (EngineConfig(), EXACT, NT, NT_EXACT):
        engine = ReferenceEngine(RB, cfg)
        for bad in (math.nan, math.inf, -math.inf):
            assert engine.infer((bad, 0.2)) == (0.0, True)
            assert engine.infer((-0.4, bad)) == (0.0, True)


def test_fitted_reference_requires_attached_bounds():
    with pytest.raises(ValueError, match="fit"):
        ReferenceEngine(collapsed_rulebase())


def test_split_form_has_no_reference_twin():
    for source in BoundSource:
        cfg = EngineConfig(form=Form.GC_CLOSED_SPLIT, bound_source=source)
        with pytest.raises(ValueError, match="no reference twin"):
            ReferenceEngine(split_rulebase(RB), cfg)


def test_reference_agrees_with_closed_forms_at_spots():
    gc_ref, nt_ref = ReferenceEngine(RB), ReferenceEngine(RB, NT)
    gc, nt = ClosedFormEngine(RB), ClosedFormEngine(RB, NT)
    for x in ((0.5, -0.5), (0.25, 0.75), (-1.0, -1.0)):
        assert abs(gc_ref.infer(x).value - gc.infer(x).value) <= 1e-3
        assert abs(nt_ref.infer(x).value - nt.infer(x).value) <= 1e-3


def test_error_does_not_grow_as_width_halves():
    # keep the grid spacing at 0.03 widths while shrinking the width; the
    # grid spans the hull [-1, 1] and 50 widths either side
    probes = [(float(a), float(b)) for a in np.linspace(-1.0, 1.0, 5)
              for b in np.linspace(-1.0, 1.0, 5)]
    closed = ClosedFormEngine(RB)
    errs = []
    for w in (0.08, 0.04, 0.02, 0.01, 0.005):
        n = round((2.0 + 100.0 * w) / (0.03 * w)) + 1
        eng = ReferenceEngine(RB, ref=RefConfig(grid_points=n, consequent_width=w))
        errs.append(max(abs(eng.infer(p).value - closed.infer(p).value)
                        for p in probes))
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3


def _grid_and_matrix(centers, ref):
    """The output grid and consequent rows, by ``ReferenceEngine``'s formula:
    the grid runs from the lowest center less 50 widths to the highest
    plus 50 widths."""
    margin = 50.0 * ref.consequent_width
    ys = np.linspace(min(centers) - margin, max(centers) + margin, ref.grid_points)
    z = (ys[None, :] - np.asarray(centers)[:, None]) / ref.consequent_width
    return ys, np.exp(-0.5 * z * z)


def _expected_curves(engine, xs):
    """``curves(x)`` for each x in xs: full-row sweeps over a matrix built
    here, in the engine's rule order."""
    centers = [r.consequent for r in engine.rb.rules]
    _, gmat = _grid_and_matrix(centers, engine.ref)
    closed = ClosedFormEngine(engine.rb, engine.cfg)
    for x in xs:
        firing = closed.fire(x)
        upper, lower = np.zeros(gmat.shape[1]), np.zeros(gmat.shape[1])
        for k in sorted(range(len(centers)),
                        key=lambda k: (centers[k], firing[k].lower, firing[k].upper)):
            upper += firing[k].upper * gmat[k]
            lower += firing[k].lower * gmat[k]
        yield upper, lower


def _same_bits(a, b):
    """Equal dtype, shape and bytes: the sign of every zero and every NaN too."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_engines_over_equal_centers_share_one_matrix():
    engines = [ReferenceEngine(rb, cfg) for rb in (RB, default_rulebase())
               for cfg in (EngineConfig(), EXACT, NT, NT_EXACT)]
    engines.append(ReferenceEngine(collapsed_rulebase(), EXACT))
    for e in engines[1:]:
        assert e._gmat is engines[0]._gmat
        assert e.ys is engines[0].ys


@pytest.mark.parametrize("change", ["center", "hull", "grid", "width"])
def test_a_different_layout_gets_its_own_matrix(change):
    rb, ref = RB, RefConfig()
    if change in ("center", "hull"):
        # 0.95 keeps the hull and so the grid; 1.25 widens both
        b = {"center": 0.95, "hull": 1.25}[change]
        rb = RuleBase(RB.partitions, (Rule(RB.rules[0].antecedent, b),) + RB.rules[1:])
    else:
        ref = {"grid": RefConfig(grid_points=5001),
               "width": RefConfig(consequent_width=0.02)}[change]
    base, other = ReferenceEngine(RB), ReferenceEngine(rb, ref=ref)
    assert other._gmat is not base._gmat
    ys, gmat = _grid_and_matrix([r.consequent for r in rb.rules], ref)
    assert _same_bits(other.ys, ys) and _same_bits(other._gmat, gmat)
    # The same antecedents fire the same, yet the last curves are not reused.
    x = (0.3, -0.7)
    assert base._closed.fire(x) == other._closed.fire(x)
    last = base.curves(x)
    (upper, lower), = _expected_curves(other, [x])
    u, l = other.curves(x)
    assert u is not last[0] and l is not last[1]
    assert _same_bits(u, upper) and _same_bits(l, lower)


def test_shared_arrays_are_read_only():
    engine = ReferenceEngine(RB)
    with pytest.raises(ValueError):
        engine.ys[0] = 0.0
    with pytest.raises(ValueError):
        engine._gmat[0, 0] = 0.0
    with pytest.raises(ValueError):
        engine._gmat *= 2.0
    with pytest.raises(ValueError):
        np.add(engine.ys, 1.0, out=engine.ys)


# signed zeros and the infinities; NaN has its own test
SPECIAL_POINTS = [
    (0.0, 0.0), (0.3, -0.7), (-1.0, 0.25), (-0.0, 0.9), (0.0, -0.0), (30.0, -30.0),
    (math.inf, 0.2), (-0.4, -math.inf), (math.inf, -math.inf), (-math.inf, math.inf)]


@pytest.mark.parametrize("cfg", [EngineConfig(), EXACT], ids=["fitted", "exact"])
def test_curves_equal_a_matrix_built_here(cfg):
    engine = ReferenceEngine(RB, cfg)
    assert _same_bits(engine.ys, _grid_and_matrix([-1.0, 1.0], engine.ref)[0])
    points = cli.lcg_probes(200) + SPECIAL_POINTS
    for x, (upper, lower) in zip(points, _expected_curves(engine, points)):
        u, l = engine.curves(x)
        assert _same_bits(u, upper) and _same_bits(l, lower)


def test_more_layouts_than_the_cache_holds_still_infer_correctly():
    widths = [0.011 + 0.001 * k for k in range(_output_grid.cache_info().maxsize + 2)]
    engines = [ReferenceEngine(RB, ref=RefConfig(consequent_width=w)) for w in widths]
    # The first layouts are evicted by now; their engines keep their arrays,
    # and a new engine over one of them builds it again.
    engines.append(ReferenceEngine(RB, ref=RefConfig(consequent_width=widths[0])))
    assert engines[-1]._gmat is not engines[0]._gmat
    # Every engine fires the same at x, but none shares another's matrix,
    # so none may take the curves the engine before it left.
    x = (0.3, -0.7)
    last = None
    for e in [*engines, engines[0], engines[-1]]:
        (upper, lower), = _expected_curves(e, [x])
        u, l = e.curves(x)
        assert last is None or (u is not last[0] and l is not last[1])
        assert _same_bits(u, upper) and _same_bits(l, lower)
        last = u, l
    assert engines[-1].infer(x) == engines[0].infer(x)


# Layouts whose nonzero spans differ, all on 10,001 points: the default
# (spans of 2,573-2,574 points over [-1.5, 1.5]), consequents ten times as
# wide (6,433-6,434 over [-6, 6]) and the demo's consequents times 40 (95
# over [-40.5, 40.5]).  With 50-width margins no span reaches either end.
SPAN_LAYOUTS = {"default": (RB, RefConfig()), "wide": (RB, RefConfig(consequent_width=0.1)),
                "hull": (scaled_demo(40.0), RefConfig())}


@pytest.mark.parametrize("name", SPAN_LAYOUTS)
def test_spans_are_first_and_last_nonzero(name):
    rb, ref = SPAN_LAYOUTS[name]
    engine = ReferenceEngine(rb, ref=ref)
    n = engine.ys.size
    for row, span in zip(engine._gmat, engine._spans):
        nonzero = [i for i, v in enumerate(row.tolist()) if v != 0.0]
        assert span == (nonzero[0], nonzero[-1] + 1)
        assert 0 < span[0] < span[1] < n


@pytest.mark.parametrize("name", ["wide", "hull"])
@pytest.mark.parametrize("cfg", [EngineConfig(), EXACT], ids=["fitted", "exact"])
def test_span_sweep_equals_a_full_row_sweep(cfg, name):
    rb, ref = SPAN_LAYOUTS[name]
    engine = ReferenceEngine(rb, cfg, ref)
    points = cli.lcg_probes(20) + SPECIAL_POINTS
    for x, (upper, lower) in zip(points, _expected_curves(engine, points)):
        u, l = engine.curves(x)
        assert _same_bits(u, upper) and _same_bits(l, lower)


@pytest.mark.parametrize("x", [(math.nan, 0.1), (0.3, math.nan), (math.nan, math.nan)])
def test_nan_input_gives_all_nan_curves(x):
    for cfg in (EngineConfig(), EXACT):
        engine = ReferenceEngine(RB, cfg)
        (upper, lower), = _expected_curves(engine, [x])
        u, l = engine.curves(x)
        assert np.isnan(u).all() and np.isnan(l).all()
        assert _same_bits(u, upper) and _same_bits(l, lower)


# The gc and nt twins of one bound source, which perfbench's ``design`` op
# infers in turn at each probe.
TWIN_PAIRS = {"fitted": (EngineConfig(), NT), "exact": (EXACT, NT_EXACT)}


@pytest.mark.parametrize("pair", TWIN_PAIRS)
def test_interleaved_twins_share_one_sweep(pair):
    gc, nt = (ReferenceEngine(RB, cfg) for cfg in TWIN_PAIRS[pair])
    points = cli.lcg_probes(50) + SPECIAL_POINTS
    last, last_firing = (None, None), None
    for x, (upper, lower) in zip(points, _expected_curves(gc, points)):
        firing = nt._closed.fire(x)
        assert gc._closed.fire(x) == firing
        missed = gc.curves(x)
        if firing != last_firing:  # else gc takes the curves of the point before
            assert missed[0] is not last[0] and missed[1] is not last[1]
        hit = nt.curves(x)
        assert hit[0] is missed[0] and hit[1] is missed[1]
        for u, l in (missed, hit):
            assert _same_bits(u, upper) and _same_bits(l, lower)
        last, last_firing = hit, firing


def test_returned_curves_are_read_only():
    gc, nt = ReferenceEngine(RB), ReferenceEngine(RB, NT)
    x = (0.3, -0.7)
    for curves in (gc.curves(x), nt.curves(x)):
        for curve in curves:
            before = curve.tobytes()
            with pytest.raises(ValueError):
                curve[0] = 1.0
            with pytest.raises(ValueError):
                np.multiply(curve, 2.0, out=curve)
            assert curve.tobytes() == before


@pytest.mark.parametrize("pair", TWIN_PAIRS)
@pytest.mark.parametrize("x", [(math.nan, 0.1), (0.3, math.nan), (math.nan, math.nan),
                               (math.inf, 0.2), (-0.4, -math.inf), (-math.inf, math.inf)])
def test_interleaved_twins_at_non_finite_inputs(pair, x):
    gc, nt = (ReferenceEngine(RB, cfg) for cfg in TWIN_PAIRS[pair])
    (upper, lower), = _expected_curves(gc, [x])
    curves = []
    for e in (gc, nt, gc, nt):
        u, l = e.curves(x)
        assert _same_bits(u, upper) and _same_bits(l, lower)
        assert e.infer(x) == (0.0, True)
        curves.append(u)
    # A NaN firing equals no other, so each NaN call sweeps anew.
    if any(map(math.isnan, x)):
        assert len({id(u) for u in curves}) == len(curves)


def test_a_different_firing_over_the_same_matrix_does_not_hit():
    gc, gc_exact, nt = ReferenceEngine(RB), ReferenceEngine(RB, EXACT), ReferenceEngine(RB, NT)
    x, y = (0.3, -0.7), (-1.0, 0.25)
    assert gc._closed.fire(x) != gc_exact._closed.fire(x)
    assert gc._closed.fire(x) != gc._closed.fire(y)
    last = None
    for e, p in ((gc, x), (gc_exact, x), (gc, y), (nt, x), (gc_exact, y)):
        assert e._gmat is gc._gmat
        (upper, lower), = _expected_curves(e, [p])
        u, l = e.curves(p)
        assert last is None or (u is not last[0] and l is not last[1])
        assert _same_bits(u, upper) and _same_bits(l, lower)
        last = u, l


def test_a_firing_one_ulp_off_does_not_hit():
    gc, nt = ReferenceEngine(RB), ReferenceEngine(RB, NT)
    x = (0.3, -0.7)
    firing = nt._closed.fire(x)
    for k, bound in enumerate(firing):
        for field in bound._fields:
            nudged = list(firing)
            nudged[k] = bound._replace(**{field: math.nextafter(getattr(bound, field), 1.0)})
            nt._closed.fire = lambda x, nudged=nudged: nudged
            u, l = gc.curves(x)
            nu, nl = nt.curves(x)
            assert nu is not u and nl is not l
