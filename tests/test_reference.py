"""Discretized reference pipeline: aggregation, defuzzifiers, convergence."""

import math

import numpy as np
import pytest

from it2fuzz import (
    BoundSource,
    ClosedFormEngine,
    DomainTooNarrow,
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
from it2fuzz.reference import _output_grid

from helpers import collapsed_rulebase, split_rulebase

RB = default_rulebase()
EXACT = EngineConfig(bound_source=BoundSource.EXACT)
NT = EngineConfig(form=Form.NT_CLOSED)
NT_EXACT = EngineConfig(form=Form.NT_CLOSED, bound_source=BoundSource.EXACT)


def test_config_validation():
    for kwargs in ({"grid_points": 100}, {"domain": (1.0, -1.0)},
                   {"domain": (-math.inf, 1.5)}, {"domain": (-1.5, math.inf)},
                   {"domain": (-1e308, 1e308)}, {"domain": (math.nan, 1.5)},
                   {"consequent_width": 0.0}, {"consequent_width": math.inf},
                   {"consequent_width": math.nan}):
        with pytest.raises(ValueError) as info:
            RefConfig(**kwargs)
        assert not isinstance(info.value, DomainTooNarrow)


def test_domain_is_a_float_tuple():
    ref = RefConfig(domain=[-2, 1.5])
    assert ref.domain == (-2.0, 1.5) and all(type(v) is float for v in ref.domain)
    assert hash(ref) == hash(RefConfig(domain=(-2.0, 1.5)))
    assert ReferenceEngine(RB, ref=ref)._gmat is ReferenceEngine(
        RB, ref=RefConfig(domain=(-2.0, 1.5)))._gmat


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


def test_domain_too_narrow_rejected():
    tight = RefConfig(domain=(-1.02, 1.5))  # center -1 is within 5 widths
    with pytest.raises(DomainTooNarrow):
        ReferenceEngine(RB, ref=tight)


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
    # keep the grid density per consequent width fixed while shrinking it
    probes = [(float(a), float(b)) for a in np.linspace(-1.0, 1.0, 5)
              for b in np.linspace(-1.0, 1.0, 5)]
    closed = ClosedFormEngine(RB)
    errs = []
    for w in (0.08, 0.04, 0.02, 0.01, 0.005):
        ref = RefConfig(consequent_width=w, grid_points=round(100.0 / w) + 1)
        eng = ReferenceEngine(RB, ref=ref)
        errs.append(max(abs(eng.infer(p).value - closed.infer(p).value)
                        for p in probes))
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3


def _grid_and_matrix(centers, ref):
    """The output grid and consequent rows, by ``ReferenceEngine``'s formula."""
    ys = np.linspace(ref.domain[0], ref.domain[1], ref.grid_points)
    z = (ys[None, :] - np.asarray(centers)[:, None]) / ref.consequent_width
    return ys, np.exp(-0.5 * z * z)


def _expected_curves(engine, x):
    """``curves(x)`` over a matrix built here, in the engine's rule order."""
    centers = [r.consequent for r in engine.rb.rules]
    ys, gmat = _grid_and_matrix(centers, engine.ref)
    firing = ClosedFormEngine(engine.rb, engine.cfg).fire(x)
    upper, lower = np.zeros(len(ys)), np.zeros(len(ys))
    for k in sorted(range(len(centers)),
                    key=lambda k: (centers[k], firing[k].lower, firing[k].upper)):
        upper += firing[k].upper * gmat[k]
        lower += firing[k].lower * gmat[k]
    return ys, upper, lower


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_engines_over_equal_centers_share_one_matrix():
    engines = [ReferenceEngine(rb, cfg) for rb in (RB, default_rulebase())
               for cfg in (EngineConfig(), EXACT, NT, NT_EXACT)]
    engines.append(ReferenceEngine(collapsed_rulebase(), EXACT))
    for e in engines[1:]:
        assert e._gmat is engines[0]._gmat
        assert e.ys is engines[0].ys


@pytest.mark.parametrize("change", ["center", "grid", "domain", "width"])
def test_a_different_layout_gets_its_own_matrix(change):
    rb, ref = RB, RefConfig()
    if change == "center":
        rules = (Rule(RB.rules[0].antecedent, 0.95),) + RB.rules[1:]
        rb = RuleBase(RB.partitions, rules)
    else:
        ref = {"grid": RefConfig(grid_points=5001), "domain": RefConfig(domain=(-2.0, 2.0)),
               "width": RefConfig(consequent_width=0.02)}[change]
    base, other = ReferenceEngine(RB), ReferenceEngine(rb, ref=ref)
    assert other._gmat is not base._gmat
    ys, gmat = _grid_and_matrix([r.consequent for r in rb.rules], ref)
    assert _same_bits(other.ys, ys) and _same_bits(other._gmat, gmat)


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


@pytest.mark.parametrize("cfg", [EngineConfig(), EXACT], ids=["fitted", "exact"])
def test_curves_equal_a_matrix_built_here(cfg):
    engine = ReferenceEngine(RB, cfg)
    for x in ((0.0, 0.0), (0.3, -0.7), (-1.0, 0.25), (-0.0, 0.9)):
        ys, upper, lower = _expected_curves(engine, x)
        u, l = engine.curves(x)
        assert _same_bits(engine.ys, ys)
        assert _same_bits(u, upper) and _same_bits(l, lower)


def test_more_layouts_than_the_cache_holds_still_infer_correctly():
    widths = [0.011 + 0.001 * k for k in range(_output_grid.cache_info().maxsize + 2)]
    engines = [ReferenceEngine(RB, ref=RefConfig(consequent_width=w)) for w in widths]
    # The first layouts are evicted by now; their engines keep their arrays,
    # and a new engine over one of them builds it again.
    engines.append(ReferenceEngine(RB, ref=RefConfig(consequent_width=widths[0])))
    assert engines[-1]._gmat is not engines[0]._gmat
    x = (0.3, -0.7)
    for e in engines:
        _, upper, lower = _expected_curves(e, x)
        u, l = e.curves(x)
        assert _same_bits(u, upper) and _same_bits(l, lower)
    assert engines[-1].infer(x) == engines[0].infer(x)
