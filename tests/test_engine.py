"""Closed-form inference: firing intervals, the three output forms, fallbacks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2fuzz import (
    BoundSource,
    ClosedFormEngine,
    EngineConfig,
    Form,
    IT2Gaussian,
    Partition,
    Rule,
    RuleBase,
    RuleBaseInvalid,
    ScaledGaussian,
    default_rulebase,
)
from it2fuzz import engine as engine_mod
from it2fuzz.cli import build_engine, lcg_probes
from it2fuzz.engine import _row_fsum, infer_batches

from helpers import (collapsed_rulebase, huge_split_rulebase, partly_collapsed_rulebase,
                     split_rulebase, uneven_rulebase)
import oracles
from oracles import (DEMO_CONSEQUENTS, GC_CORNER, NT_CORNER, SPLIT_ORIGIN,
                     demo_gc, demo_nt, t1_center_average)

RB = default_rulebase()
CFG = EngineConfig()
CFG_EXACT = EngineConfig(bound_source=BoundSource.EXACT)
NT_CFG = EngineConfig(form=Form.NT_CLOSED)
SPLIT_CFG = EngineConfig(form=Form.GC_CLOSED_SPLIT)


def one_rule_base(sigma_lo, sigma_hi, consequent, upper=None, lower=None):
    p = Partition((-2.0, 2.0),
                  (IT2Gaussian.uncertain_sigma(0.0, sigma_lo, sigma_hi),))
    return RuleBase((p,), (Rule((0,), consequent, upper, lower),))


def test_fire_row_major_order_and_center_rule():
    firing = ClosedFormEngine(RB, CFG).fire((0.0, 0.0))
    assert len(firing) == 9
    # center rule (Z,Z): both fitted bounds peak at 0, so the product of
    # the two lower peaks is the lmf scale squared
    assert firing[4].upper == 1.0
    assert firing[4].lower == 0.895 * 0.895
    assert firing[4].lower == pytest.approx(0.801025, abs=1e-12)
    for f in firing:
        assert 0.0 <= f.lower <= f.upper <= 1.0


def test_fire_far_input_underflows_to_zero():
    for f in ClosedFormEngine(RB, CFG).fire((30.0, 0.0)):
        assert f == (0.0, 0.0)


def test_fire_collapsed_fou_gives_equal_bounds():
    for f in ClosedFormEngine(collapsed_rulebase(), CFG_EXACT).fire((0.3, -0.4)):
        assert f.lower == f.upper


def test_fire_rejects_wrong_input_count():
    with pytest.raises(ValueError):
        ClosedFormEngine(RB, CFG).fire((0.0,))


def test_gc_zero_at_origin():
    assert ClosedFormEngine(RB, CFG).infer((0.0, 0.0)) == (0.0, False)


def test_gc_corner_matches_term_oracle():
    r = ClosedFormEngine(RB, CFG).infer((-1.0, -1.0))
    assert not r.degenerate
    assert r.value == pytest.approx(demo_gc(-1.0, -1.0), abs=1e-12)
    assert r.value == pytest.approx(GC_CORNER, abs=1e-12)
    assert 0.9 < r.value <= 1.0


def test_nt_corner_matches_term_oracle():
    r = ClosedFormEngine(RB, NT_CFG).infer((-1.0, -1.0))
    assert r.value == pytest.approx(demo_nt(-1.0, -1.0), abs=1e-12)
    assert r.value == pytest.approx(NT_CORNER, abs=1e-12)


def test_single_rule_nt_returns_consequent():
    # exact bounds at x=1 give the firing interval [0.2, 0.6]
    rb = one_rule_base(1.0 / math.sqrt(2.0 * math.log(5.0)),
                       1.0 / math.sqrt(2.0 * math.log(1.0 / 0.6)), 0.5)
    cfg = EngineConfig(form=Form.NT_CLOSED, bound_source=BoundSource.EXACT)
    f = ClosedFormEngine(rb, cfg).fire((1.0,))[0]
    assert f.upper == pytest.approx(0.6, abs=1e-12)
    assert f.lower == pytest.approx(0.2, abs=1e-12)
    assert ClosedFormEngine(rb, cfg).infer((1.0,)).value == 0.5


def test_single_rule_split_value():
    # firing [0.4, 0.8] with split consequents (1, 0): (1*0.8 - 0*0.4) / 0.4
    rb = one_rule_base(1.0 / math.sqrt(2.0 * math.log(2.5)),
                       1.0 / math.sqrt(2.0 * math.log(1.25)), 0.5, 1.0, 0.0)
    cfg = EngineConfig(form=Form.GC_CLOSED_SPLIT, bound_source=BoundSource.EXACT)
    assert ClosedFormEngine(rb, cfg).infer((1.0,)).value == pytest.approx(2.0, abs=1e-12)


def test_split_with_equal_offsets_reduces_to_gc():
    same = split_rulebase(RB, offset=0.0)
    for x1 in np.linspace(-1.0, 1.0, 9):
        for x2 in np.linspace(-1.0, 1.0, 9):
            a = ClosedFormEngine(same, SPLIT_CFG).infer((x1, x2)).value
            b = ClosedFormEngine(RB, CFG).infer((x1, x2)).value
            assert abs(a - b) <= 1e-15


def test_split_origin_value():
    srb = split_rulebase(RB, offset=0.1)
    r = ClosedFormEngine(srb, SPLIT_CFG).infer((0.0, 0.0))
    assert r.value == pytest.approx(SPLIT_ORIGIN, abs=1e-15)
    # same thing assembled term by term: gc part vanishes at the origin,
    # leaving offset * sum(u + l) / sum(u - l)
    firing = ClosedFormEngine(RB, CFG).fire((0.0, 0.0))
    expect = 0.1 * math.fsum(f.upper + f.lower for f in firing) \
        / math.fsum(f.upper - f.lower for f in firing)
    assert r.value == pytest.approx(expect, abs=1e-15)


def test_odd_symmetry_is_bitexact():
    # mirrored inputs produce exactly mirrored firing and the consequent
    # table is skew symmetric, so fsum gives the negation bit for bit
    axis = np.linspace(-1.5, 1.5, 21)
    gc, nt = ClosedFormEngine(RB, CFG), ClosedFormEngine(RB, NT_CFG)
    for x1 in axis:
        for x2 in axis:
            x = (float(x1), float(x2))
            mx = (-float(x1), -float(x2))
            assert gc.infer(x).value == -gc.infer(mx).value
            assert nt.infer(x).value == -nt.infer(mx).value


@settings(max_examples=150, deadline=None)
@given(x1=st.floats(-1.5, 1.5), x2=st.floats(-1.5, 1.5))
def test_output_stays_in_consequent_hull(x1, x2):
    lo, hi = min(DEMO_CONSEQUENTS), max(DEMO_CONSEQUENTS)
    for cfg in (CFG, NT_CFG):
        r = ClosedFormEngine(RB, cfg).infer((x1, x2))
        if not r.degenerate:
            assert lo <= r.value <= hi


def lone_rule_rulebase() -> RuleBase:
    """One input, sets (-0.9, -0.8) and (0.8, 0.9) at sigma 0.01, consequents
    -+c: near x = 0.85 the second rule carries all the weight."""
    c = 0.9303207321598945
    p = Partition((-1.0, 1.0), (IT2Gaussian.uncertain_mean(-0.9, -0.8, 0.01),
                               IT2Gaussian.uncertain_mean(0.8, 0.9, 0.01)))
    return RuleBase((p,), (Rule((0,), -c), Rule((1,), c)))


@pytest.mark.parametrize("form", [Form.GC_CLOSED, Form.NT_CLOSED])
def test_lone_rule_value_stays_in_the_hull(form):
    # The value there is fl(c * w) / w, one ulp above c at 1,077 of these
    # points unless the engine clamps it into the hull.
    rb = lone_rule_rulebase()
    c = rb.rules[1].consequent
    engine = ClosedFormEngine(rb, EngineConfig(form=form, bound_source=BoundSource.EXACT))
    X = np.linspace(0.75, 0.95, 20001)[:, None]
    values, degenerate = infer_batches([engine], X)[0]
    assert not degenerate.any()
    assert -c <= values.min() and values.max() == c
    assert [engine.infer(x) for x in X.tolist()] == list(zip(values.tolist(),
                                                             degenerate.tolist()))


def test_collapsed_fou_falls_back_to_type1():
    rb = collapsed_rulebase()
    ncfg = EngineConfig(form=Form.NT_CLOSED, bound_source=BoundSource.EXACT)
    for x in ((0.3, -0.7), (-1.0, 0.25), (0.9, 0.9)):
        t1 = t1_center_average(x[0], x[1], 0.418)
        g = ClosedFormEngine(rb, CFG_EXACT).infer(x)
        n = ClosedFormEngine(rb, ncfg).infer(x)
        assert g.degenerate and not n.degenerate
        assert g.value == pytest.approx(t1, abs=1e-12)
        assert n.value == pytest.approx(t1, abs=1e-12)


def test_all_zero_firing_flags_degenerate_zero():
    assert ClosedFormEngine(RB, CFG).infer((30.0, 30.0)) == (0.0, True)
    assert ClosedFormEngine(RB, NT_CFG).infer((30.0, 30.0)) == (0.0, True)


@pytest.mark.parametrize("form, flagged", [(Form.GC_CLOSED, True),
                                           (Form.GC_CLOSED_SPLIT, True),
                                           (Form.NT_CLOSED, False)])
def test_gc_denominator_of_exactly_the_epsilon_is_degenerate(form, flagged):
    # Fired (1e-12, 2e-12) at 0: the gc denominator is DEGENERATE_EPSILON
    # itself, so the gc forms take the upper-firing average, flagged; the
    # nt denominator 3e-12 is regular.
    s = IT2Gaussian.uncertain_sigma(0.0, 0.3, 0.3).with_fitted(
        ScaledGaussian(0.0, 0.3, 2e-12), ScaledGaussian(0.0, 0.3, 1e-12))
    rb = RuleBase((Partition((-1.0, 1.0), (s,)),), (Rule((0,), 0.5, 0.5, 0.5),))
    engine = ClosedFormEngine(rb, EngineConfig(form=form))
    assert engine.fire((0.0,)) == [(1e-12, 2e-12)]
    assert engine.infer((0.0,)) == (0.5, flagged)
    values, degenerate = infer_batches([engine], np.array([[0.0]]))[0]
    assert (values.tolist(), degenerate.tolist()) == ([0.5], [flagged])


def test_split_form_requires_split_consequents():
    with pytest.raises(ValueError):
        ClosedFormEngine(RB, SPLIT_CFG)


def test_fitted_source_requires_attached_bounds():
    rb = collapsed_rulebase()  # built without fitted stand-ins
    with pytest.raises(ValueError, match="fit"):
        ClosedFormEngine(rb, CFG)


def test_engine_rejects_invalid_rulebase():
    rb = RuleBase(RB.partitions, RB.rules[:-1])
    with pytest.raises(RuleBaseInvalid):
        ClosedFormEngine(rb)


def test_engine_rejects_wrong_input_count():
    with pytest.raises(ValueError):
        ClosedFormEngine(RB).infer((0.0,))


def test_neighboring_grid_outputs_stay_close():
    engine = ClosedFormEngine(RB)
    axis = np.linspace(-1.0, 1.0, 41)
    vals = np.array([[engine.infer((a, b)).value for b in axis] for a in axis])
    assert float(np.max(np.abs(np.diff(vals, axis=0)))) < 0.2
    assert float(np.max(np.abs(np.diff(vals, axis=1)))) < 0.2


CLOSED_TOKENS = ("gc-closed", "gc-closed-split", "nt-closed",
                 "gc-closed-exact", "gc-closed-split-exact", "nt-closed-exact")


UNEVEN_POINTS = ([(a, b, c) for a in (-1.0, -0.0, 0.37) for b in (-0.6, 0.0, 0.95)
                  for c in (-0.95, -0.2, 0.5, 3.0)]
                 + [(x[0], x[1], x[0] * x[1]) for x in lcg_probes(200)])


@pytest.mark.parametrize("source", list(BoundSource))
def test_fire_on_uneven_rulebase_is_the_ordered_product(source):
    rb = uneven_rulebase()
    fired = ClosedFormEngine(rb, EngineConfig(bound_source=source))
    for x in UNEVEN_POINTS:
        got = fired.fire(x)
        assert len(got) == len(rb.rules) == 24
        for rule, f in zip(rb.rules, got):
            u = l = 1.0
            for xi, p, a in zip(x, rb.partitions, rule.antecedent):
                s = p.sets[a]
                if source is BoundSource.FITTED:
                    g, h = s.fitted_umf, s.fitted_lmf
                    u *= oracles.gauss(xi, g.mean, g.sigma, g.scale)
                    l *= oracles.gauss(xi, h.mean, h.sigma, h.scale)
                else:
                    u *= oracles.exact_umf(s, xi)
                    l *= oracles.exact_lmf(s, xi)
            assert (f.upper.hex(), f.lower.hex()) == (u.hex(), l.hex()), (x, rule)


@pytest.mark.parametrize("token", CLOSED_TOKENS)
def test_infer_batch_matches_infer_on_uneven_rulebase(token):
    engine = build_engine(uneven_rulebase(), token)
    values, degenerate = infer_batches([engine], np.array(UNEVEN_POINTS))[0]
    for x, v, d in zip(UNEVEN_POINTS, values.tolist(), degenerate.tolist()):
        r = engine.infer(x)
        assert (v.hex(), d) == (r.value.hex(), r.degenerate), x


@pytest.mark.parametrize("token", CLOSED_TOKENS)
def test_non_finite_input_gives_flagged_zero(token):
    engine = build_engine(split_rulebase(RB), token)
    for bad in (math.nan, math.inf, -math.inf):
        assert engine.infer((bad, 0.2)) == (0.0, True)
        assert engine.infer((-0.4, bad)) == (0.0, True)


BATCH_POINTS = (lcg_probes(2000)
                + [(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
                + [(0.0, -0.0), (30.0, 30.0), (1e300, -1e300)]
                + [x for bad in (math.nan, math.inf, -math.inf)
                   for x in ((bad, 0.2), (-0.4, bad))])
BATCH_CASES = ([("demo", t) for t in CLOSED_TOKENS if "split" not in t]
               + [("split", t) for t in CLOSED_TOKENS]
               + [("collapsed", t) for t in ("gc-closed-exact", "nt-closed-exact")]
               + [("partly-collapsed", t) for t in CLOSED_TOKENS]
               + [("huge-split", "gc-closed-split-exact")])
BATCH_BASES = {"demo": lambda: RB, "split": lambda: split_rulebase(RB),
               "collapsed": collapsed_rulebase,
               "partly-collapsed": partly_collapsed_rulebase,
               "huge-split": huge_split_rulebase}


@pytest.mark.parametrize("base, token", BATCH_CASES,
                         ids=[f"{b}-{t}" for b, t in BATCH_CASES])
def test_infer_batch_matches_infer_bitwise(base, token):
    rb = BATCH_BASES[base]()
    engine = build_engine(rb, token)
    values, degenerate = infer_batches([engine], np.array(BATCH_POINTS))[0]
    assert values.dtype == np.float64 and degenerate.dtype == np.bool_
    assert len(values) == len(degenerate) == len(BATCH_POINTS)
    for x, v, d in zip(BATCH_POINTS, values.tolist(), degenerate.tolist()):
        r = engine.infer(x)
        assert (v.hex(), d) == (r.value.hex(), r.degenerate), x


def test_infer_batch_matches_infer_where_the_split_value_overflows():
    # Consequents at the validation limit over a band ~1e-11 thin: the
    # split value passes the float range.  The kernel returns it unflagged
    # (ROADMAP, Fix first 1); the batch path returns the same, with no
    # overflow warning.
    rb = one_rule_base(0.3, 0.30000000001, 0.0, 1e300, -1e300)
    engine = ClosedFormEngine(rb, EngineConfig(Form.GC_CLOSED_SPLIT, BoundSource.EXACT))
    xs = [(0.5,), (-1.0,), (0.0,), (3.0,)]
    values, degenerate = infer_batches([engine], np.array(xs))[0]
    assert list(zip(values.tolist(), degenerate.tolist())) == list(map(engine.infer, xs))
    assert not degenerate[0] and math.isinf(values[0])


def test_infer_batch_empty_and_wrong_shape():
    engine = ClosedFormEngine(RB, CFG)
    values, degenerate = infer_batches([engine], np.empty((0, 2)))[0]
    assert values.shape == degenerate.shape == (0,)
    assert values.dtype == np.float64 and degenerate.dtype == np.bool_
    for bad in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(2), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match="expected an"):
            infer_batches([engine], bad)


@pytest.mark.parametrize("suffix", ["", "-exact"])
def test_infer_batches_keeps_rule_bases_apart(suffix):
    # Same bound source, two rule bases, interleaved: a firing pass shared
    # across rule bases would hand one base's firing to the other.
    demo, partly = RB, partly_collapsed_rulebase()
    engines = [build_engine(rb, token + suffix) for rb, token in (
        (demo, "gc-closed"), (partly, "gc-closed"), (demo, "nt-closed"),
        (partly, "gc-closed-split"), (partly, "nt-closed"))]
    results = infer_batches(engines, np.array(BATCH_POINTS))
    assert len(results) == len(engines)
    for engine, (values, degenerate) in zip(engines, results):
        assert degenerate.any() and not degenerate.all()
        for x, v, d in zip(BATCH_POINTS, values.tolist(), degenerate.tolist()):
            r = engine.infer(x)
            assert (v.hex(), d) == (r.value.hex(), r.degenerate), (engine.cfg, x)


def test_infer_batches_edge_cases(monkeypatch):
    assert infer_batches([], np.zeros((3, 2))) == []
    engines = [build_engine(split_rulebase(RB), t) for t in CLOSED_TOKENS]
    for values, degenerate in infer_batches(engines, np.empty((0, 2))):
        assert values.shape == degenerate.shape == (0,)
        assert values.dtype == np.float64 and degenerate.dtype == np.bool_
    passes = []
    monkeypatch.setattr(ClosedFormEngine, "_firing_batch",
                        lambda self, X: passes.append(X) or (None, None))
    # The first engine takes 2 inputs, the second 3: neither fires.
    mixed = [ClosedFormEngine(RB, CFG), ClosedFormEngine(uneven_rulebase(), CFG)]
    for bad in (np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="expected an"):
            infer_batches(mixed, bad)
    assert passes == []


# -- row sums ----------------------------------------------------------------

def fsum_or_error(row):
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_rows_match_fsum(m):
    """``_row_fsum`` equals ``math.fsum`` per row by ``float.hex``, or raises as it."""
    m = np.asarray(m, dtype=float)
    want = [fsum_or_error(row) for row in m.tolist()]
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        with pytest.raises(errors[0]):
            _row_fsum(m)
        return
    got = _row_fsum(m)
    assert got.shape == (len(m),) and got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda r: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=r, max_size=r),
    min_size=1, max_size=6)))
def test_row_fsum_matches_fsum_on_any_finite_rows(rows):
    assert_rows_match_fsum(rows)


def test_row_fsum_matches_fsum_on_random_matrices():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n, r = rng.integers(1, 80), rng.integers(1, 130)
        m = (10.0 ** rng.uniform(-20, 1, (n, r))) * rng.choice([-1.0, 1.0], (n, r))
        assert_rows_match_fsum(m)
        # Each row followed by its own negation, less a little: heavy cancellation.
        assert_rows_match_fsum(np.hstack((m, -m * (1 + 2.0 ** -40))))


@pytest.mark.parametrize("row", [
    [1.0, 2.0 ** -53, 2.0 ** -105],
    [1.0, 2.0 ** -53, -(2.0 ** -105)],
    [1.0, 2.0 ** -53],
    [1.0, -(2.0 ** -54), 2.0 ** -107],
    [1.0, -(2.0 ** -54), -(2.0 ** -107)],
    [2.0 ** -53, 1.0, 2.0 ** -105, 2.0 ** -200, -(2.0 ** -200)],
    [1e16, 1.0, -1e16, 2.0 ** -60],
    [0.1, 0.2, -0.3],
    [0.5, -0.25, -0.25],
    [1e300, 1e-300, -1e300],
    [-0.0, -0.0, -0.0],
    [0.0, -0.0],
    [5e-324, -5e-324, 5e-324],
    [2.0 ** -1022, -(2.0 ** -1074)],
    [math.nan, 1.0, 2.0],
    [math.inf, 1.0],
    [-math.inf, -math.inf],
    [1e308, 1e308, -1e308, 0.0],
    [math.inf, -math.inf],
])
def test_row_fsum_matches_fsum_on_ties_cancellation_and_specials(row):
    assert_rows_match_fsum([row])
    assert_rows_match_fsum([row, [0.25] * len(row), row[::-1]])


def fallback_rows(m) -> int:
    """How many rows of m ``_row_fsum`` hands to ``math.fsum``."""
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "math", SimpleNamespace(
            fsum=lambda row: rows.append(row) or math.fsum(row)))
        _row_fsum(np.asarray(m, dtype=float))
    return len(rows)


def split_tau(m):
    """The exact sum of the coarse parts ``q`` of ``_row_fsum``'s split, per row."""
    sigma = np.ldexp(1.0, np.frexp(np.abs(m).max(axis=1))[1] + (m.shape[1] + 1).bit_length())
    return ((m + sigma[:, None]) - sigma[:, None]).sum(axis=1)


@pytest.mark.parametrize("k", [-1074, -1060, -1022, -1000, -30, 0, 1, 52, 900])
def test_row_fsum_where_the_largest_magnitude_is_a_power_of_two(k):
    rng = np.random.default_rng(k + 1074)
    for r in (2, 9, 49):
        m = rng.uniform(-1.0, 1.0, (20, r)) * 2.0 ** k
        m[:, 0] = rng.choice([-1.0, 1.0], 20) * 2.0 ** k
        assert_rows_match_fsum(m)
        # Same sign, all near the power of two: tau grows to about r * 2**k.
        assert_rows_match_fsum((1.0 - rng.random((20, r)) * 2.0 ** -20) * 2.0 ** k)


@pytest.mark.parametrize("r", [1, 2, 3, 7, 49, 98])
def test_row_fsum_just_under_and_at_the_overflow_guard(r):
    top = 2.0 ** 1000 / r
    under = np.nextafter(top, 0.0)
    below = [[under] * r, [-under] + [1.0] * (r - 1), [under, -under / 3, 0.7][:r] + [3.0] * (r - 3)]
    at = [[top] * r, [-top] + [1.0] * (r - 1)]
    assert_rows_match_fsum(below + at)
    assert fallback_rows(at) == len(at)
    assert fallback_rows(below) < len(below)


@pytest.mark.parametrize("r", [2 ** k + d for k in range(2, 8) for d in (-2, -1, 0, 1)])
def test_row_fsum_on_both_sides_of_the_split_width_edge(r):
    """Same-sign rows just under 1.0 take ``tau`` to ``r * 2**-M`` of ``sigma``,
    closest to it at ``r = 2**M - 2``, the widest ``2**M >= r + 2`` allows."""
    rng = np.random.default_rng(r)
    m = (1.0 - rng.random((40, r)) * 2.0 ** -20) * rng.choice([-1.0, 1.0], (40, 1))
    assert_rows_match_fsum(m)
    assert fallback_rows(m) < len(m) // 2
    assert_rows_match_fsum(rng.uniform(-1.0, 1.0, (40, r)) * 2.0 ** 30)


def test_row_fsum_on_subnormal_and_near_underflow_rows():
    """Where ``2**-53 * sigma`` is below the normal range the split is still
    exact: the rows near 2**-1000 are certified, not handed to fsum."""
    rng = np.random.default_rng(1074)
    assert_rows_match_fsum(rng.integers(-2 ** 40, 2 ** 40, (40, 9)) * 2.0 ** -1074)
    assert_rows_match_fsum([[5e-324] * 9, [2.0 ** -1022, -5e-324] + [0.0] * 7])
    for k in (-1060, -1030, -1000, -975):
        m = (rng.uniform(-1.0, 1.0, (40, 9)) * 2.0 ** k
             + rng.integers(-2 ** 20, 2 ** 20, (40, 9)) * 2.0 ** -1074)
        assert_rows_match_fsum(m)
        if k == -1000:
            assert fallback_rows(m) < len(m) // 2


def test_row_fsum_where_the_coarse_parts_cancel():
    """Rows whose coarse parts sum to ``tau == 0`` while the rest does not."""
    rng = np.random.default_rng(3)
    a = rng.integers(2 ** 48, 2 ** 49, (200, 2)) * 2.0 ** -49
    low = rng.integers(-2, 3, (200, 4)) * 2.0 ** -53
    for m in (np.column_stack((a[:, 0] + low[:, 0], -a[:, 0] + low[:, 1])),
              np.column_stack((a[:, 0] + low[:, 0], -a[:, 0] + low[:, 1],
                               -a[:, 1] + low[:, 2], a[:, 1] + low[:, 3]))):
        m = m[(split_tau(m) == 0.0) & (m.sum(axis=1) != 0.0)]
        assert len(m) >= 20
        assert_rows_match_fsum(m)


def test_row_fsum_single_column_and_empty_shapes():
    assert_rows_match_fsum([[v] for v in (1.0, -0.0, 0.0, 5e-324, -3.5, 1e308)])
    assert _row_fsum(np.empty((0, 4))).shape == (0,)
    assert _row_fsum(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
