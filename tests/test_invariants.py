"""The documented invariants of the closed forms, on generated rule bases.

The named bases in ``helpers`` stay as regression anchors; this strategy
reaches the layouts they miss: one to three inputs of one to four sets,
both FOU families down to collapsed and near-collapsed FOUs, fitted bounds
from ``fit()`` or set by hand, crisp or split consequents up to the
validation limit, and rules in shuffled order.  Four properties share
one seed and so the same 40 bases: the invariants, the kernel against the
loop oracle, a dump/load round trip that keeps every closed form bit for
bit, and the gc and nt reference twins against their closed forms on a
coarse grid.  On two-input bases the surface CSV equals a per-point
formatting byte for byte.
A second strategy mirrors such bases about the origin, and on those every
closed form is exactly odd.
"""

import itertools
import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from it2fuzz import (IT2Gaussian, Partition, RefConfig, Rule, RuleBase, ScaledGaussian,
                     dump_rulebase, load_rulebase)
from it2fuzz.cli import SurfaceSpec, build_engine, generate_surface
from it2fuzz.engine import DEGENERATE_EPSILON, infer_batches

import oracles
from helpers import CLOSED_TOKENS

# Per-axis values: inside and outside the sets' universe, and both zeros.
AXIS = (-2.5, -0.7, -0.0, 0.0, 0.35, 1.0, 1.6)


@st.composite
def it2_sets(draw, center):
    """One set at ``center``, of either family, with fitted bounds attached."""
    spread = draw(st.sampled_from((0.0, 1e-9)) | st.floats(0.0, 0.3))
    sigma = draw(st.floats(0.05, 1.0))
    s = (IT2Gaussian.uncertain_mean(center - spread, center + spread, sigma)
         if draw(st.booleans()) else IT2Gaussian.uncertain_sigma(center, sigma, sigma + spread))
    if draw(st.booleans()):
        return s.fit()
    # By hand: a narrower, lower Gaussian on the same mean stays dominated.
    width = draw(st.floats(0.05, 1.0))
    return s.with_fitted(ScaledGaussian(center, width, 1.0),
                         ScaledGaussian(center, width * draw(st.floats(0.5, 1.0)),
                                        draw(st.floats(0.1, 1.0))))


@st.composite
def rule_bases(draw, inputs=st.integers(1, 3)):
    """A valid rule base (see the module doc) with ``inputs`` inputs."""
    partitions = []
    for _ in range(draw(inputs)):
        ticks = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True))
        partitions.append(Partition((-1.5, 1.5), tuple(
            draw(it2_sets(k / 20)) for k in sorted(ticks))))
    combos = draw(st.permutations(list(itertools.product(*(range(len(p.sets))
                                                           for p in partitions)))))
    scale = draw(st.sampled_from((1.0, 40.0, 1e300)))
    values = st.floats(-1.0, 1.0).map(lambda v: scale * v)
    split = draw(st.booleans())
    rules = tuple(Rule(a, draw(values), *((draw(values), draw(values)) if split else ()))
                  for a in combos)
    return RuleBase(tuple(partitions), rules)


def mirrored(s):
    """Set ``s`` mirrored about 0, with its fitted bounds."""
    return IT2Gaussian(-s.mean_hi, -s.mean_lo, s.sigma_lo, s.sigma_hi).with_fitted(
        *(ScaledGaussian(-g.mean, g.sigma, g.scale) for g in (s.fitted_umf, s.fitted_lmf)))


@st.composite
def mirrored_rule_bases(draw):
    """A valid rule base that is odd about the origin: each input's sets are
    mirrored about 0 (a middle set is its own mirror), and each rule's
    consequents, split ones included, negate those of its mirror rule; the
    middle rule's are 0."""
    partitions = []
    for _ in range(draw(st.integers(1, 3))):
        ticks = sorted(draw(st.lists(st.integers(1, 20), max_size=2, unique=True)))
        pos = [draw(it2_sets(k / 20)) for k in ticks]
        middle = [draw(it2_sets(0.0))] if not pos or draw(st.booleans()) else []
        partitions.append(Partition((-1.5, 1.5), tuple(
            [mirrored(s) for s in pos[::-1]] + middle + pos)))
    sizes = [len(p.sets) for p in partitions]
    scale = draw(st.sampled_from((1.0, 40.0, 1e300)))
    width = 3 if draw(st.booleans()) else 1
    cons = {}
    for a in itertools.product(*map(range, sizes)):
        mirror = tuple(n - 1 - i for n, i in zip(sizes, a))
        cons[a] = ((0.0,) * width if a == mirror
                   else tuple(-v for v in cons[mirror]) if mirror in cons
                   else tuple(scale * draw(st.floats(-1.0, 1.0)) for _ in range(width)))
    order = draw(st.permutations(list(cons)))
    return RuleBase(tuple(partitions), tuple(Rule(a, *cons[a]) for a in order))


def points(n):
    """The ``AXIS`` grid, and NaN and +-inf in each slot."""
    out = list(itertools.product(AXIS, repeat=n))
    for i in range(n):
        out += [tuple(v if j == i else 0.2 for j in range(n))
                for v in (math.nan, math.inf, -math.inf)]
    return out


def supported_tokens(rb):
    """The closed-form tokens a base supports: split ones need split consequents."""
    return [t for t in CLOSED_TOKENS if rb.is_split or "split" not in t]


def check_closed_form_invariants(rb):
    """Every supported closed form: ``infer_batches`` equals ``infer`` bit for
    bit, a non-degenerate gc or nt value lies in the consequent hull, and
    lower firing is at most upper firing."""
    assert rb.validate() == []
    tokens = supported_tokens(rb)
    engines = [build_engine(rb, t) for t in tokens]
    xs = points(rb.n_inputs)
    lo, hi = min(r.consequent for r in rb.rules), max(r.consequent for r in rb.rules)
    for token, engine, (values, degenerate) in zip(
            tokens, engines, infer_batches(engines, np.array(xs))):
        for x, v, d in zip(xs, values.tolist(), degenerate.tolist()):
            r = engine.infer(x)
            assert (v.hex(), d) == (r.value.hex(), r.degenerate), (token, x)
            # The split form can leave its hull (ROADMAP, Fix first 1).
            if not d and "split" not in token:
                assert lo <= v <= hi, (token, x)
        if token in ("gc-closed", "gc-closed-exact"):
            for x in filter(lambda x: all(map(math.isfinite, x)), xs):
                assert all(f.lower <= f.upper for f in engine.fire(x)), (token, x)


def check_kernel_equals_the_loop_oracle(rb):
    """``fire`` and ``infer`` against ``oracles.loop_fire``/``loop_infer`` by
    ``float.hex``.  The reference twins fire through the same compiled
    ``fire``, so on these bases this is the check of the firing itself."""
    for token in supported_tokens(rb):
        engine = build_engine(rb, token)
        form, fitted = token.removesuffix("-exact"), not token.endswith("-exact")
        for x in points(rb.n_inputs):
            r = engine.infer(x)
            value, degenerate = oracles.loop_infer(rb, form, fitted, x)
            assert (r.value.hex(), r.degenerate) == (value.hex(), degenerate), (token, x)
            assert ([(f.lower.hex(), f.upper.hex()) for f in engine.fire(x)] == [
                (lo.hex(), up.hex()) for lo, up in oracles.loop_fire(rb, fitted, x)]), (token, x)


def check_dump_load_round_trip(rb, path):
    """The base read back from its dump at ``path`` equals it, and every
    closed form gives the same bits on both."""
    dump_rulebase(rb, path)
    loaded = load_rulebase(path)
    assert loaded == rb
    xs = points(rb.n_inputs)
    for token in supported_tokens(rb):
        before, after = build_engine(rb, token), build_engine(loaded, token)
        for x in xs:
            a, b = before.infer(x), after.infer(x)
            assert (a.value.hex(), a.degenerate) == (b.value.hex(), b.degenerate), (token, x)


def check_twins_agree_with_their_closed_forms(rb):
    """The gc and nt reference twins, fitted and exact, on a grid of spacing
    h at most 0.75 consequent widths w, in at most 149 points, give their
    closed forms' flags, and values within the trapezoid aliasing term (see
    ``tests/test_reference.py``) plus rounding.

    The rounding has a cancellation term: the reference's ``upper -
    lower`` sums R rules on N points, so on a near-collapsed FOU it loses
    digits in proportion to ``sum(u + l) / den``, den the closed form's
    denominator.  The reference's mass is about sqrt(2 pi) w / h times den,
    so the flags may differ only where den lies within 10 times
    ``DEGENERATE_EPSILON``; such rows are counted and skipped.  Returns the
    number of regular rows compared and the number skipped."""
    b = [r.consequent for r in rb.rules]
    spread, bmax = max(b) - min(b), max(map(abs, b))
    # The grid spans the spread and 100 w, so spread / w <= 10 bounds N.
    w = max(spread / 10.0, bmax / 100.0, 0.01)
    ref = RefConfig(math.ceil((spread + 100.0 * w) / (0.75 * w)) + 2, w)
    xs = points(rb.n_inputs)
    compared = skipped = 0
    for source in ("", "-exact"):
        twins = [(build_engine(rb, f"{form}-ref{source}", ref),
                  build_engine(rb, f"{form}-closed{source}")) for form in ("gc", "nt")]
        ys = twins[0][0].ys
        h, ymax = float(ys[1] - ys[0]), max(-ys[0], ys[-1])
        floor = bmax * 2.0 * math.exp(-2.0 * math.pi ** 2 * (w / h) ** 2) + 4 * math.ulp(bmax)
        rounding = 4 * (len(rb.rules) + ys.size) * 2.0 ** -53 * ymax
        for x in xs:
            firing = twins[0][1].fire(x)
            mass = math.fsum(f.upper + f.lower for f in firing)
            for (reference, closed), sign in zip(twins, (-1.0, 1.0)):
                got, want = reference.infer(x), closed.infer(x)
                den = math.fsum(f.upper + sign * f.lower for f in firing)
                if got.degenerate != want.degenerate:
                    assert DEGENERATE_EPSILON / 10 <= den <= 10 * DEGENERATE_EPSILON, (
                        reference.cfg, x)
                    skipped += 1
                elif not got.degenerate:
                    compared += 1
                    tol = floor + rounding * mass / den
                    assert abs(got.value - want.value) <= tol, (reference.cfg, x)
    return compared, skipped


# One seed for the four properties below, so they draw the same 40 bases.
# With ``derandomize`` alone Hypothesis seeds each test from a digest of its
# own source, and any edit to a test would swap its bases for new ones.
BASES_SEED = 20240601


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(BASES_SEED)
@given(rb=rule_bases())
def test_closed_form_invariants_on_generated_rule_bases(rb):
    check_closed_form_invariants(rb)


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(BASES_SEED)
@given(rb=rule_bases())
def test_kernel_equals_the_loop_oracle_on_generated_rule_bases(rb):
    check_kernel_equals_the_loop_oracle(rb)


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(BASES_SEED)
@given(rb=rule_bases())
def test_dump_load_round_trip_keeps_every_closed_form_bit_for_bit(tmp_path_factory, rb):
    check_dump_load_round_trip(rb, tmp_path_factory.mktemp("rules") / "rules.json")


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(BASES_SEED)
@given(rb=rule_bases())
def test_reference_twins_agree_with_their_closed_forms_on_generated_rule_bases(rb):
    compared, skipped = check_twins_agree_with_their_closed_forms(rb)
    assert skipped < compared


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rb=rule_bases(inputs=st.just(2)), grid=st.integers(2, 6),
       axis_range=st.sampled_from(((-1.0, 1.0), (-0.3, 0.9), (-2.5, 1.6))))
def test_surface_csv_matches_the_per_point_oracle_on_generated_rule_bases(rb, grid, axis_range):
    tokens = tuple(supported_tokens(rb))
    engines = [build_engine(rb, t) for t in tokens]
    assert generate_surface(rb, SurfaceSpec(grid, axis_range, tokens)) == \
        oracles.surface_lines(engines, tokens, grid, axis_range)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rb=mirrored_rule_bases())
def test_a_mirrored_base_gives_exact_odd_symmetry(rb):
    """``infer(-x) == -infer(x)`` through ``infer`` and ``infer_batches``, as
    perfbench's surface check expects.  Float ``==`` is bit for bit here but
    for the sign of a zero: a value of zero, or a flagged 0.0, is +0.0 at both
    points."""
    assert rb.validate() == []
    xs = points(rb.n_inputs)
    neg = [tuple(-v for v in x) for x in xs]
    tokens = supported_tokens(rb)
    engines = [build_engine(rb, t) for t in tokens]
    for token, engine, (values, degenerate) in zip(
            tokens, engines, infer_batches(engines, np.array(xs + neg))):
        values, degenerate = values.tolist(), degenerate.tolist()
        for k, (x, y) in enumerate(zip(xs, neg)):
            a, b = engine.infer(x), engine.infer(y)
            assert (b.value, b.degenerate) == (-a.value, a.degenerate), (token, x)
            j = k + len(xs)
            assert (values[j], degenerate[j]) == (-values[k], degenerate[k]), (token, x)
