"""The compiled scalar kernel against the loop oracle, bit for bit."""

import math

import pytest

from it2fuzz import default_rulebase
from it2fuzz.cli import build_engine, lcg_probes
from it2fuzz.engine import DEGENERATE_EPSILON, FiringInterval

from helpers import (CLOSED_TOKENS, collapsed_rulebase, one_input_rulebase, split_rulebase,
                     uneven_rulebase)
import oracles

DEMO = default_rulebase()
BASES = {
    "demo": DEMO,
    "split": split_rulebase(DEMO),
    "collapsed": collapsed_rulebase(),
    "collapsed-split": split_rulebase(collapsed_rulebase()),
    "uneven": uneven_rulebase(),
    "one-input": one_input_rulebase(),
}
CASES = ([("demo", t) for t in CLOSED_TOKENS if "split" not in t]
         + [(b, t) for b in ("split", "uneven", "one-input") for t in CLOSED_TOKENS]
         + [("collapsed", "gc-closed-exact"), ("collapsed", "nt-closed-exact"),
            ("collapsed-split", "gc-closed-split-exact")])
# The branches each case must reach on kernel_points: every case has inputs
# that fire nothing; a collapsed band never takes the gc forms' normal branch.
EXPECTED_BRANCHES = {
    ("collapsed", "gc-closed-exact"): {"fallback", "none"},
    ("collapsed-split", "gc-closed-split-exact"): {"fallback", "none"},
}


def kernel_points(n):
    """LCG probes, plus NaN, +-inf, signed zeros and far values in each slot."""
    flat = [v for pair in lcg_probes(300) for v in pair]
    points = [tuple(flat[k:k + n]) for k in range(0, len(flat) - n + 1, n)]
    for i in range(n):
        for v in (math.nan, math.inf, -math.inf, -0.0, 30.0, -1.0, 1.0):
            points.append(tuple(v if j == i else 0.2 for j in range(n)))
    points += [(-0.0,) * n, (0.0,) * n, (30.0,) * n, (-30.0,) * n]
    return points


def branch(rb, fitted, x, degenerate):
    """Which branch of infer a point with this flag took."""
    if not degenerate:
        return "normal"
    ups, _ = oracles.loop_firing(rb, fitted, x)
    return "none" if not math.fsum(ups) > DEGENERATE_EPSILON else "fallback"


@pytest.mark.parametrize("base, token", CASES, ids=[f"{b}-{t}" for b, t in CASES])
def test_kernel_equals_loop_oracle_bitwise(base, token):
    rb = BASES[base]
    engine = build_engine(rb, token)
    form, fitted = token.removesuffix("-exact"), not token.endswith("-exact")
    seen = set()
    for x in kernel_points(rb.n_inputs):
        r = engine.infer(x)
        value, degenerate = oracles.loop_infer(rb, form, fitted, x)
        assert (r.value.hex(), r.degenerate) == (value.hex(), degenerate), x
        got = engine.fire(x)
        assert all(type(f) is FiringInterval for f in got)
        assert ([(f.lower.hex(), f.upper.hex()) for f in got]
                == [(lo.hex(), up.hex()) for lo, up in oracles.loop_fire(rb, fitted, x)]), x
        seen.add(branch(rb, fitted, x, degenerate))
    assert seen == EXPECTED_BRANCHES.get((base, token), {"normal", "none"})


@pytest.mark.parametrize("base", sorted(BASES))
def test_kernel_rejects_wrong_input_count_like_the_loop(base):
    rb = BASES[base]
    engine = build_engine(rb, "gc-closed-exact")
    n = rb.n_inputs
    for x in ((0.1,) * (n - 1), (0.1,) * (n + 1)):
        with pytest.raises(ValueError) as want:
            oracles.loop_firing(rb, False, x)
        for call in (engine.infer, engine.fire):
            with pytest.raises(ValueError) as got:
                call(x)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("token", CLOSED_TOKENS)
def test_engines_of_one_structure_share_code_not_values(token):
    a = build_engine(one_input_rulebase(), token)
    b = build_engine(one_input_rulebase((-0.6, -0.1, 0.4, 0.9)), token)
    x = (0.15,)
    assert a.infer(x) != b.infer(x)
    assert a.fire(x) != b.fire(x)
    for name in ("infer", "fire"):
        code = getattr(a, f"_{name}").__code__
        assert code is getattr(b, f"_{name}").__code__
        # No rule-base value is a literal of the shared code.
        assert {c for c in code.co_consts if isinstance(c, float)} <= {-0.5}
        # Nor is any bound a callable: the engine binds numbers.
        fn = getattr(a, f"_{name}")
        called = {k for k, v in fn.__globals__.items() if callable(v) and v is not fn}
        assert called <= {"exp", "fsum", "new", "IR", "FI"}


def test_infer_and_fire_each_compile_on_their_own_first_call():
    engine = build_engine(DEMO, "gc-closed")
    engine.infer((0.3, -0.7))
    assert "_infer" in vars(engine) and "_fire" not in vars(engine)
    engine = build_engine(DEMO, "nt-closed-exact")
    engine.fire((0.3, -0.7))
    assert "_fire" in vars(engine) and "_infer" not in vars(engine)


def test_oracle_epsilon_is_the_engine_epsilon():
    assert oracles.DEGENERATE_EPSILON == DEGENERATE_EPSILON
