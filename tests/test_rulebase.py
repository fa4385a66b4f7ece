"""Rule table construction, validation codes, and JSON round-tripping."""

import math
from importlib.resources import files

import numpy as np
import pytest

from it2fuzz import (
    ClosedFormEngine,
    IT2Gaussian,
    Partition,
    Rule,
    RuleBase,
    RuleBaseInvalid,
    ScaledGaussian,
    default_rulebase,
    dump_rulebase,
    load_rulebase,
    rulebase_from_dict,
    rulebase_to_dict,
)

from helpers import collapsed_rulebase, demo_partition, split_rulebase
from oracles import DEMO_CONSEQUENTS, FIT_B


def test_demo_layout():
    rb = default_rulebase()
    assert rb.shape == (3, 3)
    assert rb.n_inputs == 2
    assert len(rb.rules) == 9
    assert not rb.is_split
    for p in rb.partitions:
        assert p.universe == (-1.0, 1.0)
        assert p.names == ("N", "Z", "P")
        assert tuple(s.center for s in p.sets) == (-1.0, 0.0, 1.0)
        for s in p.sets:
            assert s.sigma_lo == 0.418 and s.mean_spread == 0.125
    assert tuple(r.consequent for r in rb.rules) == DEMO_CONSEQUENTS
    assert rb.rules[0].antecedent == (0, 0) and rb.rules[0].consequent == 1.0
    assert rb.rules[4].antecedent == (1, 1) and rb.rules[4].consequent == 0.0
    assert rb.rules[8].antecedent == (2, 2) and rb.rules[8].consequent == -1.0


def test_demo_fitted_bounds_attached():
    for p in default_rulebase().partitions:
        for s in p.sets:
            assert s.fitted_umf.sigma == 0.5128 and s.fitted_umf.scale == 1.0
            assert s.fitted_lmf.sigma == 0.3532 and s.fitted_lmf.scale == 0.895
            assert s.fitted_umf.mean == s.fitted_lmf.mean == s.center


def test_demo_refit_recovers_frozen_constants():
    for p in default_rulebase().partitions:
        for s in (t.fit() for t in p.sets):
            assert s.fitted_umf.sigma == pytest.approx(FIT_B[0], abs=1e-9)
            assert s.fitted_lmf.sigma == pytest.approx(FIT_B[1], abs=1e-9)
            assert s.fitted_lmf.scale == pytest.approx(FIT_B[2], abs=1e-9)


def test_consequent_table_is_skew_symmetric():
    for i in range(3):
        for j in range(3):
            assert DEMO_CONSEQUENTS[i * 3 + j] == -DEMO_CONSEQUENTS[(2 - i) * 3 + (2 - j)]


def test_demo_validates_clean():
    rb = default_rulebase()
    assert rb.validate() == []
    rb.require_valid()


def test_missing_rule_reported_by_label():
    rb = default_rulebase()
    trimmed = RuleBase(rb.partitions,
                       tuple(r for r in rb.rules if r.antecedent != (1, 1)))
    violations = trimmed.validate()
    assert [v.code for v in violations] == ["missing_antecedent"]
    assert violations[0].message == "incomplete rule base: missing (Z,Z)"
    with pytest.raises(RuleBaseInvalid) as exc:
        trimmed.require_valid()
    assert exc.value.violations == tuple(violations)


def test_missing_rules_reported_once_with_a_count():
    rb = default_rulebase()
    trimmed = RuleBase(rb.partitions,
                       tuple(r for r in rb.rules if r.antecedent not in ((0, 2), (1, 1))))
    violations = trimmed.validate()
    assert [v.code for v in violations] == ["missing_antecedent"]
    assert violations[0].message == "incomplete rule base: missing (N,P) and 1 more"


def test_out_of_range_antecedent_reported():
    rb = default_rulebase()
    bad = RuleBase(rb.partitions, rb.rules[:-1] + (Rule((3, 0), -1.0),))
    assert "index_out_of_range" in {v.code for v in bad.validate()}


def test_duplicate_antecedent_reported():
    rb = default_rulebase()
    dup = RuleBase(rb.partitions, rb.rules + (Rule((1, 1), 0.5),))
    assert [v.code for v in dup.validate()] == ["duplicate_antecedent"]


def test_wrong_arity_reported():
    rb = default_rulebase()
    bad = RuleBase(rb.partitions, rb.rules[:-1] + (Rule((2, 2, 0), -1.0),))
    assert "arity" in {v.code for v in bad.validate()}


def test_mixed_consequent_modes_reported():
    rb = default_rulebase()
    mixed = RuleBase(rb.partitions,
                     rb.rules[:-1] + (Rule((2, 2), -1.0, -0.9, -1.1),))
    assert "mixed_consequent_mode" in {v.code for v in mixed.validate()}


def _with_first_set(rb: RuleBase, s: IT2Gaussian) -> RuleBase:
    p = rb.partitions[0]
    first = Partition(p.universe, (s,) + p.sets[1:], p.names)
    return RuleBase((first,) + rb.partitions[1:], rb.rules)


def test_non_finite_values_reported():
    rb = default_rulebase()
    srb = split_rulebase(rb)
    bad_bases = (
        RuleBase(rb.partitions, rb.rules[:-1] + (Rule((2, 2), math.nan),)),
        RuleBase(srb.partitions, srb.rules[:-1] + (Rule((2, 2), -1.0, math.inf, -1.1),)),
    )
    for bad in bad_bases:
        assert [v.code for v in bad.validate()] == ["non_finite"]
        with pytest.raises(RuleBaseInvalid):
            ClosedFormEngine(bad)


def test_swapped_fitted_sigmas_reported():
    rb = default_rulebase()
    s = rb.partitions[0].sets[0]
    u, l = s.fitted_umf, s.fitted_lmf
    swapped = s.with_fitted(ScaledGaussian(u.mean, l.sigma, u.scale),
                            ScaledGaussian(l.mean, u.sigma, l.scale))
    bad = _with_first_set(rb, swapped)
    assert [v.code for v in bad.validate()] == ["fitted_dominance"]
    with pytest.raises(RuleBaseInvalid):
        ClosedFormEngine(bad)


@pytest.mark.parametrize("umf, lmf, clean", [
    # Equal means: allowed exactly when sigma_l <= sigma_u and s_l <= s_u.
    ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0), True),
    ((0.0, 0.5, 0.8), (0.0, 0.3, 0.8), True),
    ((0.0, 0.5, 0.8), (0.0, 0.5, 0.9), False),
    # Equal sigmas, shifted means: lmf / umf grows without bound on one side.
    ((0.0, 0.5, 1.0), (0.1, 0.5, 0.3), False),
    # sigma_l < sigma_u: the shift must fit under the scale gap.
    ((0.0, 0.5, 1.0), (0.1, 0.3, 0.5), True),
    ((0.0, 0.5, 1.0), (0.5, 0.4, 0.9), False),
    # sigma_l > sigma_u: lmf wins far out, however small its scale.
    ((0.0, 0.5, 1.0), (0.0, 0.6, 1e-6), False),
], ids=["equal", "narrower_lower", "higher_lower_scale", "equal_sigma_shift",
        "shift_within_gap", "shift_beyond_gap", "wider_lower"])
def test_fitted_dominance_holds_on_the_whole_line(umf, lmf, clean):
    umf, lmf = ScaledGaussian(*umf), ScaledGaussian(*lmf)
    rb = default_rulebase()
    bad = _with_first_set(rb, rb.partitions[0].sets[0].with_fitted(umf, lmf))
    assert [v.code for v in bad.validate()] == ([] if clean else ["fitted_dominance"])
    # Each violation shows within |x| <= 20, mostly outside the universe.
    xs = np.linspace(-20.0, 20.0, 40001)
    assert bool(np.all(lmf.sample(xs) <= umf.sample(xs))) == clean


def test_partition_rejects_disordered_centers():
    sets = tuple(IT2Gaussian.uncertain_mean(c - 0.1, c + 0.1, 0.418)
                 for c in (0.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        Partition((-1.0, 1.0), sets)


def test_partition_rejects_centers_outside_universe():
    sets = (IT2Gaussian.uncertain_mean(-2.1, -1.9, 0.418),)
    with pytest.raises(ValueError):
        Partition((-1.0, 1.0), sets)


def test_partition_name_count_must_match():
    with pytest.raises(ValueError):
        Partition((-1.0, 1.0), demo_partition().sets, names=("N", "Z"))


def test_rule_split_values_come_in_pairs():
    with pytest.raises(ValueError):
        Rule((0, 0), 1.0, consequent_upper=1.1)


def test_json_roundtrip_identity(tmp_path):
    rb = default_rulebase()
    path = tmp_path / "rules.json"
    dump_rulebase(rb, path)
    assert load_rulebase(path) == rb


def test_split_json_roundtrip(tmp_path):
    rb = split_rulebase(default_rulebase())
    path = tmp_path / "split.json"
    dump_rulebase(rb, path)
    back = load_rulebase(path)
    assert back == rb
    assert back.is_split


def test_collapsed_roundtrip_via_dict():
    rb = collapsed_rulebase()
    assert rulebase_from_dict(rulebase_to_dict(rb)) == rb


@pytest.mark.parametrize("s, kind", [
    (IT2Gaussian.uncertain_sigma(0.25, 0.3, 0.3).fit(), "uncertain_mean"),
    (IT2Gaussian.uncertain_sigma(0.25, 0.3, 0.4).fit(), "uncertain_sigma"),
], ids=["collapsed-sigma", "wide-sigma"])
def test_a_set_dumps_in_the_form_its_sigmas_pick_and_loads_equal(s, kind, tmp_path):
    # A set is its two intervals: a collapsed uncertain-sigma set is the
    # same set as the collapsed uncertain-mean one, written in that form.
    rb = RuleBase((Partition((-1.0, 1.0), (s,)),), (Rule((0,), 0.5),))
    assert rulebase_to_dict(rb)["inputs"][0]["sets"][0]["kind"] == kind
    path = tmp_path / "one-set.json"
    dump_rulebase(rb, path)
    assert load_rulebase(path) == rb


def test_bundled_rules_match_builtin(tmp_path):
    # the packaged resource is the demo, written in dump_rulebase's format
    path = tmp_path / "demo.json"
    dump_rulebase(default_rulebase(), path)
    bundled = files("it2fuzz") / "data" / "default_rules.json"
    assert bundled.read_bytes() == path.read_bytes()


def test_fitted_bounds_must_come_in_pairs():
    d = rulebase_to_dict(default_rulebase())
    del d["inputs"][0]["sets"][0]["fitted_lmf"]
    with pytest.raises(ValueError, match="pairs"):
        rulebase_from_dict(d)


def test_fitted_upper_bound_alone_is_a_schema_violation():
    d = rulebase_to_dict(default_rulebase())
    del d["inputs"][0]["sets"][0]["fitted_umf"]
    with pytest.raises(RuleBaseInvalid, match="pairs") as exc:
        rulebase_from_dict(d)
    assert [v.code for v in exc.value.violations] == ["schema"]


def test_unknown_set_kind_rejected():
    d = rulebase_to_dict(default_rulebase())
    d["inputs"][0]["sets"][0]["kind"] = "trapezoid"
    with pytest.raises(ValueError, match="kind"):
        rulebase_from_dict(d)
