"""End-to-end checks of the command-line workbench."""

import contextlib
import copy
import functools
import io
import itertools
import json
import math
import operator
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2fuzz import (BoundSource, ClosedFormEngine, EngineConfig, Form, IT2Gaussian,
                     ReferenceEngine, Rule, RuleBase, default_rulebase, dump_rulebase,
                     fit_bounds, rulebase_to_dict)
from it2fuzz import cli, engine as engine_mod
from it2fuzz.cli import (CliError, SurfaceSpec, generate_surface, lcg_probes,
                         main, parse_engine_mode, run_bench)

import oracles
from helpers import (CLOSED_TOKENS, ConstantEngine, demo_like_rulebase, one_input_rulebase,
                     split_rulebase)

RB = default_rulebase()


# -- engine tokens -----------------------------------------------------------

# The closed form each family computes, or is the sampled twin of, and
# whether the family is that reference.
FAMILIES = {
    "gc-closed": (Form.GC_CLOSED, False),
    "gc-closed-split": (Form.GC_CLOSED_SPLIT, False),
    "nt-closed": (Form.NT_CLOSED, False),
    "gc-ref": (Form.GC_CLOSED, True),
    "nt-ref": (Form.NT_CLOSED, True),
}


@pytest.mark.parametrize("token, family, source", [
    ("gc-closed", "gc-closed", BoundSource.FITTED),
    ("gc-closed-exact", "gc-closed", BoundSource.EXACT),
    ("gc-closed-split", "gc-closed-split", BoundSource.FITTED),
    ("gc-closed-split-exact", "gc-closed-split", BoundSource.EXACT),
    ("nt-closed", "nt-closed", BoundSource.FITTED),
    ("nt-closed-exact", "nt-closed", BoundSource.EXACT),
    ("gc-ref", "gc-ref", BoundSource.FITTED),
    ("gc-ref-exact", "gc-ref", BoundSource.EXACT),
    ("nt-ref", "nt-ref", BoundSource.FITTED),
    ("nt-ref-exact", "nt-ref", BoundSource.EXACT),
])
def test_parse_engine_mode_variants(token, family, source):
    form, ref = FAMILIES[family]
    assert parse_engine_mode(token) == (EngineConfig(form, source), ref)
    assert parse_engine_mode(f" {token} ") == parse_engine_mode(token)


@pytest.mark.parametrize("token", ["gc", "closed", "gc-closed-best", "",
                                   "gc-closed-ref", "gc-ref-split", "gc-split-ref"]
                         + [f"{family}-fitted" for family in FAMILIES])
def test_parse_engine_mode_rejects_unknown(token):
    with pytest.raises(CliError, match="unknown engine mode"):
        parse_engine_mode(token)


def test_each_engine_has_one_token():
    # The fitted bounds are the default; no suffix names them a second time.
    assert sorted(cli._MODES) == sorted(f + s for f in FAMILIES for s in ("", "-exact"))
    assert len(set(cli._MODES.values())) == len(cli._MODES) == 10


def test_surface_spec_validation():
    for grid in (1, 2.5, 3.0, True, "3"):
        with pytest.raises(ValueError):
            SurfaceSpec(grid=grid)
    with pytest.raises(ValueError):
        SurfaceSpec(axis_range=(1.0, -1.0))
    # (-1e308, 1e308) has finite ends, but its width overflows to inf.
    for axis_range in ((-math.inf, 1.0), (-1.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            SurfaceSpec(axis_range=axis_range)
    assert SurfaceSpec(axis_range=(-8e307, 8e307)).axis_range == (-8e307, 8e307)
    with pytest.raises(ValueError):
        SurfaceSpec(engines=())


# -- surface -----------------------------------------------------------------

def test_surface_default_grid(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["surface", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 41 * 41
    assert lines[0] == "x1,x2,gc-closed"
    # the grid hits the origin exactly and the output vanishes there
    assert "0,0,0" in lines


def test_surface_small_grid_corners(tmp_path):
    out = tmp_path / "corners.csv"
    assert main(["surface", "--grid", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1:] == [
        "-1,-1,0.9525458878644717",
        "-1,1,0",
        "1,-1,0",
        "1,1,-0.9525458878644717",
    ]


def test_surface_rows_match_engine():
    # 17 significant digits round-trip doubles, so parsing recovers the
    # engine output bit for bit
    lines = generate_surface(RB, SurfaceSpec(grid=5))
    engine = ClosedFormEngine(RB)
    for line in lines[1:]:
        x1, x2, val = (float(c) for c in line.split(","))
        assert val == engine.infer((x1, x2)).value


def count_surface_calls(monkeypatch) -> dict[str, int]:
    """Count firing passes, row sums and per-point inferences from here on."""
    calls = {"firing": 0, "row_fsum": 0, "infer": 0, "ref": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ClosedFormEngine, "_firing_batch",
                        counting("firing", ClosedFormEngine._firing_batch))
    monkeypatch.setattr(engine_mod, "_row_fsum", counting("row_fsum", engine_mod._row_fsum))
    monkeypatch.setattr(ClosedFormEngine, "infer", counting("infer", ClosedFormEngine.infer))
    monkeypatch.setattr(ReferenceEngine, "infer", counting("ref", ReferenceEngine.infer))
    return calls


def test_surface_batches_closed_forms_only(monkeypatch):
    calls = count_surface_calls(monkeypatch)
    lines = generate_surface(RB, SurfaceSpec(
        grid=3, engines=("gc-closed", "nt-closed-exact", "gc-ref")))
    assert len(lines) == 1 + 9
    assert calls == {"firing": 2, "row_fsum": 4, "infer": 0, "ref": 9}


def test_surface_fires_once_per_bound_source(monkeypatch):
    # Per bound source one firing pass, one denominator shared by the gc
    # forms, one for nt, and one numerator per form.
    rb = split_rulebase(RB)
    want = generate_surface(rb, SurfaceSpec(grid=5, engines=CLOSED_TOKENS[:1]))
    calls = count_surface_calls(monkeypatch)
    lines = generate_surface(rb, SurfaceSpec(grid=5, engines=CLOSED_TOKENS))
    assert calls == {"firing": 2, "row_fsum": 10, "infer": 0, "ref": 0}
    assert [line.split(",")[:3] for line in lines[1:]] == [
        line.split(",") for line in want[1:]]


def test_surface_planted_nan_engine_skips_the_batch(monkeypatch):
    # perfbench's self-check plants an engine that is no ClosedFormEngine
    # and returns NaN; its column must come from its own infer.
    calls = count_surface_calls(monkeypatch)
    monkeypatch.setattr(cli, "build_engine",
                        lambda rb, token, ref=None: ConstantEngine(math.nan))
    lines = generate_surface(RB, SurfaceSpec(grid=3, engines=("gc-closed", "nt-closed")))
    assert calls["firing"] == 0
    assert all(line.endswith(",nan,nan") for line in lines[1:])


@pytest.mark.parametrize("rb, tokens, grid, axis_range", [
    (RB, ("gc-closed", "gc-ref", "nt-closed-exact", "nt-ref-exact"), 7, (-1.0, 1.0)),
    (split_rulebase(RB), CLOSED_TOKENS, 7, (-1.0, 1.0)),
    (RB, ("gc-closed", "gc-ref"), 2, (-1.0, 1.0)),
    (RB, ("gc-closed-exact", "nt-ref", "nt-closed"), 6, (-0.3, 0.9)),
], ids=["demo-mixed", "split-six-closed", "grid-2", "asymmetric-range"])
def test_surface_matches_the_per_point_oracle(rb, tokens, grid, axis_range):
    # Batch and point-by-point columns alike, byte for byte.
    engines = [cli.build_engine(rb, t) for t in tokens]
    assert generate_surface(rb, SurfaceSpec(grid, axis_range, tokens)) == \
        oracles.surface_lines(engines, tokens, grid, axis_range)


def test_surface_with_a_planted_nan_engine_matches_the_per_point_oracle(monkeypatch):
    nan, build = ConstantEngine(math.nan), cli.build_engine
    monkeypatch.setattr(cli, "build_engine", lambda rb, token, ref=None:
                        nan if token == "nt-closed" else build(rb, token))
    tokens = ("gc-closed", "nt-closed")
    want = oracles.surface_lines([build(RB, "gc-closed"), nan], tokens, 3)
    assert generate_surface(RB, SurfaceSpec(grid=3, engines=tokens)) == want


def test_surface_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["surface", "--grid", "7", "--out", str(a)]) == 0
    assert main(["surface", "--grid", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_surface_multi_engine(tmp_path):
    out = tmp_path / "pair.csv"
    rc = main(["surface", "--grid", "9", "--engine", "gc-closed,gc-ref",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,gc-closed,gc-ref"
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[2]) - float(cells[3])) <= 1e-3


def test_surface_strips_engine_tokens(tmp_path):
    out = tmp_path / "pair.csv"
    rc = main(["surface", "--grid", "3", "--engine", "gc-closed, nt-closed-exact ",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "x1,x2,gc-closed,nt-closed-exact"


def test_surface_rejects_bad_engine(tmp_path, capsys):
    # an empty or unknown token is reported as such, even when it repeats
    for engines in ("warp-drive", ",", "warp-drive,warp-drive"):
        rc = main(["surface", "--engine", engines, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown engine mode" in capsys.readouterr().err, engines


@pytest.mark.parametrize("argv", [
    ["surface", "--grid", "3", "--engine", "gc-closed,gc-closed"],
    ["surface", "--grid", "3", "--engine", "gc-closed, nt-closed,gc-closed "],
    ["bench", "--probes", "20", "--engine", "gc-closed,gc-ref,gc-ref"],
], ids=["surface", "surface-stripped", "bench"])
def test_repeated_engine_token_exits_2(argv, tmp_path, monkeypatch, capsys):
    calls = count_surface_calls(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "listed more than once: 'gc-" in capsys.readouterr().err
    assert not out.exists() and not any(calls.values())


def test_surface_rejects_invalid_rules(tmp_path, capsys):
    d = rulebase_to_dict(default_rulebase())
    del d["rules"][4]
    rules = tmp_path / "holey.json"
    rules.write_text(json.dumps(d))
    rc = main(["surface", "--rules", str(rules), "--out",
               str(tmp_path / "x.csv")])
    assert rc == 2
    assert "[missing_antecedent]" in capsys.readouterr().err


def test_sparse_rule_file_reports_one_missing_antecedent(tmp_path, capsys):
    # 300 x 300 combinations and one rule: one violation with a count, not
    # one line for each of the 89,999 gaps
    sets = [{"kind": "uncertain_sigma", "mean": k / 300, "sigma_lo": 0.1, "sigma_hi": 0.2}
            for k in range(300)]
    d = {"inputs": [{"universe": [0.0, 1.0], "sets": sets}] * 2,
         "rules": [{"if": [0, 0], "b": 0.0}]}
    rules = tmp_path / "sparse.json"
    rules.write_text(json.dumps(d))
    rc = main(["surface", "--rules", str(rules), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("[missing_antecedent]") == 1 and "and 89998 more" in err
    assert len(err.encode()) < 1024


def _first_set(d, key, value):
    d["inputs"][0]["sets"][0][key] = value
    return d


def _middle_set(d, **fields):
    d["inputs"][0]["sets"][1].update(fields)
    return d


def _scaled(k):
    """Every consequent of a rule file times k."""
    return lambda d: {**d, "rules": [{**r, "b": r["b"] * k} for r in d["rules"]]}


def _dominated_lmf(d):
    """Sets N and P of input 0 with fitted umf (c, 0.5, 1.0) and lmf
    (c + 0.1, 0.5, 0.3): equal sigmas, shifted means, so far enough out the
    lower bound rises above the upper."""
    for k, c in ((0, -1.0), (2, 1.0)):
        d["inputs"][0]["sets"][k].update(
            fitted_umf={"mean": c, "sigma": 0.5, "scale": 1.0},
            fitted_lmf={"mean": c + 0.1, "sigma": 0.5, "scale": 0.3})
    return d


@pytest.mark.parametrize("mangle, code", [(m, "schema") for m in (
    lambda d: [d],
    lambda d: {**d, "rules": [{**d["rules"][0], "if": 5}] + d["rules"][1:]},
    lambda d: {**d, "inputs": 3},
    lambda d: _first_set(d, "fitted_umf", {"mean": math.nan, "sigma": 0.5, "scale": 1.0}),
    lambda d: {**d, "inputs": [{**d["inputs"][0], "universe": [1.0, -1.0]}] + d["inputs"][1:]},
    lambda d: _first_set(d, "kind", "trapezoid"),
    lambda d: {**d, "rules": [{**d["rules"][0], "if": [0.7, 0.2]}] + d["rules"][1:]},
    lambda d: {**d, "rules": [{**d["rules"][0], "b": True}] + d["rules"][1:]},
    lambda d: {**d, "inputs": [{**d["inputs"][0], "names": "NZP"}] + d["inputs"][1:]},
    lambda d: _first_set(d, "sigma", "0.418"),
    lambda d: _first_set(d, "fitted_umf", {**d["inputs"][0]["sets"][0]["fitted_umf"],
                                           "scale": True}),
    lambda d: {**d, "inputs": [{**d["inputs"][0], "universe": [-1, True]}] + d["inputs"][1:]},
    lambda d: _middle_set(d, sigma=math.inf),
    lambda d: _middle_set(d, mean_lo=-math.inf, mean_hi=math.inf),
    lambda d: {**d, "inputs": [{**d["inputs"][0], "sets": []}] + d["inputs"][1:]},
    lambda d: {**d, "inputs": []},
    # Integers beyond the float range, as JSON allows.
    lambda d: {**d, "rules": [{**d["rules"][0], "b": 10 ** 400}] + d["rules"][1:]},
    lambda d: {**d, "inputs": [{**d["inputs"][0], "universe": [-1, 10 ** 400]}]
               + d["inputs"][1:]},
    lambda d: _first_set(d, "mean_lo", -10 ** 400),
    lambda d: _first_set(d, "fitted_umf", {**d["inputs"][0]["sets"][0]["fitted_umf"],
                                           "sigma": 10 ** 400}),
)] + [(_dominated_lmf, "fitted_dominance"), (_scaled(1.7e308), "consequent_range")],
    ids=["top_level_list", "scalar_antecedent", "scalar_inputs", "nan_fitted_mean",
         "reversed_universe", "unknown_kind", "float_antecedent", "bool_consequent",
         "string_names", "string_sigma", "bool_fitted_scale", "bool_universe_end",
         "infinite_sigma", "infinite_means", "no_sets", "no_inputs", "huge_int_consequent",
         "huge_int_universe_end", "huge_int_mean", "huge_int_fitted_sigma",
         "fitted_dominance", "huge_consequents"])
def test_surface_rejects_malformed_rule_file(mangle, code, tmp_path, capsys):
    d = rulebase_to_dict(default_rulebase())
    rules = tmp_path / "malformed.json"
    # 1e999 is valid JSON that reads as inf
    rules.write_text(json.dumps(mangle(d)).replace("Infinity", "1e999"))
    rc = main(["surface", "--rules", str(rules), "--out",
               str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"error: invalid rule base:\n  [{code}] " in capsys.readouterr().err


@pytest.mark.parametrize("argv, at_limit", [
    (["surface", "--grid", "41", "--engine", "gc-closed-exact,nt-closed-exact"], 0),
    (["bench", "--probes", "2000", "--engine", "gc-closed,nt-closed"], 0),
    (["pendulum"], 3),
], ids=["surface", "bench", "pendulum"])
def test_consequents_beyond_the_limit_exit_2(argv, at_limit, tmp_path, capsys):
    # Sums of such consequents overflow; at the limit the closed forms run
    # and the pendulum blows up cleanly.
    rules = tmp_path / "scaled.json"
    for k, rc in ((1e306, 2), (1.7e308, 2), (1e300, at_limit)):
        rules.write_text(json.dumps(_scaled(k)(rulebase_to_dict(default_rulebase()))))
        assert main(argv + ["--rules", str(rules), "--out", str(tmp_path / "x")]) == rc, k
        err = capsys.readouterr().err
        assert ("[consequent_range] rule 0 " in err) == (rc == 2) and "Traceback" not in err


# Text that is not JSON: a syntax error, and nesting past the parser's depth.
@pytest.mark.parametrize("text", ['{"inputs": ', "[" * 100_000],
                         ids=["syntax-error", "nested-too-deep"])
def test_surface_rejects_rule_file_that_is_not_json(text, tmp_path, capsys):
    rules = tmp_path / "garbled.json"
    rules.write_text(text)
    assert main(["surface", "--rules", str(rules)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid rule base:\n  [schema] rule file is not JSON")
    assert "Traceback" not in err


def _json_paths(node, path=()):
    """The path of every key and list item under ``node``, at any depth."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _json_type(value) -> str:
    """The JSON type of a parsed value: an int and a float are both numbers."""
    return ("bool" if isinstance(value, bool) else "number" if isinstance(value, (int, float))
            else type(value).__name__)


# One value of each JSON type, for replacing a value of another type.
JSON_VALUES = ("x", [], [0], {}, {"b": 0}, True, None, 0.5)
MUTATED_BASES = [rulebase_to_dict(rb) for rb in (RB, split_rulebase(RB))]


@st.composite
def mutated_rule_files(draw):
    """The demo or split demo as JSON text with one key or list item, at any
    depth, deleted or replaced by a value of another JSON type, or a number
    replaced by NaN, +-inf (written ``NaN`` and ``1e999``) or an integer
    beyond the float range."""
    d = copy.deepcopy(draw(st.sampled_from(MUTATED_BASES)))
    *head, key = draw(st.sampled_from(list(_json_paths(d))))
    parent = functools.reduce(operator.getitem, head, d)
    kind = _json_type(parent[key])
    values = [v for v in JSON_VALUES if _json_type(v) != kind]
    if kind == "number":
        values += [math.nan, math.inf, -math.inf, 10 ** 400]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return json.dumps(d).replace("Infinity", "1e999")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutated_rule_files())
def test_a_mutated_rule_file_exits_0_or_2_with_coded_violations(text, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mutated")
    rules, out = tmp / "rules.json", tmp / "x.csv"
    rules.write_text(text)
    err, stdout = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
        rc = main(["surface", "--rules", str(rules), "--grid", "2", "--out", str(out)])
    err, stdout = err.getvalue(), stdout.getvalue()
    assert rc in (0, 2) and stdout == "" and "Traceback" not in err
    assert out.exists() == (rc == 0)
    if rc == 0:
        assert err == ""
    else:
        first, *coded = err.splitlines()
        assert first == "error: invalid rule base:" and coded
        assert all(re.fullmatch(r"  \[[a-z_]+\] .+", line) for line in coded), err


def three_input_rulebase() -> RuleBase:
    p = RB.partitions[0]
    return RuleBase((p, p, p), tuple(Rule(a, 0.1 * sum(a))
                                     for a in itertools.product(range(3), repeat=3)))


@pytest.mark.parametrize("argv", [
    ["surface", "--grid", "3"],
    ["surface", "--grid", "3", "--engine", "gc-ref"],
    ["pendulum", "--duration", "0.01"],
    ["bench", "--probes", "5"],
], ids=["surface", "surface-gc-ref", "pendulum", "bench"])
@pytest.mark.parametrize("rb, n", [(one_input_rulebase(), 1), (three_input_rulebase(), 3)],
                         ids=["one-input", "three-input"])
def test_a_rule_base_without_two_inputs_exits_2_saying_why(argv, rb, n, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    dump_rulebase(rb, rules)
    assert rb.validate() == []
    assert main(argv + ["--rules", str(rules), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == \
        f"error: {argv[0]} evaluates 2 inputs, but the rule base has {n}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rules.json"]


def test_surface_validates_rule_base_once(monkeypatch, capsys):
    calls = []
    validate = RuleBase.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(RuleBase, "validate", counting)
    assert main(["surface", "--grid", "2", "--engine", "gc-closed,nt-closed"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IT2FUZZ_OUT_DIR", str(tmp_path))
    assert main(["surface", "--grid", "2", "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


# -- pendulum ----------------------------------------------------------------

def test_pendulum_outputs_and_summary(tmp_path):
    prefix = tmp_path / "run"
    rc = main(["pendulum", "--duration", "0.3", "--out", str(prefix)])
    assert rc == 0
    trace_lines = (tmp_path / "run_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "t,angle,angular_velocity,force,x1,x2,u,degenerate"
    assert len(trace_lines) == 1 + 301
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["failed"] is False
    assert summary["degenerate_steps"] == 0
    assert summary["settle_time_s"] == pytest.approx(0.196, abs=1e-9)
    assert 0.09 < summary["max_abs_angle_rad"] <= 0.11
    assert abs(summary["final_angle_rad"]) < 0.01


def test_pendulum_takes_a_negative_angle_in_scientific_notation(tmp_path):
    # argparse alone reads -1e-1 as an unknown option.
    prefix = tmp_path / "neg"
    assert main(["pendulum", "--angle0", "-1e-1", "--duration", "0.01",
                 "--out", str(prefix)]) == 0
    first = (tmp_path / "neg_trace.csv").read_text().splitlines()[1].split(",")
    assert float(first[1]) == -0.1


def test_pendulum_rejects_big_step(tmp_path, capsys):
    rc = main(["pendulum", "--step", "0.05", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "step" in capsys.readouterr().err


def test_pendulum_blowup_exit_code(tmp_path, capsys):
    wild = demo_like_rulebase(
        consequents=tuple(1e9 * b for b in oracles.DEMO_CONSEQUENTS))
    rules = tmp_path / "wild.json"
    dump_rulebase(wild, rules)
    prefix = tmp_path / "boom"
    rc = main(["pendulum", "--engine", "gc-closed-exact", "--rules", str(rules),
               "--out", str(prefix)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err
    summary = json.loads((tmp_path / "boom_summary.json").read_text())
    assert summary["failed"] is True
    assert summary["settle_time_s"] is None
    # the partial trace up to the failure still gets written out
    assert len((tmp_path / "boom_trace.csv").read_text().splitlines()) > 1


def test_pendulum_out_with_trailing_separator_writes_inside(tmp_path, monkeypatch):
    # <out>_trace.csv is literal: "runs/" puts both files in runs/.
    (tmp_path / "runs").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["pendulum", "--duration", "0.01", "--out", "runs/"]) == 0
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
        "_summary.json", "_trace.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]


# -- fit ---------------------------------------------------------------------

def test_fit_command_json(tmp_path):
    out = tmp_path / "fit.json"
    rc = main(["fit", "--dmu", "0.1", "--sigma", "0.418", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["umf"]["sigma"] == pytest.approx(oracles.FIT_A[0], abs=1e-6)
    assert report["umf"]["scale"] == 1.0
    assert report["lmf"]["sigma"] == pytest.approx(oracles.FIT_A[1], abs=1e-6)
    assert report["lmf"]["scale"] == pytest.approx(oracles.FIT_A[2], abs=1e-6)
    assert report["sse"] >= 0.0


def test_fit_command_degenerate_spread(tmp_path):
    out = tmp_path / "flat.json"
    rc = main(["fit", "--dmu", "0", "--sigma", "0.418", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["umf"]["sigma"] == pytest.approx(0.418, abs=1e-6)
    assert report["lmf"]["sigma"] == pytest.approx(0.418, abs=1e-6)
    assert report["lmf"]["scale"] == pytest.approx(1.0, abs=1e-6)
    assert report["sse"] == 0.0


def test_fit_command_wide_fou(tmp_path):
    out = tmp_path / "wide.json"
    assert main(["fit", "--dmu", "250", "--sigma", "1000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["umf"]["sigma"] > 1000.0 > report["lmf"]["sigma"] > 0.0


# Narrow sets far apart: the lower target, and the unit curve at some or
# all searched sigmas, underflow to 0 on the whole grid.
@pytest.mark.parametrize("argv", [
    ["--dmu", "100", "--sigma", "0.01", "--window", "-100", "250", "--samples", "101"],
    ["--dmu", "2", "--sigma", "0.05", "--window", "-2", "4.5", "--samples", "101"],
])
def test_fit_command_underflowing_lower_target(argv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert 1e-12 <= json.loads(out.read_text())["lmf"]["scale"] <= 1.0


@pytest.mark.parametrize("argv", [
    ["fit", "--dmu", "0.1", "--sigma", "0"],
    ["fit", "--dmu", "0.1", "--sigma", "-0.4"],
    ["fit", "--dmu", "-0.1", "--sigma", "0.418"],
    ["fit", "--dmu", "0.1", "--sigma", "1e-300"],
    ["fit", "--dmu", "1e-156", "--sigma", "1e-155"],
    ["fit", "--dmu", "1e299", "--sigma", "1e300"],
    ["fit", "--dmu", "0.1", "--sigma", "0.418", "--window", "-1", "inf"],
    # argparse alone takes these negative values for options
    ["fit", "--dmu", "0.1", "--sigma", "-1e-3"],
    ["fit", "--dmu", "-1E-2", "--sigma", "0.418"],
    ["fit", "--dmu", "0.1", "--sigma", "0.418", "--window", "-inf", "1"],
])
def test_fit_command_rejects_bad_params(argv, capsys):
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err


def test_fit_command_takes_a_negative_window_in_scientific_notation(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--dmu", "0.1", "--sigma", "0.4", "--window", "-1.5e0", "1.5",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    umf, lmf = fit_bounds(IT2Gaussian.uncertain_mean(-0.1, 0.1, 0.4), window=(-1.5, 1.5))
    assert (report["umf"]["sigma"], report["lmf"]["sigma"], report["lmf"]["scale"]) == (
        umf.sigma, lmf.sigma, lmf.scale)


# Each run asks for float64 arrays of `rows` entries, more than 2**60 bytes
# each: past any 64-bit address space, so the allocation fails at once
# whatever the machine's memory or overcommit policy.
@pytest.mark.parametrize("argv, rows", [
    (["pendulum", "--duration", "5e15", "--step", "0.01"], 5 * 10 ** 17 + 1),
    (["fit", "--dmu", "0.1", "--sigma", "1", "--samples", str(2 * 10 ** 17)], 2 * 10 ** 17),
], ids=["pendulum", "fit"])
def test_oversize_allocation_exits_2(argv, rows, tmp_path, capsys):
    assert 8 * rows > 2 ** 60
    assert main(argv + ["--out", str(tmp_path / "big")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


# A directory where a file belongs, or a file or nothing where a directory
# belongs: "{dir}" stands for an existing directory, "{file}" for a regular
# file, "{missing}" for a path in a directory that does not exist, and
# "{run}" for a pendulum prefix whose summary file name is a directory.
@pytest.mark.parametrize("argv, out_dir", [
    (["surface", "--grid", "2", "--rules", "{dir}"], None),
    (["surface", "--grid", "2", "--out", "{dir}"], None),
    (["fit", "--dmu", "0.1", "--sigma", "0.418", "--out", "{dir}"], None),
    (["bench", "--probes", "1", "--engine", "gc-closed", "--out", "{dir}"], None),
    (["surface", "--grid", "2", "--out", "surface.csv"], "{file}"),
    (["bench", "--probes", "1", "--engine", "gc-closed", "--out", "{missing}"], None),
    (["pendulum", "--duration", "0.01", "--out", "{run}"], None),
], ids=["surface-rules-dir", "surface-out-dir", "fit-out-dir", "bench-out-dir",
        "out-dir-env-is-file", "bench-out-parent-missing", "pendulum-summary-dir"])
def test_unusable_path_exits_2(argv, out_dir, tmp_path, monkeypatch, capsys):
    paths = {"{dir}": str(tmp_path / "d"), "{file}": str(tmp_path / "f"),
             "{missing}": str(tmp_path / "missing" / "x.json"), "{run}": str(tmp_path / "r")}
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    (tmp_path / "r_summary.json").mkdir()
    if out_dir is not None:
        monkeypatch.setenv("IT2FUZZ_OUT_DIR", paths[out_dir])

    def never(*args, **kwargs):
        raise AssertionError("the command's work ran")

    # The path is checked before the command does any of its work.
    for work in ("generate_surface", "simulate", "fit_bounds", "run_bench"):
        monkeypatch.setattr(cli, work, never)
    before = sorted(tmp_path.iterdir())
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


# -- bench -------------------------------------------------------------------

def test_lcg_probes_match_documented_recurrence():
    probes = lcg_probes(40)
    stream = oracles.lcg_stream(80, 123456789)
    for k, (a, b) in enumerate(probes):
        assert a == stream[2 * k]
        assert b == stream[2 * k + 1]
        assert -1.0 <= a < 1.0 and -1.0 <= b < 1.0
    assert probes[:2] == [
        (-0.5714193060994148, 0.7516508172266185),
        (0.0486800828948617, -0.3128834846429527),
    ]


def test_lcg_probes_seed_changes_stream():
    assert lcg_probes(5) == lcg_probes(5)
    assert lcg_probes(5, seed=7) != lcg_probes(5)


def test_bench_report_shape():
    report = run_bench(RB, ("gc-closed", "gc-ref"), 50)
    assert report["probes"] == 50
    for token in ("gc-closed", "gc-ref"):
        stats = report["engines"][token]
        assert stats["count"] == 50
        assert stats["mean_ns"] > 0.0
        assert stats["median_ns"] > 0.0
    assert report["speedup"]["gc"] > 0.0


def test_bench_pairs_reference_with_same_source_closed_form():
    report = run_bench(RB, ("gc-closed", "gc-closed-exact", "gc-ref"), 50)
    means = {t: e["mean_ns"] for t, e in report["engines"].items()}
    assert report["speedup"] == {"gc": means["gc-ref"] / means["gc-closed"]}
    report = run_bench(RB, ("gc-closed", "gc-closed-exact", "gc-ref-exact"), 50)
    means = {t: e["mean_ns"] for t, e in report["engines"].items()}
    assert report["speedup"] == {"gc": means["gc-ref-exact"] / means["gc-closed-exact"]}


@pytest.mark.parametrize("tokens, pairs", [
    (("gc-closed-split", "gc-ref"), {}),
    (("gc-closed", "gc-ref-exact"), {}),
    (("gc-closed", "gc-ref", "nt-closed-exact", "nt-ref-exact"),
     {"gc": ("gc-ref", "gc-closed"), "nt": ("nt-ref-exact", "nt-closed-exact")}),
], ids=["split-is-no-twin", "other-source-is-no-twin", "both-twins"])
def test_bench_speedup_is_reference_over_its_twin(tokens, pairs):
    # The twin is the closed token of the reference's EngineConfig; no
    # other closed engine stands in for it.
    report = run_bench(split_rulebase(RB), tokens, 5)
    means = {t: e["mean_ns"] for t, e in report["engines"].items()}
    assert report.get("speedup", {}) == {
        family: means[ref] / means[twin] for family, (ref, twin) in pairs.items()}


def test_bench_builds_every_engine_before_timing(monkeypatch, capsys):
    # The split form cannot be built on the demo base, which has no split
    # consequents; the reference before it must not be timed.
    calls = count_surface_calls(monkeypatch)
    assert main(["bench", "--engine", "gc-ref,gc-closed-split"]) == 2
    assert "split form needs split consequents" in capsys.readouterr().err
    assert calls["ref"] == 0


def test_bench_single_engine_no_speedup(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--probes", "30", "--engine", "gc-closed",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert "speedup" not in report
    assert report["engines"]["gc-closed"]["count"] == 30


def test_bench_strips_engine_tokens(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--probes", "20", "--engine", "gc-closed, gc-ref",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert sorted(report["engines"]) == ["gc-closed", "gc-ref"]
    assert set(report["speedup"]) == {"gc"}


def test_bench_rejects_zero_probes(capsys):
    assert main(["bench", "--probes", "0"]) == 2
    assert "no probes" in capsys.readouterr().err
    with pytest.raises(CliError, match="no probes"):
        run_bench(RB, ("gc-closed",), 0)
