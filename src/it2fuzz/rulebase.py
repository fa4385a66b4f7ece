"""Input partitions, rule tables, validation, and JSON round-tripping."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .mf import IT2Gaussian, ScaledGaussian, lower_within_upper

__all__ = [
    "Partition",
    "Rule",
    "RuleBase",
    "Violation",
    "RuleBaseInvalid",
    "default_rulebase",
    "rulebase_to_dict",
    "rulebase_from_dict",
    "dump_rulebase",
    "load_rulebase",
]


@dataclass(frozen=True)
class Violation:
    """One machine-readable rule-base defect."""

    code: str
    message: str


class RuleBaseInvalid(ValueError):
    """Raised by engines handed a rule base that fails validation."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


@dataclass(frozen=True)
class Partition:
    """Ordered fuzzy partition of one input universe.

    Set centers must be strictly increasing and stay inside the universe.
    ``names`` optionally labels the sets for diagnostics (e.g. N/Z/P).
    """

    universe: tuple[float, float]
    sets: tuple[IT2Gaussian, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", tuple(float(v) for v in self.universe))
        object.__setattr__(self, "sets", tuple(self.sets))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        lo, hi = self.universe
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bad universe ({lo}, {hi})")
        if not self.sets:
            raise ValueError("partition needs at least one set")
        centers = [s.center for s in self.sets]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise ValueError("set centers must be strictly increasing")
        if centers[0] < lo or centers[-1] > hi:
            raise ValueError("set centers must lie inside the universe")
        if self.names is not None and len(self.names) != len(self.sets):
            raise ValueError("one name per set required")

    def label(self, index: int) -> str:
        return self.names[index] if self.names else str(index)


@dataclass(frozen=True)
class Rule:
    """One rule: antecedent set indices (one per input) and consequent center(s).

    ``consequent`` is the shared output center.  For split-consequent
    systems ``consequent_upper``/``consequent_lower`` weight the upper and
    lower firing separately; they must be given together.
    """

    antecedent: tuple[int, ...]
    consequent: float
    consequent_upper: float | None = None
    consequent_lower: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", tuple(int(i) for i in self.antecedent))
        if (self.consequent_upper is None) != (self.consequent_lower is None):
            raise ValueError("split consequents must set both upper and lower values")
        object.__setattr__(self, "consequent", float(self.consequent))
        if self.is_split:
            object.__setattr__(self, "consequent_upper", float(self.consequent_upper))
            object.__setattr__(self, "consequent_lower", float(self.consequent_lower))

    @property
    def is_split(self) -> bool:
        return self.consequent_upper is not None


@dataclass(frozen=True)
class RuleBase:
    """A complete rule table over one partition per input."""

    partitions: tuple[Partition, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.partitions:
            raise ValueError("rule base needs at least one input partition")

    @property
    def n_inputs(self) -> int:
        return len(self.partitions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(p.sets) for p in self.partitions)

    @property
    def is_split(self) -> bool:
        return bool(self.rules) and self.rules[0].is_split

    def _combo_label(self, combo: tuple[int, ...]) -> str:
        return "(" + ",".join(p.label(i) for p, i in zip(self.partitions, combo)) + ")"

    def validate(self) -> list[Violation]:
        """Check the rule table, returning all defects (empty list if clean).

        Never raises: every problem comes back as a Violation with a
        stable machine-readable code.
        """
        out: list[Violation] = []
        shape = self.shape
        seen: dict[tuple[int, ...], int] = {}
        addressable = True
        for pos, rule in enumerate(self.rules):
            ant = rule.antecedent
            if len(ant) != self.n_inputs:
                out.append(Violation(
                    "arity",
                    f"rule {pos} names {len(ant)} antecedents for {self.n_inputs} inputs",
                ))
                addressable = False
                continue
            if any(i < 0 or i >= n for i, n in zip(ant, shape)):
                out.append(Violation(
                    "index_out_of_range",
                    f"rule {pos} antecedent {ant} indexes outside the partitions",
                ))
                addressable = False
                continue
            if ant in seen:
                out.append(Violation(
                    "duplicate_antecedent",
                    f"rules {seen[ant]} and {pos} share antecedent {self._combo_label(ant)}",
                ))
            else:
                seen[ant] = pos
        missing = math.prod(shape) - len(seen)
        if addressable and missing:
            # The first gap lies within the first len(seen) + 1 combinations.
            combo = next(c for c in itertools.product(*map(range, shape)) if c not in seen)
            more = f" and {missing - 1} more" if missing > 1 else ""
            out.append(Violation(
                "missing_antecedent",
                f"incomplete rule base: missing {self._combo_label(combo)}{more}",
            ))
        split_flags = {r.is_split for r in self.rules}
        if len(split_flags) > 1:
            out.append(Violation(
                "mixed_consequent_mode",
                "some rules use split consequents and some do not",
            ))
        for pos, rule in enumerate(self.rules):
            cons = (rule.consequent, rule.consequent_upper, rule.consequent_lower)
            if not all(c is None or math.isfinite(c) for c in cons):
                out.append(Violation("non_finite", f"rule {pos} has a non-finite consequent"))
            elif any(c is not None and abs(c) > 1e300 for c in cons):
                # Then no closed-form sum, at most 2 * rules * 1e300, overflows.
                out.append(Violation("consequent_range",
                                     f"rule {pos} has a consequent beyond +-1e300"))
        for k, p in enumerate(self.partitions):
            for j, s in enumerate(p.sets):
                umf, lmf = s.fitted_umf, s.fitted_lmf
                if umf is not None and not lower_within_upper(umf, lmf):
                    where = f"set {p.label(j)} of input {k}"
                    out.append(Violation("fitted_dominance",
                                         f"{where} has its fitted lower bound above the upper"))
        return out

    @cached_property
    def _cached_violations(self) -> tuple[Violation, ...]:
        return tuple(self.validate())

    def require_valid(self) -> None:
        """Raise RuleBaseInvalid if validate() reports anything."""
        if self._cached_violations:
            raise RuleBaseInvalid(self._cached_violations)


# -- bundled demo system -------------------------------------------------

_DEFAULT_RULES = Path(__file__).parent / "data" / "default_rules.json"


def default_rulebase() -> RuleBase:
    """The bundled two-input, three-sets-per-input demo rule base.

    N/Z/P uncertain-mean sets on [-1, 1] for both inputs with frozen
    fitted bounds, and a sign-opposing consequent table laid out
    row-major over (first input, second input); read from the package's
    ``data/default_rules.json``.
    """
    return load_rulebase(_DEFAULT_RULES)


# -- JSON round-tripping -------------------------------------------------

def _set_to_dict(s: IT2Gaussian) -> dict:
    if s.sigma_lo == s.sigma_hi:
        d: dict = {"kind": "uncertain_mean", "mean_lo": s.mean_lo,
                   "mean_hi": s.mean_hi, "sigma": s.sigma_lo}
    else:
        d = {"kind": "uncertain_sigma", "mean": s.mean_lo,
             "sigma_lo": s.sigma_lo, "sigma_hi": s.sigma_hi}
    for key, g in (("fitted_umf", s.fitted_umf), ("fitted_lmf", s.fitted_lmf)):
        if g is not None:
            d[key] = {"mean": g.mean, "sigma": g.sigma, "scale": g.scale}
    return d


def _set_from_dict(d: dict) -> IT2Gaussian:
    def num(src: dict, key: str):
        return float(_typed(src[key], (int, float), key))

    kind = d.get("kind")
    if kind == "uncertain_mean":
        s = IT2Gaussian.uncertain_mean(num(d, "mean_lo"), num(d, "mean_hi"), num(d, "sigma"))
    elif kind == "uncertain_sigma":
        s = IT2Gaussian.uncertain_sigma(num(d, "mean"), num(d, "sigma_lo"), num(d, "sigma_hi"))
    else:
        raise ValueError(f"unknown set kind {kind!r}")
    fitted = {key: ScaledGaussian(num(g, "mean"), num(g, "sigma"), num(g, "scale"))
              for key in ("fitted_umf", "fitted_lmf") if (g := d.get(key)) is not None}
    return replace(s, **fitted)  # the constructor rejects half a pair


def rulebase_to_dict(rb: RuleBase) -> dict:
    inputs = []
    for p in rb.partitions:
        entry: dict = {"universe": list(p.universe),
                       "sets": [_set_to_dict(s) for s in p.sets]}
        if p.names is not None:
            entry["names"] = list(p.names)
        inputs.append(entry)
    rules = []
    for r in rb.rules:
        rd: dict = {"if": list(r.antecedent), "b": r.consequent}
        if r.is_split:
            rd["b_upper"] = r.consequent_upper
            rd["b_lower"] = r.consequent_lower
        rules.append(rd)
    return {"inputs": inputs, "rules": rules}


def _typed(value, kinds: tuple[type, ...], what: str):
    """value itself if it is one of kinds (a bool never is), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{what} must be {' or '.join(k.__name__ for k in kinds)}, "
                        f"got {value!r}")
    return value


def _names(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise TypeError(f"names must be a list of strings, got {value!r}")
    return tuple(value)


def _consequent(rd: dict, key: str) -> float | None:
    value = rd.get(key)
    return None if value is None else _typed(value, (int, float), key)


def rulebase_from_dict(d: dict) -> RuleBase:
    """Build a rule base from its JSON form.

    Data of the wrong shape (a missing key, a list or a number where an
    object belongs), of the wrong type (an antecedent index that is not
    an integer, a consequent, set parameter or universe end that is not a
    number, names that are not a list of strings) or a value a
    constructor rejects (a NaN mean, half a fitted pair, a reversed
    universe, an unknown set kind, an integer beyond the float range)
    raises RuleBaseInvalid with one ``schema`` violation.
    """
    try:
        partitions = tuple(
            Partition(
                universe=tuple(_typed(v, (int, float), "universe end")
                               for v in entry["universe"]),
                sets=tuple(_set_from_dict(sd) for sd in entry["sets"]),
                names=_names(entry["names"]) if "names" in entry else None,
            )
            for entry in d["inputs"]
        )
        rules = tuple(
            Rule(
                antecedent=tuple(_typed(i, (int,), "antecedent index") for i in rd["if"]),
                consequent=_typed(rd["b"], (int, float), "b"),
                consequent_upper=_consequent(rd, "b_upper"),
                consequent_lower=_consequent(rd, "b_lower"),
            )
            for rd in d["rules"]
        )
        return RuleBase(partitions=partitions, rules=rules)
    except (TypeError, KeyError, AttributeError, ValueError, OverflowError) as exc:
        msg = f"rule data does not fit the schema ({type(exc).__name__}: {exc})"
        raise RuleBaseInvalid((Violation("schema", msg),)) from None


def dump_rulebase(rb: RuleBase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(rulebase_to_dict(rb), indent=2) + "\n")


def load_rulebase(path: str | Path) -> RuleBase:
    """Read a rule file; text that is not JSON is one ``schema`` violation."""
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise RuleBaseInvalid((Violation("schema", f"rule file is not JSON ({exc})"),)) from None
    return rulebase_from_dict(data)
