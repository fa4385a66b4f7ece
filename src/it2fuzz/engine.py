"""Closed-form interval type-2 inference.

``ClosedFormEngine`` binds a rule base to an ``EngineConfig`` and runs
each inference in three short steps: per-input membership bounds,
per-rule firing intervals (product t-norm), and a single weighted-average
formula that goes straight from firing intervals to a crisp output.  No
output-domain discretization is involved; the discretized counterparts
live in the reference module.

``EngineConfig.form`` picks one of three closed forms:

* ``gc-closed``: band-weighted average, weights upper - lower firing.
* ``gc-closed-split``: variant with separate upper/lower consequent
  centers (reduces to ``gc-closed`` when the two centers coincide).
* ``nt-closed``: sum-weighted average, weights upper + lower firing.

All sums run through ``math.fsum`` so results are exactly rounded; a
sign-symmetric rule base therefore yields bit-exact odd symmetry.

Degenerate cases are flagged, never raised: a collapsed FOU band falls
back to the upper-firing average, and an input that fires nothing gives
``(0.0, degenerate=True)``.  A non-finite input (NaN or +-inf in any
slot) also gives ``(0.0, degenerate=True)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .rulebase import RuleBase

__all__ = [
    "Form",
    "BoundSource",
    "EngineConfig",
    "FiringInterval",
    "InferenceResult",
    "ClosedFormEngine",
]

# Denominators (closed forms) and masses (reference) not above this are
# degenerate: the result is a flagged fallback.
DEGENERATE_EPSILON = 1e-12


class Form(str, enum.Enum):
    """Which closed-form output formula to apply."""

    GC_CLOSED = "gc-closed"
    GC_CLOSED_SPLIT = "gc-closed-split"
    NT_CLOSED = "nt-closed"


class BoundSource(str, enum.Enum):
    """Whether firing uses the exact FOU bounds or the fitted Gaussians."""

    EXACT = "exact"
    FITTED = "fitted"


@dataclass(frozen=True)
class EngineConfig:
    form: Form = Form.GC_CLOSED
    bound_source: BoundSource = BoundSource.FITTED


class FiringInterval(NamedTuple):
    lower: float
    upper: float


class InferenceResult(NamedTuple):
    """Crisp output plus a flag marking fallback (degenerate-FOU) results."""

    value: float
    degenerate: bool


class ClosedFormEngine:
    """A rule base bound to an engine config, exposing infer(x) and fire(x).

    Construction validates everything once (rule base, split consequents
    for the split form, attached fitted bounds for the fitted source), so
    the per-call path skips revalidation and evaluates the fitted
    Gaussians inline.
    """

    def __init__(self, rb: RuleBase, cfg: EngineConfig | None = None):
        cfg = cfg if cfg is not None else EngineConfig()
        rb.require_valid()
        if cfg.form is Form.GC_CLOSED_SPLIT and not rb.is_split:
            raise ValueError("split form needs split consequents on every rule")
        fitted = cfg.bound_source is BoundSource.FITTED
        if fitted and any(s.fitted_umf is None or s.fitted_lmf is None
                          for p in rb.partitions for s in p.sets):
            raise ValueError(
                "fitted bounds requested but not attached; call IT2Gaussian.fit() first"
            )
        self.rb = rb
        self.cfg = cfg
        self._n_inputs = rb.n_inputs
        self._ante = tuple(r.antecedent for r in rb.rules)
        self._cons = tuple(r.consequent for r in rb.rules)
        if rb.is_split:
            self._cons_u = tuple(r.consequent_upper for r in rb.rules)
            self._cons_l = tuple(r.consequent_lower for r in rb.rules)
        # Per input, per set: fitted parameters for inline evaluation, or
        # the exact bound methods (branchy, left as calls).
        if fitted:
            self._params = tuple(
                tuple((s.fitted_umf.mean, s.fitted_umf.sigma, s.fitted_umf.scale,
                       s.fitted_lmf.mean, s.fitted_lmf.sigma, s.fitted_lmf.scale)
                      for s in p.sets)
                for p in rb.partitions
            )
        else:
            self._params = None
            self._exact = tuple(
                tuple((s.umf, s.lmf) for s in p.sets) for p in rb.partitions
            )

    def _firing(self, x: Sequence[float]) -> tuple[list[float], list[float]]:
        """Per-rule upper and lower firing; lower <= upper always holds."""
        if len(x) != self._n_inputs:
            raise ValueError(f"expected {self._n_inputs} inputs, got {len(x)}")
        uppers: list[list[float]] = []
        lowers: list[list[float]] = []
        if self._params is not None:
            exp = math.exp
            for sets, xi in zip(self._params, x):
                us: list[float] = []
                ls: list[float] = []
                for um, usg, usc, lm, lsg, lsc in sets:
                    z = (xi - um) / usg
                    us.append(usc * exp(-0.5 * z * z))
                    z = (xi - lm) / lsg
                    ls.append(lsc * exp(-0.5 * z * z))
                uppers.append(us)
                lowers.append(ls)
        else:
            for sets, xi in zip(self._exact, x):
                uppers.append([ub(xi) for ub, _ in sets])
                lowers.append([lb(xi) for _, lb in sets])
        ups: list[float] = []
        los: list[float] = []
        for ant in self._ante:
            u = 1.0
            l = 1.0
            for i, a in enumerate(ant):
                u *= uppers[i][a]
                l *= lowers[i][a]
            ups.append(u)
            los.append(l)
        return ups, los

    def fire(self, x: Sequence[float]) -> list[FiringInterval]:
        """Per-rule firing intervals at input vector x, in rule order."""
        ups, los = self._firing(x)
        return [FiringInterval(l, u) for u, l in zip(ups, los)]

    def infer(self, x: Sequence[float]) -> InferenceResult:
        """Crisp output of the configured closed form at input vector x."""
        ups, los = self._firing(x)
        eps = DEGENERATE_EPSILON
        form = self.cfg.form
        # A NaN input makes every sum below NaN, and NaN fails every
        # comparison: each test is written so that it lands in the
        # flagged branch without costing finite inputs anything.
        if form is Form.NT_CLOSED:
            sums = [u + l for u, l in zip(ups, los)]
            den = math.fsum(sums)
            if not den > eps:
                return InferenceResult(0.0, True)
            return InferenceResult(
                math.fsum(c * s for c, s in zip(self._cons, sums)) / den, False
            )
        diffs = [u - l for u, l in zip(ups, los)]
        den = math.fsum(diffs)
        if not den >= eps:
            cons = self._cons_u if form is Form.GC_CLOSED_SPLIT else self._cons
            uden = math.fsum(ups)
            if not uden > eps:
                return InferenceResult(0.0, True)
            return InferenceResult(
                math.fsum(c * u for c, u in zip(cons, ups)) / uden, True
            )
        if form is Form.GC_CLOSED_SPLIT:
            terms = [c * u for c, u in zip(self._cons_u, ups)]
            terms.extend(-c * l for c, l in zip(self._cons_l, los))
            return InferenceResult(math.fsum(terms) / den, False)
        return InferenceResult(
            math.fsum(c * d for c, d in zip(self._cons, diffs)) / den, False
        )
