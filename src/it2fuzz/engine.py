"""Closed-form interval type-2 inference.

``ClosedFormEngine`` binds a rule base to an ``EngineConfig`` and runs
each inference in three short steps: per-input membership bounds,
per-rule firing intervals (product t-norm), and a single weighted-average
formula that goes straight from firing intervals to a crisp output.  No
output-domain discretization is involved; the discretized counterparts
live in the reference module.  The engine flattens the partitions into
one table row per (input, set) and stores each rule's antecedent as row
indices into it, so a call fills two flat lists of bounds and each rule's
product reads them left to right.

``EngineConfig.form`` picks one of three closed forms:

* ``gc-closed``: band-weighted average, weights upper - lower firing.
* ``gc-closed-split``: variant with separate upper/lower consequent
  centers (reduces to ``gc-closed`` when the two centers coincide).
* ``nt-closed``: sum-weighted average, weights upper + lower firing.

All sums run through ``math.fsum`` so results are exactly rounded; a
sign-symmetric rule base therefore yields bit-exact odd symmetry.

``ClosedFormEngine.infer_batch`` runs many input vectors at once (the
surface export uses it) and equals ``infer`` bit for bit on every row:
bounds are evaluated once per distinct input value, products and terms
are numpy arithmetic in the same order, and the row sums are numpy
error-free transformations whose result is proven equal to
``math.fsum``'s, with ``math.fsum`` itself on any row the proof does not
cover.  ``infer`` stays the path for serial callers such as the pendulum
loop, where a one-row batch would cost more than the inference.

Degenerate cases are flagged, never raised: a collapsed FOU band falls
back to the upper-firing average, and an input that fires nothing gives
``(0.0, degenerate=True)``.  A non-finite input (NaN or +-inf in any
slot) also gives ``(0.0, degenerate=True)``.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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
        # One row per (input, set), inputs in order: the input index and
        # the fitted parameters for inline evaluation, or the exact bound
        # methods (branchy, left as calls).  Each rule's antecedent becomes
        # row indices into that table.
        if fitted:
            self._params = tuple(
                (i, s.fitted_umf.mean, s.fitted_umf.sigma, s.fitted_umf.scale,
                 s.fitted_lmf.mean, s.fitted_lmf.sigma, s.fitted_lmf.scale)
                for i, p in enumerate(rb.partitions) for s in p.sets
            )
        else:
            self._params = None
            self._exact = tuple(
                (i, s.umf, s.lmf) for i, p in enumerate(rb.partitions) for s in p.sets
            )
        offsets = tuple(itertools.accumulate(rb.shape[:-1], initial=0))
        self._rows = tuple(tuple(map(operator.add, offsets, ant)) for ant in self._ante)

    def _firing(self, x: Sequence[float]) -> tuple[list[float], list[float]]:
        """Per-rule upper and lower firing; lower <= upper always holds."""
        if len(x) != self._n_inputs:
            raise ValueError(f"expected {self._n_inputs} inputs, got {len(x)}")
        if self._params is not None:
            exp = math.exp
            us: list[float] = []
            ls: list[float] = []
            for i, um, usg, usc, lm, lsg, lsc in self._params:
                xi = x[i]
                z = (xi - um) / usg
                us.append(usc * exp(-0.5 * z * z))
                z = (xi - lm) / lsg
                ls.append(lsc * exp(-0.5 * z * z))
        else:
            us = [ub(x[i]) for i, ub, _ in self._exact]
            ls = [lb(x[i]) for i, _, lb in self._exact]
        ups: list[float] = []
        los: list[float] = []
        for rows in self._rows:
            u = 1.0
            l = 1.0
            for k in rows:
                u *= us[k]
                l *= ls[k]
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

    def infer_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """``infer`` over the rows of an (N, n_inputs) array, bit for bit.

        Returns ``(values, degenerate)``: a float array and a bool array of
        length N, equal to ``infer(row)``'s value and flag on every row.
        Each distinct value of each input column is put through the same
        bound callables the per-call path uses, the per-rule products and
        the form's terms are elementwise numpy arithmetic in the per-call
        order, and every row sum equals ``math.fsum``'s (``_row_fsum``),
        with the per-call fallbacks, so no result depends on how rows are
        batched.

        The gain comes from rows sharing column values, as on a Cartesian
        grid, where each bound runs once per axis value instead of once
        per row.  Rows with all-distinct values gain only the vectorised
        products and terms, and pay for the sort that finds the distinct
        values.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._n_inputs:
            raise ValueError(
                f"expected an (N, {self._n_inputs}) array, got shape {X.shape}")
        ups, los = self._firing_batch(X)
        eps = DEGENERATE_EPSILON
        form = self.cfg.form
        cons = np.array(self._cons)
        values = np.zeros(len(X))
        degenerate = np.ones(len(X), dtype=bool)
        if form is Form.NT_CLOSED:
            sums = ups + los
            den = _row_fsum(sums)
            ok = den > eps
            values[ok] = _row_fsum(cons * sums[ok]) / den[ok]
            degenerate[ok] = False
            return values, degenerate
        diffs = ups - los
        den = _row_fsum(diffs)
        ok = den >= eps
        split = form is Form.GC_CLOSED_SPLIT
        cons_u = np.array(self._cons_u) if split else cons
        # Rows of a collapsed band fall back to the upper-firing average.
        fall = np.flatnonzero(~ok)
        if fall.size:
            fall_ups = ups[fall]
            uden = _row_fsum(fall_ups)
            fired = uden > eps
            values[fall[fired]] = _row_fsum(cons_u * fall_ups[fired]) / uden[fired]
        if split:
            terms = np.hstack((cons_u * ups[ok], -np.array(self._cons_l) * los[ok]))
        else:
            terms = cons * diffs[ok]
        values[ok] = _row_fsum(terms) / den[ok]
        degenerate[ok] = False
        return values, degenerate

    def _firing_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, n_rules) upper and lower firing, equal to ``_firing`` row by row."""
        fitted = self._params is not None
        ups = los = None
        ante_cols = np.array(self._ante, dtype=np.intp).reshape(-1, self._n_inputs).T
        for part, col, ante in zip(self.rb.partitions, X.T, ante_cols):
            # ScaledGaussian.__call__ is the expression _firing inlines.
            sets = [(s.fitted_umf, s.fitted_lmf) if fitted else (s.umf, s.lmf)
                    for s in part.sets]
            # Distinct by bit pattern, so -0.0 and each NaN keep their own entry.
            keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
            xs = keys.view(np.float64).tolist()
            shape = (len(xs), len(sets))
            upper = np.array([f(x) for x in xs for f, _ in sets]).reshape(shape)
            lower = np.array([f(x) for x in xs for _, f in sets]).reshape(shape)
            u = upper[:, ante][inverse]
            l = lower[:, ante][inverse]
            # Left to right as in _firing (whose leading 1.0 * is exact).
            ups = u if ups is None else ups * u
            los = l if los is None else los * l
        return ups, los


def _row_fsum(m: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit, mostly in numpy.

    Each row is summed by a pairwise tree of error-free TwoSums (Knuth;
    as in Ogita, Rump & Oishi, "Accurate sum and dot product", 2005):
    ``t = a + b`` and ``e = (a - (t - z)) + (b - z)`` with ``z = t - a``
    give ``a + b == t + e`` exactly when nothing overflows, so the exact
    row sum is ``s0 + sum(e)`` for the last ``t`` left, ``s0``.

    The certificate: ``c = sum(e)`` in plain float64 is off the exact
    ``sum(e)`` by at most ``(R-2)u * sum|e|`` (u = 2**-53) in any order,
    since additions whose result is subnormal are exact; ``delta = 4(R+1)u
    * A + R * 2**-1074``, with ``A`` the float sum of ``|e|``, covers that
    and its own rounding, the second term keeping it from underflowing to
    0.  Then ``res, f = TwoSum(s0, c)`` puts the exact sum within ``|f| +
    delta`` of ``res``.  Where that is strictly below half the gap from
    ``res`` to its neighbour toward zero (the smaller of its two gaps, so
    powers of two are safe; rounding is monotone, so the float comparison
    cannot pass when the exact one fails), the exact sum lies inside
    ``res``'s rounding interval and ``res`` is the correctly rounded sum,
    which is what ``fsum`` returns.  A row is certified only when every
    entry is below ``2**1000 / R`` in magnitude, so neither the tree nor
    ``fsum``'s partials can overflow.

    Every other row is summed by ``math.fsum`` itself: zero results
    (whose gap is 0, which also covers signed zeros), NaN and infinite
    entries (their comparisons are false), near-ties and heavy
    cancellation all land there by construction.
    """
    n, r = m.shape
    if not m.size:
        return np.zeros(n)
    s = np.ascontiguousarray(m.T)
    e = np.zeros((max(r - 1, 1), n))
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.abs(s).max(axis=0) < 2.0 ** 1000 / r
        while len(s) > 1:
            h = len(s) // 2
            a, b = s[:h], s[h:2 * h]
            t = a + b
            z = t - a
            # e = (a - (t - z)) + (b - z), written into its block of e.
            ek = e[k:k + h]
            np.subtract(t, z, out=ek)
            np.subtract(a, ek, out=ek)
            np.subtract(b, z, out=z)
            ek += z
            k += h
            # An odd last row is carried over to the next level.
            s = np.concatenate((t, s[2 * h:])) if len(s) % 2 else t
        c = e.sum(axis=0)
        delta = np.abs(e, out=e).sum(axis=0)
        delta *= 4 * (r + 1) * 2.0 ** -53
        delta += r * 2.0 ** -1074
        s0 = s[0]
        res = s0 + c
        z = res - s0
        f = (s0 - (res - z)) + (c - z)
        ok = (np.abs(f) + delta < 0.5 * np.abs(res - np.nextafter(res, 0.0))) & small
    for i in np.flatnonzero(~ok):
        res[i] = math.fsum(m[i].tolist())
    return res
