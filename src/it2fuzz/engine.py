"""Closed-form interval type-2 inference.

``ClosedFormEngine`` binds a rule base to an ``EngineConfig`` and runs
each inference in three short steps: per-input membership bounds,
per-rule firing intervals (product t-norm), and a single weighted-average
formula that goes straight from firing intervals to a crisp output.  No
output-domain discretization is involved; the discretized counterparts
live in the reference module.

The engine flattens the partitions into one table row per (input, set)
and reads each rule's antecedent as row indices into it.  On its first
call, ``infer`` or ``fire`` compiles a straight-line function for that
layout: one block per table row's bounds (mf's one formula), one product
per rule read left to right, and the form's sums through ``math.fsum``
over tuples.  These are the float operations, in the same order, of the
plain loop kept in ``tests/oracles.py``, so the results agree bit for
bit; without the loop's appends, index loops and generators an inference
costs about half.

* The build is lazy and per function; the batch path (every surface
  export) builds ``infer`` only once a row of it is flagged.
* The source text holds only integer indices and fixed names; every bound
  parameter and consequent is a number global that the engine binds by
  name, so no rule-file value can become code.
* Hence the code depends only on the structure (sets per input,
  antecedents, form, and per table row whether its bounds have ``lo <
  hi``) and sits in a bounded ``functools.lru_cache``; each engine runs it
  with ``exec`` in its own globals dict.

``EngineConfig.form`` picks one of three closed forms:

* ``gc-closed``: band-weighted average, weights upper - lower firing.
* ``gc-closed-split``: variant with separate upper/lower consequent
  centers (reduces to ``gc-closed`` when the two centers coincide).
* ``nt-closed``: sum-weighted average, weights upper + lower firing.

All sums run through ``math.fsum`` so results are exactly rounded; a
sign-symmetric rule base therefore yields bit-exact odd symmetry.

``infer_batches(engines, X)`` runs many input vectors through several
engines at once, one firing pass per rule base and bound source (the
surface export uses it), and equals each engine's ``infer`` bit for bit
on every row.  It computes the regular rows in numpy: bounds are evaluated
once per distinct input value, products and terms are numpy arithmetic
in the same order, and the row sums are numpy error-free transformations
whose result is proven equal to ``math.fsum``'s, with ``math.fsum``
itself on any row the proof does not cover.  Every flagged row comes
from the engine's compiled ``infer``, so the kernel alone defines a
flagged result.  ``infer`` stays the path for serial callers such as the
pendulum loop, where a one-row batch would cost more than the inference.

Degenerate cases are flagged, never raised: a collapsed FOU band falls
back to the upper-firing average, and an input that fires nothing gives
``(0.0, degenerate=True)``.  A non-finite input (NaN or +-inf in any
slot) also gives ``(0.0, degenerate=True)``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .mf import lower_bound, upper_bound
from .rulebase import RuleBase

__all__ = [
    "Form",
    "BoundSource",
    "EngineConfig",
    "FiringInterval",
    "InferenceResult",
    "ClosedFormEngine",
    "infer_batches",
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
    the compiled per-call kernel skips revalidation and evaluates every
    bound inline.
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
        self._fitted = fitted
        self._ante = tuple(r.antecedent for r in rb.rules)
        self._cons = tuple(r.consequent for r in rb.rules)
        self._hull = (min(self._cons), max(self._cons))
        if rb.is_split:
            self._cons_u = tuple(r.consequent_upper for r in rb.rules)
            self._cons_l = tuple(r.consequent_lower for r in rb.rules)

    def _compiled(self, form: Form | None):
        """This engine's ``infer`` of ``form``, or its ``fire`` if ``form`` is
        None: the structure's cached code run in globals of this engine's numbers."""
        ns = {"exp": math.exp, "fsum": math.fsum, "new": tuple.__new__,
              "IR": InferenceResult, "FI": FiringInterval, "EPS": DEGENERATE_EPSILON,
              "NOFIRE": InferenceResult(0.0, True), "CLO": self._hull[0],
              "CHI": self._hull[1]}
        bounds = [s.bounds(self._fitted) for p in self.rb.partitions for s in p.sets]
        for k, pair in enumerate(bounds):
            for b, params in zip("ul", pair):
                ns.update(zip((f"{b}m{k}", f"{b}h{k}", f"{b}sg{k}", f"{b}sc{k}"), params))
        ns.update((f"c{r}", c) for r, c in enumerate(self._cons))
        if form is Form.GC_CLOSED_SPLIT:
            ns.update((f"cu{r}", c) for r, c in enumerate(self._cons_u))
            ns.update((f"cl{r}", c) for r, c in enumerate(self._cons_l))
        wide = tuple(u[0] < u[1] or l[0] < l[1] for u, l in bounds)
        exec(_kernel_code(self.rb.shape, self._ante, wide, form), ns)
        return ns["fire" if form is None else "infer"]

    @functools.cached_property
    def _infer(self) -> Callable[[Sequence[float]], InferenceResult]:
        return self._compiled(self.cfg.form)

    @functools.cached_property
    def _fire(self) -> Callable[[Sequence[float]], list[FiringInterval]]:
        return self._compiled(None)

    def fire(self, x: Sequence[float]) -> list[FiringInterval]:
        """Per-rule firing intervals at input vector x, in rule order."""
        return self._fire(x)

    def infer(self, x: Sequence[float]) -> InferenceResult:
        """Crisp output of the configured closed form at input vector x."""
        return self._infer(x)

    def _firing_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, n_rules) upper and lower firing, equal to ``fire`` row by row."""
        ups = los = None
        ante_cols = np.array(self._ante, dtype=np.intp).reshape(-1, self._n_inputs).T
        for part, col, ante in zip(self.rb.partitions, X.T, ante_cols):
            # -0.0 and 0.0 share an entry: their bounds are bit-identical, as
            # only x - clamp and z * z reach exp.  Non-finite rows end up in
            # the compiled infer whatever their entry holds.
            keys, inverse = np.unique(col, return_inverse=True)
            xs = keys[:, None]
            # Rows lo, hi, sigma, scale; one column per set.
            bounds = np.array([s.bounds(self._fitted) for s in part.sets])
            upper, lower = bounds.transpose(1, 2, 0)
            with np.errstate(over="ignore"):
                mu = upper_bound(xs, *upper, exp=_exp)
                ml = lower_bound(xs, *lower, exp=_exp)
            u = mu[:, ante][inverse]
            l = ml[:, ante][inverse]
            # Left to right as in the kernel's products.
            ups = u if ups is None else ups * u
            los = l if los is None else los * l
        return ups, los


def infer_batches(engines: Sequence[ClosedFormEngine],
                  X) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each engine's ``infer`` over the rows of an (N, n_inputs) array X.

    Returns one ``(values, degenerate)`` pair per engine, in order: a
    float array and a bool array of length N, equal to ``infer(row)``'s
    value and flag on every row, bit for bit.

    Firing depends only on the rule base and the bound source, so engines
    that hold the same rule base object and bound source share one
    ``_firing_batch(X)``, and within such a group the gc forms share one
    denominator (their weights are both ``upper - lower``).  Each engine
    then reduces the shared arrays with its own form.

    Only regular rows, whose denominator is above ``DEGENERATE_EPSILON``,
    are computed here: each distinct value of each input column is put
    through the same bound formula the per-call path uses, the per-rule
    products and the form's terms are elementwise numpy arithmetic in the
    per-call order, and every row sum equals ``math.fsum``'s
    (``_row_fsum``), so no result depends on how rows are batched or
    engines grouped.  Every other row (a collapsed band, no firing or a
    non-finite input) is that engine's compiled ``infer`` of the row.

    The gain comes from rows sharing column values, as on a Cartesian
    grid, where each bound runs once per axis value instead of once per
    row, and from engines sharing a rule base and bound source.  Rows with
    all-distinct values gain only the vectorised products and terms, and
    pay for the sort that finds the distinct values; flagged rows run at
    per-call speed.
    """
    if not engines:
        return []
    X = np.asarray(X, dtype=float)
    for e in engines:
        if X.ndim != 2 or X.shape[1] != e._n_inputs:
            raise ValueError(
                f"expected an (N, {e._n_inputs}) array, got shape {X.shape}")
    groups: dict[tuple[int, bool], list[int]] = {}
    for k, e in enumerate(engines):
        groups.setdefault((id(e.rb), e._fitted), []).append(k)
    results: list = [None] * len(engines)
    for members in groups.values():
        ups, los = engines[members[0]]._firing_batch(X)
        shared = {}  # nt or not -> (weights, row sums)
        for k in members:
            e = engines[k]
            nt = e.cfg.form is Form.NT_CLOSED
            if nt not in shared:
                weights = ups + los if nt else ups - los
                shared[nt] = weights, _row_fsum(weights)
            weights, den = shared[nt]
            ok = den > DEGENERATE_EPSILON
            split = e.cfg.form is Form.GC_CLOSED_SPLIT
            if split:
                terms = np.hstack((np.array(e._cons_u) * ups[ok],
                                   -np.array(e._cons_l) * los[ok]))
            else:
                terms = np.array(e._cons) * weights[ok]
            with np.errstate(over="ignore"):  # a split value can reach inf, as in the kernel
                v = _row_fsum(terms) / den[ok]
            if not split:
                # The kernel's clamp into the consequent hull.
                lo, hi = e._hull
                v[v < lo] = lo
                v[v > hi] = hi
            values = np.zeros(len(X))
            values[ok] = v
            degenerate = ~ok
            for i in np.flatnonzero(degenerate).tolist():
                values[i], degenerate[i] = e._infer(X[i].tolist())
            results[k] = values, degenerate
    return results


def _exp(a: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element: ``np.exp`` can differ in the last bit."""
    return np.fromiter(map(math.exp, a.ravel().tolist()), float, a.size).reshape(a.shape)


@functools.lru_cache(maxsize=64)
def _kernel_code(shape: tuple[int, ...], ante: tuple[tuple[int, ...], ...],
                 wide: tuple[bool, ...], form: Form | None):
    """The compiled ``infer`` of ``form``, or ``fire`` if ``form`` is None,
    for one rule-base structure: ``shape`` (sets per input), ``ante`` (each
    rule's antecedent) and ``wide`` (whether each table row's bounds have
    ``lo < hi``).  Row k's bound parameters (``um<k>``, ``uh<k>``, ``usg<k>``,
    ``usc<k>``, ``lm<k>``, ...) and the consequents (``c<r>``, ``cu<r>``,
    ``cl<r>``) are number globals that each engine binds, so engines of one
    structure share this code object.
    """
    n = len(shape)
    # One table row k per (input, set), inputs in order; each rule reads
    # its bounds by row index.
    table = [i for i, m in enumerate(shape) for _ in range(m)]
    offsets = tuple(itertools.accumulate(shape[:-1], initial=0))
    rows = [[int(o + a) for o, a in zip(offsets, ant)] for ant in ante]
    rules = range(len(rows))
    head = [f"if len(x) != {n}:",
            f"    raise ValueError(f'expected {n} inputs, got {{len(x)}}')",
            "".join(f"x{i}, " for i in range(n)) + "= x"]
    # mf's formula: the upper mean is x clamped into [um, uh] (min(max())
    # without the calls), the lower mean the farther of lm and lh.
    for k, i in enumerate(table):
        if wide[k]:
            zu = [f"z = (x{i} - (um{k} if x{i} < um{k} else uh{k} if x{i} > uh{k}"
                  f" else x{i})) / usg{k}"]
            zl = [f"zl = (x{i} - lm{k}) / lsg{k}", f"zh = (x{i} - lh{k}) / lsg{k}",
                  "z = zl if zl * zl >= zh * zh else zh"]
        else:
            zu, zl = [f"z = (x{i} - um{k}) / usg{k}"], [f"z = (x{i} - lm{k}) / lsg{k}"]
        head += [*zu, f"mu{k} = usc{k} * exp(-0.5 * z * z)",
                 *zl, f"ml{k} = lsc{k} * exp(-0.5 * z * z)"]
    # Products left to right (a loop's ``u *= us[k]`` from 1.0, whose
    # leading ``1.0 *`` is exact).
    for r, row in enumerate(rows):
        head += [f"u{r} = " + " * ".join(f"mu{k}" for k in row),
                 f"l{r} = " + " * ".join(f"ml{k}" for k in row)]

    def tup(*fmts: str) -> str:
        """A tuple display of each format filled in for every rule r."""
        return "(" + "".join(f.format(r=r) + ", " for f in fmts for r in rules) + ")"

    # A NaN input makes every sum NaN, and NaN fails every comparison:
    # each test is written so that it lands in the flagged branch.
    # fl(c * w) / w can round one ulp past c when one rule carries all the
    # weight, so a gc or nt value is clamped into the hull [CLO, CHI] of
    # the consequents; a value inside it, or a NaN, passes unchanged.
    clamp = "return new(IR, (CLO if v < CLO else CHI if v > CHI else v, False))"
    if form is None:
        body = [f"return [{', '.join(f'new(FI, (l{r}, u{r}))' for r in rules)}]"]
    else:
        # Every form is a weighted average: weights u + l (nt) or u - l (gc).
        nt, split = form is Form.NT_CLOSED, form is Form.GC_CLOSED_SPLIT
        w, c = "s" if nt else "d", "cu" if split else "c"
        body = [f"{w}{r} = u{r} {'+' if nt else '-'} l{r}" for r in rules]
        body += [f"den = fsum({tup(w + '{r}')})", "if not den > EPS:"]
        # nt's weights vanish only with the firing; a collapsed gc band falls
        # back to the upper-firing average.
        body += ["    return NOFIRE"] if nt else [
            f"    uden = fsum({tup('u{r}')})", "    if not uden > EPS:", "        return NOFIRE",
            f"    return new(IR, (fsum({tup(c + '{r} * u{r}')}) / uden, True))"]
        terms = tup("cu{r} * u{r}", "-cl{r} * l{r}") if split else tup(c + "{r} * " + w + "{r}")
        body += ([f"return new(IR, (fsum({terms}) / den, False))"] if split
                 else [f"v = fsum({terms}) / den", clamp])
    name = "fire" if form is None else "infer"
    source = "\n".join([f"def {name}(x):"] + [f"    {line}" for line in head + body])
    return compile(source, "<it2fuzz kernel>", "exec")


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
