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
  export) builds ``infer`` only once a row of it needs the kernel.
* The source text holds only integer indices and fixed names; every bound
  parameter and consequent is a number global, bound by the names the
  generator lists, so no rule-file value can become code.
* Hence the code depends only on the structure (sets per input,
  antecedents, form, and per table row whether its bounds have ``lo <
  hi``) and sits in a bounded ``functools.lru_cache``; each engine runs it
  with ``exec`` in its own globals dict.

``EngineConfig.form`` picks one of three closed forms, each a weighted
average of one consequent vector, chosen once when the engine is built
(the kernel, the batch path and the reference twin all read it):

* ``gc-closed``: each rule's ``b``, weights upper - lower firing.
* ``gc-closed-split``: every ``b_upper`` then every ``b_lower``, weights
  upper and -lower firing (``gc-closed`` when the two centers coincide).
* ``nt-closed``: each rule's ``b``, weights upper + lower firing.

All sums run through ``math.fsum`` so results are exactly rounded; a
sign-symmetric rule base therefore yields bit-exact odd symmetry.  A gc
or nt value is clamped into the consequent hull; the split form has no
hull yet.

``infer_batches(engines, X)`` runs many input vectors through several
engines at once, one group of engines sharing a rule base and bound source
at a time (the surface export uses it), and equals each engine's ``infer``
bit for bit on every row.  It computes the regular rows in numpy: bounds
are evaluated once per distinct input value, products and terms are numpy
arithmetic in the same order, and each row sum is one error-free split of
the row (Rump, Ogita & Oishi 2008; ``2**M >= r + 2`` for ``r`` entries)
certified equal to ``math.fsum``'s (Ogita, Rump & Oishi 2005), with
``math.fsum`` itself on any row the certificate does not cover.  Every row
flagged or not inside the hull comes from the engine's compiled ``infer``:
the kernel alone flags and clamps.  ``infer`` stays the path for serial
callers such as the pendulum loop, where a one-row batch costs more.

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


# The kernel's globals that are the same for every engine.
_FIXED_GLOBALS = {"exp": math.exp, "fsum": math.fsum, "new": tuple.__new__,
                  "IR": InferenceResult, "FI": FiringInterval, "EPS": DEGENERATE_EPSILON,
                  "NOFIRE": InferenceResult(0.0, True)}


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
        if fitted and any(s.fitted_umf is None for p in rb.partitions for s in p.sets):
            raise ValueError(
                "fitted bounds requested but not attached; call IT2Gaussian.fit() first"
            )
        self.rb = rb
        self.cfg = cfg
        self._n_inputs = rb.n_inputs
        self._fitted = fitted
        self._ante = tuple(r.antecedent for r in rb.rules)
        # The consequents the form reads, in the kernel's order, and its clamp;
        # the split form has no hull yet (ROADMAP, Fix first 1).
        if cfg.form is Form.GC_CLOSED_SPLIT:
            self._cons = (*(r.consequent_upper for r in rb.rules),
                          *(r.consequent_lower for r in rb.rules))
            self._hull = (-math.inf, math.inf)
        else:
            self._cons = tuple(r.consequent for r in rb.rules)
            self._hull = (min(self._cons), max(self._cons))

    def _compiled(self, form: Form | None):
        """This engine's ``infer`` of ``form``, or its ``fire`` if ``form`` is
        None: the structure's cached code run in globals of this engine's numbers."""
        bounds = [s.bounds(self._fitted) for p in self.rb.partitions for s in p.sets]
        wide = tuple(u[0] < u[1] or l[0] < l[1] for u, l in bounds)
        code, names = _kernel_code(self.rb.shape, self._ante, wide, form)
        cons = () if form is None else self._cons
        values = itertools.chain(self._hull, *itertools.chain(*bounds), cons)
        ns = {**_FIXED_GLOBALS, **dict(zip(names, values, strict=True))}
        exec(code, ns)
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
    that hold the same rule base object and bound source form a group, and
    the groups run one at a time, in the order of their first engines.  A
    group fires once (``_firing_batch(X)``), its gc forms share one
    denominator (of ``upper - lower``) and its nt forms another, and its
    arrays are dropped before the next group fires.

    Only regular rows, whose denominator is above ``DEGENERATE_EPSILON``
    and whose value lies inside the engine's hull, are kept from here: each
    distinct value of each input column is put through the same bound
    formula the per-call path uses, the per-rule products and the form's
    terms are elementwise numpy arithmetic in the per-call order, and every
    row sum equals ``math.fsum``'s (``_row_fsum``), so no result depends on
    how rows are batched or engines grouped.  Every other row is that
    engine's compiled ``infer`` of the row: the kernel alone flags and clamps.

    The gain comes from rows sharing column values, as on a Cartesian
    grid, where each bound runs once per axis value instead of once per
    row, and from engines sharing a group.  Rows with all-distinct values
    gain only the vectorised products and terms and pay for the sort that
    finds the distinct values; flagged rows run at per-call speed.
    """
    X = np.asarray(X, dtype=float)
    for e in engines:
        if X.ndim != 2 or X.shape[1] != e._n_inputs:
            raise ValueError(f"expected an (N, {e._n_inputs}) array, got shape {X.shape}")
    groups, results = {}, [None] * len(engines)
    for i, e in enumerate(engines):
        groups.setdefault((id(e.rb), e._fitted), []).append((i, e))
    for members in groups.values():
        ups, los = members[0][1]._firing_batch(X)
        shared = {}
        for i, e in members:
            nt = e.cfg.form is Form.NT_CLOSED
            if nt not in shared:
                weights = ups + los if nt else ups - los
                shared[nt] = weights, _row_fsum(weights)
            weights, den = shared[nt]
            ok = den > DEGENERATE_EPSILON
            split = e.cfg.form is Form.GC_CLOSED_SPLIT  # c * -l is -c * l, bit for bit
            terms = np.array(e._cons) * (np.hstack((ups[ok], -los[ok])) if split else weights[ok])
            with np.errstate(over="ignore"):  # a split value can reach inf, as in the kernel
                v = _row_fsum(terms) / den[ok]
            values = np.zeros(len(X))
            values[ok] = v
            # A value not inside the hull (a NaN too) is left to the kernel's clamp.
            lo, hi = e._hull
            degenerate = ~(ok & (lo <= values) & (values <= hi))
            for j in np.flatnonzero(degenerate).tolist():
                values[j], degenerate[j] = e._infer(X[j].tolist())
            results[i] = values, degenerate
        del ups, los, shared, weights, terms  # before the next group fires
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
    ``lo < hi``), with the names of the number globals each engine binds,
    in order: ``CLO``, ``CHI``, row k's upper then lower bounds (``um<k>``,
    ``uh<k>``, ``usg<k>``, ``usc<k>``, ``lm<k>``, ...), and the consequents
    the form reads (``c<r>``, or ``cu<r>`` then ``cl<r>``).
    """
    n = len(shape)
    # One table row k per (input, set), inputs in order; each rule reads
    # its bounds by row index.
    table = [i for i, m in enumerate(shape) for _ in range(m)]
    offsets = tuple(itertools.accumulate(shape[:-1], initial=0))
    rows = [[int(o + a) for o, a in zip(offsets, ant)] for ant in ante]
    rules = range(len(rows))
    names = ["CLO", "CHI", *(f"{b}{p}{k}" for k in range(len(table))
                             for b in "ul" for p in ("m", "h", "sg", "sc"))]
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

    if form is None:
        body = [f"return [{', '.join(f'new(FI, (l{r}, u{r}))' for r in rules)}]"]
    else:
        # Every form is a weighted average: weights u + l (nt) or u - l (gc).
        nt, split = form is Form.NT_CLOSED, form is Form.GC_CLOSED_SPLIT
        w, c = "s" if nt else "d", "cu" if split else "c"
        names += [f"{cons}{r}" for cons in (("cu", "cl") if split else "c") for r in rules]
        body = [f"{w}{r} = u{r} {'+' if nt else '-'} l{r}" for r in rules]
        # A NaN input makes every sum NaN, and NaN fails every comparison:
        # each test is written so that it lands in the flagged branch.
        body += [f"den = fsum({tup(w + '{r}')})", "if not den > EPS:"]
        # nt's weights vanish only with the firing; a collapsed gc band falls
        # back to the upper-firing average.
        body += ["    return NOFIRE"] if nt else [
            f"    uden = fsum({tup('u{r}')})", "    if not uden > EPS:", "        return NOFIRE",
            f"    return new(IR, (fsum({tup(c + '{r} * u{r}')}) / uden, True))"]
        terms = tup("cu{r} * u{r}", "-cl{r} * l{r}") if split else tup(c + "{r} * " + w + "{r}")
        # fl(c * w) / w can round one ulp past c when one rule carries all the
        # weight, so a value is clamped into the hull [CLO, CHI] of the
        # consequents (the split form's is (-inf, inf)); a NaN passes unchanged.
        body += [f"v = fsum({terms}) / den",
                 "return new(IR, (CLO if v < CLO else CHI if v > CHI else v, False))"]
    name = "fire" if form is None else "infer"
    source = "\n".join([f"def {name}(x):"] + [f"    {line}" for line in head + body])
    return compile(source, "<it2fuzz kernel>", "exec"), tuple(names)


def _row_fsum(m: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit, mostly in numpy.

    One error-free split (ExtractVector, the first step of AccSum: Rump,
    Ogita & Oishi, "Accurate floating-point summation part I: faithful
    rounding", 2008): for a row of ``r`` entries whose largest magnitude
    is below ``2**e``, and ``2**M >= r + 2``, ``sigma = 2**(e + M)`` gives
    ``q = (m + sigma) - sigma`` and ``p = m - q``, both exact (Sterbenz;
    an addition's rounding error is a float).  Rounding is monotone, so
    ``|q| <= 2**-M * sigma``, and each ``q`` is a multiple of the float
    spacing on ``[sigma/2, sigma]``: every partial sum of the ``q`` is such
    a multiple below ``sigma``, a float, so ``tau = sum(q)`` is exact in
    any order.  Additions are exact under gradual underflow, so this holds
    for subnormal rows too.

    The certificate (Ogita, Rump & Oishi, "Accurate sum and dot product",
    2005): ``c = sum(p)`` in plain float64 is off the exact ``sum(p)`` by at
    most ``(r-1)u * sum|p|`` (u = 2**-53) in any order, since additions
    whose result is subnormal are exact; ``delta = 4(r+1)u * A + r *
    2**-1074``, with ``A`` the float sum of ``|p|``, covers that and its own
    rounding, the second term keeping it from underflowing to 0.  Then
    ``res, f = TwoSum(tau, c)`` puts the exact sum within ``|f| + delta`` of
    ``res``.  Where that is strictly below half the gap from ``res`` to its
    neighbour toward zero (the smaller of its two gaps, so powers of two
    are safe; rounding is monotone, so the float comparison cannot pass
    when the exact one fails), the exact sum lies inside ``res``'s rounding
    interval and ``res`` is the correctly rounded sum, which is what
    ``fsum`` returns.  A row is certified only when every entry is below
    ``2**1000 / r`` in magnitude, so neither ``sigma`` nor ``fsum``'s
    partials can overflow.

    Every other row is summed by ``math.fsum`` itself: zero results
    (whose gap is 0, which also covers signed zeros), NaN and infinite
    entries (their comparisons are false), near-ties and heavy
    cancellation all land there by construction.
    """
    n, r = m.shape
    if not m.size:
        return np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.abs(m)
        # reduceat and einsum: one loop per matrix, not per row: ~2x on short rows.
        amax = np.maximum.reduceat(q.ravel(), np.arange(0, m.size, r))
        small = amax < 2.0 ** 1000 / r
        # amax < 2**e, and M = (r + 1).bit_length() is the least M with 2**M >= r + 2.
        sigma = np.ldexp(1.0, np.frexp(amax)[1] + (r + 1).bit_length())[:, None]
        np.add(m, sigma, out=q)
        q -= sigma
        tau = np.einsum("ij->i", q)
        p = np.subtract(m, q, out=q)
        c = np.einsum("ij->i", p)
        delta = np.einsum("ij->i", np.abs(p, out=p))
        delta *= 4 * (r + 1) * 2.0 ** -53
        delta += r * 2.0 ** -1074
        res = tau + c
        z = res - tau
        f = (tau - (res - z)) + (c - z)
        ok = (np.abs(f) + delta < 0.5 * np.abs(res - np.nextafter(res, 0.0))) & small
    for i in np.flatnonzero(~ok):
        res[i] = math.fsum(m[i].tolist())
    return res
