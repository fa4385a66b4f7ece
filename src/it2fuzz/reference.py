"""Discretized reference pipeline for checking the closed-form engines.

This module does the long way round on purpose: implication of narrow
Gaussian consequent sets onto a dense output grid, aggregation of the
implied curves into an output FOU, and defuzzification by explicit
weighted sums over the grid.  With singleton-like consequents (width well
below the center spacing) the two defuzzifiers converge to the matching
closed forms, which is exactly what the equivalence tests exercise:

* ``coa_defuzz``  (centroid of the FOU band)      <-> ``gc-closed``
* ``nt_defuzz``   (centroid of the band midline)  <-> ``nt-closed``

Firing intervals come from ``ClosedFormEngine.fire``, so both pipelines
share one firing step and differ only in what follows it.

Aggregation accumulates implied curves in a canonical rule order (sorted
by consequent center, then firing), so permuting the rule list cannot
change the output even at the bit level.  The plain ``sum`` join is the
default because it is the one the closed forms are limits of; where
several rules share a consequent center their mass stacks rather than
saturating.  ``sum_clipped`` and ``max`` are available for conventional
grade-bounded aggregation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import BoundSource, ClosedFormEngine, EngineConfig, InferenceResult
from .rulebase import RuleBase

__all__ = [
    "TNorm",
    "Join",
    "RefConfig",
    "SampledCurve",
    "ConsequentSet",
    "build_output_fou",
    "coa_defuzz",
    "nt_defuzz",
    "coa_decomposition_check",
    "ReferenceEngine",
    "ZeroArea",
    "ZeroMass",
    "DomainTooNarrow",
]


class ZeroArea(ArithmeticError):
    """The FOU band has (numerically) zero area, so its centroid is undefined."""


class ZeroMass(ArithmeticError):
    """The midline curve has (numerically) zero mass, so its centroid is undefined."""


class DomainTooNarrow(ValueError):
    """A consequent center sits too close to the output-domain edge."""


class TNorm(str, enum.Enum):
    PRODUCT = "product"
    MIN = "min"


class Join(str, enum.Enum):
    SUM = "sum"
    SUM_CLIPPED = "sum_clipped"
    MAX = "max"


@dataclass(frozen=True)
class RefConfig:
    """Knobs for the discretized pipeline.

    The default grid (10001 points over [-1.5, 1.5]) puts about 33 sample
    points inside one consequent width, plenty for the rectangle-rule
    sums used here.
    """

    t_norm: TNorm = TNorm.PRODUCT
    join: Join = Join.SUM
    grid_points: int = 10001
    domain: tuple[float, float] = (-1.5, 1.5)
    consequent_width: float = 0.01
    bound_source: BoundSource = BoundSource.FITTED
    degenerate_epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if self.grid_points < 101:
            raise ValueError("grid_points must be at least 101")
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"bad output domain ({lo}, {hi})")
        if not self.consequent_width > 0.0:
            raise ValueError("consequent_width must be positive")


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """A curve sampled on a uniform grid over ``domain``."""

    domain: tuple[float, float]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-D curve with at least two samples")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("curve values must be finite and non-negative")

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.values.size)


@dataclass(frozen=True)
class ConsequentSet:
    """Narrow Gaussian output sets, one per rule, sharing a single width."""

    centers: tuple[float, ...]
    width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        if not self.width > 0.0:
            raise ValueError("width must be positive")

    def matrix(self, ys: np.ndarray) -> np.ndarray:
        """One unit-height Gaussian row per center, evaluated on ys."""
        z = (ys[None, :] - np.asarray(self.centers)[:, None]) / self.width
        return np.exp(-0.5 * z * z)


def _check_domain(centers: Sequence[float], ref: RefConfig) -> None:
    lo, hi = ref.domain
    margin = 5.0 * ref.consequent_width
    for c in centers:
        if c - lo < margin or hi - c < margin:
            raise DomainTooNarrow(
                f"consequent center {c} is within {margin} of the domain edge ({lo}, {hi})"
            )


def _canonical_order(centers: Sequence[float], firing) -> list[int]:
    # One fixed accumulation order for both curves: permuting the rule
    # list must not change the result, and using the same order for the
    # upper and the lower curve keeps lower <= upper exact.
    return sorted(range(len(centers)),
                  key=lambda k: (centers[k], firing[k].lower, firing[k].upper))


def _aggregate(levels: Sequence[float], gmat: np.ndarray, order: Sequence[int],
               t_norm: TNorm, join: Join) -> np.ndarray:
    total = np.zeros(gmat.shape[1])
    for k in order:
        if t_norm is TNorm.PRODUCT:
            row = levels[k] * gmat[k]
        else:
            row = np.minimum(levels[k], gmat[k])
        if join is Join.MAX:
            np.maximum(total, row, out=total)
        else:
            total += row
    if join is Join.SUM_CLIPPED:
        np.minimum(total, 1.0, out=total)
    return total


def build_output_fou(rb: RuleBase, ref: RefConfig,
                     x: Sequence[float]) -> tuple[SampledCurve, SampledCurve]:
    """Implied-and-aggregated output FOU at input x.

    Returns (umf_curve, lmf_curve) on the configured grid.  Raises
    DomainTooNarrow if any consequent center sits within five widths of a
    domain edge (its Gaussian would be visibly truncated).
    """
    closed = ClosedFormEngine(rb, EngineConfig(bound_source=ref.bound_source))
    centers = [r.consequent for r in rb.rules]
    _check_domain(centers, ref)
    firing = closed.fire(x)
    cs = ConsequentSet(tuple(centers), ref.consequent_width)
    ys = np.linspace(ref.domain[0], ref.domain[1], ref.grid_points)
    gmat = cs.matrix(ys)
    order = _canonical_order(centers, firing)
    upper = _aggregate([f.upper for f in firing], gmat, order, ref.t_norm, ref.join)
    lower = _aggregate([f.lower for f in firing], gmat, order, ref.t_norm, ref.join)
    return SampledCurve(ref.domain, upper), SampledCurve(ref.domain, lower)


def _require_same_grid(umf: SampledCurve, lmf: SampledCurve) -> None:
    if umf.domain != lmf.domain or umf.values.size != lmf.values.size:
        raise ValueError("curves must share one grid")


def coa_defuzz(umf: SampledCurve, lmf: SampledCurve, epsilon: float = 1e-12) -> float:
    """Centroid of the FOU band by rectangle rule: sum y (u - l) / sum (u - l)."""
    _require_same_grid(umf, lmf)
    band = umf.values - lmf.values
    total = float(band.sum())
    if total <= epsilon:
        raise ZeroArea(f"band area {total:.3e} is at or below epsilon {epsilon:.3e}")
    return float(np.dot(umf.ys, band) / total)


def nt_defuzz(umf: SampledCurve, lmf: SampledCurve, epsilon: float = 1e-12) -> float:
    """Centroid of the band midline (u + l) / 2 by rectangle rule."""
    _require_same_grid(umf, lmf)
    mid = 0.5 * (umf.values + lmf.values)
    total = float(mid.sum())
    if total <= epsilon:
        raise ZeroMass(f"midline mass {total:.3e} is at or below epsilon {epsilon:.3e}")
    return float(np.dot(umf.ys, mid) / total)


def coa_decomposition_check(umf: SampledCurve, lmf: SampledCurve) -> tuple[float, float]:
    """Band centroid two ways: directly, and recombined from full-curve centroids.

    Returns (lhs, rhs) where lhs integrates the band u - l and rhs is
    (C_u A_u - C_l A_l) / (A_u - A_l) built from the centroids and areas
    of the two curves separately.  The two agree up to rounding; when the
    lower curve is identically zero the rhs degenerates to C_u.
    """
    _require_same_grid(umf, lmf)
    ys = umf.ys
    dy = (umf.domain[1] - umf.domain[0]) / (umf.values.size - 1)
    area_u = float(umf.values.sum()) * dy
    area_l = float(lmf.values.sum()) * dy
    cent_u = float(np.dot(ys, umf.values)) * dy / area_u if area_u > 0.0 else 0.0
    cent_l = float(np.dot(ys, lmf.values)) * dy / area_l if area_l > 0.0 else 0.0
    lhs = coa_defuzz(umf, lmf)
    rhs = (cent_u * area_u - cent_l * area_l) / (area_u - area_l)
    return lhs, rhs


class ReferenceEngine:
    """Discretized engine with the same infer(x) surface as the closed forms.

    ``method`` picks the defuzzifier: "gc" for the band centroid, "nt"
    for the midline centroid.  The consequent matrix is input-independent
    and cached at construction; every infer still does its full grid
    sweep.  A collapsed band (gc), an empty midline (nt) or a non-finite
    input yields a flagged zero instead of an exception, mirroring the
    closed-form fallbacks' never-abort policy.
    """

    def __init__(self, rb: RuleBase, ref: RefConfig | None = None, method: str = "gc"):
        if method not in ("gc", "nt"):
            raise ValueError(f"method must be 'gc' or 'nt', got {method!r}")
        ref = ref if ref is not None else RefConfig()
        self._closed = ClosedFormEngine(rb, EngineConfig(bound_source=ref.bound_source))
        centers = [r.consequent for r in rb.rules]
        _check_domain(centers, ref)
        self.rb = rb
        self.ref = ref
        self.method = method
        self._centers = centers
        self._ys = np.linspace(ref.domain[0], ref.domain[1], ref.grid_points)
        self._gmat = ConsequentSet(tuple(centers), ref.consequent_width).matrix(self._ys)

    def infer(self, x: Sequence[float]) -> InferenceResult:
        ref = self.ref
        firing = self._closed.fire(x)
        order = _canonical_order(self._centers, firing)
        upper = _aggregate([f.upper for f in firing], self._gmat, order,
                           ref.t_norm, ref.join)
        lower = _aggregate([f.lower for f in firing], self._gmat, order,
                           ref.t_norm, ref.join)
        if self.method == "gc":
            band = upper - lower
            total = float(band.sum())
            if not total > ref.degenerate_epsilon:  # NaN too
                return InferenceResult(0.0, True)
            return InferenceResult(float(np.dot(self._ys, band) / total), False)
        mid = 0.5 * (upper + lower)
        total = float(mid.sum())
        if not total > ref.degenerate_epsilon:  # NaN too
            return InferenceResult(0.0, True)
        return InferenceResult(float(np.dot(self._ys, mid) / total), False)
