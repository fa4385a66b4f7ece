"""Discretized reference pipeline for checking the closed-form engines.

This module does the long way round on purpose: implication of narrow
Gaussian consequent sets onto a dense output grid, aggregation of the
implied curves into an output FOU, and defuzzification by explicit
weighted sums over the grid.  With singleton-like consequents (width well
below the center spacing) the two defuzzifiers converge to the matching
closed forms, which is exactly what the equivalence tests exercise.  A
twin pair is one ``EngineConfig``: ``ReferenceEngine(rb, cfg)`` checks
``ClosedFormEngine(rb, cfg)`` and fires through it, so both pipelines
share one firing step and differ only in what follows it.  There is no
twin of ``Form.GC_CLOSED_SPLIT`` yet.

Aggregation accumulates implied curves in a canonical rule order (sorted
by consequent center, then firing), so permuting the rule list cannot
change the output even at the bit level.  The join is a plain sum, the
one the closed forms are limits of: where several rules share a
consequent center their mass stacks rather than saturating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import DEGENERATE_EPSILON, ClosedFormEngine, EngineConfig, Form, InferenceResult
from .rulebase import RuleBase

__all__ = [
    "RefConfig",
    "coa_decomposition_check",
    "ReferenceEngine",
    "ZeroArea",
    "DomainTooNarrow",
]


class ZeroArea(ArithmeticError):
    """The FOU band has (numerically) zero area, so its centroid is undefined."""


class DomainTooNarrow(ValueError):
    """A consequent center sits too close to the output-domain edge."""


@dataclass(frozen=True)
class RefConfig:
    """The sampling grid of the discretized pipeline.

    The default grid (10001 points over [-1.5, 1.5]) puts about 33 sample
    points inside one consequent width, plenty for the rectangle-rule
    sums used here.  The domain is kept as a tuple of floats, so a config
    is hashable and keys the shared grid cache.
    """

    grid_points: int = 10001
    domain: tuple[float, float] = (-1.5, 1.5)
    consequent_width: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(float(v) for v in self.domain))
        if self.grid_points < 101:
            raise ValueError("grid_points must be at least 101")
        lo, hi = self.domain
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"output domain must be finite and not empty, got ({lo}, {hi})")
        if not 0.0 < self.consequent_width < math.inf:
            raise ValueError("consequent_width must be positive and finite")


def _check_domain(centers: Sequence[float], ref: RefConfig) -> None:
    lo, hi = ref.domain
    margin = 5.0 * ref.consequent_width
    for c in centers:
        if c - lo < margin or hi - c < margin:
            raise DomainTooNarrow(
                f"consequent center {c} is within {margin} of the domain edge ({lo}, {hi})"
            )


@functools.lru_cache(maxsize=4)
def _output_grid(centers: tuple[float, ...], ref: RefConfig) -> tuple[np.ndarray, np.ndarray]:
    """The output grid ``ys`` and one unit-height Gaussian consequent row per
    center on it, both read-only.

    They depend only on the arguments, so engines over the same centers and
    grid share one pair; the few most recent layouts are kept.  A -0.0 and
    a 0.0 center share an entry: a center reaches ``exp`` only through
    ``z * z``, so both give the same row.
    """
    ys = np.linspace(ref.domain[0], ref.domain[1], ref.grid_points)
    z = (ys[None, :] - np.asarray(centers)[:, None]) / ref.consequent_width
    gmat = np.exp(-0.5 * z * z)
    ys.flags.writeable = False
    gmat.flags.writeable = False
    return ys, gmat


def _centroid(ys: np.ndarray, curve: np.ndarray) -> float | None:
    """Rectangle-rule centroid sum(y c) / sum(c), or None when the mass
    sum(c) is not above DEGENERATE_EPSILON (a NaN mass included)."""
    total = float(curve.sum())
    if not total > DEGENERATE_EPSILON:
        return None
    return float(np.dot(ys, curve) / total)


def coa_decomposition_check(ys: np.ndarray, upper: np.ndarray,
                            lower: np.ndarray) -> tuple[float, float]:
    """Band centroid two ways: directly, and recombined from full-curve centroids.

    ``upper`` and ``lower`` are curves sampled at ``ys``, such as
    ``ReferenceEngine.curves(x)`` at ``ReferenceEngine.ys``.  Returns
    (lhs, rhs) where lhs is the band u - l's centroid, as the gc-closed
    twin ``ReferenceEngine(rb)`` computes it, and rhs is (C_u A_u -
    C_l A_l) / (A_u - A_l) built from the centroids and areas of the two
    curves separately.  The two agree up to rounding; when the lower curve
    is identically zero the rhs degenerates to C_u.  Raises ZeroArea when
    the band area is not above DEGENERATE_EPSILON.
    """
    lhs = _centroid(ys, upper - lower)
    if lhs is None:
        raise ZeroArea(f"band area is not above {DEGENERATE_EPSILON:.3e}")
    area_u = float(upper.sum())
    area_l = float(lower.sum())
    cent_u = float(np.dot(ys, upper)) / area_u if area_u > 0.0 else 0.0
    cent_l = float(np.dot(ys, lower)) / area_l if area_l > 0.0 else 0.0
    rhs = (cent_u * area_u - cent_l * area_l) / (area_u - area_l)
    return lhs, rhs


class ReferenceEngine:
    """Discretized twin of ``ClosedFormEngine(rb, cfg)``, same infer(x) surface.

    ``cfg.form`` picks the defuzzifier (``GC_CLOSED`` the band centroid,
    ``NT_CLOSED`` the midline centroid, ``GC_CLOSED_SPLIT`` a ValueError),
    ``cfg.bound_source`` the bounds the rules fire through, ``ref`` the
    grid.  ``curves(x)`` gives the output FOU that ``infer(x)``
    defuzzifies, sampled at ``ys``.  The consequent matrix is
    input-independent: engines over the same consequent centers and grid
    share one, read-only, as they share the read-only ``ys``, and it is
    built again only once its layout has left the small cache of recent
    layouts (``_output_grid``).  Every infer still does its full grid
    sweep.  A collapsed band (gc), an empty midline (nt) or
    a non-finite input yields a flagged zero instead of an exception,
    mirroring the closed-form fallbacks' never-abort policy.
    """

    def __init__(self, rb: RuleBase, cfg: EngineConfig | None = None,
                 ref: RefConfig | None = None):
        cfg = cfg if cfg is not None else EngineConfig()
        if cfg.form is Form.GC_CLOSED_SPLIT:
            raise ValueError("the split form has no reference twin")
        ref = ref if ref is not None else RefConfig()
        self._closed = ClosedFormEngine(rb, cfg)
        centers = [r.consequent for r in rb.rules]
        _check_domain(centers, ref)
        self.rb = rb
        self.cfg = cfg
        self.ref = ref
        self._centers = centers
        self.ys, self._gmat = _output_grid(tuple(centers), ref)

    def curves(self, x: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower output curves at x: firing times consequent rows, summed."""
        firing = self._closed.fire(x)
        centers = self._centers
        # One fixed accumulation order for both curves: permuting the rule
        # list must not change the result, and using the same order for the
        # upper and the lower curve keeps lower <= upper exact.
        order = sorted(range(len(centers)),
                       key=lambda k: (centers[k], firing[k].lower, firing[k].upper))
        gmat = self._gmat
        upper = np.zeros(gmat.shape[1])
        lower = np.zeros(gmat.shape[1])
        for k in order:
            upper += firing[k].upper * gmat[k]
            lower += firing[k].lower * gmat[k]
        return upper, lower

    def infer(self, x: Sequence[float]) -> InferenceResult:
        upper, lower = self.curves(x)
        curve = upper - lower if self.cfg.form is Form.GC_CLOSED else 0.5 * (upper + lower)
        value = _centroid(self.ys, curve)
        if value is None:
            return InferenceResult(0.0, True)
        return InferenceResult(value, False)
