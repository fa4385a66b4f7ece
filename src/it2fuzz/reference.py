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

The output grid spans the consequent hull with margins of 50 consequent
widths (``_output_grid``), so any rule base that passes validation fits.

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
]


class ZeroArea(ArithmeticError):
    """The FOU band has (numerically) zero area, so its centroid is undefined."""


@dataclass(frozen=True)
class RefConfig:
    """Grid size and consequent width of the discretized pipeline.

    The grid's ends come from the consequent centers (``_output_grid``):
    for the demo's, the default is 10001 points over [-1.5, 1.5], about 33
    inside one consequent width, plenty for the rectangle-rule sums here.
    """

    grid_points: int = 10001
    consequent_width: float = 0.01

    def __post_init__(self) -> None:
        if isinstance(self.grid_points, bool) or not isinstance(self.grid_points, int):
            raise ValueError(f"grid_points must be an int, got {self.grid_points!r}")
        if not 0.0 < self.consequent_width < math.inf:
            raise ValueError("consequent_width must be positive and finite")


@functools.lru_cache(maxsize=4)
def _output_grid(centers: tuple[float, ...], ref: RefConfig
                 ) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """The output grid ``ys``, one unit-height Gaussian consequent row per
    center on it, both read-only, and each row's nonzero span ``(a, b)``.

    The grid runs from ``min(centers) - 50 w`` to ``max(centers) + 50 w``,
    ``w`` the consequent width: fifty widths out a row has underflowed to
    exactly 0.0, so no implied set is cut off at an end.  A ValueError is
    raised unless the spacing ``(hi - lo) / (grid_points - 1)`` is at most
    ``w``, which puts a grid point within ``w / 2`` of every center, so no
    row is all zeros and every span is non-empty.

    They depend only on the arguments, so engines over the same centers and
    grid share them; the few most recent layouts are kept.  A -0.0 and
    a 0.0 center share an entry: a center reaches ``exp`` only through
    ``z * z``, and the hull's ends only through a nonzero difference, so
    both give the same grid and row.  ``row[:a]`` and ``row[b:]`` hold only
    zeros.
    """
    w = ref.consequent_width
    lo, hi = min(centers) - 50.0 * w, max(centers) + 50.0 * w
    if not hi - lo <= w * (ref.grid_points - 1):
        raise ValueError(
            f"consequent centers {min(centers)} to {max(centers)} need a grid spacing"
            f" of at most the consequent width {w}: {ref.grid_points} points"
            f" over ({lo}, {hi}) are too few")
    ys = np.linspace(lo, hi, ref.grid_points)
    z = (ys[None, :] - np.asarray(centers)[:, None]) / w
    gmat = np.exp(-0.5 * z * z)
    ys.flags.writeable = False
    gmat.flags.writeable = False
    spans = []
    for row in gmat:
        nonzero = np.flatnonzero(row)
        spans.append((int(nonzero[0]), int(nonzero[-1]) + 1))
    return ys, gmat, tuple(spans)


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


_last_curves = None  # (gmat, firing, (upper, lower)) of the last sweep


class ReferenceEngine:
    """Discretized twin of ``ClosedFormEngine(rb, cfg)``, same infer(x) surface.

    ``cfg.form`` picks the defuzzifier (``GC_CLOSED`` the band centroid,
    ``NT_CLOSED`` the midline centroid, ``GC_CLOSED_SPLIT`` a ValueError),
    ``cfg.bound_source`` the bounds the rules fire through, ``ref`` the
    grid (a ValueError if too coarse for the centers, see ``_output_grid``).
    ``curves(x)`` gives the output FOU that ``infer(x)`` defuzzifies,
    sampled at ``ys``, in read-only arrays it may share with a twin
    engine's last call.  The consequent matrix is input-independent:
    engines over the same consequent centers and grid share one,
    read-only, as they share the read-only ``ys``, and it is built again
    only once its layout has left the small cache of recent layouts
    (``_output_grid``).  Each infer adds a row only over its
    nonzero span: beyond it the row is exactly 0.0, and adding a finite
    firing times 0.0 to a sum that starts at +0.0 changes no bit, so the
    curves equal a full-row sweep's bit for bit.  A non-finite firing
    sweeps the whole row, as its product with 0.0 is NaN.  A collapsed
    band (gc), an empty midline (nt) or a non-finite input yields a
    flagged zero instead of an exception, mirroring the closed-form
    fallbacks' never-abort policy.
    """

    def __init__(self, rb: RuleBase, cfg: EngineConfig | None = None,
                 ref: RefConfig | None = None):
        cfg = cfg if cfg is not None else EngineConfig()
        if cfg.form is Form.GC_CLOSED_SPLIT:
            raise ValueError("the split form has no reference twin")
        ref = ref if ref is not None else RefConfig()
        self._closed = ClosedFormEngine(rb, cfg)
        centers = [r.consequent for r in rb.rules]
        self.rb = rb
        self.cfg = cfg
        self.ref = ref
        self._centers = centers
        self.ys, self._gmat, self._spans = _output_grid(tuple(centers), ref)

    def curves(self, x: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower output curves at x: firing times consequent rows, summed.

        Both are read-only.  The last sweep is kept, in one assignment, and
        returned again to any engine over the same matrix (``is``: the memo
        holds it, so its id is not reused) at an equal firing (``==``), with
        the same bits: a NaN equals only itself, and a -0.0 equal to 0.0 adds
        -0.0 times a row to sums that start at +0.0, as firing is ``>= 0``.
        """
        global _last_curves
        firing = self._closed.fire(x)
        gmat, spans = self._gmat, self._spans
        if (last := _last_curves) and last[0] is gmat and last[1] == firing:
            return last[2]
        centers = self._centers
        # One fixed accumulation order for both curves: permuting the rule
        # list must not change the result, and using the same order for the
        # upper and the lower curve keeps lower <= upper exact.
        order = sorted(range(len(centers)),
                       key=lambda k: (centers[k], firing[k].lower, firing[k].upper))
        n = gmat.shape[1]
        upper = np.zeros(n)
        lower = np.zeros(n)
        scratch = np.empty(n)
        for k in order:
            lo, up = firing[k]
            a, b = spans[k] if math.isfinite(lo) and math.isfinite(up) else (0, n)
            row, part = gmat[k, a:b], scratch[a:b]
            upper[a:b] += np.multiply(up, row, out=part)
            lower[a:b] += np.multiply(lo, row, out=part)
        upper.flags.writeable = lower.flags.writeable = False
        _last_curves = (gmat, firing, (upper, lower))
        return upper, lower

    def infer(self, x: Sequence[float]) -> InferenceResult:
        upper, lower = self.curves(x)
        curve = upper - lower if self.cfg.form is Form.GC_CLOSED else 0.5 * (upper + lower)
        value = _centroid(self.ys, curve)
        if value is None:
            return InferenceResult(0.0, True)
        return InferenceResult(value, False)
