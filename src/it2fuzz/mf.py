"""Gaussian membership machinery for interval type-2 fuzzy sets.

An interval type-2 fuzzy set is fully described by the band between its
lower and upper membership functions (the footprint of uncertainty, FOU).
Two FOU families are supported: uncertain mean, where the Gaussian center
ranges over [mean_lo, mean_hi] at a fixed width, and uncertain sigma, where
the center is fixed and the width ranges over [sigma_lo, sigma_hi].

Every bound is one formula, ``scale * exp(-z*z / 2)`` with ``z = (x - m) /
sigma`` for a mean ``m`` in [lo, hi] (``IT2Gaussian.bounds``): the upper
bound takes ``x`` clamped into it, a flat top between the extreme means;
the lower the end farther from ``x``, the minimum of the edge Gaussians.
Exact bounds have scale 1 and [lo, hi] = [mean_lo, mean_hi], so uncertain
sigma is the case mean_lo == mean_hi; a fitted ``ScaledGaussian`` is the
case lo == hi == mean.

The exact uncertain-mean bounds are not Gaussian themselves, so
``fit_bounds`` produces scaled-Gaussian stand-ins by least squares, which
the closed-form engines can run on instead of the exact bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ScaledGaussian",
    "IT2Gaussian",
    "UNCERTAIN_MEAN",
    "UNCERTAIN_SIGMA",
    "default_fit_window",
    "fit_bounds",
    "FitDominanceViolated",
]

UNCERTAIN_MEAN = "uncertain_mean"
UNCERTAIN_SIGMA = "uncertain_sigma"

# 1/phi, the golden-section step ratio.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Steps of every golden-section search: 1/phi**67 < 1e-14, so the final
# bracket is narrower than 1e-14 of the searched interval.
_GOLDEN_STEPS = 67


class FitDominanceViolated(ValueError):
    """Fitted lower bound exceeds the fitted upper bound somewhere."""


@dataclass(frozen=True)
class ScaledGaussian:
    """Amplitude-scaled Gaussian ``scale * exp(-((x - mean) / sigma)^2 / 2)``.

    ``scale`` must lie in (0, 1] so the curve is a valid membership
    function; ``mean`` must be finite and ``sigma`` positive and finite.
    """

    mean: float
    sigma: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale}")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of abscissas."""
        z = (np.asarray(xs, dtype=float) - self.mean) / self.sigma
        return self.scale * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class IT2Gaussian:
    """Interval type-2 Gaussian set, either uncertain-mean or uncertain-sigma.

    Use the ``uncertain_mean`` / ``uncertain_sigma`` constructors rather
    than filling the fields directly.  ``fitted_umf`` / ``fitted_lmf``
    hold optional scaled-Gaussian stand-ins for the exact bounds; attach
    them with :meth:`with_fitted` or :meth:`fit`.  Means must be finite and
    sigmas positive and finite.
    """

    kind: str
    mean_lo: float
    mean_hi: float
    sigma_lo: float
    sigma_hi: float
    fitted_umf: ScaledGaussian | None = None
    fitted_lmf: ScaledGaussian | None = None

    def __post_init__(self) -> None:
        if self.kind not in (UNCERTAIN_MEAN, UNCERTAIN_SIGMA):
            raise ValueError(f"unknown FOU kind {self.kind!r}")
        if not (math.isfinite(self.mean_lo) and math.isfinite(self.mean_hi)):
            raise ValueError(f"means must be finite, got {self.mean_lo}, {self.mean_hi}")
        if not self.mean_lo <= self.mean_hi:
            raise ValueError("mean_lo must not exceed mean_hi")
        if not 0.0 < self.sigma_lo <= self.sigma_hi < math.inf:
            raise ValueError("sigmas must satisfy 0 < sigma_lo <= sigma_hi < inf")
        if self.kind == UNCERTAIN_MEAN and self.sigma_lo != self.sigma_hi:
            raise ValueError("uncertain-mean sets use a single sigma")
        if self.kind == UNCERTAIN_SIGMA and self.mean_lo != self.mean_hi:
            raise ValueError("uncertain-sigma sets use a single mean")

    @classmethod
    def uncertain_mean(cls, mean_lo: float, mean_hi: float, sigma: float) -> "IT2Gaussian":
        return cls(UNCERTAIN_MEAN, float(mean_lo), float(mean_hi), float(sigma), float(sigma))

    @classmethod
    def uncertain_sigma(cls, mean: float, sigma_lo: float, sigma_hi: float) -> "IT2Gaussian":
        return cls(UNCERTAIN_SIGMA, float(mean), float(mean), float(sigma_lo), float(sigma_hi))

    @property
    def center(self) -> float:
        return 0.5 * (self.mean_lo + self.mean_hi)

    @property
    def mean_spread(self) -> float:
        """Half-width of the mean interval (zero for uncertain-sigma sets)."""
        return 0.5 * (self.mean_hi - self.mean_lo)

    def bounds(self, fitted: bool = False) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Upper and lower ``(lo, hi, sigma, scale)`` of the exact or the
        attached fitted bounds (see the module doc)."""
        if fitted:
            u, l = self.fitted_umf, self.fitted_lmf
            return (u.mean, u.mean, u.sigma, u.scale), (l.mean, l.mean, l.sigma, l.scale)
        return ((self.mean_lo, self.mean_hi, self.sigma_hi, 1.0),
                (self.mean_lo, self.mean_hi, self.sigma_lo, 1.0))

    def umf_samples(self, xs: np.ndarray) -> np.ndarray:
        return upper_bound(np.asarray(xs, dtype=float), *self.bounds()[0])

    def lmf_samples(self, xs: np.ndarray) -> np.ndarray:
        return lower_bound(np.asarray(xs, dtype=float), *self.bounds()[1])

    def with_fitted(self, umf: ScaledGaussian, lmf: ScaledGaussian) -> "IT2Gaussian":
        """Return a copy with the given fitted bounds attached."""
        return replace(self, fitted_umf=umf, fitted_lmf=lmf)

    def fit(self) -> "IT2Gaussian":
        """Return a copy with bounds from a default ``fit_bounds`` attached."""
        umf, lmf = fit_bounds(self)
        return self.with_fitted(umf, lmf)


def upper_bound(xs: np.ndarray, lo, hi, sigma, scale, exp=np.exp) -> np.ndarray:
    """The upper bound at each of ``xs``; the parameters broadcast."""
    z = (xs - np.clip(xs, lo, hi)) / sigma  # np.clip keeps NaN
    return scale * exp(-0.5 * z * z)


def lower_bound(xs: np.ndarray, lo, hi, sigma, scale, exp=np.exp) -> np.ndarray:
    """The lower bound at each of ``xs``; the parameters broadcast."""
    zl = (xs - lo) / sigma
    zh = (xs - hi) / sigma
    z = np.where(zl * zl >= zh * zh, zl, zh)
    return scale * exp(-0.5 * z * z)


def default_fit_window(m: IT2Gaussian) -> tuple[float, float]:
    """Symmetric fitting window covering the FOU out to three widths.

    Spans ``center +- 3 * (sigma_hi + mean_spread)``, wide enough that the
    residual tails carry no practical weight in the least-squares fit.
    """
    half = 3.0 * (m.sigma_hi + m.mean_spread)
    return (m.center - half, m.center + half)


def lower_within_upper(umf: ScaledGaussian, lmf: ScaledGaussian) -> bool:
    """Whether ``lmf <= umf`` at every real x, decided exactly, without sampling.

    ln(lmf / umf) is a quadratic in x.  With sigma_l < sigma_u it is concave,
    and its maximum ln(s_l / s_u) + (m_l - m_u)^2 / (2 (sigma_u^2 - sigma_l^2))
    must not be above 0; with sigma_l == sigma_u it is linear, so the means
    must be equal and s_l <= s_u; with sigma_l > sigma_u it grows without
    bound.  Equal means reduce every allowed case to s_l <= s_u.
    """
    if lmf.sigma > umf.sigma:
        return False
    if lmf.mean == umf.mean:
        return lmf.scale <= umf.scale
    if lmf.sigma == umf.sigma:
        return False
    gap = lmf.mean - umf.mean
    # The maximum above times 2 (sigma_u^2 - sigma_l^2) > 0, with no division.
    spread = (umf.sigma - lmf.sigma) * (umf.sigma + lmf.sigma)
    return gap * gap <= 2.0 * spread * (math.log(umf.scale) - math.log(lmf.scale))


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section minimum of a unimodal function on [lo, hi].

    Runs ``_GOLDEN_STEPS`` steps and returns the midpoint of the final
    bracket, so the result lies within 1e-14 * (hi - lo) of the minimum.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_bounds(
    m: IT2Gaussian,
    window: tuple[float, float] | None = None,
    samples: int = 1001,
) -> tuple[ScaledGaussian, ScaledGaussian]:
    """Least-squares scaled-Gaussian stand-ins for the exact FOU bounds.

    Both fits keep the mean pinned at the FOU center and make one
    golden-section search over sigma each.  The upper fit keeps scale = 1;
    the lower fit uses variable projection: at each sigma its scale is the
    closed-form least-squares one, so the search runs over sigma alone.
    A search result that does not clearly beat the exact bound's sigma
    gives way to it.

    Returns (fitted_umf, fitted_lmf).  Raises FitDominanceViolated unless
    ``lower_within_upper`` holds, the exact check validation uses.
    """
    if window is None:
        window = default_fit_window(m)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"empty fitting window ({lo}, {hi})")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"fitting window ends must be finite, got ({lo}, {hi})")
    if lo > m.mean_lo or hi < m.mean_hi:
        raise ValueError("fitting window must contain the FOU mean interval")
    if samples < 101:
        raise ValueError(f"need at least 101 samples, got {samples}")

    # The search spans [sig_lo, sig_hi]; curve() divides by sigma squared,
    # so both squares (and 0.5 over the smaller) must be finite and non-zero.
    half = 0.5 * (hi - lo)
    sig_lo = 0.01 * min(m.sigma_lo, half)
    sig_hi = max(2.0 * half, 4.0 * m.sigma_hi)
    lo_sq, hi_sq = sig_lo * sig_lo, sig_hi * sig_hi
    if not (lo_sq > 0.0 and math.isfinite(0.5 / lo_sq)):
        raise ValueError(f"smallest search sigma {sig_lo:.3g} must be above "
                         "~5e-155, or 0.5 over its square overflows")
    if not math.isfinite(hi_sq):
        raise ValueError(f"largest search sigma {sig_hi:.3g} must be below "
                         "~1.3e154, or its square overflows")

    xs = np.linspace(lo, hi, int(samples))
    center = m.center
    with np.errstate(over="ignore"):
        dx2 = (xs - center) ** 2
    if not np.all(np.isfinite(dx2)):
        raise ValueError("squared distances from the FOU center must be finite")
    u_target = m.umf_samples(xs)
    l_target = m.lmf_samples(xs)

    def curve(sigma: float) -> np.ndarray:
        return np.exp(dx2 * (-0.5 / (sigma * sigma)))

    def improves(cand_val: float, cur_val: float) -> bool:
        # Within the float noise floor the objective is flat and a
        # bracketing search just wanders; only clear improvements count,
        # which gives every search below an exact resting point.
        return cand_val < cur_val - 4.0 * np.finfo(float).eps * (1.0 + cur_val)

    def best_sigma(objective, baseline: float) -> float:
        cand = _golden_min(objective, sig_lo, sig_hi)
        return cand if improves(objective(cand), objective(baseline)) else baseline

    def upper_sse(sigma: float) -> float:
        r = u_target - curve(sigma)
        return float(np.dot(r, r))

    # For a fixed sigma the lower SSE is a convex quadratic in the scale.  A
    # curve that underflows to 0 on the whole grid leaves the SSE the same
    # for every scale; the floor keeps that lower bound as low as allowed.
    def opt_scale(g: np.ndarray) -> float:
        gg = float(np.dot(g, g))
        if not gg > 0.0:
            return 1e-12
        return min(max(float(np.dot(l_target, g)) / gg, 1e-12), 1.0)

    def lower_sse(sigma: float) -> float:
        g = curve(sigma)
        r = l_target - opt_scale(g) * g
        return float(np.dot(r, r))

    fitted_umf = ScaledGaussian(center, best_sigma(upper_sse, float(m.sigma_hi)), 1.0)
    sigma = best_sigma(lower_sse, float(m.sigma_lo))
    fitted_lmf = ScaledGaussian(center, sigma, opt_scale(curve(sigma)))

    if not lower_within_upper(fitted_umf, fitted_lmf):
        raise FitDominanceViolated("fitted lower bound exceeds fitted upper bound")
    return fitted_umf, fitted_lmf
