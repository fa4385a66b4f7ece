"""Gaussian membership machinery for interval type-2 fuzzy sets.

An interval type-2 fuzzy set is fully described by the band between its
lower and upper membership functions (the footprint of uncertainty, FOU).
A set is its two intervals, and at most one of them is wide: uncertain
mean, where the Gaussian center ranges over [mean_lo, mean_hi] at a fixed
width, or uncertain sigma, where the center is fixed and the width ranges
over [sigma_lo, sigma_hi].

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
    "default_fit_window",
    "fit_bounds",
    "FitDominanceViolated",
]

_EPS = float(np.finfo(float).eps)

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
        return upper_bound(np.asarray(xs, dtype=float), self.mean, self.mean, self.sigma,
                           self.scale)


@dataclass(frozen=True)
class IT2Gaussian:
    """Interval type-2 Gaussian set: a mean and a sigma interval, not both wide.

    Which family a set is follows from the intervals (see the module doc).
    Build one with ``uncertain_mean`` / ``uncertain_sigma``.  ``fitted_umf`` /
    ``fitted_lmf`` hold optional scaled-Gaussian stand-ins for the exact
    bounds, both or neither; attach them with :meth:`with_fitted` or
    :meth:`fit`.  Means must be finite and sigmas positive and finite.
    """

    mean_lo: float
    mean_hi: float
    sigma_lo: float
    sigma_hi: float
    fitted_umf: ScaledGaussian | None = None
    fitted_lmf: ScaledGaussian | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_lo) and math.isfinite(self.mean_hi)):
            raise ValueError(f"means must be finite, got {self.mean_lo}, {self.mean_hi}")
        if not self.mean_lo <= self.mean_hi:
            raise ValueError("mean_lo must not exceed mean_hi")
        if not 0.0 < self.sigma_lo <= self.sigma_hi < math.inf:
            raise ValueError("sigmas must satisfy 0 < sigma_lo <= sigma_hi < inf")
        if self.mean_lo != self.mean_hi and self.sigma_lo != self.sigma_hi:
            raise ValueError("a set has an uncertain mean or an uncertain sigma, not both")
        if (self.fitted_umf is None) != (self.fitted_lmf is None):
            raise ValueError("fitted bounds must come in pairs")

    @classmethod
    def uncertain_mean(cls, mean_lo: float, mean_hi: float, sigma: float) -> "IT2Gaussian":
        return cls(float(mean_lo), float(mean_hi), float(sigma), float(sigma))

    @classmethod
    def uncertain_sigma(cls, mean: float, sigma_lo: float, sigma_hi: float) -> "IT2Gaussian":
        return cls(float(mean), float(mean), float(sigma_lo), float(sigma_hi))

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
    with np.errstate(over="ignore"):  # z * z is inf past ~1e154 widths: exp(-inf) is 0.0
        z = (xs - np.clip(xs, lo, hi)) / sigma  # np.clip keeps NaN
        return scale * exp(-0.5 * z * z)


def lower_bound(xs: np.ndarray, lo, hi, sigma, scale, exp=np.exp) -> np.ndarray:
    """The lower bound at each of ``xs``; the parameters broadcast."""
    with np.errstate(over="ignore"):  # as in upper_bound
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


def _newton_min(derivs, lo: float, hi: float, t: float):
    """Minimum on [lo, hi] by safeguarded Newton steps from t, lo < t < hi.

    ``derivs(t)`` returns the first and second derivative at t, both scaled
    by one positive factor, and a payload; the search returns the payload
    of its last call, which is at the t it stops at.  The first
    derivative's sign moves an end of the bracket to t; a step that leaves
    the bracket, or a second derivative not above 0, gives way to
    bisection.  Stops where the derivative is 0, where the Newton step is
    below a few ulps of t (tested first, so that a converged step that
    rounds onto an end stops there), or where the bracket itself is that
    narrow.
    """
    while True:
        d1, d2, payload = derivs(t)
        if d1 == 0.0:
            return payload
        if d1 > 0.0:
            hi = t
        else:
            lo = t
        tol = 4.0 * _EPS * max(1.0, abs(t))
        if d2 > 0.0:
            step = d1 / d2
            if abs(step) <= tol:
                return payload
            if lo < t - step < hi:
                t -= step
                continue
        if hi - lo <= tol:
            return payload
        t = 0.5 * (lo + hi)


def fit_bounds(
    m: IT2Gaussian,
    window: tuple[float, float] | None = None,
    samples: int = 1001,
) -> tuple[ScaledGaussian, ScaledGaussian]:
    """Least-squares scaled-Gaussian stand-ins for the exact FOU bounds.

    Both fits keep the mean pinned at the FOU center and minimize one
    objective, the SSE against the exact bound on the grid of ``c`` times
    the unit Gaussian of width sigma, by one safeguarded Newton search
    each, in t = ln(sigma) over [ln sig_lo, ln sig_hi], from the exact
    bound's sigma.  The upper fit holds c = 1; the lower fit uses variable
    projection: at each sigma c is the closed-form least-squares scale,
    clamped to [1e-12, 1], so the search runs over sigma alone.  A search result that does not clearly beat the
    exact bound's sigma gives way to it.

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

    # The search spans [sig_lo, sig_hi]; at() divides by sigma squared,
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
    dx2 = (xs - center) ** 2  # finite with hi_sq: |xs - center| <= hi - lo <= sig_hi

    # at() gives half of S = |target - c g|^2's derivatives in t, and S, over
    # the curve g = exp(-h), h = dx2 / (2 sigma^2), with g_t = 2 h g and g_tt
    # = 4 h g (h - 1).  Past h = 750 g is 0.0 anyway, and h held there keeps
    # h * g from being inf * 0.  The upper fit holds c = 1, where every
    # product with c is exact, so its S is |target - g|^2.
    #
    # For the lower fit S is, at a fixed sigma, a convex quadratic in c,
    # and c is its minimum.  A curve that underflows to 0 on the whole grid
    # leaves S the same for every scale; the floor keeps that lower bound as
    # low as allowed.  By the envelope theorem S_t = -2 c r.g_t, r = target
    # - c g, as if c were fixed.  S_tt is the fixed-c one, 2 (c^2 g_t.g_t -
    # c r.g_tt), less the part c's own move takes back, S_ct^2 / S_cc with
    # S_ct = 2 (c g.g_t - r.g_t) and S_cc = 2 g.g, where c is not clamped.
    def at(sigma: float, target: np.ndarray, scaled: bool):
        h = np.minimum(dx2 * (0.5 / (sigma * sigma)), 750.0)
        g = np.exp(-h)
        g_t = 2.0 * h * g
        c = 1.0
        if scaled:
            gg = float(np.dot(g, g))
            c = min(max(float(np.dot(target, g)) / gg, 1e-12), 1.0) if gg > 0.0 else 1e-12
        r = target - c * g
        r_t = float(np.dot(r, g_t))
        d2 = c * (c * float(np.dot(g_t, g_t)) - float(np.dot(r, 2.0 * g_t * (h - 1.0))))
        if 1e-12 < c < 1.0:  # not clamped, so g.g > 0
            d2 -= (c * float(np.dot(g, g_t)) - r_t) ** 2 / gg
        return -c * r_t, d2, (float(np.dot(r, r)), sigma, c)

    # The search ends on a t it evaluated, so its payload is the
    # candidate's; only the exact sigma, which exp(ln sigma) may miss by an
    # ulp, is evaluated again.  Within the float noise floor the objective
    # is flat and a bracketing search just wanders; only clear improvements
    # count, which gives every search an exact resting point.
    def fit(target: np.ndarray, baseline: float, scaled: bool) -> ScaledGaussian:
        sse, sigma, c = _newton_min(
            lambda t: at(min(max(math.exp(t), sig_lo), sig_hi), target, scaled),
            math.log(sig_lo), math.log(sig_hi), math.log(baseline))
        base_sse, base_sigma, base_c = at(baseline, target, scaled)[2]
        if not sse < base_sse - 4.0 * _EPS * (1.0 + base_sse):
            sigma, c = base_sigma, base_c
        return ScaledGaussian(center, sigma, c)

    fitted_umf = fit(m.umf_samples(xs), float(m.sigma_hi), False)
    fitted_lmf = fit(m.lmf_samples(xs), float(m.sigma_lo), True)
    if not lower_within_upper(fitted_umf, fitted_lmf):
        raise FitDominanceViolated("fitted lower bound exceeds fitted upper bound")
    return fitted_umf, fitted_lmf
