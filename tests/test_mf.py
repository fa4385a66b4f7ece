"""Membership functions: exact FOU bounds and the scaled-Gaussian fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2fuzz import (
    BoundSource,
    ClosedFormEngine,
    EngineConfig,
    IT2Gaussian,
    Partition,
    Rule,
    RuleBase,
    ScaledGaussian,
    default_fit_window,
    fit_bounds,
)
from it2fuzz.cli import lcg_probes
from it2fuzz import mf
from it2fuzz.mf import _newton_min, lower_within_upper

import oracles
from oracles import (
    FIT_A,
    FIT_B,
    LATTICE_A,
    LATTICE_B,
    REF_A,
    REF_B,
    SCALE_LATTICE,
    SIGMA_LATTICE,
    lattice_scale_rows,
)


def fou(spread, sigma=0.418):
    return IT2Gaussian.uncertain_mean(-spread, spread, sigma)


def kernel_bounds(m, xs):
    """Exact (upper, lower) bounds of m at each of xs, through the compiled
    kernel's ``fire`` on a one-input, one-set, one-rule base."""
    rb = RuleBase((Partition((-1.0, 1.0), (m,)),), (Rule((0,), 0.0),))
    fire = ClosedFormEngine(rb, EngineConfig(bound_source=BoundSource.EXACT)).fire
    fired = [fire((x,))[0] for x in xs]
    return [f.upper for f in fired], [f.lower for f in fired]


def test_scaled_gaussian_point_values():
    g = ScaledGaussian(0.0, 0.418, 1.0)
    assert g.sample(0.0) == 1.0
    assert g.sample(0.418) == pytest.approx(math.exp(-0.5), abs=1e-15)
    # the peak value is the scale itself, exactly
    assert ScaledGaussian(0.0, 0.3651, 0.9183).sample(0.0) == 0.9183


@pytest.mark.parametrize("sigma,scale", [(0.0, 1.0), (-0.1, 1.0), (0.3, 0.0), (0.3, 1.2)])
def test_scaled_gaussian_rejects_bad_params(sigma, scale):
    with pytest.raises(ValueError):
        ScaledGaussian(0.0, sigma, scale)


@pytest.mark.parametrize("mean,sigma", [(math.nan, 0.5), (math.inf, 0.5),
                                        (-math.inf, 0.5), (0.0, math.inf)])
def test_scaled_gaussian_rejects_non_finite_params(mean, sigma):
    with pytest.raises(ValueError, match="finite"):
        ScaledGaussian(mean, sigma)


def test_scaled_gaussian_sample_matches_scalar():
    g = ScaledGaussian(0.2, 0.5, 0.9)
    xs = np.linspace(-2.0, 2.0, 101)
    assert np.allclose(g.sample(xs), [oracles.gauss(float(x), 0.2, 0.5, 0.9) for x in xs],
                       rtol=0.0, atol=1e-15)
    # Past ~1e154 widths z * z overflows to inf; the bound is 0.0 there,
    # as in the kernel, with no floating-point warning.
    with np.errstate(all="raise"):
        special = g.sample(np.array([math.nan, math.inf, -math.inf, 0.2,
                                     1e200, -1e200, 1e300, -1e300]))
    assert np.isnan(special[0]) and special[1:].tolist() == [0.0, 0.0, 0.9] + [0.0] * 4


def test_fou_constructor_validation():
    with pytest.raises(ValueError):
        IT2Gaussian.uncertain_mean(0.1, -0.1, 0.418)
    with pytest.raises(ValueError):
        IT2Gaussian.uncertain_mean(-0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        IT2Gaussian.uncertain_sigma(0.0, 0.5, 0.3)
    with pytest.raises(ValueError, match="not both"):
        IT2Gaussian(-0.1, 0.1, 0.3, 0.4)
    for bad in (lambda: IT2Gaussian.uncertain_mean(-math.inf, 0.1, 0.4),
                lambda: IT2Gaussian.uncertain_mean(-0.1, math.inf, 0.4),
                lambda: IT2Gaussian.uncertain_mean(-0.1, 0.1, math.inf),
                lambda: IT2Gaussian.uncertain_sigma(math.inf, 0.2, 0.4),
                lambda: IT2Gaussian.uncertain_sigma(0.0, 0.2, math.inf)):
        with pytest.raises(ValueError, match="finite|inf"):
            bad()
    g = ScaledGaussian(0.0, 0.4)
    for half in ({"fitted_umf": g}, {"fitted_lmf": g}):
        with pytest.raises(ValueError, match="pairs"):
            IT2Gaussian(-0.1, 0.1, 0.4, 0.4, **half)


def test_umf_plateau_and_shoulders():
    got = fou(0.1).umf_samples(np.array([0.05, -0.1, 0.1, 0.518, -0.518]))
    assert got[:3].tolist() == [1.0, 1.0, 1.0]
    # one sigma past the plateau edge
    assert got[3] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert got[4] == got[3]


@pytest.mark.parametrize("m", [fou(0.1), fou(0.0),
                               IT2Gaussian.uncertain_sigma(0.2, 0.3, 0.5)])
def test_exact_bounds_of_nan_are_nan(m):
    got = m.umf_samples(np.array([-0.5, math.nan, 0.0, 0.5]))
    assert np.isnan(got[1]) and not np.isnan(got[[0, 2, 3]]).any()
    assert np.isnan(m.lmf_samples(np.array([math.nan]))[0])


def test_lmf_is_min_of_edge_gaussians():
    at0, at10 = fou(0.1).lmf_samples(np.array([0.0, 10.0]))
    assert at0 == pytest.approx(math.exp(-0.5 * (0.1 / 0.418) ** 2), abs=1e-15)
    assert at0 == pytest.approx(0.97179, abs=1e-5)
    assert at10 < 1e-50


def test_uncertain_sigma_bounds():
    m = IT2Gaussian.uncertain_sigma(0.0, 0.3, 0.5)
    xs = np.array([0.0, 0.3, 0.5])
    u, l = m.umf_samples(xs), m.lmf_samples(xs)
    assert u[0] == 1.0 and l[0] == 1.0
    assert u[2] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert l[1] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert l[2] < u[2]


@pytest.mark.parametrize("m", [fou(0.1), fou(0.125),
                               IT2Gaussian.uncertain_sigma(0.2, 0.3, 0.5)])
def test_vectorized_bounds_match_scalar(m):
    xs = np.linspace(-2.0, 2.0, 401)
    upper, lower = kernel_bounds(m, xs.tolist())
    assert np.allclose(m.umf_samples(xs), upper, rtol=0.0, atol=1e-15)
    assert np.allclose(m.lmf_samples(xs), lower, rtol=0.0, atol=1e-15)


BOUND_SETS = (fou(0.1), IT2Gaussian.uncertain_mean(0.3, 0.55, 0.2), fou(0.0),
              IT2Gaussian.uncertain_sigma(0.0, 0.3, 0.5),
              IT2Gaussian.uncertain_sigma(-0.7, 0.25, 0.25),
              IT2Gaussian.uncertain_sigma(0.6, 1e-3, 2.0))


@pytest.mark.parametrize("m", BOUND_SETS)
def test_exact_bounds_equal_the_kind_branched_oracle(m):
    edges = (m.mean_lo, m.mean_hi)
    xs = ([v for x in lcg_probes(10000) for v in x] + list(edges)
          + [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
          + [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300])
    # The scalar bounds live only in the compiled kernel.
    for got, want in zip(kernel_bounds(m, xs), (oracles.exact_umf, oracles.exact_lmf)):
        assert [v.hex() for v in got] == [want(m, x).hex() for x in xs]
    arr = np.array(xs)
    for got, want in ((m.umf_samples, oracles.exact_umf_samples),
                      (m.lmf_samples, oracles.exact_lmf_samples)):
        with np.errstate(over="ignore"):  # the oracle's z * z overflows at +-1e300
            expected = want(m, arr)
        assert [v.hex() for v in got(arr).tolist()] == [v.hex() for v in expected.tolist()]


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-3.0, 3.0), spread=st.floats(0.0, 0.5), sigma=st.floats(0.05, 1.5))
def test_lower_bound_never_exceeds_upper(x, spread, sigma):
    m = IT2Gaussian.uncertain_mean(-spread, spread, sigma)
    xs = np.array([x])
    assert m.lmf_samples(xs)[0] <= m.umf_samples(xs)[0]


@pytest.mark.parametrize("m", [fou(0.1), fou(0.125),
                               IT2Gaussian.uncertain_sigma(0.0, 0.25, 0.4)])
def test_bounds_are_lipschitz_on_window(m):
    # worst slope of any branch Gaussian is exp(-1/2)/sigma, below 1/sigma
    lo, hi = default_fit_window(m)
    xs = np.linspace(lo, hi, 10001)
    bound = (hi - lo) / 10000 / m.sigma_lo
    assert float(np.max(np.abs(np.diff(m.umf_samples(xs))))) <= bound
    assert float(np.max(np.abs(np.diff(m.lmf_samples(xs))))) <= bound


def test_default_window_spans_three_widths():
    lo, hi = default_fit_window(fou(0.125))
    assert (lo, hi) == (-3.0 * (0.418 + 0.125), 3.0 * (0.418 + 0.125))
    lo, hi = default_fit_window(IT2Gaussian.uncertain_sigma(1.0, 0.2, 0.4))
    assert lo == pytest.approx(1.0 - 1.2) and hi == pytest.approx(1.0 + 1.2)


def test_fit_regression_values():
    u_a, l_a = fit_bounds(fou(0.1))
    assert (u_a.sigma, l_a.sigma, l_a.scale) == pytest.approx(FIT_A, abs=1e-6)
    u_b, l_b = fit_bounds(fou(0.125))
    assert (u_b.sigma, l_b.sigma, l_b.scale) == pytest.approx(FIT_B, abs=1e-6)
    assert u_a.scale == 1.0 and u_b.scale == 1.0
    assert u_a.mean == 0.0 and l_a.mean == 0.0
    # the search is deterministic: a second run agrees bit for bit
    assert fit_bounds(fou(0.1)) == (u_a, l_a)


def test_fit_near_expected_parameters():
    for spread, ref in ((0.1, REF_A), (0.125, REF_B)):
        u, l = fit_bounds(fou(spread))
        assert u.sigma == pytest.approx(ref[0], abs=0.05)
        assert l.sigma == pytest.approx(ref[1], abs=0.05)
        assert l.scale == pytest.approx(ref[2], abs=0.05)


def test_lattice_oracle_scale_matches_full_table():
    # The lattice oracle solves the scale per sigma from three candidates next
    # to B/A; the full 5001-wide scale row it replaces must pick the same
    # scale with the same SSE, bit for bit. Rows around each frozen optimum,
    # plus both ends of the sigma lattice where B/A falls off the scale
    # lattice and the choice is clipped.
    scales = SCALE_LATTICE / 1e4
    for spread, lattice in ((0.1, LATTICE_A), (0.125, LATTICE_B)):
        m = fou(spread)
        window = default_fit_window(m)
        xs = np.linspace(window[0], window[1], 1001)
        l = m.lmf_samples(xs)
        T = float(np.dot(l, l))
        idx = np.concatenate((SIGMA_LATTICE[:20],
                              np.arange(lattice[1] - 150, lattice[1] + 150),
                              SIGMA_LATTICE[-20:]))
        sig = idx / 1e4
        G = np.exp(xs[None, :] ** 2 * (-0.5 / (sig * sig))[:, None])
        A = np.einsum("ij,ij->i", G, G)
        B = G @ l
        table = T - 2.0 * np.outer(B, scales) + np.outer(A, scales * scales)
        c = np.argmin(table, axis=1)
        sse, j = lattice_scale_rows(A, B, T)
        assert np.array_equal(j, SCALE_LATTICE[c])
        assert np.array_equal(sse, table[np.arange(c.size), c])
        assert j[0] == SCALE_LATTICE[-1] and j[-1] == SCALE_LATTICE[0]
        assert lattice[2] in j


@pytest.mark.parametrize("spread", [0.1, 0.125])
def test_fit_is_first_order_optimal(spread):
    m = fou(spread)
    lo, hi = default_fit_window(m)
    xs = np.linspace(lo, hi, 1001)
    u_t, l_t = m.umf_samples(xs), m.lmf_samples(xs)
    u, l = fit_bounds(m)

    def sse(target, sigma, scale):
        r = target - scale * np.exp(-0.5 * ((xs - m.center) / sigma) ** 2)
        return float(np.dot(r, r))

    for d in (1e-4, -1e-4):
        assert sse(u_t, u.sigma + d, 1.0) >= sse(u_t, u.sigma, 1.0)
        assert sse(l_t, l.sigma + d, l.scale) >= sse(l_t, l.sigma, l.scale)
        assert sse(l_t, l.sigma, l.scale + d) >= sse(l_t, l.sigma, l.scale)


def test_fit_degenerate_spread_returns_base_gaussian():
    u, l = fit_bounds(fou(0.0))
    assert u == l
    assert u.sigma == pytest.approx(0.418, abs=1e-9)
    assert u.scale == 1.0


SCALE_FREE_SIGMAS = [1e-10, 1e-13, 1e-100, 1e-120, 1e-150, 1e3, 1e6, 1e100, 1e150]


# The family spans the sigma guards' reach: the search runs in ln(sigma), so
# no power of sigma under- or overflows, trapped or silently.
@pytest.mark.parametrize("sigma", SCALE_FREE_SIGMAS)
def test_fit_is_scale_free(sigma):
    def ratios(s):
        u, l = fit_bounds(fou(0.25 * s, s))
        return u.sigma / s, l.sigma / s, l.scale

    with np.errstate(all="raise"):
        assert ratios(sigma) == pytest.approx(ratios(1.0), rel=0.0, abs=1e-6)


def test_fit_with_lower_target_zero_on_grid():
    # Every grid sample of the lower target, and of the unit curve at the
    # baseline sigma 0.01, underflows to 0: the least-squares scale is 0/0.
    m = fou(100.0, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        umf, lmf = fit_bounds(m, window=(-100.0, 250.0), samples=101)
    assert 1e-12 <= lmf.scale <= 1.0
    assert math.isfinite(umf.sigma) and math.isfinite(lmf.sigma)


def test_fit_window_validation():
    m = fou(0.1)
    with pytest.raises(ValueError):
        fit_bounds(m, window=(0.2, 1.0))  # excludes the mean interval
    with pytest.raises(ValueError):
        fit_bounds(m, window=(1.0, -1.0))
    with pytest.raises(ValueError):
        fit_bounds(m, samples=50)
    with pytest.raises(ValueError, match="must be finite"):
        fit_bounds(m, window=(-1.0, math.inf))


def test_widest_fit_window_runs_without_overflow():
    # Every |x - center| on the window is at most the largest search sigma,
    # so the guard on that sigma's square alone keeps the fit finite: the
    # widest window it admits fits with overflow trapped, a wider one is
    # refused.
    m = IT2Gaussian.uncertain_mean(-1, 1, 1.0)
    with np.errstate(over="raise", invalid="raise"):
        fit_bounds(m, window=(-6.6e153, 6.6e153), samples=101)
    with pytest.raises(ValueError, match="largest search sigma"):
        fit_bounds(m, window=(-6.8e153, 6.8e153), samples=101)


def search(derivs, lo, hi, t):
    """_newton_min's t on derivs and the ts derivs was called at, after
    checking that the search returned its last call's payload."""
    ts = []

    def wrapped(t):
        ts.append(t)
        return (*derivs(t), (len(ts) - 1, t))

    k, t = _newton_min(wrapped, lo, hi, t)
    assert k == len(ts) - 1
    return t, ts


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_newton_min_reaches_every_branch(scale):
    # In t = ln(sigma) over the bracket a fit searches at this sigma scale.
    lo, hi = math.log(0.01 * scale), math.log(3.0 * scale)
    tol = 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))

    # Newton steps: a quadratic's first step lands on its minimum, and
    # cosh(t - c)'s steps converge from any start, wherever c lies.
    for k in range(1, 6):
        c = lo + k / 6 * (hi - lo)
        t, ts = search(lambda t: (2.0 * (t - c), 2.0), lo, hi, lo + 0.1)
        assert abs(t - c) <= 2.0 * tol
        assert len(ts) == 2
        t, ts = search(lambda t: (math.sinh(t - c), math.cosh(t - c)), lo, hi, hi - 0.1)
        assert abs(t - c) <= 2.0 * tol
        assert len(ts) <= 10

    # A second derivative not above 0 bisects: -exp(-(t - c)^2 / 2) is
    # concave more than one from c, so the first step goes to the middle
    # of [start, hi], and Newton then takes over.
    c = hi - 0.5
    t, ts = search(lambda t: ((t - c) * math.exp(-0.5 * (t - c) ** 2),
                              (1.0 - (t - c) ** 2) * math.exp(-0.5 * (t - c) ** 2)),
                   lo, hi, lo + 0.5)
    assert abs(t - c) <= 2.0 * tol
    assert ts[1] == 0.5 * (lo + 0.5 + hi)
    assert len(ts) <= 12

    # A minimum at either end: a step past it and a flat second derivative
    # both bisect, until the bracket is a few ulps wide at that end.
    mid = 0.5 * (lo + hi)
    for end, derivs in ((hi, lambda t: (2.0 * (t - hi - 1.0), 2.0)),
                        (lo, lambda t: (1.0, 0.0)),
                        (lo, lambda t: (2.0 * (t - lo + 1.0), 2.0)),
                        (hi, lambda t: (-1.0, -1.0))):
        assert abs(search(derivs, lo, hi, mid)[0] - end) <= tol

    # A derivative exactly 0 at the start stops there, after one call.
    assert search(lambda t: (0.0, -1.0), lo, hi, mid) == (mid, [mid])


LOWER_FIT_FOUS = ([fou(k / 100) for k in range(21)]
                  + [fou(0.25 * s, s) for s in (1e-13, 1.0)])


@pytest.mark.parametrize("m", LOWER_FIT_FOUS)
def test_lower_fit_matches_alternating_oracle(m):
    # One search over sigma with the scale projected out must reach at least
    # the coordinate descent's SSE, up to float noise, at the same sigma.
    _, l = fit_bounds(m)
    sigma, scale = oracles.alternating_lower_fit(m)
    want = oracles.lower_fit_sse(m, sigma, scale)
    eps = np.finfo(float).eps
    assert oracles.lower_fit_sse(m, l.sigma, l.scale) <= want + 4.0 * eps * (1.0 + want)
    assert l.sigma == pytest.approx(sigma, rel=1e-7, abs=0.0)


DESIGN_FOUS = [fou(dmu, sigma) for dmu in (0.05, 0.1, 0.15, 0.2) for sigma in (0.3, 0.4, 0.5)]
UNCERTAIN_SIGMA_FOUS = [IT2Gaussian.uncertain_sigma(c, sigma * (1.0 - k / 10), sigma)
                        for c in (-0.5, 0.0, 1.0) for sigma in (0.1, 0.418, 1.0)
                        for k in range(7)]


def counted_searches(monkeypatch):
    """The step count of each ``_newton_min`` that ``fit_bounds`` runs, in
    order; each search is checked to return its last call's payload."""
    steps = []

    def counted(derivs, lo, hi, t):
        payloads = []

        def wrapped(t):
            out = derivs(t)
            payloads.append(out[2])
            return out

        payload = _newton_min(wrapped, lo, hi, t)
        assert payload is payloads[-1]
        steps.append(len(payloads))
        return payload

    monkeypatch.setattr(mf, "_newton_min", counted)
    return steps


def test_fit_searches_take_few_steps(monkeypatch):
    # Newton from the exact bound's sigma converges in a few steps on every
    # family; a stop rule that fell back to bisection would take ~50.
    steps = counted_searches(monkeypatch)
    fous = (DESIGN_FOUS + LOWER_FIT_FOUS + UNCERTAIN_SIGMA_FOUS
            + [fou(0.25 * s, s) for s in SCALE_FREE_SIGMAS])
    for m in fous:
        fit_bounds(m)
    assert len(steps) == 2 * len(fous)
    assert max(steps) <= 9


@pytest.mark.parametrize("samples", [101, 1001])
def test_fit_runs_its_grid_exp_once_per_step_plus_two(monkeypatch, samples):
    # Each search step evaluates the curve once. The candidate's SSE and the
    # lower fit's scale come with the search's last step, so only the two
    # exact-sigma baselines evaluate it again. umf_samples and lmf_samples
    # bind np.exp when they are defined, so the targets fall outside the
    # count.
    steps = counted_searches(monkeypatch)
    exps = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            exps.append(np.shape(x) == (samples,))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(mf, "np", CountingNumpy())
    for m in DESIGN_FOUS + LOWER_FIT_FOUS + UNCERTAIN_SIGMA_FOUS[::5]:
        steps.clear()
        exps.clear()
        fit_bounds(m, samples=samples)
        assert len(steps) == 2 and all(exps)
        assert len(exps) == sum(steps) + 2


def test_fit_attaches_both_bounds():
    m = fou(0.125).fit()
    assert (m.fitted_umf, m.fitted_lmf) == fit_bounds(fou(0.125))
    assert fou(0.125).fitted_umf is None  # fit() returns a copy


@settings(max_examples=25, deadline=None)
@given(center=st.floats(-1.0, 1.0), spread=st.floats(0.0, 0.4),
       sigma=st.floats(0.1, 1.0), uncertain_sigma=st.booleans())
def test_fitted_lower_stays_under_fitted_upper(center, spread, sigma, uncertain_sigma):
    if uncertain_sigma:
        m = IT2Gaussian.uncertain_sigma(center, sigma * (1.0 - spread), sigma)
    else:
        m = IT2Gaussian.uncertain_mean(center - spread, center + spread, sigma)
    u, l = fit_bounds(m)
    # Exact on the whole real line, so it implies lmf <= umf on any grid.
    assert lower_within_upper(u, l)
    assert u.scale == 1.0
    assert 0.0 < l.scale <= 1.0
    assert u.sigma > 0.0 and l.sigma > 0.0
