"""Independent oracles the test suite checks the library against.

Everything here is written from first principles on purpose: plain loops,
hard-coded demo parameters, a lattice minimizer that exhausts every sigma and
solves the scale exactly per sigma by convexity. None of it
imports inference code from the package, so agreement between the two is
evidence rather than tautology. Frozen constants at the bottom were produced
by these oracles and by prior library runs; regressions diff against them.
"""

import itertools
import math

import numpy as np

# Demo controller FOU family: three sets per input at centers -1, 0, 1 with
# uncertain means +/-0.125 around the center, and the fitted Gaussian bounds
# used by the fast engines.
DEMO_CENTERS = (-1.0, 0.0, 1.0)
DEMO_UMF = (0.5128, 1.0)      # (sigma, scale)
DEMO_LMF = (0.3532, 0.895)
DEMO_CONSEQUENTS = (1.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, -1.0)


def gauss(x, mean, sigma, scale):
    z = (x - mean) / sigma
    return scale * math.exp(-0.5 * z * z)


def demo_intervals(x1, x2):
    """Firing intervals of the 9 demo rules, term by term."""
    out = []
    for i in range(3):
        for j in range(3):
            u = (gauss(x1, DEMO_CENTERS[i], *DEMO_UMF)
                 * gauss(x2, DEMO_CENTERS[j], *DEMO_UMF))
            l = (gauss(x1, DEMO_CENTERS[i], *DEMO_LMF)
                 * gauss(x2, DEMO_CENTERS[j], *DEMO_LMF))
            out.append((u, l))
    return out


def demo_gc(x1, x2):
    num = 0.0
    den = 0.0
    for b, (u, l) in zip(DEMO_CONSEQUENTS, demo_intervals(x1, x2)):
        num += b * (u - l)
        den += u - l
    return num / den


def demo_nt(x1, x2):
    num = 0.0
    den = 0.0
    for b, (u, l) in zip(DEMO_CONSEQUENTS, demo_intervals(x1, x2)):
        num += b * (u + l)
        den += u + l
    return num / den


def t1_center_average(x1, x2, sigma, centers=DEMO_CENTERS,
                      consequents=DEMO_CONSEQUENTS):
    """Type-1 center-average output for product firing of pure Gaussians."""
    num = 0.0
    den = 0.0
    k = 0
    for i in range(3):
        for j in range(3):
            f = gauss(x1, centers[i], sigma, 1.0) * gauss(x2, centers[j], sigma, 1.0)
            num += consequents[k] * f
            den += f
            k += 1
    return num / den


# The exact FOU bounds written per set kind, branch by branch, apart from
# it2fuzz.mf's one formula for both kinds. ``m`` is an IT2Gaussian; only its
# fields are read.
def exact_umf(m, x):
    """Exact upper bound at a point."""
    if m.kind == "uncertain_sigma":
        z = (x - m.mean_lo) / m.sigma_hi
        return math.exp(-0.5 * z * z)
    # NaN fails both tests and falls through to exp, which keeps it NaN.
    if x < m.mean_lo:
        z = (x - m.mean_lo) / m.sigma_hi
    elif x <= m.mean_hi:
        return 1.0
    else:
        z = (x - m.mean_hi) / m.sigma_hi
    return math.exp(-0.5 * z * z)


def exact_lmf(m, x):
    """Exact lower bound at a point."""
    if m.kind == "uncertain_sigma":
        z = (x - m.mean_lo) / m.sigma_lo
        return math.exp(-0.5 * z * z)
    zl = (x - m.mean_lo) / m.sigma_lo
    zh = (x - m.mean_hi) / m.sigma_lo
    return min(math.exp(-0.5 * zl * zl), math.exp(-0.5 * zh * zh))


def exact_umf_samples(m, xs):
    """``exact_umf`` over an array, through ``np.exp``."""
    xs = np.asarray(xs, dtype=float)
    if m.kind == "uncertain_sigma":
        z = (xs - m.mean_lo) / m.sigma_hi
        return np.exp(-0.5 * z * z)
    zl = (xs - m.mean_lo) / m.sigma_hi
    zh = (xs - m.mean_hi) / m.sigma_hi
    out = np.ones_like(xs)
    left = xs < m.mean_lo
    right = ~(xs <= m.mean_hi)  # NaN included
    out[left] = np.exp(-0.5 * zl[left] ** 2)
    out[right] = np.exp(-0.5 * zh[right] ** 2)
    return out


def exact_lmf_samples(m, xs):
    """``exact_lmf`` over an array, through ``np.exp``."""
    xs = np.asarray(xs, dtype=float)
    if m.kind == "uncertain_sigma":
        z = (xs - m.mean_lo) / m.sigma_lo
        return np.exp(-0.5 * z * z)
    zl = (xs - m.mean_lo) / m.sigma_lo
    zh = (xs - m.mean_hi) / m.sigma_lo
    return np.minimum(np.exp(-0.5 * zl * zl), np.exp(-0.5 * zh * zh))


# Loop reference for ClosedFormEngine's compiled straight-line kernel, which
# must equal it bit for bit: one table row per (input, set), each rule's
# product read left to right from 1.0, every sum through math.fsum.
DEGENERATE_EPSILON = 1e-12


def loop_firing(rb, fitted, x):
    """Per-rule (upper, lower) firing lists at input vector x."""
    if len(x) != rb.n_inputs:
        raise ValueError(f"expected {rb.n_inputs} inputs, got {len(x)}")
    table = [(i, s) for i, p in enumerate(rb.partitions) for s in p.sets]
    if fitted:
        us, ls = [], []
        for i, s in table:
            for g, out in ((s.fitted_umf, us), (s.fitted_lmf, ls)):
                z = (x[i] - g.mean) / g.sigma
                out.append(g.scale * math.exp(-0.5 * z * z))
    else:
        us = [exact_umf(s, x[i]) for i, s in table]
        ls = [exact_lmf(s, x[i]) for i, s in table]
    offsets = list(itertools.accumulate(rb.shape[:-1], initial=0))
    ups, los = [], []
    for rule in rb.rules:
        u = l = 1.0
        for o, a in zip(offsets, rule.antecedent):
            u *= us[o + a]
            l *= ls[o + a]
        ups.append(u)
        los.append(l)
    return ups, los


def loop_fire(rb, fitted, x):
    """Per-rule (lower, upper) firing intervals, in rule order."""
    ups, los = loop_firing(rb, fitted, x)
    return list(zip(los, ups))


def loop_infer(rb, form, fitted, x):
    """(value, degenerate) of form 'gc-closed', 'gc-closed-split' or 'nt-closed'."""
    ups, los = loop_firing(rb, fitted, x)
    eps = DEGENERATE_EPSILON
    cons = [r.consequent for r in rb.rules]
    if form == "nt-closed":
        sums = [u + l for u, l in zip(ups, los)]
        den = math.fsum(sums)
        if not den > eps:
            return 0.0, True
        return math.fsum(c * s for c, s in zip(cons, sums)) / den, False
    split = form == "gc-closed-split"
    cons_u = [r.consequent_upper for r in rb.rules] if split else cons
    diffs = [u - l for u, l in zip(ups, los)]
    den = math.fsum(diffs)
    if not den >= eps:
        uden = math.fsum(ups)
        if not uden > eps:
            return 0.0, True
        return math.fsum(c * u for c, u in zip(cons_u, ups)) / uden, True
    if split:
        terms = [c * u for c, u in zip(cons_u, ups)]
        terms.extend(-r.consequent_lower * l for r, l in zip(rb.rules, los))
        return math.fsum(terms) / den, False
    return math.fsum(c * d for c, d in zip(cons, diffs)) / den, False


# Lattice fit oracle. Exhausts sigma in [0.05, 2.0] on a 1e-4 grid; for each
# sigma the scale in [0.5, 1.0] on the same grid is solved exactly by
# convexity (lattice_scale_rows). Returns the integer lattice coordinates of
# the SSE minimizers, so the result is byte-stable across runs.
SIGMA_LATTICE = np.arange(500, 20001)
SCALE_LATTICE = np.arange(5000, 10001)


def lattice_scale_rows(A, B, T):
    """Per sigma row, the lowest-SSE lattice scale: (sse, scale index).

    SSE(s) = T - 2 s B + s^2 A with A = |g|^2 > 0 is a convex quadratic in s,
    so its best lattice point is next to B/A. The nearest point and its two
    neighbours, clipped to SCALE_LATTICE, are evaluated with the expression of
    the full scale table, so each SSE is bitwise equal to its table entry; ties
    go to the lowest scale index, as an argmin over the table row would.
    """
    j = np.rint(1e4 * B / A)[:, None] + np.array([-1.0, 0.0, 1.0])
    j = np.clip(j, SCALE_LATTICE[0], SCALE_LATTICE[-1])
    s = j / 1e4
    sse = T - 2.0 * (B[:, None] * s) + A[:, None] * (s * s)
    rows = np.arange(j.shape[0])
    c = np.argmin(sse, axis=1)
    return sse[rows, c], j[rows, c].astype(int)


def lattice_fit(xs, u_target, l_target, center, chunk=64):
    """(umf_sigma_i, lmf_sigma_i, lmf_scale_j) lattice indices, units of 1e-4.

    Sigma rows go ``chunk`` at a time; the result does not depend on it.  At
    1001 samples 64 rows are 0.5 MB a temporary, which the allocator reuses;
    512 rows (4 MB) are mapped and faulted in afresh on every chunk.
    """
    dx2 = (np.asarray(xs, dtype=float) - center) ** 2
    u_target = np.asarray(u_target, dtype=float)
    l_target = np.asarray(l_target, dtype=float)
    T = float(np.dot(l_target, l_target))
    best_u = (math.inf, -1)
    best_l = (math.inf, -1, -1)
    for start in range(0, SIGMA_LATTICE.size, chunk):
        idx = SIGMA_LATTICE[start:start + chunk]
        sig = idx / 1e4
        G = np.exp(dx2[None, :] * (-0.5 / (sig * sig))[:, None])
        ru = u_target[None, :] - G
        u_sse = np.einsum("ij,ij->i", ru, ru)
        k = int(np.argmin(u_sse))
        if u_sse[k] < best_u[0]:
            best_u = (float(u_sse[k]), int(idx[k]))
        A = np.einsum("ij,ij->i", G, G)
        B = G @ l_target
        sse, j = lattice_scale_rows(A, B, T)
        k = int(np.argmin(sse))
        if sse[k] < best_l[0]:
            best_l = (float(sse[k]), int(idx[k]), int(j[k]))
    return best_u[1], best_l[1], best_l[2]


# Alternating lower-bound fit: the coordinate descent fit_bounds ran before
# variable projection, kept as the reference for its lower fit. Golden-section
# on sigma at a fixed scale, then the closed-form scale at that sigma,
# alternated until both stop moving. Fits on the default window (the FOU out
# to three widths) at 1001 samples.
_PARAM_TOL = 1e-10


def _golden_min_tol(f, lo, hi, tol, max_iter):
    """Golden-section minimum, shrinking the bracket until it is below tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            return 0.5 * (a + b)
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    raise RuntimeError(f"golden-section bracket still {b - a:.3e} wide")


def fit_grid(m):
    """The default fit window's sample points and the exact lower bound there."""
    center = 0.5 * (m.mean_lo + m.mean_hi)
    half = 3.0 * (m.sigma_hi + 0.5 * (m.mean_hi - m.mean_lo))
    xs = np.linspace(center - half, center + half, 1001)
    return xs, exact_lmf_samples(m, xs)


def lower_fit_sse(m, sigma, scale):
    """SSE of ``scale * exp(-(x - center)^2 / (2 sigma^2))`` against the exact
    lower bound on the default fit grid."""
    xs, target = fit_grid(m)
    dx2 = (xs - 0.5 * (m.mean_lo + m.mean_hi)) ** 2
    r = target - scale * np.exp(dx2 * (-0.5 / (sigma * sigma)))
    return float(np.dot(r, r))


def alternating_lower_fit(m, max_iter=200):
    """(sigma, scale) of the alternating lower-bound fit."""
    xs, l_target = fit_grid(m)
    half = 0.5 * (xs[-1] - xs[0])
    sig_lo = 0.01 * min(m.sigma_lo, half)
    sig_hi = max(2.0 * half, 4.0 * m.sigma_hi)
    # Scale-free: absolute sigma tolerances would stop narrow sets unfitted.
    sigma_tol = _PARAM_TOL * min(1.0, 1e3 * m.sigma_lo)
    gs_tol = 1e-3 * sigma_tol
    dx2 = (xs - 0.5 * (m.mean_lo + m.mean_hi)) ** 2

    def curve(sigma):
        return np.exp(dx2 * (-0.5 / (sigma * sigma)))

    def sse(sigma, scale, target):
        r = target - scale * curve(sigma)
        return float(np.dot(r, r))

    def improves(cand_val, cur_val):
        return cand_val < cur_val - 4.0 * np.finfo(float).eps * (1.0 + cur_val)

    def best_sigma(scale, baseline, target):
        cand = _golden_min_tol(
            lambda s: sse(s, scale, target), sig_lo, sig_hi, gs_tol, max_iter
        )
        if improves(sse(cand, scale, target), sse(baseline, scale, target)):
            return cand
        return baseline

    def opt_scale(sigma, target):
        g = curve(sigma)
        return min(max(float(np.dot(target, g) / np.dot(g, g)), 1e-12), 1.0)

    sigma = float(m.sigma_lo)
    scale = opt_scale(sigma, l_target)
    for _ in range(max_iter):
        new_sigma = best_sigma(scale, sigma, l_target)
        new_scale = opt_scale(new_sigma, l_target)
        done = abs(new_scale - scale) <= _PARAM_TOL and abs(new_sigma - sigma) <= sigma_tol
        sigma, scale = new_sigma, new_scale
        if done:
            break
    else:
        raise RuntimeError(f"lower-bound fit still moving after {max_iter} alternations")
    return sigma, scale


# Frozen lattice minimizers for the two demo FOUs (mean spread 0.1 and 0.125,
# base sigma 0.418, default window, 1001 samples).
LATTICE_A = (4938, 3658, 9160)
LATTICE_B = (5128, 3540, 8903)

# Frozen fit_bounds outputs for the same two FOUs: (umf_sigma, lmf_sigma,
# lmf_scale). Regression pins at 1e-6; the minimizer itself is deterministic.
FIT_A = (0.49377554787489125, 0.36579137360367164, 0.916057018372549)
FIT_B = (0.512834776615328, 0.35399907232415007, 0.890331920606266)

# Coarse expected parameters for the same fits (loose +/- 0.05 targets; the
# tight pins above are the regression source of truth).
REF_A = (0.4937, 0.3651, 0.9183)
REF_B = (0.5128, 0.3532, 0.895)

# Frozen closed-form outputs of the demo system at spot inputs.
GC_CORNER = 0.9525458878644717     # infer_gc at (-1, -1)
NT_CORNER = 0.9889128417897984     # infer_nt at (-1, -1)
SPLIT_ORIGIN = 0.3082120513058051  # split form at (0, 0) with consequents b +/- 0.1

# Frozen plant derivative: angular acceleration at angle 0.1 rad, rest, no force.
D_VELOCITY_AT_TENTH = 1.9522458112917445


def lcg_stream(count, seed):
    """The probe generator the CLI documents: 32-bit LCG mapped to [-1, 1)."""
    state = seed & 0xFFFFFFFF
    out = []
    for _ in range(count):
        state = (1664525 * state + 1013904223) % (2 ** 32)
        out.append(state / 2 ** 31 - 1.0)
    return out
