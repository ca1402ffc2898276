"""Mittag-Leffler and M-Wright special functions.

``mittag_leffler`` evaluates E_a(z) = sum_n z^n / Gamma(a*n + 1) for complex
z by a three-region strategy: Taylor series near the origin, an optimal-
truncation asymptotic expansion far out, and a deformed Hankel/Bromwich
contour integral in between.  ``m_wright`` evaluates the self-similar
profile M_nu(x) of fractional diffusion, and ``f_alpha_half`` the closed
form of the inverse-Laplace kernel of exp(-sqrt(s)).

All functions are pure and accept scalars or numpy arrays in the main
argument; they are safe to call concurrently.  Every step runs on arrays,
so a point's value does not depend on the other points of the call.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, rgamma

from .errors import ConvergenceError, DomainError

__all__ = ["mittag_leffler", "m_wright", "f_alpha_half", "stable_density"]

# Region boundaries and tolerances: the Taylor series serves |z| <= 1; the
# asymptotic expansion is attempted from a threshold that never exceeds
# |z| = 10 (it shrinks for small orders, where the expansion converges
# earlier); series stop at the relative tolerance or fail after the term cap.
_SERIES_RADIUS = 1.0
_ASYMPTOTIC_RADIUS = 10.0
_RTOL = 1e-11
_MAX_TERMS = 500

# Contour ray angles: the first serves every point whose resolvent pole
# (if on the principal sheet) keeps 2 * _MIN_POLE_RAY_GAP from it; a pole
# that close to 0.75 pi lies at least 0.15 pi - 0.1 > 0.37 from 0.60 pi,
# so the second serves the rest.  The arc joining the rays has radius
# _ARC_RADIUS.
_RAY_ANGLES = (0.75 * np.pi, 0.60 * np.pi)
_ARC_RADIUS = 0.3
_MIN_POLE_RAY_GAP = 0.05


def _neumaier_sum_inplace(total, comp, term):
    """One compensated-summation step; returns updated (total, comp)."""
    t = total + term
    comp = comp + np.where(
        np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total
    )
    return t, comp


def _ml_series(alpha, z, rtol, max_terms):
    """Taylor series with compensated accumulation, vectorized over z."""
    z = np.asarray(z, dtype=complex)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    power = np.ones_like(z)
    small_count = np.zeros(z.shape, dtype=int)
    for n in range(1, max_terms + 1):
        power = power * z
        term = power * rgamma(alpha * n + 1.0)
        total, comp = _neumaier_sum_inplace(total, comp, term)
        scale = np.maximum(np.abs(total + comp), 1e-300)
        small_count = np.where(np.abs(term) <= rtol * scale, small_count + 1, 0)
        if np.all(small_count >= 2):
            return total + comp
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge in {max_terms} terms",
        region="series",
        detail={"alpha": alpha, "max_abs_z": float(np.max(np.abs(z)))},
    )


def _ml_asymptotic(alpha, z, rtol, max_terms=220):
    """Optimal-truncation asymptotic expansion.

    Returns ``(values, ok)`` where ``ok`` marks points at which the
    expansion reached ``rtol`` before its terms started to grow.  The
    exponential term exp(z**(1/alpha))/alpha is included exactly on the
    sheet |arg z| <= alpha*pi where the resolvent pole exists.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = np.where(
            np.abs(np.angle(z)) <= alpha * np.pi + 1e-15,
            np.exp(z ** (1.0 / alpha)) / alpha,
            0.0,
        )
    total = np.array(expo, dtype=complex)
    inv = 1.0 / z
    power = np.ones_like(z)
    prev_mag = np.full(z.shape, np.inf)
    ok = np.zeros(z.shape, dtype=bool)
    frozen = np.zeros(z.shape, dtype=bool)  # stopped (converged or diverging)
    small_count = np.zeros(z.shape, dtype=int)
    for n in range(1, max_terms + 1):
        power = power * inv
        coef = rgamma(1.0 - alpha * n)
        term = -power * coef
        mag = np.abs(term)
        growing = (mag > prev_mag) & (mag > 0)
        # freeze points whose terms started growing; they keep their sum
        frozen = frozen | growing
        total = np.where(frozen, total, total + term)
        scale = np.maximum(np.abs(total), 1e-300)
        nonzero = mag > 0
        small_count = np.where(
            frozen, small_count, np.where(mag <= 0.1 * rtol * scale, small_count + 1, np.where(nonzero, 0, small_count))
        )
        newly_ok = (~frozen) & (small_count >= 2)
        ok = ok | newly_ok
        frozen = frozen | newly_ok
        prev_mag = np.where(nonzero, mag, prev_mag)
        if np.all(frozen):
            break
    return total, ok


def _contour_nodes(phi0, n_panels=16, n_gauss=18, n_arc=48):
    """Gauss nodes/weights for the two rays and the arc of the contour."""
    chi_max = 46.0 / abs(np.cos(phi0))
    edges = _ARC_RADIUS * (chi_max / _ARC_RADIUS) ** (np.arange(n_panels + 1) / n_panels)
    gx, gw = np.polynomial.legendre.leggauss(n_gauss)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    chi = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wchi = (half[:, None] * gw[None, :]).ravel()
    tx, tw = np.polynomial.legendre.leggauss(n_arc)
    theta = phi0 * tx
    wtheta = phi0 * tw
    return chi, wchi, theta, wtheta


def _ml_contour_batch(alpha, z, phi0):
    """Contour-integral evaluation for a batch of z sharing one ray angle.

    Integrates e^s s^(alpha-1) / (s^alpha - z) over two rays at +-phi0 and
    a small arc, adding the pole contribution exp(z**(1/alpha))/alpha when
    |arg z| < alpha*phi0.
    """
    z = np.asarray(z, dtype=complex)
    chi, wchi, theta, wtheta = _contour_nodes(phi0)

    def ray(sign):
        s = chi * np.exp(sign * 1j * phi0)
        pref = np.exp(s) * s ** (alpha - 1.0) * np.exp(sign * 1j * phi0)
        denom = s[:, None] ** alpha - z[None, :]
        return np.einsum("i,ij->j", wchi * pref, 1.0 / denom)

    s_arc = _ARC_RADIUS * np.exp(1j * theta)
    pref_arc = np.exp(s_arc) * s_arc ** (alpha - 1.0) * 1j * s_arc
    denom_arc = s_arc[:, None] ** alpha - z[None, :]
    arc = np.einsum("i,ij->j", wtheta * pref_arc, 1.0 / denom_arc)

    total = (ray(+1) - ray(-1) + arc) / (2j * np.pi)
    inside = np.abs(np.angle(z)) < alpha * phi0
    if np.any(inside):
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.where(inside, total + np.exp(z ** (1.0 / alpha)) / alpha, total)
    return total


def _asymptotic_attempt_radius(alpha, rtol):
    """Smallest |z| at which the asymptotic expansion can reach rtol.

    The superasymptotic error scale is exp(-|z|**(1/alpha)); require that
    to undercut rtol with margin.
    """
    return max(2.0, (-np.log(rtol * 1e-3)) ** alpha)


def _ml_eval_core(alpha, z):
    """Dispatch a flat complex array through the three evaluation regions."""
    out = np.empty(z.shape, dtype=complex)
    az = np.abs(z)

    near = az <= _SERIES_RADIUS
    if np.any(near):
        out[near] = _ml_series(alpha, z[near], _RTOL, _MAX_TERMS)

    far = ~near
    if np.any(far):
        zf = z[far]
        attempt = np.abs(zf) >= min(
            _asymptotic_attempt_radius(alpha, _RTOL), _ASYMPTOTIC_RADIUS
        )
        vals = np.empty(zf.shape, dtype=complex)
        done = np.zeros(zf.shape, dtype=bool)
        if np.any(attempt):
            av, ok = _ml_asymptotic(alpha, zf[attempt], _RTOL)
            idx = np.flatnonzero(attempt)
            vals[idx[ok]] = av[ok]
            done[idx[ok]] = True

        rest = ~done
        if np.any(rest):
            zr = zf[rest]
            theta_p = np.angle(zr) / alpha
            on_sheet = np.abs(np.angle(zr)) < alpha * np.pi
            first = (~on_sheet) | (
                np.abs(np.abs(theta_p) - _RAY_ANGLES[0]) >= 2 * _MIN_POLE_RAY_GAP)
            rvals = np.empty(zr.shape, dtype=complex)
            for phi0, take in zip(_RAY_ANGLES, (first, ~first)):
                if np.any(take):
                    rvals[take] = _ml_contour_batch(alpha, zr[take], phi0)
            vals[rest] = rvals
        fvals = out[far]
        fvals[:] = vals
        out[far] = fvals
    return out


def mittag_leffler(alpha, z):
    """Evaluate the Mittag-Leffler function E_alpha(z) for complex z.

    Parameters
    ----------
    alpha : float
        Order, in (0, 2].  Orders in (1, 2] are reduced to half order via
        E_a(z) = (E_{a/2}(sqrt(z)) + E_{a/2}(-sqrt(z))) / 2.
    z : complex or array_like of complex
        Finite argument(s).

    Returns
    -------
    complex or numpy.ndarray
        E_alpha(z), elementwise for array input.  E_alpha(0) is exactly 1.

    Raises
    ------
    DomainError
        For non-finite z or alpha outside (0, 2].
    ConvergenceError
        If an internal series exceeds its term budget.
    """
    if not np.isfinite(alpha) or not (0.0 < alpha <= 2.0):
        raise DomainError(f"order alpha must be in (0, 2], got {alpha}")
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr).ravel()
    if not np.all(np.isfinite(z_flat)):
        raise DomainError("argument z must be finite")

    if alpha > 1.0:
        w = np.sqrt(z_flat)
        half = 0.5 * (
            _ml_dispatch(alpha / 2.0, w) + _ml_dispatch(alpha / 2.0, -w)
        )
        out = half
    else:
        out = _ml_dispatch(alpha, z_flat)

    out = out.reshape(z_arr.shape) if not scalar else out[0]
    return complex(out) if scalar else out


def _ml_dispatch(alpha, z_flat):
    out = np.empty(z_flat.shape, dtype=complex)
    zero = z_flat == 0
    out[zero] = 1.0
    if np.any(~zero):
        out[~zero] = _ml_eval_core(alpha, z_flat[~zero])
    return out


# -- M-Wright and the one-sided stable kernel ---------------------------

_MW_SERIES_XMAX = 12.0


def _m_wright_series(nu, x, rtol, max_terms):
    """Alternating series for M_nu in extended precision, over an array x.

    Returns ``(values, loss)`` arrays; ``loss`` marks points where
    cancellation has consumed the precision budget (or a term overflowed)
    and the caller should switch to the Laplace-inversion route.  The
    power/factorial factor is carried as a running product so no
    intermediate overflows.  Each point stops on its own rule and leaves
    the active set; the per-point operation order does not depend on the
    other points.
    """
    eps_ld = float(np.finfo(np.longdouble).eps)
    values = np.empty(x.shape)
    loss = np.ones(x.shape, dtype=bool)
    idx = np.arange(x.size)
    neg_x = np.asarray(-x, dtype=np.longdouble)
    total = np.full(x.shape, rgamma(1.0 - nu), dtype=np.longdouble)
    comp = np.zeros(x.shape, dtype=np.longdouble)
    pf = np.ones(x.shape, dtype=np.longdouble)  # (-x)^n / n!
    max_mag = np.abs(total)
    small = np.zeros(x.shape, dtype=int)
    for n in range(1, max_terms + 1):
        if idx.size == 0:
            break
        pf = pf * neg_x / n
        rg = rgamma(-nu * (n + 1) + 1.0)
        if not np.isfinite(rg):
            break
        term = pf * np.longdouble(rg)
        big = np.abs(term) > 1e280
        values[idx[big]] = (total[big] + comp[big]).astype(float)
        total, comp = _neumaier_sum_inplace(total, comp, term)
        max_mag = np.maximum(max_mag, np.abs(term))
        settled = np.abs(term) <= rtol * np.maximum(np.abs(total + comp), 1e-300)
        small = np.where(settled, small + 1, 0)
        done = (small >= 2) & ~big
        if np.any(done):
            val = (total[done] + comp[done]).astype(float)
            values[idx[done]] = val
            loss[idx[done]] = np.abs(val) < (
                max_mag[done] * eps_ld * n / (0.5 * max(rtol, 1e-12)))
        keep = ~(done | big)
        if not np.all(keep):
            idx, neg_x, total, comp, pf, max_mag, small = (
                a[keep] for a in (idx, neg_x, total, comp, pf, max_mag, small))
    values[idx] = (total + comp).astype(float)
    return values, loss


def _stretched_exp_log(nu, x):
    """log of the saddle-point decay bound of M_nu at large x."""
    c = 1.0 / (1.0 - nu)
    b = (1.0 - nu) * nu ** (nu / (1.0 - nu))
    a_exp = (nu - 0.5) / (1.0 - nu)
    amp = nu ** ((2.0 * nu - 1.0) / (2.0 - 2.0 * nu)) / np.sqrt(2.0 * np.pi * (1.0 - nu))
    return np.log(amp) + a_exp * np.log(x) - b * x**c


_TALBOT_M = 32
_TALBOT_M_CHECK = 21
_TALBOT_EXPONENT_GUARD = 16.0  # max Re(ts - s^alpha) for acceptable cancellation


def _talbot_coefficients(M):
    r = 2.0 * M / 5.0
    theta = np.arange(1, M) * np.pi / M
    cot = 1.0 / np.tan(theta)
    s_unit = theta * (cot + 1j)  # s = s_unit * r / t
    sigma = theta + (theta * cot - 1.0) * cot
    return r, s_unit, sigma


_TALBOT_COEFFS = {M: _talbot_coefficients(M) for M in (_TALBOT_M, _TALBOT_M_CHECK)}


def _talbot_once(alpha, t, M):
    """One fixed-Talbot contour sum; returns (value, ok, scale)."""
    r, s_unit, sigma = _TALBOT_COEFFS[M]
    s = s_unit * (r / t)
    w = t * s - s**alpha
    head_exp = r - (r / t) ** alpha
    max_exp = max(np.max(w.real), head_exp)
    if max_exp > _TALBOT_EXPONENT_GUARD:
        return 0.0, False, 0.0
    terms = np.exp(w) * (1.0 + 1j * sigma)
    mags = np.abs(terms)
    dphi = np.abs(np.diff(w.imag))
    weighty = (mags[1:] + mags[:-1]) > 2e-12 * max(mags.max(), 1e-300)
    if np.any(weighty & (dphi > 2.5)):
        return 0.0, False, 0.0
    scale = (r / (M * t)) * (0.5 * np.exp(head_exp) + np.sum(mags))
    value = (r / (M * t)) * (0.5 * np.exp(head_exp) + np.sum(terms.real))
    return value, True, scale


def _talbot_invert_exp_power(alpha, t):
    """Fixed-Talbot inversion of exp(-s**alpha) at scalar t > 0.

    Returns ``(value, ok)``.  The sum is formed on two contours of
    different node counts; disagreement flags the regime (growing contour
    exponent, under-resolved phase, or macroscopic cancellation) where the
    32-node rule silently loses the answer.
    """
    v1, ok1, scale1 = _talbot_once(alpha, t, _TALBOT_M)
    if not ok1:
        return 0.0, False
    v2, ok2, _ = _talbot_once(alpha, t, _TALBOT_M_CHECK)
    if not ok2:
        return 0.0, False
    tol = 1e-6 * max(abs(v1), 1e-300) + 1e-13 * scale1
    if abs(v1 - v2) > tol:
        return 0.0, False
    return v1, abs(v1) > 1e-14 * scale1


def _stable_tail_series(alpha, t, rtol=1e-12, max_terms=700):
    """Reciprocal-power series of f_alpha over an array t, convergent for all t > 0.

    f_alpha(t) = (1/pi) sum_k (-1)^(k+1) Gamma(alpha k + 1) sin(pi k alpha)
                 / k! * t^(-alpha k - 1).

    Terms are built in log space and accumulated in extended precision;
    each point stops on its own rule and leaves the active set, so its
    operation order does not depend on the other points.  Returns
    ``(values, ok)`` arrays.  ``ok`` certifies 1e-7 relative accuracy: the
    extended-precision rounding eps_ld * k * max|term| plus the error each
    term inherits from its float64 log magnitude,
    sum |term| * 2^-52 * (|log_mag| + |(alpha k + 1) log t| + 4), must stay
    below 1e-7 of the sum.  Points whose magnitude overflows or that do not
    stop within ``max_terms`` are not ok.
    """
    eps_ld = float(np.finfo(np.longdouble).eps)
    values = np.zeros(t.shape)
    ok = np.zeros(t.shape, dtype=bool)
    idx = np.arange(t.size)
    log_t = np.log(t)
    total = np.zeros(t.shape, dtype=np.longdouble)
    comp = np.zeros(t.shape, dtype=np.longdouble)
    max_mag = np.zeros(t.shape)
    err64 = np.zeros(t.shape)
    small = np.zeros(t.shape, dtype=int)
    for k in range(1, max_terms + 1):
        if idx.size == 0:
            break
        sin_fac = np.sin(np.pi * k * alpha)
        scale_log = (alpha * k + 1.0) * log_t
        log_mag = gammaln(alpha * k + 1.0) - gammaln(k + 1.0) - scale_log
        # overflowing points leave below; the clip keeps their dropped term finite
        over = log_mag > 640.0
        term = np.longdouble((-1.0) ** (k + 1) * sin_fac) * np.exp(
            np.minimum(log_mag, 640.0).astype(np.longdouble))
        total, comp = _neumaier_sum_inplace(total, comp, term)
        mag = np.abs(term.astype(float))
        max_mag = np.maximum(max_mag, mag)
        err64 = err64 + mag * 2.0**-52 * (np.abs(log_mag) + np.abs(scale_log) + 4.0)
        settled = mag <= rtol * np.maximum(np.abs((total + comp).astype(float)), 1e-300)
        small = np.where(settled, small + 1, 0)
        done = (small >= 2) & ~over
        if np.any(done):
            val = (total[done] + comp[done]).astype(float)
            values[idx[done]] = val / np.pi
            ok[idx[done]] = max_mag[done] * eps_ld * k + err64[done] < 1e-7 * np.abs(val)
        keep = ~(done | over)
        if not np.all(keep):
            idx, log_t, total, comp, max_mag, err64, small = (
                a[keep] for a in (idx, log_t, total, comp, max_mag, err64, small))
    values[idx] = (total + comp).astype(float) / np.pi
    return values, ok


def _stable_zolotarev(alpha, t):
    """Positive-integrand angular representation of the stable density.

    f_alpha(t) = (alpha/(1-alpha)) t^(-1/(1-alpha)) (1/pi)
                 * integral_0^pi A(phi) exp(-y A(phi)) dphi,
    y = t^(-alpha/(1-alpha)),
    A(phi) = [sin(a phi)^a sin((1-a) phi)^(1-a) / sin(phi)]^(1/(1-a)).

    No cancellation occurs anywhere, so this covers the bands where both
    the reciprocal-power series and the Talbot contour lose accuracy
    (including orders arbitrarily close to one).
    """
    one_m = 1.0 - alpha
    with np.errstate(over="ignore", invalid="ignore"):
        y = t ** (-alpha / one_m)
    if not np.isfinite(y):
        # astronomically small t: the decay bound already underflows
        return 0.0
    min_exponent = y * one_m * alpha ** (alpha / one_m)  # y * A(0+)
    if min_exponent > 700.0:
        return 0.0
    log_y = np.log(y)

    def log_a(phi):
        return (
            alpha * np.log(np.sin(alpha * phi))
            + one_m * np.log(np.sin(one_m * phi))
            - np.log(np.sin(phi))
        ) / one_m

    def integrand(phi):
        la = log_a(phi)
        expo = la + log_y
        if expo > 690.0:
            return 0.0
        return np.exp(la - np.exp(expo))

    # locate where y*A(phi) = 1: A is monotone from A(0+) to infinity at pi,
    # and for orders near one the integrand collapses to a spike there that
    # blind adaptive subdivision misses
    lo, hi = 1e-9, np.pi - 1e-9
    pts = None
    if log_a(lo) + log_y < 0.0 < log_a(hi) + log_y:
        a_lo, a_hi = lo, hi
        for _ in range(80):
            mid = 0.5 * (a_lo + a_hi)
            if log_a(mid) + log_y < 0.0:
                a_lo = mid
            else:
                a_hi = mid
        pts = [a_lo]
    val, _err = quad(integrand, lo, hi, limit=300, points=pts)
    return (alpha / one_m) * t ** (-1.0 / one_m) * val / np.pi


def stable_density(alpha, t):
    """Density f_alpha(t) whose Laplace transform is exp(-s**alpha).

    For ``alpha = 1/2`` the elementary closed form applies.  Otherwise the
    value is taken from the first of these routes that certifies itself:
    the convergent reciprocal-power series, a 32-node fixed-Talbot contour
    inversion (valid while the contour exponent stays bounded), and
    Zolotarev's positive-integrand angular integral, which has no
    cancellation and serves whatever the first two leave.  The series runs
    over all points at once and certifies 1e-7 relative accuracy (see
    :func:`_stable_tail_series`); only the points it does not certify go,
    one at a time, to the other two routes.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"stable density requires alpha in (0, 1), got {alpha}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).ravel()
    if np.any(t_flat <= 0) or not np.all(np.isfinite(t_flat)):
        raise DomainError("argument t must be finite and > 0")
    if alpha == 0.5:
        out = t_flat ** (-1.5) * np.exp(-0.25 / t_flat) / (2.0 * np.sqrt(np.pi))
    else:
        out, ok = _stable_tail_series(alpha, t_flat)
        for i in np.flatnonzero(~ok):
            val, good = _talbot_invert_exp_power(alpha, t_flat[i])
            out[i] = val if good else _stable_zolotarev(alpha, t_flat[i])
        out = np.maximum(out, 0.0)
    out = out.reshape(t_arr.shape) if not scalar else out[0]
    return float(out) if scalar else out


def _m_wright_from_kernel(nu, x):
    """M_nu(x) via the kernel identity M_nu(x) = t^(nu+1) f_nu(t) / nu, t = x^(-1/nu).

    Absolutely accurate where the series cancels catastrophically; used
    for large arguments.
    """
    t = x ** (-1.0 / nu)
    return stable_density(nu, t) * t ** (nu + 1.0) / nu


def m_wright(nu, x):
    """M-Wright function M_nu(x) for nu in (0,1) and x >= 0.

    The defining alternating series is used while it retains significant
    digits; beyond that (large x, or orders nu > 1/2 where cancellation
    bites early) the value is recovered from the one-sided stable density
    through its exact kernel relation.  Arguments in the deep
    stretched-exponential tail return 0 once the decay bound falls below
    1e-300.  The points are split into these routes up front: the series
    runs over all its points at once, and every point for the kernel route
    (x > 12, or series precision loss) goes into one ``stable_density``
    call.
    """
    if not (0.0 < nu < 1.0):
        raise DomainError(f"order nu must be in (0, 1), got {nu}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_flat = np.atleast_1d(x_arr).ravel()
    if np.any(x_flat < 0) or not np.all(np.isfinite(x_flat)):
        raise DomainError("argument x must be finite and >= 0")

    out = np.empty(x_flat.shape, dtype=float)
    decay_log = np.zeros(x_flat.shape)
    far = x_flat > 1.0
    decay_log[far] = _stretched_exp_log(nu, x_flat[far])
    # deep tail: the saddle form beats the noise floor of any summation
    # route (exact 0 below the underflow threshold)
    deep = decay_log < -23.0
    out[deep] = np.where(decay_log[deep] < -690.0, 0.0, np.exp(decay_log[deep]))
    via_kernel = ~deep & (x_flat > _MW_SERIES_XMAX)
    series = np.flatnonzero(~deep & ~via_kernel)
    vals, loss = _m_wright_series(nu, x_flat[series], _RTOL, _MAX_TERMS)
    if np.any(loss & (x_flat[series] == 0.0)):
        raise ConvergenceError("M-Wright series failed at x=0", region="series")
    out[series] = np.maximum(vals, 0.0)
    via_kernel[series[loss]] = True
    if np.any(via_kernel):
        out[via_kernel] = _m_wright_from_kernel(nu, x_flat[via_kernel])
    out = out.reshape(x_arr.shape) if not scalar else out[0]
    return float(out) if scalar else out


def f_alpha_half(t):
    """Stable kernel f_{1/2}(t) = t^(-3/2) exp(-1/(4t)) / (2 sqrt(pi)).

    This is the inverse Laplace transform of exp(-sqrt(s)); it is positive
    on (0, inf) and integrates to one.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr)
    if np.any(t_flat <= 0) or not np.all(np.isfinite(t_flat)):
        raise DomainError("argument t must be finite and > 0")
    out = t_flat ** (-1.5) * np.exp(-0.25 / t_flat) / (2.0 * np.sqrt(np.pi))
    out = out.reshape(t_arr.shape) if not scalar else out[0]
    return float(out) if scalar else out
