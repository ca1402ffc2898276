"""Mittag-Leffler and M-Wright special functions.

``mittag_leffler`` evaluates E_a(z) = sum_n z^n / Gamma(a*n + 1) for complex
z by one contour rule at every z != 0: the trapezoid rule on a parabola
around the branch cut plus the residue of the resolvent pole right of it.
``m_wright`` evaluates the self-similar profile M_nu(x) of fractional
diffusion, and ``stable_density`` the one-sided stable density
f_alpha(t) = alpha t^(-1-alpha) M_alpha(t^(-alpha)) (Mainardi, Mura &
Pagnini, Int. J. Differ. Equ. 2010, 104505).  The two share one route
split: the M-Wright series where it certifies its sum, and Zolotarev's
angular integral for the points it leaves.  At order 1/2 both take their
closed forms, M_{1/2}(x) = exp(-x^2/4)/sqrt(pi) and ``f_alpha_half``, the
inverse-Laplace kernel of exp(-sqrt(s)), and no series runs.

All functions are pure and accept scalars or numpy arrays in the main
argument; they are safe to call concurrently.  Every step runs on arrays:
the M-Wright series in blocks of terms with fixed edges, each point
stopping at its own first event, so a point's value does not depend on
the other points of the call.
The only Gamma values needed, the 1/Gamma factors of the M-Wright
series, come from ``math.gamma``, so the module needs numpy alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = ["mittag_leffler", "m_wright", "f_alpha_half", "stable_density"]

# Parabolic contour s(u) = mu (1 + iu)^2: the trapezoid rule on 2 _ML_NODES + 1
# nodes, cut where |e^s| = e^(mu (1 - u^2)) falls to e^-_ML_TRUNCATION.  mu comes
# from a fixed geometric grid, so points with the same mu share their nodes.
_ML_NODES = 48
_ML_TRUNCATION = 36.8
_ML_CHUNK_ENTRIES = 1 << 14  # (points x nodes) entries per block, 256 KiB each


@functools.cache
def _ml_grid():
    """The contour's mu grid, node spacing h and log a-priori error.

    The error is taken times |z| and without the pole.  A strip edge at
    distance d from the real u axis costs max|e^s| e^(-2 pi d / h) there:
    the branch cut, d = 1 above, gives e^(-2 pi / h); below, |e^s| grows to
    e^(mu (1 + d)^2), least at d = pi / (mu h) - 1 (> 0 on this grid).  The
    round-off of ~1/h terms of size e^mu h adds up like a random walk.
    Built on first use: evaluating these ufuncs at import added ~10 ms to
    ``import fracrte.cli``.
    """
    mu = 0.5 * 2.0 ** (np.arange(25) / 4.0)
    h = np.sqrt(1.0 + _ML_TRUNCATION / mu) / _ML_NODES
    error = np.logaddexp.reduce([
        -2.0 * np.pi / h,
        np.pi / h * (2.0 - np.pi / (mu * h)),
        mu + 0.5 * np.log(h) + np.log(np.finfo(float).eps),
    ])
    return mu, h, error


def _ml_pick(alpha, z, pole, on_sheet):
    """Each point's mu-grid index, the least a-priori error of :func:`_ml_parabola`.

    The pole's term can move the pick off argmin(base) only on the principal
    sheet and within e^-40 of the least base term, so only there is it formed.
    """
    grid_mu, grid_h, base_error = _ml_grid()
    pick = np.full(z.shape, np.argmin(base_error))
    log_r = np.log(np.abs(z))
    with np.errstate(over="ignore", invalid="ignore"):
        pole_log = pole.real - np.log(alpha)
        near = np.flatnonzero(on_sheet & ~(pole_log < base_error.min() - log_r - 40.0))
        gap = np.abs(1.0 - np.sqrt(pole[near]).real[:, None] / np.sqrt(grid_mu))
        err = np.logaddexp(base_error - log_r[near, None],
                           pole_log[near, None] - 2.0 * np.pi * gap / grid_h)
    pick[near] = np.argmin(err, axis=1)
    return pick


def _ml_parabola(alpha, z):
    """E_alpha(z) by the trapezoid rule on a parabolic contour, over an array z.

    E_alpha(z) = (1/2 pi i) int e^s s^(alpha-1) / (s^alpha - z) ds along
    s(u) = mu (1 + iu)^2, where ds / (2 pi i) = mu (1 + iu) du / pi
    (Weideman & Trefethen, Math. Comp. 76 (2007) 1341).  In u the branch
    cut lies at Im u = 1 and the pole s* = z^(1/alpha) at
    Im u = 1 - Re sqrt(s*/mu); a pole on the principal sheet
    (|arg z| < alpha pi) right of the contour adds its residue e^(s*)/alpha
    (Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350).  Each point takes the
    grid mu of least a-priori error: that of :func:`_ml_grid` over |z| plus
    the pole's e^(Re s*)/alpha e^(-2 pi |1 - Re sqrt(s*) / sqrt(mu)| / h).
    The terms at +-u are added in pairs, so E(conj z) = conj E(z) bit for
    bit, and each point sums its own row, independent of the other points.
    """
    grid_mu, grid_h, _ = _ml_grid()
    on_sheet = np.abs(np.angle(z)) < alpha * np.pi
    with np.errstate(over="ignore", invalid="ignore"):
        pole = z ** (1.0 / alpha)
        root = np.sqrt(pole).real
    pick = _ml_pick(alpha, z, pole, on_sheet)
    out = np.empty(z.shape, dtype=complex)
    for j in np.unique(pick):
        mu, h = grid_mu[j], grid_h[j]
        w = 1.0 + 1j * h * np.arange(_ML_NODES + 1)
        s = mu * w * w
        weight, s_alpha = np.exp(s) * s ** (alpha - 1.0) * w, s ** alpha
        members = np.flatnonzero(pick == j)
        for idx in np.array_split(members, -(-members.size * w.size // _ML_CHUNK_ENTRIES)):
            upper = weight / (s_alpha - z[idx, None])
            lower = np.conj(weight[1:]) / (np.conj(s_alpha[1:]) - z[idx, None])
            out[idx] = mu * h / np.pi * (upper[:, 0] + np.sum(upper[:, 1:] + lower, axis=1))
        right = members[on_sheet[members] & (root[members] > np.sqrt(mu))]
        with np.errstate(over="ignore", invalid="ignore"):
            out[right] += np.exp(pole[right]) / alpha
    return out


def _ml_eval(alpha, z):
    """E_alpha over a flat complex array: e^z at order 1, else 1 at z = 0 and the contour."""
    if alpha == 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(z)
    out = np.ones(z.shape, dtype=complex)
    nonzero = z != 0
    out[nonzero] = _ml_parabola(alpha, z[nonzero])
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

    Notes
    -----
    Every z != 0 takes the parabolic contour of :func:`_ml_parabola`;
    z = 0 does not.  Against 32-digit Taylor and 40-digit asymptotic
    oracles the relative error is within 6.2e-16 on the unit disc, at
    50 <= |z| <= 5119 on the transport layouts and at orders 0.02 and
    0.05, and within 1.1e-14 for 1 < |z| <= 10, where |E| can be small
    (an absolute 5.5e-16 at |E| = 0.05).  At alpha = 1 (and 2, by halving)
    E = e^z is ``np.exp``, relative to round-off as it decays and 0 where
    it underflows.  E(conj z) = conj E(z) bit for bit.
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
        out = 0.5 * (_ml_eval(alpha / 2.0, w) + _ml_eval(alpha / 2.0, -w))
    else:
        out = _ml_eval(alpha, z_flat)
    out = out.reshape(z_arr.shape) if not scalar else out[0]
    return complex(out) if scalar else out


# -- M-Wright and the one-sided stable kernel ---------------------------

# The M-Wright series serves x <= _MW_SERIES_XMAX; it stops at the relative
# tolerance or leaves its points to Zolotarev's integral after the term cap.
_MW_SERIES_XMAX = 12.0
_RTOL = 1e-11
_MAX_TERMS = 500
_MW_BLOCK = 16


def _rgamma(x):
    """1/Gamma(x) for a float x < 171: 0 at the poles, +-inf where Gamma underflows."""
    if x <= 0.0 and x == int(x):
        return 0.0
    g = math.gamma(x)
    return 1.0 / g if g else math.copysign(math.inf, g)


@functools.lru_cache(maxsize=32)
def _mw_coefficients(nu, max_terms):
    """1/Gamma(1 - nu (n + 1)), n = 0..max_terms, in long double, up to the first non-finite one."""
    coef = np.array([_rgamma(-nu * (n + 1) + 1.0) for n in range(max_terms + 1)], np.longdouble)
    finite = np.isfinite(coef)
    return coef if finite.all() else coef[:np.argmin(finite)]


def _m_wright_series(nu, x, rtol, max_terms):
    """Alternating series for M_nu in extended precision, over an array x.

    Returns ``(values, loss)`` arrays; ``loss`` marks the points the caller
    sends to Zolotarev's integral instead: x > ``_MW_SERIES_XMAX`` (value
    0), no settled sum within ``max_terms``, or cancellation past the
    precision budget eps_ld n max|term|, which also bounds the round-off
    of the running sum.  Zolotarev's integrand A e^(-yA) is at most
    1/(e y), so M_nu(x) <= 1 / (e (1 - nu) x): once the budget exceeds
    twice that bound, loss is certain, and the point leaves with value 0
    at once.  The terms run in blocks of ``_MW_BLOCK`` with fixed edges
    n = 1, 17, 33, ...: (-x)^n / n! by ``np.cumprod`` of the running
    ratios (so nothing overflows), the partial sums by ``np.cumsum``, and
    each point stops at its first event (two consecutive settled terms,
    or certain loss).  Each row is its own, so a point's value does not
    depend on the other points.
    """
    eps_ld = float(np.finfo(np.longdouble).eps)
    coef = _mw_coefficients(nu, max_terms)
    values = np.zeros(x.shape)
    loss = np.ones(x.shape, dtype=bool)
    idx = np.flatnonzero(x <= _MW_SERIES_XMAX)
    neg_x = np.asarray(-x[idx], dtype=np.longdouble)[:, None]
    # each point's state after its last term: (-x)^n / n!, sum, max|term|, settled
    pf, total = np.ones_like(neg_x), np.full_like(neg_x, coef[0])
    max_mag, settled = np.abs(total), np.zeros(neg_x.shape, dtype=bool)
    for first in range(1, coef.size, _MW_BLOCK):
        if idx.size == 0:
            break
        n = np.arange(first, min(first + _MW_BLOCK, coef.size))
        pf = np.cumprod(np.concatenate((pf, neg_x / n), axis=1), axis=1)
        terms = pf[:, 1:] * coef[n]
        total = np.cumsum(np.concatenate((total, terms), axis=1), axis=1)
        max_mag = np.maximum.accumulate(np.concatenate((max_mag, np.abs(terms)), axis=1), axis=1)
        settled = np.concatenate(
            (settled, np.abs(terms) <= rtol * np.maximum(np.abs(total[:, 1:]), 1e-300)), axis=1)
        budget = max_mag[:, 1:] * eps_ld * n / (0.5 * max(rtol, 1e-12))
        lost = budget * (np.e * (1.0 - nu)) * -neg_x > 2.0
        event = (settled[:, 1:] & settled[:, :-1]) | lost
        stop = np.flatnonzero(np.any(event, axis=1))
        at = np.argmax(event[stop], axis=1)
        done = ~lost[stop, at]
        stop, at = stop[done], at[done]
        values[idx[stop]] = total[stop, at + 1].astype(float)
        loss[idx[stop]] = np.abs(values[idx[stop]]) < budget[stop, at]
        keep = ~np.any(event, axis=1)
        idx, neg_x = idx[keep], neg_x[keep]
        pf, total, max_mag, settled = (a[keep, -1:] for a in (pf, total, max_mag, settled))
    values[idx] = total[:, 0].astype(float)
    return values, loss


def _m_wright_routed(nu, x):
    """Series values of M_nu over a flat array x >= 0, clipped at 0, and
    ``rest``, the points :func:`_m_wright_series` leaves to Zolotarev's integral."""
    values, rest = _m_wright_series(nu, x, _RTOL, _MAX_TERMS)
    return np.maximum(values, 0.0), rest


# Zolotarev rule: on each side of the peak, panels graded by halves toward
# it, each with a fixed Gauss-Legendre rule; the peak is found by bisection
_ZOLO_PANELS = 11
_ZOLO_GAUSS = np.polynomial.legendre.leggauss(48)
_ZOLO_BISECTIONS = 60


def _stable_zolotarev(alpha, t):
    """Zolotarev's positive-integrand angular integral of f_alpha over an array t.

    f_alpha(t) = (alpha/(1-alpha)) t^(-1/(1-alpha)) (1/pi)
                 * integral_0^pi A(phi) exp(-y A(phi)) dphi,
    y = t^(-alpha/(1-alpha)),
    A(phi) = [sin(a phi)^a sin((1-a) phi)^(1-a) / sin(phi)]^(1/(1-a)).

    No cancellation occurs anywhere, so this serves every point the series
    leaves, for orders arbitrarily close to one.  log A rises from
    log A(0+) to infinity at pi, and the integrand peaks near phi*, where
    y A(phi*) = 1; for orders near one it collapses to a spike there.
    phi* is bisected on [0, pi] (it settles at an endpoint when there is no
    crossing), and each side of it gets panels graded by halves toward it.
    The Gauss nodes are interior, so log sin stays finite, and the
    prefactor rides in the exponent, so nothing overflows.  A point's
    nodes lie on one trailing axis and are summed there, so its value does
    not depend on the other points.  Points whose decay bound y A(0+)
    exceeds 700 (or overflows) are 0.
    """
    one_m = 1.0 - alpha
    with np.errstate(divide="ignore", over="ignore"):
        log_y = -alpha / one_m * np.log(t)
        live = np.exp(log_y) * one_m * alpha ** (alpha / one_m) <= 700.0
    out = np.zeros(t.shape)
    if not np.any(live):
        return out
    log_y = log_y[live, None]

    def log_a(phi):
        return (
            alpha * np.log(np.sin(alpha * phi))
            + one_m * np.log(np.sin(one_m * phi))
            - np.log(np.sin(phi))
        ) / one_m

    lo = np.zeros(log_y.shape)
    hi = np.full(log_y.shape, np.pi)
    for _ in range(_ZOLO_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = log_a(mid) + log_y < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    # edges at distances 1, 1/2, ..., 2^-10 and 0 (of each side's length)
    # from the peak
    frac = np.append(0.5 ** np.arange(_ZOLO_PANELS), 0.0)
    edges = np.concatenate((lo * (1.0 - frac), lo + (np.pi - lo) * frac[-2::-1]), axis=1)
    gx, gw = _ZOLO_GAUSS
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    phi = (0.5 * (edges[:, 1:] + edges[:, :-1]))[:, :, None] + half * gx
    log_pref = np.log(alpha / (one_m * np.pi)) - np.log(t[live, None, None]) / one_m
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la = log_a(phi)
        expo = la + log_y[:, :, None]
        # 0 where y A > e^690, and on an empty side, whose nodes sit on 0
        vals = np.where(expo <= 690.0, np.exp(la + log_pref - np.exp(expo)), 0.0)
    out[live] = np.sum((half * gw * vals).reshape(len(lo), -1), axis=-1)
    return out


def stable_density(alpha, t):
    """Density f_alpha(t) whose Laplace transform is exp(-s**alpha).

    For ``alpha = 1/2`` the elementary closed form applies.  Otherwise
    f_alpha(t) = alpha t^(-1-alpha) M_alpha(t^(-alpha)), and the points
    run over whole arrays on the routes of :func:`m_wright`: the M-Wright
    series where it certifies its sum, and Zolotarev's positive-integrand
    angular integral, which has no cancellation, for the rest, through one
    fixed Gauss-Legendre rule split at its peak (see
    :func:`_stable_zolotarev`).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"stable density requires alpha in (0, 1), got {alpha}")
    if alpha == 0.5:
        return f_alpha_half(t)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).ravel()
    if np.any(t_flat <= 0) or not np.all(np.isfinite(t_flat)):
        raise DomainError("argument t must be finite and > 0")
    with np.errstate(over="ignore"):
        x = t_flat ** -alpha
    out, rest = _m_wright_routed(alpha, x)
    out[~rest] *= alpha * t_flat[~rest] ** (-1.0 - alpha)
    out[rest] = _stable_zolotarev(alpha, t_flat[rest])
    out = out.reshape(t_arr.shape) if not scalar else out[0]
    return float(out) if scalar else out


def m_wright(nu, x):
    """M-Wright function M_nu(x) for nu in (0,1) and x >= 0.

    At nu = 1/2 every point takes the closed form exp(-x^2/4)/sqrt(pi) and
    no series runs.  Otherwise the defining alternating series serves
    x <= 12 while it retains significant digits (see
    :func:`_m_wright_series`), and every other point (larger x, or orders
    nu > 1/2 where cancellation bites early) takes the kernel identity
    M_nu(x) = t^(nu+1) f_nu(t) / nu at t = x^(-1/nu), with f_nu from
    Zolotarev's integral, all in one call.  Far in the stretched-exponential
    tail the value underflows to 0.
    """
    if not (0.0 < nu < 1.0):
        raise DomainError(f"order nu must be in (0, 1), got {nu}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_flat = np.atleast_1d(x_arr).ravel()
    if np.any(x_flat < 0) or not np.all(np.isfinite(x_flat)):
        raise DomainError("argument x must be finite and >= 0")
    if nu == 0.5:
        with np.errstate(over="ignore"):
            out = np.exp(-0.25 * x_flat**2) / np.sqrt(np.pi)
    else:
        out, rest = _m_wright_routed(nu, x_flat)
        t = x_flat[rest] ** (-1.0 / nu)
        out[rest] = _stable_zolotarev(nu, t) * t ** (nu + 1.0) / nu
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
    decay = np.exp(-0.25 / t_flat)
    # t^(-3/2) overflows below t ~ 1e-206, far inside where the decay is 0
    out = np.where(decay > 0.0, t_flat, 1.0) ** (-1.5) * decay / (2.0 * np.sqrt(np.pi))
    out = out.reshape(t_arr.shape) if not scalar else out[0]
    return float(out) if scalar else out
