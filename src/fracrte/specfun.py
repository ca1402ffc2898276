"""Mittag-Leffler and M-Wright special functions.

``mittag_leffler`` evaluates E_a(z) = sum_n z^n / Gamma(a*n + 1) for complex
z: the Taylor series on the unit disc, an optimal-truncation asymptotic
expansion far out where it converges, and elsewhere one contour rule, the
trapezoid rule on a parabola around the branch cut plus the residue of the
resolvent pole right of it.  ``m_wright`` evaluates the self-similar
profile M_nu(x) of fractional diffusion, and ``stable_density`` the
one-sided stable density f_alpha(t) = alpha t^(-1-alpha) M_alpha(t^(-alpha))
(Mainardi, Mura & Pagnini, Int. J. Differ. Equ. 2010, 104505).  The two
share one route split: the M-Wright series where it certifies its
sum, and Zolotarev's angular integral for the points it leaves.
``f_alpha_half`` is the closed form of the inverse-Laplace kernel of
exp(-sqrt(s)).

All functions are pure and accept scalars or numpy arrays in the main
argument; they are safe to call concurrently.  Every step runs on arrays,
so a point's value does not depend on the other points of the call.
``scipy.special`` is imported inside the series that need Gamma values,
not with the module, so importing the package does not load it.
"""

from __future__ import annotations

import functools

import numpy as np

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

# Parabolic contour s(u) = mu (1 + iu)^2: the trapezoid rule on 2 _ML_NODES + 1
# nodes, cut where |e^s| = e^(mu (1 - u^2)) falls to e^-_ML_TRUNCATION.  mu comes
# from a fixed geometric grid, so points with the same mu share their nodes.
_ML_NODES = 48
_ML_TRUNCATION = 36.8
_ML_CHUNK_ENTRIES = 1 << 16  # (points x nodes) entries per block


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


def _neumaier_sum_inplace(total, comp, term):
    """One compensated-summation step; returns updated (total, comp)."""
    t = total + term
    comp = comp + np.where(
        np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total
    )
    return t, comp


def _ml_series(alpha, z, rtol, max_terms):
    """Taylor series with compensated accumulation, vectorized over z."""
    from scipy.special import rgamma

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
    from scipy.special import rgamma

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
    grid_mu, grid_h, base_error = _ml_grid()
    on_sheet = np.abs(np.angle(z)) < alpha * np.pi
    with np.errstate(over="ignore", invalid="ignore"):
        pole = z ** (1.0 / alpha)
        root = np.sqrt(pole).real
        pick = np.full(z.shape, np.argmin(base_error))
        if np.any(on_sheet):
            gap = np.abs(1.0 - root[on_sheet, None] / np.sqrt(grid_mu))
            err = np.logaddexp(
                base_error - np.log(np.abs(z[on_sheet, None])),
                (pole.real[on_sheet] - np.log(alpha))[:, None] - 2.0 * np.pi * gap / grid_h)
            pick[on_sheet] = np.argmin(err, axis=1)
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


def _asymptotic_attempt_radius(alpha, rtol):
    """Smallest |z| at which the asymptotic expansion can reach rtol.

    The superasymptotic error scale is exp(-|z|**(1/alpha)); require that
    to undercut rtol with margin.
    """
    return max(2.0, (-np.log(rtol * 1e-3)) ** alpha)


def _ml_eval_core(alpha, z):
    """Route a flat complex array: Taylor series for |z| <= 1, the asymptotic
    series where it converges, and the parabolic contour for the rest."""
    out = np.empty(z.shape, dtype=complex)
    near = np.abs(z) <= _SERIES_RADIUS
    if np.any(near):
        out[near] = _ml_series(alpha, z[near], _RTOL, _MAX_TERMS)
    rest = np.flatnonzero(~near)
    attempt = rest[np.abs(z[rest]) >= min(
        _asymptotic_attempt_radius(alpha, _RTOL), _ASYMPTOTIC_RADIUS)]
    if attempt.size:
        values, ok = _ml_asymptotic(alpha, z[attempt], _RTOL)
        out[attempt[ok]] = values[ok]
        rest = np.setdiff1d(rest, attempt[ok], assume_unique=True)
    if rest.size:
        out[rest] = _ml_parabola(alpha, z[rest])
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

    Notes
    -----
    The Taylor series serves |z| <= 1 and the asymptotic series the points
    where it reaches 1e-11 (both stop there); the parabolic contour of
    :func:`_ml_parabola` serves the rest, within about 1e-14 relative of a
    32-digit oracle on the solvers' arguments.  E(conj z) = conj E(z) bit
    for bit.
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
        out = 0.5 * (_ml_eval_core(alpha / 2.0, w) + _ml_eval_core(alpha / 2.0, -w))
    else:
        out = _ml_eval_core(alpha, z_flat)
    out = out.reshape(z_arr.shape) if not scalar else out[0]
    return complex(out) if scalar else out


# -- M-Wright and the one-sided stable kernel ---------------------------

_MW_SERIES_XMAX = 12.0


def _m_wright_series(nu, x, rtol, max_terms):
    """Alternating series for M_nu in extended precision, over an array x.

    Returns ``(values, loss)`` arrays; ``loss`` marks points where
    cancellation has consumed the precision budget (or the series did not
    stop within ``max_terms``), which the caller sends to Zolotarev's
    integral instead.  Zolotarev's integrand A e^(-yA) is at most 1/(e y),
    so M_nu(x) <= 1 / (e (1 - nu) x): once the budget exceeds twice that
    bound, loss is certain, and the point leaves with value 0 at once
    instead of summing on.  The power/factorial factor is carried as a
    running product so no intermediate overflows.  Each point stops on its
    own rule and leaves the active set; the per-point operation order does
    not depend on the other points.
    """
    from scipy.special import rgamma

    eps_ld = float(np.finfo(np.longdouble).eps)
    values = np.zeros(x.shape)
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
        total, comp = _neumaier_sum_inplace(total, comp, term)
        max_mag = np.maximum(max_mag, np.abs(term))
        settled = np.abs(term) <= rtol * np.maximum(np.abs(total + comp), 1e-300)
        small = np.where(settled, small + 1, 0)
        budget = max_mag * eps_ld * n / (0.5 * max(rtol, 1e-12))
        lost = budget * (np.e * (1.0 - nu)) * -neg_x > 2.0
        done = (small >= 2) & ~lost
        if np.any(done):
            val = (total[done] + comp[done]).astype(float)
            values[idx[done]] = val
            loss[idx[done]] = np.abs(val) < budget[done]
        keep = ~(done | lost)
        if not np.all(keep):
            idx, neg_x, total, comp, pf, max_mag, small = (
                a[keep] for a in (idx, neg_x, total, comp, pf, max_mag, small))
    values[idx] = (total + comp).astype(float)
    return values, loss


def _m_wright_routed(nu, x):
    """Series values of M_nu over a flat array x >= 0, and the points it leaves.

    Returns ``(values, rest)``: ``values`` holds the series sum (clipped at
    0) wherever the series certifies it, and ``rest`` marks the points for
    Zolotarev's integral, those with x > ``_MW_SERIES_XMAX`` or precision
    loss.
    """
    values = np.zeros(x.shape)
    rest = np.ones(x.shape, dtype=bool)
    series = np.flatnonzero(x <= _MW_SERIES_XMAX)
    vals, loss = _m_wright_series(nu, x[series], _RTOL, _MAX_TERMS)
    if np.any(loss & (x[series] == 0.0)):
        raise ConvergenceError("M-Wright series failed at x=0", region="series")
    values[series] = np.maximum(vals, 0.0)
    rest[series[~loss]] = False
    return values, rest


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

    The defining alternating series serves x <= 12 while it retains
    significant digits (see :func:`_m_wright_series`).  Every other point
    (larger x, or orders nu > 1/2 where cancellation bites early) takes
    the kernel identity M_nu(x) = t^(nu+1) f_nu(t) / nu at t = x^(-1/nu),
    with f_nu from Zolotarev's integral, all in one call; at nu = 1/2 it
    takes the identity's closed form exp(-x^2/4)/sqrt(pi).  Far in the
    stretched-exponential tail the value underflows to 0.
    """
    if not (0.0 < nu < 1.0):
        raise DomainError(f"order nu must be in (0, 1), got {nu}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_flat = np.atleast_1d(x_arr).ravel()
    if np.any(x_flat < 0) or not np.all(np.isfinite(x_flat)):
        raise DomainError("argument x must be finite and >= 0")
    out, rest = _m_wright_routed(nu, x_flat)
    if nu == 0.5:
        with np.errstate(over="ignore"):
            out[rest] = np.exp(-0.25 * x_flat[rest] ** 2) / np.sqrt(np.pi)
    else:
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
