"""Special-function contracts: frozen oracle values and identities."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, wofz

from fracrte.errors import DomainError
from fracrte.specfun import (
    _MAX_TERMS,
    _RTOL,
    _m_wright_series,
    _m_wright_zolotarev,
    _ml_grid,
    _ml_pick,
    _rgamma,
    m_wright,
    mittag_leffler,
)
from fracrte.spectral import section5_medium
from fracrte.transport import QuadratureSpec, _EnergyLayout, _mode_weights_batch

# values frozen from a 50-digit compensated Taylor oracle
E_HALF_AT_MINUS_ONE = 0.42758357615580700441
E_34_AT_HALF_COMPLEX = 0.572539965795917643 + 0.16415895553058264644j
M_QUARTER_AT_TWO = 0.16125108345458585591
M_HALF_AT_ONE = 0.43939128946772239705
F_HALF_AT_ONE = 0.21969564473386119852


class TestMittagLeffler:
    def test_order_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(np.e, rel=1e-12)

    def test_zero_argument_is_exactly_one(self):
        # z = 0 never enters the contour, whose parabola pick takes log|z|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.02, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0):
                assert mittag_leffler(alpha, 0.0) == 1.0
                assert mittag_leffler(alpha, np.array([0.0, -0.5, 0.0j]))[[0, 2]].tolist() == [1, 1]

    def test_half_order_negative_one(self):
        got = mittag_leffler(0.5, -1.0)
        assert got.real == pytest.approx(E_HALF_AT_MINUS_ONE, rel=1e-11)
        assert got.real == pytest.approx(np.e * erfc(1.0), rel=1e-11)
        assert abs(got.imag) < 1e-14

    def test_three_quarter_complex_point(self):
        got = mittag_leffler(0.75, -(0.5 - 0.3j))
        assert got == pytest.approx(E_34_AT_HALF_COMPLEX, rel=1e-11)

    def test_exp_identity_on_disc(self):
        rng = np.random.default_rng(11)
        z = 10 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        vals = mittag_leffler(1.0, z)
        assert np.max(np.abs(vals - np.exp(z)) / np.abs(np.exp(z))) < 1e-10

    def test_cosine_identity(self):
        x = np.linspace(0.0, 5.0, 101)
        vals = mittag_leffler(2.0, -(x**2))
        assert np.max(np.abs(vals - np.cos(x))) < 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.375, 0.5])
    def test_reflection_identity(self, alpha):
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = 3 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            lhs = mittag_leffler(alpha, z) + mittag_leffler(alpha, -z)
            rhs = 2.0 * mittag_leffler(2 * alpha, z**2)
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))

    def test_half_order_closed_form_on_rays(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z) = wofz(-iz)
        for theta in (0.55 * np.pi, 0.75 * np.pi, np.pi):
            z = np.linspace(0.05, 12.0, 60) * np.exp(1j * theta)
            got = mittag_leffler(0.5, z)
            ref = wofz(-1j * z)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9

    def test_completely_monotone_on_negative_axis(self):
        for alpha in (0.25, 0.5, 0.75):
            vals = mittag_leffler(alpha, -np.linspace(0.0, 150.0, 500)).real
            assert np.all(vals > 0)
            assert np.all(vals <= 1.0)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.5, np.inf)
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(2.5, 1.0)

    def test_array_shape_round_trip(self):
        z = np.array([[0.1, -0.5], [1.0 + 1.0j, -3.0]])
        out = mittag_leffler(0.6, z)
        assert out.shape == z.shape


class TestMWright:
    def test_value_at_zero(self):
        assert m_wright(0.5, 0.0) == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-13)

    def test_half_order_gaussian(self):
        assert m_wright(0.5, 1.0) == pytest.approx(M_HALF_AT_ONE, rel=1e-12)
        xs = np.linspace(0, 8, 33)
        ref = np.exp(-(xs**2) / 4.0) / np.sqrt(np.pi)
        assert np.max(np.abs(m_wright(0.5, xs) - ref)) < 1e-12

    def test_half_order_is_the_closed_form(self, monkeypatch):
        # every point takes exp(-x^2/4)/sqrt(pi); the series does not run
        import fracrte.specfun as specfun

        def no_series(*args):
            raise AssertionError("series ran at order 1/2")

        monkeypatch.setattr(specfun, "_m_wright_series", no_series)
        x = np.r_[0.0, np.geomspace(1e-8, 60.0, 200)]
        assert np.array_equal(m_wright(0.5, x), np.exp(-0.25 * x**2) / np.sqrt(np.pi))

    def test_quarter_order_oracle_point(self):
        assert m_wright(0.25, 2.0) == pytest.approx(M_QUARTER_AT_TWO, rel=1e-10)

    def test_far_tail_underflows_to_zero(self):
        # x^(1/(1-nu)) overflows here; that may not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (0.3, 0.5, 0.9):
                assert np.all(m_wright(nu, np.array([1e200, 1e308])) == 0.0)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 0.75, 0.9, 0.99])
    def test_zolotarev_ceiling(self, nu):
        # M_nu(x) <= 1 / (e (1 - nu) x), the bound the series uses to drop
        # points whose loss is certain
        x = np.linspace(0.05, 12.0, 240)
        assert np.all(m_wright(nu, x) <= 1.0 / (np.e * (1.0 - nu) * x))

    def test_nonnegative(self):
        for nu in (0.25, 0.5, 0.75):
            assert np.all(m_wright(nu, np.linspace(0, 20, 81)) >= 0.0)

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
    def test_unit_integral(self, nu):
        val, _ = quad(lambda x: m_wright(nu, x), 0, 60, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            m_wright(1.2, 1.0)
        with pytest.raises(DomainError):
            m_wright(0.5, -0.1)


def _stable_density(alpha, t):
    """The one-sided stable density f_alpha(t) = alpha t^(-1-alpha) M_alpha(t^(-alpha))."""
    return alpha * t ** (-1.0 - alpha) * m_wright(alpha, t**-alpha)


class TestStableKernel:
    # the stable law through the M-Wright identity
    def test_closed_form_value(self):
        assert _stable_density(0.5, 1.0) == pytest.approx(F_HALF_AT_ONE, rel=1e-13)

    def test_vanishes_at_origin(self):
        assert _stable_density(0.5, 1e-4) < 1e-200

    def test_unit_mass(self):
        val, _ = quad(lambda t: _stable_density(0.5, t), 0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_general_order_matches_half_closed_form(self):
        # Zolotarev's integral, which no point takes at order 1/2, against
        # the closed form there
        x = np.logspace(-1.5, 1.5, 13) ** -0.5
        ref = np.exp(-0.25 * x**2) / np.sqrt(np.pi)
        assert np.max(np.abs(_m_wright_zolotarev(0.5, x) - ref)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_general_order_unit_mass(self, alpha):
        val, _ = quad(lambda t: _stable_density(alpha, t), 0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-7)


def _m_wright_zolotarev_oracle(nu, x):
    """Zolotarev's positive-integrand representation of M_nu(x) at 40 digits.

    M_nu(x) = x^(nu/(1-nu)) / ((1-nu) pi) int_0^pi A exp(-y A) dphi with
    y = x^(1/(1-nu)).  The integral is split at the peak phi*, where
    y A(phi*) = 1, and at a third and a ninth of each side's length from
    it: for orders near one the integrand is a spike there that even pieces
    do not resolve.  The integrand is scaled by its value at the peak, so
    mpmath's absolute stopping rule acts as a relative one for tiny values.
    """
    with mp.workdps(40):
        nu, x = mp.mpf(nu), mp.mpf(x)
        one_m = 1 - nu
        log_y = mp.log(x) / one_m

        def log_a(phi):
            return (nu * mp.log(mp.sin(nu * phi)) + one_m * mp.log(mp.sin(one_m * phi))
                    - mp.log(mp.sin(phi))) / one_m

        def log_integrand(phi):
            la = log_a(phi)
            return la - mp.exp(la + log_y)

        lo, hi = mp.mpf(0), +mp.pi
        for _ in range(mp.mp.prec):
            mid = (lo + hi) / 2
            if log_a(mid) + log_y < 0:
                lo = mid
            else:
                hi = mid
        peak = log_integrand(lo if lo > 0 else mp.mpf(10) ** -30)
        pts = {mp.mpf(0), lo, +mp.pi}
        for frac in (mp.mpf(1) / 3, mp.mpf(1) / 9):
            pts |= {lo * (1 - frac), lo + (mp.pi - lo) * frac}
        val = mp.quad(lambda phi: mp.exp(log_integrand(phi) - peak), sorted(pts))
        return float(mp.exp(nu * log_y + peak) * val / (one_m * mp.pi))


class TestStableOracle:
    # the bands are given in the stable law's t; both sides take the same
    # float x = t^-alpha, so the oracle sees exactly the points m_wright does
    def test_series_certificate_band(self):
        # the series cancels here (the m_wright(0.75, x ~ 3.3) points of
        # the transport tail transform)
        xs = np.linspace(0.15, 0.30, 61) ** -0.75
        got = m_wright(0.75, xs)
        ref = np.array([_m_wright_zolotarev_oracle(0.75, x) for x in xs])
        assert np.max(np.abs(got - ref) / ref) < 1e-6

    @pytest.mark.parametrize("alpha, t_lo, t_hi", [
        (0.3, 1e-3, 1.05e-3),
        (0.6, 0.02, 0.08),
        (0.75, 0.12, 0.23),
        (0.95, 0.65, 0.73),
        (0.99, 0.90, 0.96),
        (0.999, 0.99, 1.03),
    ])
    def test_fallback_route(self, alpha, t_lo, t_hi):
        # bands that leave the series (precision loss, or x > 12), down to
        # M ~ 1.6e-52, so every point takes the Zolotarev rule; near order one
        # its integrand is a spike at phi*
        xs = np.linspace(t_lo, t_hi, 5) ** -alpha
        _, rest = _m_wright_series(alpha, xs, _RTOL, _MAX_TERMS)
        assert np.all(rest)
        got = m_wright(alpha, xs)
        ref = np.array([_m_wright_zolotarev_oracle(alpha, x) for x in xs])
        assert np.max(np.abs(got - ref) / ref) < 1e-10


def _m_wright_oracle(nu, x, digits=30):
    """M_nu(x) from its defining series in mpmath, ``digits`` significant.

    The terms grow to about exp(b x^c), c = 1/(1 - nu) and
    b = (1 - nu) nu^(nu c), and the sum falls to about exp(-b x^c), so the
    working precision adds twice that many digits for the cancellation.
    """
    c = 1.0 / (1.0 - nu)
    b = (1.0 - nu) * nu ** (nu * c)
    with mp.workdps(digits + 10 + int(2.0 * b * x**c / np.log(10.0))):
        nu, x = mp.mpf(nu), mp.mpf(x)
        total, power, n, quiet = mp.rgamma(1 - nu), mp.mpf(1), 0, 0
        while quiet < 4:
            n += 1
            power *= -x / n
            term = power * mp.rgamma(1 - nu * (n + 1))
            total += term
            quiet = quiet + 1 if abs(term) < mp.mpf(10) ** -(digits + 5) * abs(total) else 0
        return float(total)


class TestRgamma:
    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.5, 0.75, 0.95, 0.999])
    def test_series_arguments(self, nu):
        # every argument x = 1 - nu (n + 1) of the M-Wright series' terms,
        # past the point where 1/Gamma leaves the float range (x < -171 or
        # so), against mpmath at 40 digits: 0 at the poles, non-finite
        # exactly where |1/Gamma| exceeds DBL_MAX, where the series stops
        big = mp.mpf(np.finfo(float).max)
        worst, beyond = 0.0, 0
        with mp.workdps(40):
            for n in range(501):
                x = -nu * (n + 1) + 1.0
                got, ref = _rgamma(x), mp.rgamma(x)
                if x <= 0.0 and x == int(x):
                    assert got == 0.0 and ref == 0, x
                elif abs(ref) > big:
                    assert not math.isfinite(got), x
                    beyond += 1
                else:
                    assert math.isfinite(got), x
                    worst = max(worst, float(abs((got - ref) / ref)))
        assert worst <= 2e-15
        assert beyond > 0 or nu < 0.3
        if nu >= 0.5:
            # every point where math.gamma itself underflows is non-finite
            x = -nu * np.arange(1, 502) + 1.0
            under = [xi for xi in x if xi != int(xi) and math.gamma(xi) == 0.0]
            assert under and not any(math.isfinite(_rgamma(xi)) for xi in under)


class TestMWrightOracle:
    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 0.9])
    def test_series_certified_accuracy(self, nu):
        # every point the series certifies; the loss rule counts the
        # extended-precision rounding but not the float64 _rgamma factor of
        # each term (math.gamma, within 2e-15 relative, see TestRgamma), so
        # the worst is 2.2e-11 (nu = 0.9, x = 1.25), above the 1e-11 stop
        # rule
        x = np.arange(1, 97) / 8.0
        vals, loss = _m_wright_series(nu, x, _RTOL, _MAX_TERMS)
        assert not np.all(loss)
        ref = np.array([_m_wright_oracle(nu, xi) for xi in x[~loss]])
        assert np.max(np.abs(vals[~loss] - ref) / ref) < 1e-9

    @pytest.mark.parametrize("nu, x_lo, x_hi", [
        (0.9, 1.5, 3.0),
        (0.75, 4.0, 8.0),
        (0.6, 6.0, 14.0),
        (0.3, 12.5, 30.0),
    ])
    def test_stretched_exponential_tail(self, nu, x_lo, x_hi):
        # into the stretched-exponential tail, against the 40-digit
        # Zolotarev oracle, wherever M is above 1e-290
        x = np.linspace(x_lo, x_hi, 6)
        ref = np.array([_m_wright_zolotarev_oracle(nu, xi) for xi in x])
        live = ref > 1e-290
        assert np.any(live)
        got = m_wright(nu, x)
        assert np.max(np.abs(got[live] - ref[live]) / ref[live]) < 1e-10


def _m_wright_series_reference(nu, x, rtol, max_terms):
    """The per-term loop the block series replaced, with Neumaier compensation.

    The same stop rule as :func:`_m_wright_series`, applied one term at a
    time: a point stops after two consecutive settled terms, or leaves
    with value 0 once its loss is certain; the loop ends at the first
    non-finite 1/Gamma factor.
    """
    eps_ld = float(np.finfo(np.longdouble).eps)
    values = np.zeros(x.shape)
    loss = np.ones(x.shape, dtype=bool)
    idx = np.arange(x.size)
    neg_x = np.asarray(-x, dtype=np.longdouble)
    total = np.full(x.shape, _rgamma(1.0 - nu), dtype=np.longdouble)
    comp = np.zeros(x.shape, dtype=np.longdouble)
    pf = np.ones(x.shape, dtype=np.longdouble)  # (-x)^n / n!
    max_mag = np.abs(total)
    small = np.zeros(x.shape, dtype=int)
    for n in range(1, max_terms + 1):
        if idx.size == 0:
            break
        pf = pf * neg_x / n
        rg = _rgamma(-nu * (n + 1) + 1.0)
        if not np.isfinite(rg):
            break
        term = pf * np.longdouble(rg)
        t = total + term
        comp = comp + np.where(np.abs(total) >= np.abs(term), (total - t) + term,
                               (term - t) + total)
        total = t
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


class TestBlockSeries:
    # the block series rounds (-x)^n / n! in another order than the loop
    # and sums without compensation: each differs from the exact sum by a
    # few eps_ld n max|term|, which cancellation can raise to rtol/2 of a
    # certified value (the loss rule).  Over 100 000 random points the
    # largest gap was 1.6e-13 (77 points above 1e-13), so the property's
    # bound is rtol/10; on the fixed grids it was at most 7.0e-14
    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(0.05, 0.999, exclude_min=True, exclude_max=True),
        xs=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=40),
    )
    def test_matches_per_term_loop(self, nu, xs):
        x = np.array(xs)
        vals, loss = _m_wright_series(nu, x, _RTOL, _MAX_TERMS)
        ref, ref_loss = _m_wright_series_reference(nu, x, _RTOL, _MAX_TERMS)
        assert np.array_equal(loss, ref_loss)
        ok = ~loss
        assert np.all(np.abs(vals[ok] - ref[ok]) <= 1e-12 * np.abs(ref[ok]))

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 0.95, 0.999])
    def test_matches_per_term_loop_on_grid(self, nu):
        x = np.linspace(0.0, 12.0, 961)
        vals, loss = _m_wright_series(nu, x, _RTOL, _MAX_TERMS)
        ref, ref_loss = _m_wright_series_reference(nu, x, _RTOL, _MAX_TERMS)
        assert np.array_equal(loss, ref_loss)
        assert not np.all(loss)
        assert np.max(np.abs(vals[~loss] / ref[~loss] - 1.0)) <= 1e-13


class TestArrayEvaluation:
    # every step runs on arrays, so a point's value does not depend on the
    # other points of the call
    @settings(max_examples=40)
    @given(
        nu=st.floats(0.05, 0.999, exclude_min=True, exclude_max=True),
        xs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8),
    )
    def test_m_wright_pointwise(self, nu, xs):
        x = np.array(xs)
        assert np.array_equal(m_wright(nu, x), [m_wright(nu, xi) for xi in x])

    @settings(max_examples=40)
    @given(
        alpha=st.floats(0.05, 0.999, exclude_min=True, exclude_max=True),
        log_t=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    )
    def test_stable_density_pointwise(self, alpha, log_t):
        # the stable density's M-Wright factor, at the arguments t^(-alpha)
        # it takes, which run past those of test_m_wright_pointwise
        x = (10.0 ** np.array(log_t)) ** -alpha
        assert np.array_equal(m_wright(alpha, x), [m_wright(alpha, xi) for xi in x])

    def test_mittag_leffler_series_pointwise(self):
        # the contour picks each point's parabola and sums its own row; a
        # Taylor series once summed on until the slowest point converged,
        # and one call was then up to 7.9e-13 off
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
        assert np.array_equal(mittag_leffler(0.5, z), [mittag_leffler(0.5, zi) for zi in z])


def _ml_oracle(alpha, z, digits=32):
    """E_alpha(z) from its Taylor series in mpmath, ``digits`` significant.

    Terms grow to about exp(|z|^(1/alpha)) before they decay, so the working
    precision adds that many digits for the cancellation.  When alpha = p/q
    exactly with a small q, each residue class of the term index follows
    Gamma(alpha (n + q) + 1) = Gamma(alpha n + 1) prod_{i=1..p} (alpha n + i),
    so only the first q terms need a Gamma value.
    """
    peak = abs(complex(z)) ** (1.0 / alpha)
    with mp.workdps(digits + 10 + int(peak / np.log(10.0))):
        a, w = mp.mpf(alpha), mp.mpc(complex(z))
        tol = mp.mpf(10) ** -(digits + 15)
        ratio = Fraction(alpha)
        if ratio.denominator <= 100:
            p, q = ratio.numerator, ratio.denominator
            terms = [w**j * mp.rgamma(a * j + 1) for j in range(q)]
            w_q, total, n = w**q, mp.mpc(0), 0
            while True:
                total += mp.fsum(terms)
                if n * alpha > peak and max(abs(t) for t in terms) < tol:
                    return complex(total)
                terms = [t * w_q / mp.fprod(a * (n + j) + i for i in range(1, p + 1))
                         for j, t in enumerate(terms)]
                n += q
        total, power, n = mp.mpc(0), mp.mpc(1), 0
        while True:
            term = power * mp.rgamma(a * n + 1)
            total += term
            if n * alpha > peak and abs(term) < tol:
                return complex(total)
            power *= w
            n += 1


def _ml_asymptotic_oracle(alpha, z, digits=40):
    """E_alpha(z) from its asymptotic series in mpmath, for large |z|.

    E_alpha(z) = e^(z^(1/alpha)) / alpha [on the sheet |arg z| < alpha pi]
    - sum_n z^(-n) / Gamma(1 - alpha n), summed at ``digits`` + 10 digits
    until three terms in a row fall below 10^-(digits + 5) of the sum.
    1/Gamma(1 - alpha n) vanishes at its poles, so one tiny term does not
    end the sum.  The series diverges past the least term, about
    e^(-|z|^(1/alpha)), so it serves only |z|^(1/alpha) well above
    ``digits`` ln 10; a sum that has not settled in 2000 terms fails.
    """
    with mp.workdps(digits + 10):
        a, w = mp.mpf(alpha), mp.mpc(complex(z))
        total = mp.exp(w ** (1 / a)) / a if abs(mp.arg(w)) < a * mp.pi else mp.mpc(0)
        tol = mp.mpf(10) ** -(digits + 5)
        inv, power, small = 1 / w, mp.mpc(1), 0
        for n in range(1, 2001):
            power *= inv
            term = -power * mp.rgamma(1 - a * n)
            total += term
            small = small + 1 if abs(term) < tol * abs(total) else 0
            if small == 3:
                return complex(total)
        raise AssertionError(f"asymptotic oracle did not settle at alpha={alpha}, z={z}")


def _band_radius(alpha):
    """min(10, 32.24^alpha), the radius where a removed asymptotic series once began."""
    return min(10.0, 32.24**alpha)


def _ml_boundary_points(alpha, boundary):
    """Points just inside and just outside a former switch of the evaluation route.

    None of them is a switch now; the contour serves every point.
    ``series`` and ``asymptotic`` are the radius bands |z| = 1 -+ 0.1 % and
    |z| = min(10, 32.24^alpha) -+ 0.1 %, where removed Taylor and asymptotic
    series once began.  ``first_ray`` and ``second_ray`` put the pole just
    outside and just inside 0.1 rad of theta_p = arg(z)/alpha = 0.75 pi,
    where a former two-ray contour changed rays and missed 1e-10.
    """
    if boundary in ("series", "asymptotic"):
        edge = 1.0 if boundary == "series" else _band_radius(alpha)
        radii = edge * np.array([1.0 - 1e-3, 1.0 + 1e-3])
        return (radii[:, None] * np.exp(1j * np.pi * np.array([0.3, 0.6, 0.95]))).ravel()
    offset = 0.1 + (1e-3 if boundary == "first_ray" else -1e-3)
    theta_p = 0.75 * np.pi + np.array([-offset, offset])
    return 3.0 * np.exp(-1j * alpha * theta_p)


def _residue_switch_points(alpha):
    """Poles at Re sqrt(s*/mu) = 1 -+ 1e-3 for the mu the contour picks.

    Re s* = -60 keeps the pole's error term far below the rest at every mu,
    so the pick is the pole-free optimum; a pole whose residue matters is
    never let this close to the contour.
    """
    grid_mu, _, base_error = _ml_grid()
    mu = grid_mu[np.argmin(base_error)]
    root = np.sqrt(mu) * np.array([1.0 - 1e-3, 1.0 + 1e-3])
    sqrt_pole = root + 1j * np.sqrt(root**2 + 60.0)
    z = (sqrt_pole**2) ** alpha
    return np.concatenate((z, np.conj(z)))


def _sheet_edge_points(alpha):
    """Points at |arg z| = alpha pi -+ 1e-3, where the pole leaves the principal sheet."""
    theta = alpha * np.pi + np.array([-1e-3, 1e-3])
    radii = np.array([1.2, 0.5 * (1.0 + _band_radius(alpha))])
    z = (radii[:, None] * np.exp(1j * theta)).ravel()
    return np.concatenate((z, np.conj(z)))


def _layout_arguments(t=0.05):
    """-lambda t^alpha of the N = 15, alpha = 0.75 benchmark layout at
    time t, one per conjugate pair."""
    alpha = 0.75
    medium = section5_medium(alpha)
    layout = _EnergyLayout(medium, QuadratureSpec())
    lam, _ = _mode_weights_batch(layout.flat_nodes, medium, 15, "exact")
    return np.unique(-lam[lam.imag >= 0] * t**alpha)


def _ml_relative_error(alpha, z, oracle=_ml_oracle):
    ref = np.array([oracle(alpha, zi) for zi in z])
    return np.max(np.abs(mittag_leffler(alpha, z) - ref) / np.abs(ref))


class TestMittagLefflerOracle:
    """``mittag_leffler``, the parabolic contour alone, against a 32-digit
    Taylor sum and, for large |z|, a 40-digit asymptotic sum.  Bound 1e-14
    relative; 2e-14 at |z| = 10, where the measured worst is 5.3e-15, and
    5e-14 over the middle band of the layout (1.1e-14, an absolute 5.5e-16
    on |E| = 0.05).  The removed series reached 5.5e-13 on these points."""

    @pytest.mark.parametrize("alpha, boundary", [
        (alpha, boundary) for alpha in (0.5, 0.75, 0.9, 0.99)
        for boundary in ("series", "asymptotic", "first_ray", "second_ray")])
    def test_each_side_of_route_switch(self, alpha, boundary):
        assert _ml_relative_error(alpha, _ml_boundary_points(alpha, boundary)) <= 2e-14

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.99])
    def test_each_side_of_residue_switch(self, alpha):
        assert _ml_relative_error(alpha, _residue_switch_points(alpha)) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.99])
    def test_each_side_of_sheet_edge(self, alpha):
        assert _ml_relative_error(alpha, _sheet_edge_points(alpha)) <= 1e-14

    @pytest.mark.parametrize("alpha, radius", [(0.3, 1.2), (0.5, 1.6)])
    def test_lower_band_edge(self, alpha, radius):
        # theta_p = 0.7175 pi, the lower edge of the band where the former
        # two-ray contour missed by 3e-10
        z = radius * np.exp(1j * alpha * 0.7175 * np.pi * np.array([1.0, -1.0]))
        assert _ml_relative_error(alpha, z) <= 1e-14

    def test_transport_layout_arguments(self):
        # the smallest, median and largest |z| of each radius band, the
        # middle band split by whether the pole is on the principal sheet;
        # past |z| = 170 the Taylor oracle would carry thousands of digits
        # of cancellation, and test_layout_arguments_far_out takes over
        alpha = 0.75
        z = _layout_arguments()
        r = np.abs(z)
        middle = (r > 1) & (r < _band_radius(alpha))
        on_sheet = np.abs(np.angle(z)) < alpha * np.pi
        bands = {"disc": r <= 1, "outer": (r >= _band_radius(alpha)) & (r <= 170),
                 "middle_on_sheet": middle & on_sheet,
                 "middle_off_sheet": middle & ~on_sheet}
        picks = []
        for band, mask in bands.items():
            ordered = z[mask][np.argsort(r[mask])]
            assert ordered.size > 0, band
            picks.extend(ordered[[0, ordered.size // 2, -1]])
        assert _ml_relative_error(alpha, np.array(picks)) <= 1e-14

    def test_contour_on_layout_arguments(self):
        # every 10th argument with 1 < |z| < 10 of one benchmark time
        z = _layout_arguments()
        r = np.abs(z)
        assert _ml_relative_error(0.75, z[(r > 1) & (r < _band_radius(0.75))][::10]) <= 5e-14

    def test_first_ray_near_band_edge(self):
        # a point of the benchmark layout at t = 0.1, 0.106 rad in theta_p
        # from 0.75 pi, where the former two-ray contour missed by 2.0e-10
        assert _ml_relative_error(0.75, np.array([-0.4397 - 1.5522j])) <= 1e-14

    @pytest.mark.parametrize("t", [0.05, 0.2])
    def test_layout_arguments_far_out(self, t):
        # every 4th layout argument with |z| >= 50 and the largest, up to
        # |z| = 1810 (t = 0.05) and 5119 (t = 0.2); measured worst over all
        # of them 6.2e-16, and 8.8e-14 with the asymptotic series that
        # served them until the contour took every argument
        z = _layout_arguments(t)
        far = z[np.abs(z) >= 50.0]
        far = np.append(far[::4], far[np.argmax(np.abs(far))])
        assert _ml_relative_error(0.75, far, _ml_asymptotic_oracle) <= 5e-15

    @pytest.mark.parametrize("alpha", [0.02, 0.05])
    def test_small_order_off_sheet(self, alpha):
        # 24 points with 1.5 <= |z| <= 1e4 and alpha pi < |arg z| <= pi;
        # measured 3.0e-16, and up to 7.2e-14 with the asymptotic series
        theta = np.random.default_rng(2).permutation(np.linspace(alpha * np.pi + 1e-3, np.pi, 24))
        z = np.geomspace(1.5, 1e4, 24) * np.exp(1j * theta)
        z = np.where(np.arange(24) % 2, z, np.conj(z))
        assert _ml_relative_error(alpha, z, _ml_asymptotic_oracle) <= 5e-15

    @pytest.mark.parametrize("alpha", [0.02, 0.05])
    def test_small_order_near_disc(self, alpha):
        # |z| <= 40^alpha, so the Taylor oracle carries <= 18 digits of
        # cancellation; measured 2.6e-16.  The removed Taylor series ran
        # out of terms at alpha = 0.02 and was 4.9e-12 off at 0.05
        radius = 40.0**alpha * np.sqrt(np.linspace(0.05, 1.0, 8))
        z = radius * np.exp(1j * np.pi * np.linspace(0.0, 1.0, 8))
        assert _ml_relative_error(alpha, z) <= 5e-15


def _full_model_pick(alpha, z):
    """The parabola pick with the pole's error term formed at every
    on-sheet point, as the contour chose before the e^-40 shortcut."""
    grid_mu, grid_h, base_error = _ml_grid()
    on_sheet = np.abs(np.angle(z)) < alpha * np.pi
    with np.errstate(over="ignore", invalid="ignore"):
        pole = z ** (1.0 / alpha)
        gap = np.abs(1.0 - np.sqrt(pole).real[:, None] / np.sqrt(grid_mu))
        err = np.logaddexp(base_error - np.log(np.abs(z))[:, None],
                           (pole.real - np.log(alpha))[:, None] - 2.0 * np.pi * gap / grid_h)
    return np.where(on_sheet, np.argmin(err, axis=1), np.argmin(base_error)), pole, on_sheet


class TestParabolaPick:
    def _check(self, alpha, z):
        full, pole, on_sheet = _full_model_pick(alpha, z)
        assert np.array_equal(_ml_pick(alpha, z, pole, on_sheet), full)
        return full

    @pytest.mark.parametrize("t", [0.05, 0.2])
    def test_layout_arguments(self, t):
        z = _layout_arguments(t)
        z = np.concatenate((z, np.conj(z)))
        full = self._check(0.75, z)
        # the pole term does move some picks, so the shortcut is exercised
        assert np.any(full != np.argmin(_ml_grid()[2]))

    @pytest.mark.parametrize("alpha", [0.02, 0.3, 0.5, 0.75, 0.9, 0.99])
    def test_random_on_sheet(self, alpha):
        rng = np.random.default_rng(int(alpha * 1000))
        r = 10.0 ** rng.uniform(-3.0, 4.0, 10_000 // 6 + 1)
        theta = alpha * np.pi * rng.uniform(-1.0, 1.0, r.size)
        self._check(alpha, r * np.exp(1j * theta))


class TestOrderOneExact:
    """E_1(z) = e^z and E_2(z) = cosh(sqrt z) come from np.exp, relative to
    round-off however far e^z decays; the contour's error there is
    absolute (6 % at z = -40)."""

    def test_real_axis(self):
        x = -np.linspace(0.0, 700.0, 1401)
        ref = np.array([math.exp(v) for v in x])
        got = mittag_leffler(1.0, x)
        assert np.max(np.abs(got - ref) / ref) <= 2e-16
        assert mittag_leffler(1.0, -40.0) == math.exp(-40.0)

    def test_complex_plane(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-700.0, 50.0, 500) + 1j * rng.uniform(-300.0, 300.0, 500)
        ref = np.array([cmath.exp(v) for v in z])
        assert np.max(np.abs(mittag_leffler(1.0, z) - ref) / np.abs(ref)) <= 2e-16
        w = rng.uniform(-700.0, 700.0, 500) + 1j * rng.uniform(-300.0, 300.0, 500)
        ref = np.array([cmath.cosh(cmath.sqrt(v)) for v in w * w])
        assert np.max(np.abs(mittag_leffler(2.0, w * w) - ref) / np.abs(ref)) <= 1e-15

    def test_zero_where_exp_underflows(self):
        z = np.array([-746.0, -800.0, -1183.6 + 3.0j, -1e4 - 1.0j, -1e6])
        assert np.all(mittag_leffler(1.0, z) == 0.0)
        assert mittag_leffler(1.0, -1183.6) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_conjugate_bit_for_bit(self, alpha):
        rng = np.random.default_rng(4)
        z = rng.uniform(-700.0, 50.0, 500) + 1j * rng.uniform(-300.0, 300.0, 500)
        assert np.array_equal(mittag_leffler(alpha, np.conj(z)), np.conj(mittag_leffler(alpha, z)))


@st.composite
def _ml_region_points(draw):
    """(alpha, z) drawn from radius bands of ``mittag_leffler``'s arguments.

    The bands are the unit disc, 1 < |z| < 10 (also at the sheet edge
    |arg z| = alpha pi) and 10 <= |z| <= 5200, past the largest argument of
    the benchmark layouts.
    """
    alpha = draw(st.floats(0.3, 1.0))
    band = draw(st.sampled_from(["disc", "middle", "sheet_edge", "outer"]))
    if band == "disc":
        r = draw(st.floats(0.0, 1.0))
    elif band == "outer":
        r = draw(st.floats(10.0, 5200.0))
    else:
        r = draw(st.floats(1.0, 10.0, exclude_min=True, exclude_max=True))
    if band == "sheet_edge":
        theta = min(np.pi, alpha * np.pi + draw(st.floats(-0.01, 0.01)))
    else:
        theta = draw(st.floats(0.0, np.pi))
    return alpha, r * np.exp(1j * theta)


class TestMittagLefflerConjugateSymmetry:
    @given(point=_ml_region_points())
    def test_conjugate_argument(self, point):
        # _modal_density evaluates one mode of each conjugate pair and
        # relies on E(conj z) = conj E(z); the contour holds it bit for bit
        alpha, z = point
        value = mittag_leffler(alpha, z)
        assume(np.isfinite(value))
        assert mittag_leffler(alpha, np.conj(z)) == np.conj(value)
