"""Special-function contracts: frozen oracle values and identities."""

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
    _ASYMPTOTIC_RADIUS,
    _MAX_TERMS,
    _RTOL,
    _asymptotic_attempt_radius,
    _m_wright_routed,
    _m_wright_series,
    _ml_grid,
    _ml_parabola,
    f_alpha_half,
    m_wright,
    mittag_leffler,
    stable_density,
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
        for alpha in (0.25, 0.5, 0.9, 1.0):
            assert mittag_leffler(alpha, 0.0) == 1.0

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

    def test_quarter_order_oracle_point(self):
        assert m_wright(0.25, 2.0) == pytest.approx(M_QUARTER_AT_TWO, rel=1e-10)

    def test_far_tail_underflows_to_zero(self):
        # x^(-1/nu) underflows to 0 here, and t^-alpha overflows for the
        # smallest t; neither may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (0.3, 0.5, 0.9):
                assert np.all(m_wright(nu, np.array([1e200, 1e308])) == 0.0)
            for alpha in (0.3, 0.9):
                assert stable_density(alpha, 5e-324) == 0.0

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


class TestStableKernel:
    def test_closed_form_value(self):
        assert f_alpha_half(1.0) == pytest.approx(F_HALF_AT_ONE, rel=1e-13)

    def test_vanishes_at_origin(self):
        assert f_alpha_half(1e-4) < 1e-200

    @pytest.mark.parametrize("t", [1e-210, 1e-250])
    def test_zero_where_the_decay_underflows(self, t):
        # t^(-3/2) overflows here; the density is 0, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f_alpha_half(t) == 0.0
            assert stable_density(0.5, t) == 0.0
            assert np.array_equal(f_alpha_half(np.array([t, 1.0])),
                                  [0.0, f_alpha_half(1.0)])

    def test_unit_mass(self):
        val, _ = quad(f_alpha_half, 0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            f_alpha_half(0.0)

    def test_general_order_matches_half_closed_form(self):
        ts = np.logspace(-1.5, 1.5, 13)
        ref = f_alpha_half(ts)
        got = stable_density(0.5, ts)
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_general_order_unit_mass(self, alpha):
        val, _ = quad(lambda t: stable_density(alpha, t), 0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-7)


def _stable_oracle(alpha, t):
    """Zolotarev's positive-integrand representation of f_alpha at 40 digits.

    The integral is split at the peak phi*, where y A(phi*) = 1, and at a
    third and a ninth of each side's length from it: for orders near one
    the integrand is a spike there that even pieces do not resolve.  The
    integrand is scaled by its value at the peak, so mpmath's absolute
    stopping rule acts as a relative one for tiny densities.
    """
    with mp.workdps(40):
        a, t = mp.mpf(alpha), mp.mpf(t)
        one_m = 1 - a
        log_y = -a / one_m * mp.log(t)

        def log_a(phi):
            return (a * mp.log(mp.sin(a * phi)) + one_m * mp.log(mp.sin(one_m * phi))
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
        return float(a / one_m * t ** (-1 / one_m) * mp.exp(peak) * val / mp.pi)


class TestStableOracle:
    def test_series_certificate_band(self):
        # the series cancels here (the m_wright(0.75, x ~ 3.3) points of
        # the transport tail transform)
        ts = np.linspace(0.15, 0.30, 61)
        got = stable_density(0.75, ts)
        ref = np.array([_stable_oracle(0.75, t) for t in ts])
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
        # bands that leave the shared series (precision loss, or
        # t^-alpha > 12), down to f ~ 1e-52, so every point takes the
        # Zolotarev rule; near order one its integrand is a spike at phi*
        ts = np.linspace(t_lo, t_hi, 5)
        _, rest = _m_wright_routed(alpha, ts ** -alpha)
        assert np.all(rest)
        got = stable_density(alpha, ts)
        ref = np.array([_stable_oracle(alpha, t) for t in ts])
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


class TestMWrightOracle:
    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 0.9])
    def test_series_certified_accuracy(self, nu):
        # every point the series certifies; the loss rule counts the
        # extended-precision rounding but not the float64 rgamma factor of
        # each term, so the worst is 9.3e-11 (nu = 0.75, x = 2.875), above
        # the 1e-11 stop rule
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
        # into the stretched-exponential tail, against the kernel identity
        # M_nu(x) = t^(nu+1) f_nu(t) / nu, t = x^(-1/nu), on the 40-digit
        # Zolotarev oracle, wherever M is above 1e-290
        x = np.linspace(x_lo, x_hi, 6)
        t = x ** (-1.0 / nu)
        ref = np.array([_stable_oracle(nu, ti) for ti in t]) * t ** (nu + 1.0) / nu
        live = ref > 1e-290
        assert np.any(live)
        got = m_wright(nu, x)
        assert np.max(np.abs(got[live] - ref[live]) / ref[live]) < 1e-10


class TestArrayEvaluation:
    # every step runs on arrays, so a point's value does not depend on the
    # other points of the call
    @settings(max_examples=40)
    @given(
        nu=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
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
        t = 10.0 ** np.array(log_t)
        assert np.array_equal(stable_density(alpha, t), [stable_density(alpha, ti) for ti in t])


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


def _asymptotic_radius(alpha):
    return min(_asymptotic_attempt_radius(alpha, _RTOL), _ASYMPTOTIC_RADIUS)


def _ml_boundary_points(alpha, boundary):
    """Points just inside and just outside one switch of the evaluation route.

    ``first_ray`` and ``second_ray`` are no route switch now: they put the
    pole just outside and just inside 0.1 rad of theta_p = arg(z)/alpha =
    0.75 pi, where a former two-ray contour changed rays and missed 1e-10.
    """
    if boundary in ("series", "asymptotic"):
        edge = 1.0 if boundary == "series" else _asymptotic_radius(alpha)
        radii = edge * np.array([1.0 - 1e-3, 1.0 + 1e-3])
        return (radii[:, None] * np.exp(1j * np.pi * np.array([0.3, 0.6, 0.95]))).ravel()
    offset = 0.1 + (1e-3 if boundary == "first_ray" else -1e-3)
    theta_p = 0.75 * np.pi + np.array([-offset, offset])
    return 3.0 * np.exp(-1j * alpha * theta_p)


def _residue_switch_points(alpha):
    """Poles at Re sqrt(s*/mu) = 1 -+ 1e-3 for the mu the contour picks.

    Re s* = -60 keeps the pole's error term far below the rest at every mu,
    so the pick is the pole-free optimum; a pole whose residue matters is
    never let this close to the contour.  These |z| lie past the asymptotic
    radius, so the tests call the contour directly.
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
    radii = np.array([1.2, 0.5 * (1.0 + _asymptotic_radius(alpha))])
    z = (radii[:, None] * np.exp(1j * theta)).ravel()
    return np.concatenate((z, np.conj(z)))


def _layout_arguments():
    """-lambda t^alpha of the N = 15, alpha = 0.75 benchmark layout (161
    positions on [-2, 2]) at t = 0.05, one per conjugate pair."""
    alpha, t = 0.75, 0.05
    medium = section5_medium(alpha)
    layout = _EnergyLayout.for_positions(medium, QuadratureSpec(),
                                         np.abs(np.linspace(-2.0, 2.0, 161)))
    lam, _ = _mode_weights_batch(layout.flat_nodes, medium, 15, "exact")
    return np.unique(-lam[lam.imag >= 0] * t**alpha)


def _ml_relative_error(alpha, z, evaluate=mittag_leffler):
    ref = np.array([_ml_oracle(alpha, zi) for zi in z])
    return np.max(np.abs(evaluate(alpha, z) - ref) / np.abs(ref))


class TestMittagLefflerOracle:
    """``mittag_leffler`` against a 32-digit Taylor sum, bound 1e-10 relative
    (1e-12 on the points of the parabolic contour's own switches)."""

    @pytest.mark.parametrize("alpha, boundary", [
        (alpha, boundary) for alpha in (0.5, 0.75, 0.9, 0.99)
        for boundary in ("series", "asymptotic", "first_ray", "second_ray")])
    def test_each_side_of_route_switch(self, alpha, boundary):
        assert _ml_relative_error(alpha, _ml_boundary_points(alpha, boundary)) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.99])
    def test_each_side_of_residue_switch(self, alpha):
        z = _residue_switch_points(alpha)
        assert _ml_relative_error(alpha, z, _ml_parabola) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.99])
    def test_each_side_of_sheet_edge(self, alpha):
        assert _ml_relative_error(alpha, _sheet_edge_points(alpha)) <= 1e-12

    @pytest.mark.parametrize("alpha, radius", [(0.3, 1.2), (0.5, 1.6)])
    def test_lower_band_edge(self, alpha, radius):
        # theta_p = 0.7175 pi, the lower edge of the band where the former
        # two-ray contour missed by 3e-10
        z = radius * np.exp(1j * alpha * 0.7175 * np.pi * np.array([1.0, -1.0]))
        assert _ml_relative_error(alpha, z) <= 1e-12

    def test_transport_layout_arguments(self):
        # the smallest, median and largest |z| of each route, the contour's
        # split by whether the pole is on the principal sheet
        alpha = 0.75
        z = _layout_arguments()
        r = np.abs(z)
        contour = (r > 1) & (r < _asymptotic_radius(alpha))
        on_sheet = np.abs(np.angle(z)) < alpha * np.pi
        routes = {"series": r <= 1, "asymptotic": r >= _asymptotic_radius(alpha),
                  "contour_on_sheet": contour & on_sheet,
                  "contour_off_sheet": contour & ~on_sheet}
        picks = []
        for route, mask in routes.items():
            ordered = z[mask][np.argsort(r[mask])]
            assert ordered.size > 0, route
            picks.extend(ordered[[0, ordered.size // 2, -1]])
        assert _ml_relative_error(alpha, np.array(picks)) <= 1e-10

    def test_contour_on_layout_arguments(self):
        # every 10th argument the contour serves, bound 5e-14; over all
        # 13 257 contour arguments of one benchmark solve (t = 0.048, 0.10
        # and 0.21) the measured worst is 1.4e-14
        z = _layout_arguments()
        r = np.abs(z)
        assert _ml_relative_error(0.75, z[(r > 1) & (r < _asymptotic_radius(0.75))][::10]) <= 5e-14

    def test_first_ray_near_band_edge(self):
        # a point of the benchmark layout at t = 0.1, 0.106 rad in theta_p
        # from 0.75 pi, where the former two-ray contour missed by 2.0e-10
        assert _ml_relative_error(0.75, np.array([-0.4397 - 1.5522j])) <= 1e-10


@st.composite
def _ml_region_points(draw):
    """(alpha, z) drawn from each evaluation route of ``mittag_leffler``."""
    alpha = draw(st.floats(0.3, 1.0))
    r_a = _asymptotic_radius(alpha)
    route = draw(st.sampled_from(["series", "contour", "sheet_edge", "asymptotic"]))
    if route == "series":
        r = draw(st.floats(0.0, 1.0))
    elif route == "asymptotic":
        r = draw(st.floats(r_a, 60.0))
    else:
        r = draw(st.floats(1.0, r_a, exclude_min=True, exclude_max=True))
    if route == "sheet_edge":
        theta = min(np.pi, alpha * np.pi + draw(st.floats(-0.01, 0.01)))
    else:
        theta = draw(st.floats(0.0, np.pi))
    return alpha, r * np.exp(1j * theta)


class TestMittagLefflerConjugateSymmetry:
    @given(point=_ml_region_points())
    def test_conjugate_argument(self, point):
        # _modal_density evaluates one mode of each conjugate pair and
        # relies on E(conj z) = conj E(z); every route holds it bit for bit
        alpha, z = point
        value = mittag_leffler(alpha, z)
        assume(np.isfinite(value))
        assert mittag_leffler(alpha, np.conj(z)) == np.conj(value)
