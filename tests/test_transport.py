"""Fourier inversion machinery, energy density, and the collision split."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import sici, wofz

import fracrte.subordination as subordination
import fracrte.transport as transport
from fracrte.errors import DomainError, QuadratureError
from fracrte.spectral import assemble_operator, critical_wavenumber, section5_medium
from fracrte.specfun import mittag_leffler
from fracrte.transport import (
    _CHUNK_ENTRIES,
    _WIDE_BRANCHES,
    QuadratureSpec,
    _EnergyLayout,
    _extrapolate_wide,
    _mode_weights_batch,
    _PanelLayout,
    _wynn_epsilon,
    ballistic_coefficients,
    ballistic_density,
    energy_density,
    energy_density_closed_p1,
    evolve_coefficients,
    fourier_inversion,
    initial_coefficients,
    scattered_coefficients,
    source_vector,
)


@pytest.fixture(scope="module")
def medium():
    return section5_medium(alpha=0.5)


class TestInitialCoefficients:
    def test_forward_delta(self):
        c = initial_coefficients(1.0, 1).c
        assert c[0] == pytest.approx(0.5)
        assert c[1] == pytest.approx(np.sqrt(3) / 2)

    def test_perpendicular_delta(self):
        c = initial_coefficients(0.0, 1).c
        assert c[0] == pytest.approx(0.5)
        assert c[1] == pytest.approx(0.0, abs=1e-15)

    def test_direction_integrated_loading(self):
        # integrating the loading over the initial direction kills every
        # moment above zero and doubles the zeroth
        nodes, weights = np.polynomial.legendre.leggauss(24)
        acc = np.zeros(4, dtype=complex)
        for mu0, w in zip(nodes, weights):
            acc += w * initial_coefficients(mu0, 3).c
        assert acc[0] == pytest.approx(1.0)
        assert np.max(np.abs(acc[1:])) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            initial_coefficients(1.2, 1)


class TestEvolveCoefficients:
    def test_time_zero(self, medium):
        cv = evolve_coefficients(1.3, 0.0, 0.4, 3, medium)
        assert np.max(np.abs(cv.c - initial_coefficients(0.4, 3).c)) == 0.0

    def test_conserved_mode(self, medium):
        cv = evolve_coefficients(0.0, 3.7, 0.3, 3, medium)
        assert cv.c[0] == pytest.approx(0.5, rel=1e-12)

    def test_conjugate_symmetry_in_wavenumber(self, medium):
        cp = evolve_coefficients(1.3, 0.4, 0.5, 3, medium).c
        cm = evolve_coefficients(-1.3, 0.4, 0.5, 3, medium).c
        assert np.max(np.abs(cm - np.conj(cp))) < 1e-12

    def test_order_one_against_stiff_ode(self):
        m = section5_medium(1.0)
        for k in (0.4, 3.0):
            A = assemble_operator(k, m, 5).entries
            c0 = initial_coefficients(0.6, 5).c
            sol = solve_ivp(lambda t, y: -A @ y, (0.0, 0.8), c0, method="BDF",
                            rtol=1e-10, atol=1e-12)
            got = evolve_coefficients(k, 0.8, 0.6, 5, m).c
            assert np.max(np.abs(got - sol.y[:, -1])) < 1e-6


class TestFourierInversion:
    def test_gaussian_pair(self):
        spec = QuadratureSpec(tail_mode="none")
        got = fourier_inversion(lambda k: np.exp(-(k**2)), 1.0, spec=spec)
        assert got == pytest.approx(np.exp(-0.25) / (2 * np.sqrt(np.pi)), abs=1e-10)

    def test_lorentzian_pair(self):
        spec = QuadratureSpec(tail_mode="none")
        got = fourier_inversion(lambda k: 1.0 / (1 + k**2), 2.0, spec=spec)
        assert got == pytest.approx(np.exp(-2.0) / 2.0, abs=1e-10)

    def test_zero_position_monotone(self):
        spec = QuadratureSpec(k_max=200.0, tail_mode="none")
        got = fourier_inversion(lambda k: 1.0 / (1 + k**2), 0.0, spec=spec)
        assert got == pytest.approx(0.5, abs=1e-8)

    @settings(max_examples=50)
    @given(
        a=st.floats(0.05, 4.0),
        b=st.floats(-2.0, 2.0),
        q=st.floats(0.2, 5.0),
        log_x=st.floats(-4.0, np.log10(3.0)),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_exact_pairs(self, a, b, q, log_x, sign):
        # a shifted Gaussian exercises the sine term; a Lorentzian the
        # algebraic tail; positions reach 1e-4 from the origin
        x = sign * 10.0**log_x
        got = fourier_inversion(lambda k: np.exp(-a * k**2 - 1j * k * b), x)
        peak = 1.0 / (2.0 * np.sqrt(np.pi * a))
        assert abs(got - peak * np.exp(-((x - b) ** 2) / (4.0 * a))) <= 1e-7 * peak
        got = fourier_inversion(lambda k: 1.0 / (k**2 + q**2), x)
        peak = 1.0 / (2.0 * q)
        assert abs(got - peak * np.exp(-q * abs(x))) <= 1e-7 * peak

    def test_array_positions_keep_shape(self):
        xs = np.array([[-1.5, -0.2], [0.0, 2.5]])
        got = fourier_inversion(lambda k: np.exp(-(k**2)), xs)
        assert got.shape == xs.shape
        assert np.max(np.abs(got - np.exp(-(xs**2) / 4) / (2 * np.sqrt(np.pi)))) < 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_non_finite_integrand_raises(self, x):
        with pytest.raises(QuadratureError):
            fourier_inversion(lambda k: np.full(np.shape(k), np.nan), x)

    def test_transport_integrand_against_dense_trapezoid(self, medium):
        # half-order closed form goes through the Faddeeva function on the
        # oracle side; the library side walks its own region machinery
        k_c = critical_wavenumber(medium)
        t = 0.05

        def u_hat(k):
            k = np.asarray(k, dtype=float)
            out = np.empty(k.shape)
            below = k <= k_c
            kb = k[below]
            s = np.sqrt(np.maximum(1 - (kb / k_c) ** 2, 0))
            root = np.sqrt(np.maximum(k_c**2 - kb**2, 0))
            ep = wofz(-1j * (-(k_c + root) / np.sqrt(3) * np.sqrt(t))).real
            em = wofz(-1j * (-(k_c - root) / np.sqrt(3) * np.sqrt(t))).real
            out[below] = 0.5 * ((1 - s) * ep + (1 + s) * em)
            ka = k[~below]
            lam = (k_c - 1j * np.sqrt(ka**2 - k_c**2)) / np.sqrt(3)
            out[~below] = wofz(-1j * (-lam * np.sqrt(t))).real
            return out

        def oracle(x, kmax=1e3, n=10_000_001):
            ks = np.linspace(0.0, kmax, n)
            vals = u_hat(ks)
            a1 = vals[-1] * kmax**2
            if x == 0:
                tail = a1 / kmax
            else:
                si, _ = sici(kmax * abs(x))
                tail = a1 * (np.cos(kmax * x) / kmax - abs(x) * (np.pi / 2 - si))
            return (np.trapezoid(np.cos(ks * x) * vals, ks) + tail) / np.pi

        for x in (0.0, 0.3, 1.0):
            got = energy_density_closed_p1(x, t, medium)
            assert got == pytest.approx(oracle(x), abs=1e-4)


class TestEnergyDensity:
    def test_even_in_position(self, medium):
        df = energy_density(np.array([-1.3, 1.3, -0.2, 0.2]), [0.05], medium, 1)
        v = df.values[0]
        assert v[0] == v[1]
        assert v[2] == v[3]

    def test_hermitian_matches_closed_form(self, medium):
        spec = QuadratureSpec(k_max=300.0)
        xs = np.array([0.0, 0.05, 0.3, 1.0, 2.0])
        t = 0.05
        df = energy_density(xs, [t], medium, 1, mode="hermitian", spec=spec)
        closed = energy_density_closed_p1(xs, t, medium, spec=spec)
        assert np.max(np.abs(df.values[0] - closed)) < 1e-10

    @pytest.mark.parametrize("v, sigma_a", [(2.0, 0.0), (1.0, 1.0)])
    def test_closed_form_off_default_medium(self, v, sigma_a):
        # the closed form carries the speed and the absorption
        m = replace(section5_medium(0.5, sigma_a=sigma_a), v=v)
        spec = QuadratureSpec(k_max=300.0)
        xs = np.array([0.0, 0.05, 0.3, 1.0, 2.0])
        t = 0.05
        got = energy_density(xs, [t], m, 1, mode="hermitian", spec=spec).values[0]
        closed = energy_density_closed_p1(xs, t, m, spec=spec)
        assert np.max(np.abs(got - closed)) <= 1e-9 * np.max(np.abs(got))

    def test_mass_conservation_both_modes(self, medium):
        xg = 8.0 * np.linspace(0, 1, 961) ** 2
        from scipy.integrate import simpson

        df = energy_density(xg, [0.05], medium, 1, mode="exact")
        mass = 2.0 * simpson(df.values[0], x=xg)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_mass_with_absorption(self):
        m = section5_medium(0.5, sigma_a=1.0)
        from scipy.integrate import simpson

        xg = 8.0 * np.linspace(0, 1, 961) ** 2
        df = energy_density(xg, [0.2], m, 1, mode="exact")
        mass = 2.0 * simpson(df.values[0], x=xg)
        expect = mittag_leffler(0.5, -(0.2**0.5)).real
        assert mass == pytest.approx(expect, abs=1e-4)

    def test_mass_at_small_mean_free_path(self):
        # criterion 10's diffusive scaling v = 1/eps, sigma_s = 10/eps^2
        # taken to eps = 1/16, where every wavenumber scale is k_c ~ 1/eps
        from scipy.integrate import simpson

        eps = 1.0 / 16.0
        m = replace(section5_medium(0.5), v=1.0 / eps, sigma_s=10.0 / eps**2)
        xg = 8.0 * np.linspace(0, 1, 961) ** 2
        df = energy_density(xg, [0.5], m, 5, mode="exact")
        mass = 2.0 * simpson(df.values[0], x=xg)
        assert mass == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the hermitian-mode density has a signed tail past |x| = 8 (U(8) = -1.2e-3 at the "
        "example), and near alpha = 0.95 at small t the 961-point grid misses the narrow "
        "exact-mode profile (mass off by 1.3e-3 at alpha = 0.95, t = 0.02)"))
    @settings(max_examples=20)
    @given(alpha=st.floats(0.5, 0.95), sigma_a=st.floats(0.0, 1.0),
           t=st.floats(0.02, 0.2), mode=st.sampled_from(["exact", "hermitian"]))
    @example(alpha=0.5, sigma_a=0.0, t=0.125, mode="hermitian")  # mass 0.99816
    def test_mass_law(self, alpha, sigma_a, t, mode):
        # the bound of test_mass_with_absorption, over the order, the
        # absorption, the time and both modes
        from scipy.integrate import simpson

        m = section5_medium(alpha, sigma_a=sigma_a)
        xg = 8.0 * np.linspace(0, 1, 961) ** 2
        df = energy_density(xg, [t], m, 1, mode=mode)
        mass = 2.0 * simpson(df.values[0], x=xg)
        expect = mittag_leffler(alpha, -sigma_a * t**alpha).real
        assert mass == pytest.approx(expect, abs=1e-4)

    @settings(max_examples=25)
    @given(x=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=30),
           t=st.floats(0.01, 0.2))
    def test_even_in_position_property(self, medium, x, t):
        n = len(x)
        values = energy_density(np.concatenate((x, -np.array(x))), [t], medium, 1).values[0]
        assert np.array_equal(values[:n], values[n:])

    def test_large_wavenumber_limit(self):
        # the above-critical integrand approaches the double-order
        # relaxation form at large k.  The agreement is in the oscillatory
        # structure and the shared leading 1/k^2 algebraic term; a residual
        # first-order algebraic term proportional to k_c t^alpha decays at
        # the same 1/k^2 rate, leaving a bounded relative offset (about 11%
        # at t = 0.2) while the absolute difference falls like 1/k^2.
        m = section5_medium(0.75)
        k_c = critical_wavenumber(m)
        t = 0.2

        def pair(k):
            lam = (k_c - 1j * np.sqrt(k**2 - k_c**2)) / np.sqrt(3)
            lhs = mittag_leffler(0.75, -lam * t**0.75).real
            rhs = mittag_leffler(1.5, -(k**2) * t**1.5 / 3.0).real
            return lhs, rhs

        lhs50, rhs50 = pair(50.0 * k_c)
        assert abs(lhs50 - rhs50) <= 0.15 * abs(rhs50)
        lhs200, rhs200 = pair(200.0 * k_c)
        assert abs(lhs200 - rhs200) < abs(lhs50 - rhs50) / 8.0

    def test_mode_difference_is_real_below_critical(self, medium):
        # exact and conjugate-weight modes genuinely differ away from k = 0;
        # the difference is an output of the library, not a defect
        xs = np.array([0.0, 0.5, 2.0])
        dfe = energy_density(xs, [0.05], medium, 1, mode="exact")
        dfh = energy_density(xs, [0.05], medium, 1, mode="hermitian")
        assert np.max(np.abs(dfe.values - dfh.values)) > 1e-3

    @pytest.mark.xfail(strict=True, reason=(
        "aliased panels: on this layout a panel spans 6.247 rad at |x| = 0.5, "
        "0.6% short of 2 pi, and an ulp of integrand noise moves U by ~1e-7 of max|U|"))
    def test_reduction_is_well_conditioned(self):
        # the reduction of one N = 15 exact-mode solve onto 161 positions on
        # [-2, 2]: multiplying its integrand by 1 +- 2^-52 must not move a
        # value by more than 1e-10 of max|U|
        from fracrte.transport import _EnergyLayout, _mode_weights_batch

        m = section5_medium(0.75)
        spec = QuadratureSpec()
        x = np.abs(np.linspace(-2.0, 2.0, 161))
        t = 0.0481718
        layout = _EnergyLayout.for_positions(m, spec, x)
        lam, w = _mode_weights_batch(layout.flat_nodes, m, 15, "exact")
        factors = mittag_leffler(0.75, -lam.ravel() * t**0.75).reshape(lam.shape)
        u_hat = np.einsum("kn,kn->k", w, factors).real
        base = layout.reduce(u_hat, x, t)
        rng = np.random.default_rng(0)
        for _ in range(3):
            ulp = rng.choice([-1.0, 1.0], u_hat.size) * 2.0**-52
            moved = layout.reduce(u_hat * (1.0 + ulp), x, t) - base
            assert np.max(np.abs(moved)) <= 1e-10 * np.max(np.abs(base))


class TestSpeedScaling:
    @settings(max_examples=15)
    @given(log_v=st.floats(0.0, np.log(8.0)), t=st.floats(0.02, 0.2),
           y_min=st.floats(0.01, 0.016), y=st.lists(st.floats(0.0, 2.0), max_size=14),
           mode=st.sampled_from(["exact", "hermitian"]))
    def test_density_scales_with_speed(self, log_v, t, y_min, y, mode):
        # U(x, t; v) = U(x/v, t; 1) / v on the default medium.  The smallest
        # nonzero |x|/v is at most 0.016, below 0.133/8, so 40/min|x| sets
        # k_max at both speeds and the layout at v is the one at v = 1
        # divided by v.  Measured over 150 random draws: at most 2.0e-9.
        v = np.exp(log_v)
        m = section5_medium(0.5)
        y = np.concatenate(([0.0, y_min], y_min + np.array(y)))
        got = energy_density(y * v, [t], replace(m, v=v), 1, mode=mode).values[0]
        ref = energy_density(y, [t], m, 1, mode=mode).values[0] / v
        assert np.max(np.abs(got - ref)) <= 2e-8 * np.max(np.abs(got))


class TestBallistic:
    def test_mass_order_one(self):
        m = section5_medium(1.0)
        t = 0.3
        xs = np.linspace(-1.0, 1.0, 801)
        vals = ballistic_density(xs, 0.5, 0.5, t, m, mollifier_width=0.02)
        mass = np.trapezoid(vals, xs)
        assert mass == pytest.approx(np.exp(-m.sigma_t * t), abs=2e-3)

    def test_mass_fractional_order(self, medium):
        t = 0.1
        xs = np.linspace(-1.2, 1.2, 801)
        vals = ballistic_density(xs, 0.7, 0.7, t, medium, mollifier_width=0.02)
        mass = np.trapezoid(vals, xs)
        expect = mittag_leffler(0.5, -medium.sigma_t * t**0.5).real
        assert mass == pytest.approx(expect, abs=5e-3)

    def test_pulse_location_order_one(self):
        m = section5_medium(1.0)
        t, mu0 = 0.3, 0.5
        xs = np.linspace(0.0, 0.4, 81)
        vals = ballistic_density(xs, mu0, mu0, t, m, mollifier_width=0.02)
        assert abs(xs[np.argmax(vals)] - mu0 * t) < 0.02

    def test_array_positions_keep_shape(self, medium):
        xs = np.array([[-0.1, 0.0], [0.05, 0.2]])
        got = ballistic_density(xs, 0.7, 0.7, 0.1, medium)
        assert got.shape == xs.shape
        assert isinstance(ballistic_density(0.05, 0.7, 0.7, 0.1, medium), float)
        assert np.array_equal(ballistic_density(xs, 0.3, 0.7, 0.1, medium), np.zeros(xs.shape))

    def test_off_direction_is_zero(self, medium):
        assert ballistic_density(0.1, 0.3, 0.7, 0.1, medium) == 0.0

    def test_explicit_spec_matches_default(self, medium):
        # with the automatic k_max (300 at x = 0) the mollifier has died by
        # the range end, so the plain sum is the value; an extrapolation
        # model would fit the cutoff shape instead
        got = ballistic_density(0.0, 0.7, 0.7, 0.1, medium, spec=QuadratureSpec(),
                                mollifier_width=0.02)
        ref = ballistic_density(0.0, 0.7, 0.7, 0.1, medium, mollifier_width=0.02)
        assert got == pytest.approx(ref, rel=1e-6)


class TestCollisionSplit:
    def test_source_vector_benchmark(self, medium):
        b = source_vector(1.0, medium, 3)
        assert b[1].real == pytest.approx(27.0 / (2.0 * np.sqrt(3.0)), rel=1e-12)
        assert np.max(np.abs(b[2:])) == 0.0  # kernel degree one

    def test_scattered_vanishes_at_time_zero(self, medium):
        cv = scattered_coefficients(1.0, 0.0, 0.5, 3, medium)
        assert np.max(np.abs(cv.c)) == 0.0

    def test_split_identity_random_triples(self, medium):
        rng = np.random.default_rng(42)
        for _ in range(60):
            k = rng.uniform(0.01, 10.0)
            t = rng.uniform(0.001, 2.0)
            mu0 = rng.uniform(-1.0, 1.0)
            N = int(rng.choice([1, 3, 7]))
            cb = ballistic_coefficients(k, t, mu0, N, medium).c
            cs = scattered_coefficients(k, t, mu0, N, medium).c
            cf = evolve_coefficients(k, t, mu0, N, medium).c
            assert np.linalg.norm(cb + cs - cf) < 1e-8

    def test_closure_term_is_required(self, medium):
        # without the last-row streaming closure the split misses at the
        # truncation-defect level, orders above the contract tolerance
        k, t, mu0, N = 2.0, 0.5, 0.7, 3
        cb = ballistic_coefficients(k, t, mu0, N, medium).c
        cs = scattered_coefficients(k, t, mu0, N, medium,
                                    include_truncation_closure=False).c
        cf = evolve_coefficients(k, t, mu0, N, medium).c
        assert np.linalg.norm(cb + cs - cf) > 1e-4


# -- scalar reference tables ----------------------------------------------
# The list-based epsilon table and the scalar extrapolation that the array
# reduction replaced, kept as oracles; each also names the rule it took.


def _wynn_reference(sums):
    s = [float(v) for v in sums]
    n = len(s)
    if n < 3:
        return s[-1], np.inf, "short"
    scale = max(max(abs(v) for v in s), 1e-300)
    if max(s[-min(n, 5):]) - min(s[-min(n, 5):]) < 1e-13 * scale:
        return s[-1], 0.0, "converged"
    prev = [0.0] * (n + 1)
    cur = list(s)
    evens = [s[-1]]
    degenerate = False
    for col in range(1, n):
        nxt = []
        for m in range(n - col):
            diff = cur[m + 1] - cur[m]
            if abs(diff) < 1e-15 * scale:
                nxt.append(prev[m + 1])
                degenerate = True
                continue
            nxt.append(prev[m + 1] + 1.0 / diff)
        prev, cur = cur, nxt
        if col % 2 == 0 and cur:
            evens.append(cur[-1])
        if degenerate:
            break
    tail = evens[-3:] if len(evens) >= 3 else evens
    spread = max(tail) - min(tail)
    value = evens[-1]
    if abs(value) > 3.0 * scale:
        return s[-1], np.inf, "blown"
    return value, spread, "degenerate" if degenerate else "table"


def _neville_reference(u, s):
    p = list(s)
    n = len(p)
    for level in range(1, n):
        for i in range(n - level):
            p[i] = p[i + 1] + (p[i + 1] - p[i]) * u[i + level] / (u[i] - u[i + level])
    return p[0]


def _extrapolate_wide_reference(cum_sums, edges_right):
    k_hi = edges_right[-1]
    if abs(cum_sums[-1] - cum_sums[len(cum_sums) // 2]) < 1e-11 * max(abs(cum_sums[-1]), 1e-30):
        return cum_sums[-1], "flat"
    tail_inc = np.diff(cum_sums[-7:])
    if tail_inc.size >= 3:
        signs = np.sign(tail_inc[np.abs(tail_inc) > 1e-14 * max(abs(cum_sums[-1]), 1e-30)])
        if signs.size >= 2 and np.any(signs[1:] != signs[:-1]):
            return cum_sums[-1], "sign_flip"
    i_half = int(np.argmin(np.abs(edges_right - 0.5 * k_hi)))
    if i_half < len(cum_sums) - 2:
        inc_top = np.diff(cum_sums[i_half:])
        travel = float(np.sum(np.abs(inc_top)))
        net = abs(cum_sums[-1] - cum_sums[i_half])
        if travel > 0 and net < 0.5 * travel:
            return cum_sums[-1], "travel"
    idx = []
    for kt in (k_hi, k_hi / 2.0, k_hi / 4.0, k_hi / 8.0):
        if kt < edges_right[0]:
            break
        i = int(np.argmin(np.abs(edges_right - kt)))
        if i not in idx:
            idx.append(i)
    if len(idx) < 3:
        return cum_sums[-1], "few_octaves"
    value = _neville_reference([1.0 / edges_right[i] for i in idx], [cum_sums[i] for i in idx])
    mag = max(abs(cum_sums[-1]), 1e-30)
    if not np.isfinite(value) or abs(value - cum_sums[-1]) > 0.5 * mag + 1e-12:
        return cum_sums[-1], "neville_rejected"
    return value, "neville"


def _wynn_cases(n, rng):
    j = np.arange(1, n + 1)
    rows = [
        np.cumsum(0.5**j), np.cumsum((-0.7) ** j), np.cumsum((-1.0) ** j / j),
        np.cumsum(np.cos(2.1 * j) / j**2),
        1.0 + 1e-15 * rng.standard_normal(n),  # converged at rounding level
        np.concatenate((np.cumsum(1.0 / j[: n // 2]), np.full(n - n // 2, 2.0))),
        np.r_[np.cumsum(0.9**j)[:-2], [5.0, 5.0]],  # degenerate in the first column
        np.cumsum((-1.0) ** j * np.exp(-0.05 * j)) + 1e-9 * j,
    ]
    for _ in range(40):
        step = rng.uniform(-1.0, 1.0) ** rng.integers(1, 6)
        rows.append(np.cumsum(rng.standard_normal(n) * np.abs(step) ** j) + rng.standard_normal())
        rows.append(np.round(rng.standard_normal(n), 1))  # repeated sums
    # sequences without a limit: about 2 % blow up
    return np.concatenate((rows, rng.standard_normal((300, n))))


class TestArrayReduction:
    """The array reduction against the scalar tables, bit for bit."""

    @pytest.mark.parametrize("n", [2, 5, 9, 17])
    def test_wynn_matches_scalar_table(self, n):
        rows = _wynn_cases(n, np.random.default_rng(n))
        value, spread = _wynn_epsilon(rows)
        ref = [_wynn_reference(r) for r in rows]
        assert np.array_equal(value, [r[0] for r in ref])
        assert np.array_equal(spread, [r[1] for r in ref])
        branches = {r[2] for r in ref}
        assert branches == ({"short"} if n < 3 else
                            {"converged", "degenerate", "blown", "table"})

    def test_wynn_blowup_and_degenerate_column(self):
        # a sequence with no limit gives an estimate far past the sums
        # (blow-up fallback); an exact repeat stops the table early
        rows = np.array([[0.9, 0.0, 2.0, 0.2, -0.6, -0.4, -1.1],
                         [1.0, 2.0, 3.0, 3.0, 4.0, 4.5, 4.7]])
        ref = [_wynn_reference(r) for r in rows]
        assert [r[2] for r in ref] == ["blown", "degenerate"]
        value, spread = _wynn_epsilon(rows)
        assert np.array_equal(value, [r[0] for r in ref])
        assert np.array_equal(spread, [r[1] for r in ref])

    @pytest.mark.parametrize("edges", [np.linspace(10.0, 800.0, 80), np.linspace(300.0, 800.0, 40)])
    def test_extrapolate_wide_matches_scalar(self, edges):
        rng = np.random.default_rng(len(edges))
        n = edges.size
        half = np.arange(n) >= n // 2
        rows = [
            np.full(n, 0.3) + 1e-13 * (np.arange(n) == 0),  # flat
            0.3 + np.cumsum(np.where(np.arange(n) % 2, 1e-3, -1e-3)) / (1 + np.arange(n)),  # flips
            np.cumsum(np.where(half & (np.arange(n) < 0.8 * n), 1.0, -1.0)),  # travel
            1e-3 + 10.0 / edges,  # Neville lands far from the plain sum
            1.0 + 1.0 / edges**2 + 0.5 / edges**3,  # Neville
            1.0 - 2.0 / edges**2,
        ]
        for _ in range(30):
            rows.append(rng.standard_normal() + rng.standard_normal() / edges**rng.integers(1, 4)
                        + 1e-6 * rng.standard_normal(n) * rng.integers(0, 2))
        rows = np.array(rows)
        value, branch = _extrapolate_wide(rows, edges)
        ref = [_extrapolate_wide_reference(r, edges) for r in rows]
        assert np.array_equal(value, [r[0] for r in ref])
        assert [_WIDE_BRANCHES[b] for b in branch] == [r[1] for r in ref]
        expected = ({"few_octaves", "flat", "sign_flip", "travel"} if edges[0] > 200 else
                    {"flat", "sign_flip", "travel", "neville", "neville_rejected"})
        assert {r[1] for r in ref} == expected


@pytest.fixture(scope="module")
def layout_case():
    """One transport layout, two times, positions in both acceleration branches."""
    m = section5_medium(0.5)
    spec = QuadratureSpec(k_max=2000.0)
    x = np.concatenate(([0.0, 1e-3, 2e-3, 4e-3], np.linspace(0.01, 2.0, 56)))
    layout = _EnergyLayout.for_positions(m, spec, x)
    lam, w = _mode_weights_batch(layout.flat_nodes, m, 1, "hermitian")
    times = (0.01, 0.1)
    u_hat = np.array([np.einsum("kn,kn->k", w, mittag_leffler(
        0.5, -lam.ravel() * t**0.5).reshape(lam.shape)).real for t in times])
    shifted = np.exp(-0.01 * layout.flat_nodes**2 - 0.3j * layout.flat_nodes)
    full = layout.reduce(u_hat, x, times)
    full_c = _PanelLayout.reduce(layout, shifted, np.r_[x, -x])
    return layout, x, times, u_hat, shifted, full, full_c


class TestReductionLocality:
    """A reduced value depends on its position, not on its neighbours."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_subset_permutation_single(self, layout_case, data):
        layout, x, times, u_hat, shifted, full, full_c = layout_case
        assert x.size > 2 * (_CHUNK_ENTRIES // layout.flat_nodes.size)  # three chunks over x
        n = x.size
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        perm = data.draw(st.permutations(range(n)))
        single = data.draw(st.integers(0, n - 1))
        for idx in (subset, perm, [single]):
            idx = np.array(idx)
            assert np.array_equal(layout.reduce(u_hat, x[idx], times), full[:, idx])
            signed = np.r_[x, -x][np.r_[idx, idx + n]]
            assert np.array_equal(_PanelLayout.reduce(layout, shifted, signed),
                                  full_c[:, np.r_[idx, idx + n]])
        assert np.array_equal(layout.reduce(u_hat[1], x[[single]], times[1]), full[1, [single]])

    def test_small_chunks(self, monkeypatch, layout_case):
        # chunks of 5 positions, 12 over x and 24 over the signed positions
        layout, x, times, u_hat, shifted, full, full_c = layout_case
        monkeypatch.setattr(transport, "_CHUNK_ENTRIES", 5 * layout.flat_nodes.size)
        assert np.array_equal(layout.reduce(u_hat, x, times), full)
        assert np.array_equal(_PanelLayout.reduce(layout, shifted, np.r_[x, -x]), full_c)


class TestConjugatePairHalving:
    """``_modal_density`` evaluates one mode of each conjugate pair at twice
    its weight; that equals the sum over all N + 1 modes."""

    @staticmethod
    def _capture(monkeypatch, module):
        """Record the modal factors and the transformed density of one call."""
        seen = {}
        real_modal, real_reduce = transport._modal_density, _EnergyLayout.reduce

        def modal(x_abs, times, params, N, mode, spec, factors, mollifier_width=None):
            seen.update(params=params, N=N, mode=mode, times=times, factors=factors)
            return real_modal(x_abs, times, params, N, mode, spec, factors, mollifier_width)

        def reduce(self, u_hat, *args, **kwargs):
            seen.update(nodes=self.flat_nodes, u_hat=np.array(u_hat))
            return real_reduce(self, u_hat, *args, **kwargs)

        monkeypatch.setattr(module, "_modal_density", modal)
        monkeypatch.setattr(_EnergyLayout, "reduce", reduce)
        return seen

    @staticmethod
    def _assert_equals_full_sum(seen):
        lam, w = _mode_weights_batch(seen["nodes"], seen["params"], seen["N"], seen["mode"])
        assert np.any(lam.imag > 0) and np.any(lam.imag == 0)  # both kinds of mode occur
        full = np.array([np.einsum("kn,kn->k", w, seen["factors"](
            lam.ravel(), t).reshape(lam.shape)).real for t in seen["times"]])
        assert np.max(np.abs(seen["u_hat"] - full)) <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("mode, N, alpha", [("exact", 7, 0.75), ("hermitian", 3, 0.5)])
    def test_mittag_leffler_factors(self, monkeypatch, mode, N, alpha):
        seen = self._capture(monkeypatch, transport)
        energy_density(np.linspace(-1.0, 1.0, 9), (0.05, 0.2), section5_medium(alpha), N,
                       mode=mode)
        self._assert_equals_full_sum(seen)

    def test_subordination_fold(self, monkeypatch):
        seen = self._capture(monkeypatch, subordination)
        subordination.subordinated_energy_density(np.linspace(-1.0, 1.0, 5), (0.05,),
                                                  section5_medium(0.9), 3)
        self._assert_equals_full_sum(seen)
