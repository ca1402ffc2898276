"""Fourier inversion machinery, energy density, and the collision split."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import sici, spherical_jn, wofz

import fracrte.spectral as spectral
import fracrte.subordination as subordination
import fracrte.transport as transport
from fracrte.diffusion import DiffusionParams, diffusion_density_mwright
from fracrte.errors import DomainError, QuadratureError, ResolventError
from fracrte.spectral import assemble_operator, critical_wavenumber, d0, section5_medium
from fracrte.specfun import m_wright, mittag_leffler
from fracrte.transport import (
    _CHUNK_ENTRIES,
    QuadratureSpec,
    _EnergyLayout,
    _mode_weights_batch,
    _PanelLayout,
    _spherical_jn,
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

# the coalescence point of the benchmark medium's two-moment operator, any alpha
K_C_BENCHMARK = critical_wavenumber(section5_medium(0.5))


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


@pytest.mark.parametrize("n", [8, 16, 40])
def test_spherical_bessel_table(n):
    # the Filon table's j_0..j_(n-1) one ulp either side of its branch
    # switches (w = 0.5 and w = n), on them, and over sixteen decades
    edges = np.array([0.5, n], dtype=float)
    w = np.r_[0.0, np.geomspace(1e-12, 1e4, 4001), np.nextafter(edges, 0), edges,
              np.nextafter(edges, np.inf)]
    ref = np.stack([spherical_jn(j, w) for j in range(n)], axis=-1)
    table = _spherical_jn(n, w)
    assert np.max(np.abs(table - ref)) <= 2e-15
    assert np.array_equal(_spherical_jn(n, -w), table)  # it takes |w|
    # every step is elementwise: a slice's table is the slice of the table
    for part in (slice(0, 1), slice(1, 2000), slice(2000, None), slice(None, None, 7)):
        assert np.array_equal(_spherical_jn(n, w[part]), table[part])
    assert np.array_equal(_spherical_jn(n, w.reshape(-1, 2))[:, 1], table[1::2])


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

    def test_reduction_is_well_conditioned(self):
        # the reduction of one N = 15 exact-mode solve onto 161 positions on
        # [-2, 2]: multiplying its integrand by 1 +- 2^-52 must not move a
        # value by more than 1e-10 of max|U|
        m = section5_medium(0.75)
        x = np.abs(np.linspace(-2.0, 2.0, 161))
        t = 0.0481718
        layout = _EnergyLayout(m, QuadratureSpec())
        lam, w = _mode_weights_batch(layout.flat_nodes, m, 15, "exact")
        factors = mittag_leffler(0.75, -lam.ravel() * t**0.75).reshape(lam.shape)
        u_hat = np.einsum("kn,kn->k", w, factors).real
        base = layout.reduce(u_hat, x, t)
        rng = np.random.default_rng(0)
        for _ in range(3):
            ulp = rng.choice([-1.0, 1.0], u_hat.size) * 2.0**-52
            moved = layout.reduce(u_hat * (1.0 + ulp), x, t) - base
            assert np.max(np.abs(moved)) <= 1e-10 * np.max(np.abs(base))


class TestDiffusiveWidth:
    """At long times the fine segment resolves the diffusive width
    w = sqrt(D0 t^alpha) as well as the coalescence kink: on section5_medium(0.9)
    a segment ending at k_c alone gave mass 0.99652 (t = 1e3) and 1.09462
    (t = 1e4), and a gap to the diffusion limit that grew with t."""

    @pytest.fixture(scope="class")
    def long_times(self):
        m = section5_medium(0.9)
        dp = DiffusionParams.from_medium(m)
        out = {}
        for t in (1e3, 1e4):
            x = np.linspace(0.0, 8.0 * np.sqrt(d0(m) * t**0.9), 1201)
            u = energy_density(x, [t], m, 1, mode="exact").values[0]
            gap = np.max(np.abs(u - diffusion_density_mwright(x, t, dp))) / np.max(u)
            out[t] = 2.0 * np.trapezoid(u, x), gap
        return out

    def test_unit_mass(self, long_times):
        for mass, _ in long_times.values():
            assert abs(mass - 1.0) <= 1e-4

    def test_approaches_the_diffusion_limit(self, long_times):
        gap_3, gap_4 = long_times[1e3][1], long_times[1e4][1]
        assert max(gap_3, gap_4) < 1e-3
        assert gap_4 < gap_3

    def test_layout(self):
        m, spec = section5_medium(0.9), QuadratureSpec()
        k_c = critical_wavenumber(m)
        # t^alpha <= 36 (every benchmark time) leaves the layout as it was
        assert np.array_equal(_EnergyLayout(m, spec, 0.2).edges, _EnergyLayout(m, spec).edges)
        layout = _EnergyLayout(m, spec, 1e3)
        k_w = 3.0 / np.sqrt(d0(m) * 1e3**0.9)
        assert k_w < k_c
        assert np.count_nonzero(layout.edges <= k_w) == 13  # 12 panels on [0, 3/w]
        assert k_c in layout.edges
        assert np.all(np.diff(layout.edges) > 0)


class TestGridIndependence:
    """The layout depends on the medium, the spec and the largest time
    only, so a value does not depend on the rest of its grid."""

    PROBES = np.array([0.0, 0.5, 1.0, 2.0])

    def test_probes_alone_and_inside_grids(self):
        m, times = section5_medium(0.75), (0.05, 0.2)
        alone = energy_density(self.PROBES, times, m, 15, mode="exact").values
        for n, extent in ((41, 1.0), (161, 2.0), (801, 5.0)):
            x = np.r_[np.linspace(-extent, extent, n), self.PROBES]
            got = energy_density(x, times, m, 15, mode="exact").values[:, n:]
            assert np.array_equal(got, alone)

    def test_origin_alone_against_a_longer_range(self):
        # the value at x = 0 alone, against K = 1e5: the remainder past the
        # default K = 2e4 k_c is dropped there
        m, t = section5_medium(0.75), 0.05
        got = energy_density([0.0], [t], m, 15, mode="exact").values[0, 0]
        ref = energy_density([0.0], [t], m, 15, mode="exact",
                             spec=QuadratureSpec(k_max=1e5)).values[0, 0]
        assert abs(got - ref) <= 1e-6 * abs(ref)


class TestNamedFailures:
    def test_displacement_names_the_flagged_wavenumbers(self, monkeypatch, medium):
        # a wavenumber that stays flagged through every displacement is the
        # only one the error carries and prints
        ks = np.linspace(0.0, 5.0, 2000)
        real_decompose = transport.decompose

        def stuck(op):
            dec = real_decompose(op)
            return replace(dec, defective_flag=dec.defective_flag | (np.arange(ks.size) == 1500))

        monkeypatch.setattr(transport, "decompose", stuck)
        with pytest.raises(QuadratureError) as info:
            transport._decompose_displaced(ks, medium, 1)
        assert np.array_equal(info.value.detail["k"], [ks[1500]])
        assert "..." not in str(info.value)


def test_transport_wide_memory(medium):
    # the benchmark's transport_wide shape, under the 8 MiB tracemalloc
    # guard: the blocked Filon reduction peaks at ~1.6 MiB
    x, times = np.linspace(-2.0, 2.0, 801), (0.01, 0.05, 0.1)
    energy_density(x, times, medium, 1)  # first-use tables and lazy imports
    tracemalloc.start()
    try:
        energy_density(x, times, medium, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


class TestSpeedScaling:
    @settings(max_examples=15)
    @given(log_v=st.floats(0.0, np.log(8.0)), t=st.floats(0.02, 0.2),
           y=st.lists(st.floats(0.0, 2.0), max_size=14),
           mode=st.sampled_from(["exact", "hermitian"]))
    def test_density_scales_with_speed(self, log_v, t, y, mode):
        # U(x, t; v) = U(x/v, t; 1) / v on the default medium: K = 2e4 k_c
        # and k_c = (sqrt(3)/2) sigma_s (1 - g) / v, so the layout at v is
        # the one at v = 1 divided by v.  Measured over 150 random draws: at
        # most 6.4e-12.
        v = np.exp(log_v)
        m = section5_medium(0.5)
        y = np.r_[0.0, y]  # x = 0 keeps the bound's scale off the far tail
        got = energy_density(y * v, [t], replace(m, v=v), 1, mode=mode).values[0]
        ref = energy_density(y, [t], m, 1, mode=mode).values[0] / v
        assert np.max(np.abs(got - ref)) <= 2e-8 * np.max(np.abs(got))


class TestTimeScaling:
    @settings(max_examples=15)
    @given(alpha=st.floats(0.5, 0.95), log_c=st.floats(np.log(0.25), np.log(4.0)),
           t=st.floats(0.02, 0.2), sigma_a=st.floats(0.0, 1.0),
           x=st.lists(st.floats(-3.0, 3.0), max_size=14),
           mode=st.sampled_from(["exact", "hermitian"]))
    def test_density_scales_with_time(self, alpha, log_c, t, sigma_a, x, mode):
        # U(x, ct; v, sigma_s, sigma_a) = U(x, t; c^a v, c^a sigma_s, c^a sigma_a):
        # both sides see the same k_c, layout and arguments -lambda t^a, so
        # they agree to eigensolver round-off on any grid.  Measured over
        # 150 random draws: at most 5.8e-14.
        c, x = np.exp(log_c), np.r_[0.0, x]  # x = 0 keeps the bound's scale off the far tail
        m = section5_medium(alpha, sigma_a=sigma_a)
        fast = replace(m, v=c**alpha * m.v, sigma_s=c**alpha * m.sigma_s,
                       sigma_a=c**alpha * sigma_a)
        got = energy_density(x, [c * t], m, 3, mode=mode).values[0]
        ref = energy_density(x, [t], fast, 3, mode=mode).values[0]
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


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
        # with the default K (2e4 k_c) the mollifier has died by the range
        # end as well, so both are the plain sum; a fitted tail would model
        # the cutoff shape instead
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

    @pytest.mark.parametrize("part", [ballistic_coefficients, scattered_coefficients,
                                      evolve_coefficients])
    def test_negative_time_rejected(self, medium, part):
        # t^alpha is complex for t < 0, so each part of the split refuses it
        # rather than return a finite vector
        with pytest.raises(DomainError):
            part(1.0, -0.1, 0.5, 1, medium)

    @settings(max_examples=200)
    @given(alpha=st.floats(0.05, 1.0, exclude_min=True),
           N=st.integers(1, 15),  # from the benchmark kernel's degree
           k=st.one_of(st.floats(1e-3, 1e3), st.just(K_C_BENCHMARK),
                       st.floats(-1e-6, 1e-6).map(lambda d: K_C_BENCHMARK * (1 + d))),
           t=st.floats(0.001, 2.0), mu0=st.floats(-1.0, 1.0))
    def test_split_identity_random_triples(self, alpha, N, k, t, mu0):
        # the exact action runs through every term: the full evolution, the
        # scattered part's forcing, and (near k_c) the displaced decomposition
        m = section5_medium(alpha)
        cb = ballistic_coefficients(k, t, mu0, N, m).c
        cs = scattered_coefficients(k, t, mu0, N, m).c
        cf = evolve_coefficients(k, t, mu0, N, m).c
        assert np.linalg.norm(cb + cs - cf) < 1e-8

    def test_split_closes_at_critical_wavenumber(self, medium):
        # at k_c itself the moments are taken at the displaced wavenumber,
        # ballistic attenuation and closure included, so the split closes
        # as tightly there as anywhere else
        rng = np.random.default_rng(0)
        for _ in range(12):
            t, mu0 = rng.uniform(0.001, 2.0), rng.uniform(-1.0, 1.0)
            cb = ballistic_coefficients(K_C_BENCHMARK, t, mu0, 1, medium).c
            cs = scattered_coefficients(K_C_BENCHMARK, t, mu0, 1, medium).c
            cf = evolve_coefficients(K_C_BENCHMARK, t, mu0, 1, medium).c
            assert np.linalg.norm(cb + cs - cf) <= 1e-10

    def test_scattered_solves_no_second_system(self, medium, monkeypatch):
        # the resolvent is applied mode by mode through the one
        # decomposition: no linear solve, and no operator assembled but the
        # one that is decomposed
        assembled = []

        def assemble(*args):
            assembled.append(args)
            return spectral.assemble_operator(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("scattered_coefficients must not call np.linalg.solve")

        monkeypatch.setattr(transport, "assemble_operator", assemble)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        c = scattered_coefficients(2.0, 0.5, 0.7, 3, medium).c
        assert len(assembled) == 1 and np.all(np.isfinite(c))

    def test_near_singular_resolvent_is_named(self, medium):
        # for N above the kernel degree, zeta I - A is singular at k = 0 and
        # its condition number grows like 1/k (4.8e14 at k = 1e-13)
        with pytest.raises(ResolventError):
            scattered_coefficients(1e-13, 0.5, 0.3, 3, medium)
        with pytest.raises(ResolventError):
            scattered_coefficients(0.0, 0.5, 0.3, 3, medium)
        assert np.all(np.isfinite(scattered_coefficients(1e-9, 0.5, 0.3, 3, medium).c))

    def test_closure_term_is_required(self, medium, monkeypatch):
        # without the last-row streaming closure the split misses at the
        # truncation-defect level, orders above the contract tolerance
        k, t, mu0, N = 2.0, 0.5, 0.7, 3
        cb = ballistic_coefficients(k, t, mu0, N, medium).c
        monkeypatch.setattr(transport, "_truncation_closure", lambda *args: 0.0)
        cs = scattered_coefficients(k, t, mu0, N, medium).c
        cf = evolve_coefficients(k, t, mu0, N, medium).c
        assert np.linalg.norm(cb + cs - cf) > 1e-4


@pytest.fixture(scope="module")
def layout_case():
    """One transport layout, two times, positions on both sides of K|x| = 10."""
    m = section5_medium(0.5)
    spec = QuadratureSpec(k_max=2000.0)
    x = np.concatenate(([0.0, 1e-3, 2e-3, 4e-3], np.linspace(0.01, 2.0, 56)))
    layout = _EnergyLayout(m, spec)
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
        n = x.size
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        perm = data.draw(st.permutations(range(n)))
        single = data.draw(st.integers(0, n - 1))
        # chunks of 25 positions, so that x spans three of them
        with mock.patch.object(transport, "_CHUNK_ENTRIES", 25 * layout.flat_nodes.size):
            assert x.size > 2 * (transport._CHUNK_ENTRIES // layout.flat_nodes.size)
            for idx in (subset, perm, [single]):
                idx = np.array(idx)
                assert np.array_equal(layout.reduce(u_hat, x[idx], times), full[:, idx])
                signed = np.r_[x, -x][np.r_[idx, idx + n]]
                assert np.array_equal(_PanelLayout.reduce(layout, shifted, signed),
                                      full_c[:, np.r_[idx, idx + n]])
            assert np.array_equal(layout.reduce(u_hat[1], x[[single]], times[1]),
                                  full[1, [single]])

    @staticmethod
    def _spy(monkeypatch):
        """Record the positions that reach the Filon tables, and the
        positions and panel sums of each chunk."""
        seen = {"tables": [], "chunks": []}
        real_sums, real_filon = _PanelLayout._panel_sums, _PanelLayout._filon_sum

        def panel_sums(self, x, coef):
            seen["tables"].append(np.array(x))
            return real_sums(self, x, coef)

        def filon_sum(self, panels, x, end):
            seen["chunks"].append((np.array(x), panels.size))
            return real_filon(self, panels, x, end)

        monkeypatch.setattr(_PanelLayout, "_panel_sums", panel_sums)
        monkeypatch.setattr(_PanelLayout, "_filon_sum", filon_sum)
        return seen

    def test_small_chunks(self, monkeypatch, layout_case):
        # chunks of 5 positions, bound by the Bessel table: 12 over x and 24
        # over the 119 distinct signed positions (0 and -0 are one position);
        # with 40 rows the panel sums bind instead, at 2 positions a chunk
        layout, x, times, u_hat, shifted, full, full_c = layout_case
        many_rows = np.tile(shifted, (40, 1))
        full_rows = _PanelLayout.reduce(layout, many_rows, x)
        entries = 5 * layout.flat_nodes.size
        monkeypatch.setattr(transport, "_CHUNK_ENTRIES", entries)
        seen = self._spy(monkeypatch)
        assert np.array_equal(layout.reduce(u_hat, x, times), full)
        assert np.array_equal(_PanelLayout.reduce(layout, shifted, np.r_[x, -x]), full_c)
        assert np.array_equal(_PanelLayout.reduce(layout, many_rows, x), full_rows)
        assert [t.size for t in seen["tables"]] == [5] * 35 + [4] + [2] * 30
        assert all(np.array_equal(t, c) for t, (c, _) in zip(seen["tables"], seen["chunks"]))
        assert all(size <= entries for _, size in seen["chunks"])

    def test_repeats_and_mirrors(self, layout_case):
        # repeated positions and exact mirrors take the values of their
        # distinct positions, bit for bit
        layout, x, times, u_hat, shifted, full, full_c = layout_case
        idx = np.r_[np.arange(x.size), np.arange(x.size)[::-1], [3, 3, 17, 0]]
        assert np.array_equal(layout.reduce(u_hat, x[idx], times), full[:, idx])
        signed = np.r_[x, -x]
        idx = np.r_[idx, x.size + idx]
        assert np.array_equal(_PanelLayout.reduce(layout, shifted, signed[idx]), full_c[:, idx])

    def test_only_distinct_positions_reach_the_tables(self, monkeypatch, layout_case):
        # |linspace(-2, 2, 801)| has 573 distinct values: a position and its
        # mirror that differ in their last bits are reduced apart
        layout, x, times, u_hat, *_ = layout_case
        seen = self._spy(monkeypatch)
        grid = np.abs(np.linspace(-2.0, 2.0, 801))
        distinct = np.unique(grid)
        assert distinct.size == 573
        layout.reduce(u_hat, np.r_[grid, grid[::7]], times)
        assert np.array_equal(np.concatenate(seen["tables"]), distinct)
        assert np.array_equal(np.concatenate([c[0] for c in seen["chunks"]]), distinct)

    def test_front_through_the_energy_layout(self):
        # the energy layout reduces u minus the per-time fronts E_2a(-(ck)^2)
        # and adds back their transforms M_a(|x|/c)/(2c), c = v t^a / sqrt(3);
        # with a mollifier, tail_mode="none" or alpha = 1 it is the plain base
        # reduction (at alpha = 1 without end-point terms)
        times = np.array([0.01, 0.05, 0.1])
        x = np.r_[0.0, np.linspace(-2.0, 2.0, 801), 7.5]
        cases = [(0.5, QuadratureSpec(), None), (0.75, QuadratureSpec(), None),
                 (0.5, QuadratureSpec(), 0.02), (0.75, QuadratureSpec(tail_mode="none"), None),
                 (1.0, QuadratureSpec(), None)]
        for alpha, spec, width in cases:
            m = replace(section5_medium(alpha), v=1.3)
            layout = _EnergyLayout(m, spec)
            lam, w = _mode_weights_batch(layout.flat_nodes, m, 1, "hermitian")
            u = np.array([np.einsum("kn,kn->k", w, mittag_leffler(
                alpha, -lam.ravel() * t**alpha).reshape(lam.shape)).real for t in times])
            got = layout.reduce(u, x, times, mollifier_width=width)
            if width or spec.tail_mode == "none" or alpha == 1.0:
                expected = _PanelLayout.reduce(layout, u, x, mollifier_width=width,
                                               ends=alpha < 1.0)
            else:
                k = layout.flat_nodes
                c = [1.3 * t**alpha / np.sqrt(3.0) for t in times]
                rows = np.array([mittag_leffler(2.0 * alpha, -((k * ci) ** 2)).real for ci in c])
                fronts = np.array([m_wright(alpha, abs(x) / ci) / (2.0 * ci) for ci in c])
                expected = _PanelLayout.reduce(layout, u - rows, x) + fronts
            assert np.array_equal(got, expected), (alpha, spec, width)
            assert np.array_equal(layout.reduce(u[1], x, times[1], mollifier_width=width),
                                  expected[1])


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
