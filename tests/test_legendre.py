"""Legendre recurrence, kernel normalization, and direction sampling."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracrte.errors import DomainError, InvalidPhaseFunctionError
from fracrte.legendre import (
    PhaseFunction,
    anisotropy_g,
    legendre_eval,
    phase_eval,
    phase_sample,
    phase_sample_batch,
)


class TestLegendreEval:
    def test_low_degrees(self):
        assert legendre_eval(0, 0.7) == 1.0
        assert legendre_eval(1, 0.3) == pytest.approx(0.3)
        assert legendre_eval(2, 0.5) == pytest.approx(-0.125)

    def test_bounded_by_one(self):
        mu = np.linspace(-1, 1, 201)
        grid = mu[:200].reshape(4, 5, 10)
        for l in range(0, 20):
            assert np.max(np.abs(legendre_eval(l, mu))) <= 1.0 + 1e-14
            p = legendre_eval(l, grid)
            assert p.shape == grid.shape
            assert np.array_equal(p.ravel(), legendre_eval(l, mu[:200]))

    def test_matches_two_row_recurrence_bitwise(self):
        mu = np.linspace(-1, 1, 1001)
        for l in (1, 2, 7, 30):
            p_prev, p_cur = np.ones_like(mu), mu.copy()
            for k in range(1, l):
                p_prev, p_cur = p_cur, ((2 * k + 1) * mu * p_cur - k * p_prev) / (k + 1)
            assert np.array_equal(legendre_eval(l, mu), p_cur)

    def test_three_term_recurrence_residual(self):
        mu = np.linspace(-1, 1, 101)
        for l in range(1, 32):
            res = (
                (l + 1) * legendre_eval(l + 1, mu)
                - (2 * l + 1) * mu * legendre_eval(l, mu)
                + l * legendre_eval(l - 1, mu)
            )
            assert np.max(np.abs(res)) < 1e-12

    def test_orthogonality_gauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(33)
        for l in range(0, 17, 4):
            for lp in range(0, 17, 4):
                val = np.sum(weights * legendre_eval(l, nodes) * legendre_eval(lp, nodes))
                expect = 2.0 / (2 * l + 1) if l == lp else 0.0
                assert val == pytest.approx(expect, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            legendre_eval(2, 1.5)


class TestPhaseFunction:
    def test_isotropic_value(self):
        pf = PhaseFunction.isotropic()
        assert phase_eval(pf, 0.3, -0.8) == pytest.approx(0.5)

    def test_linear_forward_value(self):
        pf = PhaseFunction.linear(0.9)
        assert phase_eval(pf, 1.0, 1.0) == pytest.approx(1.85)

    def test_normalization_every_mu(self):
        pf = PhaseFunction(beta=(1.0, 2.7))
        for mu in (-0.9, 0.0, 0.3, 1.0):
            val, _ = quad(lambda mp: phase_eval(pf, mu, mp), -1, 1, limit=100)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        pf = PhaseFunction(beta=(1.0, 1.5, 0.8))
        mu = np.linspace(-1, 1, 17)
        a = phase_eval(pf, mu[:, None], mu[None, :])
        assert np.max(np.abs(a - a.T)) < 1e-14

    def test_invalid_coefficients(self):
        with pytest.raises(InvalidPhaseFunctionError):
            PhaseFunction(beta=(0.9,))
        with pytest.raises(InvalidPhaseFunctionError):
            PhaseFunction(beta=(1.0, 3.2))

    def test_negativity_recorded_not_raised(self):
        pf = PhaseFunction(beta=(1.0, 2.7))
        assert pf.min_on_grid < -0.5
        assert not pf.is_nonnegative
        with pytest.raises(InvalidPhaseFunctionError):
            PhaseFunction(beta=(1.0, 2.7), require_nonnegative=True)

    def test_anisotropy(self):
        assert anisotropy_g(PhaseFunction(beta=(1.0, 2.7))) == pytest.approx(0.9)
        assert anisotropy_g(PhaseFunction.isotropic()) == 0.0
        assert anisotropy_g(PhaseFunction(beta=(1.0, 1.5))) == pytest.approx(0.5)


class TestPhaseSampling:
    def test_isotropic_mean(self):
        pf = PhaseFunction.isotropic()
        rng = np.random.default_rng(0)
        mu, w = phase_sample(pf, 0.4, rng, n=1_000_000)
        assert np.all(w == 1.0)
        assert abs(np.mean(mu)) < 3.0 * np.std(mu) / 1000.0

    def test_forward_kernel_weighted_mean(self):
        # weighted sample mean of mu must estimate g * mu' even where the
        # truncated kernel column is signed
        pf = PhaseFunction.linear(0.9)
        rng = np.random.default_rng(1)
        mu, w = phase_sample(pf, 1.0, rng, n=1_000_000)
        est = np.sum(w * mu) / np.sum(w)
        sig = np.std(w * mu) / np.sqrt(mu.size)
        assert abs(est - 0.9) < 4.0 * sig
        assert abs(np.mean(w) - 1.0) < 4.0 * np.std(w) / 1000.0

    def test_perpendicular_is_uniform(self):
        pf = PhaseFunction.linear(0.9)
        rng = np.random.default_rng(2)
        mu, w = phase_sample(pf, 0.0, rng, n=200_000)
        assert np.all(w == 1.0)
        # uniform: compare empirical CDF against (mu+1)/2
        mu_s = np.sort(mu)
        ks = np.max(np.abs(np.arange(1, mu_s.size + 1) / mu_s.size - (mu_s + 1) / 2))
        assert ks < 4.0 / np.sqrt(mu_s.size)

    def test_ks_distance_against_analytic_cdf(self):
        # non-negative column: |beta1 mu'| < 1
        pf = PhaseFunction(beta=(1.0, 2.7))
        mu_p = 0.3
        rng = np.random.default_rng(5)
        n = 100_000
        mu, w = phase_sample(pf, mu_p, rng, n=n)
        assert np.all(w == 1.0)
        a = 2.7 * mu_p / 4.0
        mu_s = np.sort(mu)
        cdf = 0.5 * (mu_s + 1.0) + a * (mu_s**2 - 1.0)
        ks = np.max(np.abs(np.arange(1, n + 1) / n - cdf))
        assert ks <= 4.0 / np.sqrt(n)

    def test_weighted_moments_match_signed_kernel(self):
        # second moment too, against direct quadrature of the signed kernel
        pf = PhaseFunction.linear(0.9)
        rng = np.random.default_rng(9)
        mu, w = phase_sample(pf, -0.8, rng, n=500_000)
        ref, _ = quad(lambda m: m * m * phase_eval(pf, m, -0.8), -1, 1)
        est = np.sum(w * mu**2) / mu.size
        sig = np.std(w * mu**2) / np.sqrt(mu.size)
        assert abs(est - ref) < 4.0 * sig

    def test_batch_matches_scalar_distribution(self):
        pf = PhaseFunction.linear(0.9)
        rng = np.random.default_rng(4)
        mu_in = rng.uniform(-1, 1, size=50_000)
        mu, w = phase_sample_batch(pf, mu_in, rng)
        # scattering from an isotropic population must preserve isotropy of
        # the weighted mean direction at the g-contracted level
        est = np.sum(w * mu) / np.sum(w)
        ref = 0.9 * np.mean(mu_in)
        assert abs(est - ref) < 0.01

    def test_higher_degree_rejection_smoke(self):
        pf = PhaseFunction(beta=(1.0, 1.0, 0.5))
        rng = np.random.default_rng(6)
        mu, w = phase_sample(pf, 0.5, rng, n=20_000)
        est = np.sum(w * mu) / np.sum(w)
        ref, _ = quad(lambda m: m * phase_eval(pf, m, 0.5), -1, 1)
        assert abs(est - ref) < 0.02

    def test_domain_error(self):
        with pytest.raises(DomainError):
            phase_sample(PhaseFunction.isotropic(), 1.4, np.random.default_rng(0))
