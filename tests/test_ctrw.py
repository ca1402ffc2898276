"""Random-walk parameter map, waiting-time law, events, and histograms."""

import numpy as np
import pytest

from fracrte.ctrw import (
    _renewal_step,
    _Walkers,
    map_params,
    sample_waiting_time,
    simulate_density,
)
from fracrte.errors import DomainError, ScaleError
from fracrte.legendre import PhaseFunction
from fracrte.spectral import MediumParams, section5_medium
from fracrte.specfun import mittag_leffler

# frozen survival references E_{1/2}(-sqrt(t/tau))
SURVIVAL_HALF = {1.0: 0.42758357615580700441,
                 5.0: 0.23232629437646507431,
                 25.0: 0.11070463773306862637}


@pytest.fixture(scope="module")
def medium():
    return section5_medium(alpha=0.5)


class TestMapParams:
    def test_benchmark_scale(self, medium):
        cp = map_params(medium, 1e-4)
        assert cp.xi_t == pytest.approx(0.1, rel=1e-12)
        assert cp.xi_s == pytest.approx(0.1, rel=1e-12)
        assert cp.xi_a == pytest.approx(0.0, abs=1e-15)
        assert cp.r == pytest.approx(0.01 / 0.9, rel=1e-12)

    def test_absorbing_medium(self):
        m = MediumParams(alpha=0.5, v=1.0, sigma_s=9.0, sigma_a=1.0,
                         phase=PhaseFunction.linear(0.9))
        cp = map_params(m, 1e-4)
        assert cp.xi_t == pytest.approx(0.1)
        assert cp.xi_s == pytest.approx(0.09)
        assert cp.xi_a == pytest.approx(0.01)

    def test_coarse_scale_rejected(self, medium):
        with pytest.raises(ScaleError):
            map_params(medium, 1e-2)


class TestWaitingTimes:
    def test_exponential_limit_mean(self):
        rng = np.random.default_rng(0)
        t = sample_waiting_time(1.0, 0.37, rng, n=1_000_000)
        assert abs(np.mean(t) - 0.37) < 3.0 * 0.37 / 1000.0

    def test_half_order_survival(self):
        rng = np.random.default_rng(1)
        t = sample_waiting_time(0.5, 1.0, rng, n=1_000_000)
        for r, ref in SURVIVAL_HALF.items():
            emp = float(np.mean(t > r))
            sig = np.sqrt(ref * (1 - ref) / t.size)
            assert abs(emp - ref) < 3.5 * sig

    def test_heavy_tail_exponent(self):
        rng = np.random.default_rng(2)
        t = np.sort(sample_waiting_time(0.5, 1.0, rng, n=1_000_000))
        mask = (t > 1e2) & (t < 1e4)
        surv = 1.0 - np.searchsorted(t, t[mask]) / t.size
        slope = np.polyfit(np.log(t[mask]), np.log(surv), 1)[0]
        assert abs(slope + 0.5) < 0.05

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_waiting_time(1.3, 1.0, rng)
        with pytest.raises(DomainError):
            sample_waiting_time(0.5, -1.0, rng)


class TestStep:
    def test_event_frequencies(self, medium):
        cp = map_params(medium, 1e-4)
        rng = np.random.default_rng(3)
        n = 100_000
        walkers = _Walkers(np.full(n, 0.3))
        _renewal_step(walkers, np.arange(n), cp, medium.phase, rng)
        assert np.all(walkers.alive)  # xi_a = 0 here
        moved = walkers.x != 0.0
        assert np.all(walkers.mu[moved] == 0.3)
        assert walkers.x[moved] == pytest.approx(np.full(moved.sum(), 0.3 * cp.r))
        for frac, expect in ((np.mean(~moved), cp.xi_s), (np.mean(moved), 1 - cp.xi_t)):
            sig = np.sqrt(expect * (1 - expect) / n)
            assert abs(frac - expect) < 3.5 * sig

    def test_absorption_and_dead_walker(self):
        m = MediumParams(alpha=0.5, v=1.0, sigma_s=1.0, sigma_a=8.0,
                         phase=PhaseFunction.isotropic())
        cp = map_params(m, 1e-2)
        rng = np.random.default_rng(4)
        walkers = _Walkers(np.full(500, 0.5))
        _renewal_step(walkers, np.arange(500), cp, m.phase, rng)
        dead = np.flatnonzero(~walkers.alive)
        if not dead.size:
            pytest.fail("no absorption in 500 strongly absorbing events")
        with pytest.raises(DomainError):
            _renewal_step(walkers, dead[:1], cp, m.phase, rng)

    def test_clock_monotone(self, medium):
        # non-decreasing: the heavy-tailed sampler can produce waits that
        # underflow to zero against a large accumulated clock
        cp = map_params(medium, 1e-4)
        rng = np.random.default_rng(5)
        walkers = _Walkers(np.full(100, 0.1))
        idx = np.arange(100)
        for _ in range(200):
            before = walkers.clock.copy()
            _renewal_step(walkers, idx, cp, medium.phase, rng)
            assert np.all(walkers.clock >= before)

    def test_mean_direction_after_scattering(self, medium):
        cp = map_params(medium, 1e-4)
        rng = np.random.default_rng(6)
        mu_prime = 0.25  # non-negative kernel column
        n = 50_000
        acc = np.empty(0)
        while acc.size < n:
            walkers = _Walkers(np.full(n, mu_prime))
            _renewal_step(walkers, np.arange(n), cp, medium.phase, rng)
            acc = np.concatenate((acc, walkers.mu[walkers.x == 0.0]))
        acc = acc[:n]
        est = np.mean(acc)
        expect = 0.9 * mu_prime
        assert abs(est - expect) < 3.5 * np.std(acc) / np.sqrt(len(acc))


class TestSimulateDensity:
    @pytest.mark.parametrize("grid", [
        [0.0],
        [-1.0, -0.5, 0.0, 0.1, 1.0],
        [1.0, 0.0, -1.0],
        [0.5, 0.5],
    ])
    def test_grid_must_be_uniform(self, medium, grid):
        with pytest.raises(DomainError):
            simulate_density(10, [1e-3], grid, medium, 1e-4, seed=0)

    def test_seed_determinism(self, medium):
        xg = np.linspace(-2, 2, 41)
        a = simulate_density(30_000, [0.05], xg, medium, 1e-4, 7)
        b = simulate_density(30_000, [0.05], xg, medium, 1e-4, 7)
        assert a.field.values.tobytes() == b.field.values.tobytes()
        assert a.survival.tobytes() == b.survival.tobytes()
        c = simulate_density(30_000, [0.05], xg, medium, 1e-4, 8)
        assert a.field.values.tobytes() != c.field.values.tobytes()

    def test_observation_times_do_not_perturb_stream(self, medium):
        # snapshots consume no randomness: the later-time histogram is
        # identical whether or not earlier observation times were recorded
        xg = np.linspace(-2, 2, 21)
        both = simulate_density(10_000, [0.02, 0.05], xg, medium, 1e-4, 3)
        late = simulate_density(10_000, [0.05], xg, medium, 1e-4, 3)
        assert both.field.values[1].tobytes() == late.field.values[0].tobytes()

    def test_no_absorption_survival(self, medium):
        xg = np.linspace(-2, 2, 21)
        res = simulate_density(20_000, [0.02, 0.05], xg, medium, 1e-4, 5)
        assert np.all(res.survival == 1.0)

    def test_absorbing_survival_matches_relaxation(self):
        m = MediumParams(alpha=0.5, v=1.0, sigma_s=9.0, sigma_a=1.0,
                         phase=PhaseFunction.linear(0.9))
        xg = np.linspace(-2, 2, 41)
        n = 200_000
        res = simulate_density(n, [0.2], xg, m, 1e-4, 11)
        ref = mittag_leffler(0.5, -(0.2**0.5)).real
        sig = np.sqrt(ref * (1 - ref) / n)
        assert abs(res.survival[0] - ref) < 3.5 * sig

    def test_histogram_symmetry(self, medium):
        xg = np.linspace(-2, 2, 41)
        res = simulate_density(400_000, [0.05], xg, medium, 1e-4, 13)
        v = res.field.values[0]
        s = res.stderr[0]
        left, right = v[:20][::-1], v[21:]
        sig = np.sqrt(s[:20][::-1] ** 2 + s[21:] ** 2)
        z = (left - right) / np.maximum(sig, 1e-12)
        assert np.mean(np.abs(z) <= 3.0) >= 0.9

    def test_histogram_mass(self, medium):
        xg = np.linspace(-3, 3, 61)
        res = simulate_density(100_000, [0.02], xg, medium, 1e-4, 17)
        dx = xg[1] - xg[0]
        assert np.sum(res.field.values[0]) * dx == pytest.approx(1.0, abs=0.02)

    def test_convergence_toward_solver(self, medium):
        # distance to the deterministic solution shrinks with sample size;
        # the central cusp bin is excluded from the sup norm because it
        # carries the finite-time-scale bias floor rather than noise
        from fracrte.transport import energy_density

        xg = np.linspace(-2, 2, 41)
        dx = xg[1] - xg[0]
        gx, gw = np.polynomial.legendre.leggauss(5)
        sub = (xg[:, None] + 0.5 * dx * gx[None, :]).ravel()
        df = energy_density(np.abs(sub), [0.05], medium, 7, mode="exact")
        u_bin = (df.values[0].reshape(len(xg), 5) @ gw) / 2.0
        center = len(xg) // 2
        sups, l1s = [], []
        for n in (10_000, 1_000_000):
            res = simulate_density(n, [0.05], xg, medium, 1e-5, 23)
            diff = np.abs(res.field.values[0] - u_bin)
            sups.append(np.max(np.delete(diff, center)))
            l1s.append(np.sum(diff) * dx)
        assert sups[1] < sups[0]
        assert l1s[1] < l1s[0]
