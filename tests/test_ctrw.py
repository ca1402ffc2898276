"""Random-walk parameter map, waiting-time law, events, and histograms."""

import os
import subprocess
import sys

import numpy as np
import pytest

from fracrte import ctrw
from fracrte.ctrw import (
    _collide,
    _run_block,
    map_params,
    sample_waiting_time,
    simulate_density,
)
from fracrte.errors import DomainError, ScaleError
from fracrte.legendre import PhaseFunction, phase_sample_batch
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

    def test_clock_plus_wait_non_decreasing(self, medium):
        # non-decreasing: the heavy-tailed sampler can produce waits that
        # underflow to zero against a large accumulated clock
        cp = map_params(medium, 1e-4)
        rng = np.random.default_rng(5)
        clock = np.zeros(100)
        for _ in range(200):
            end = clock + sample_waiting_time(cp.alpha, cp.tau, rng, n=clock.size)
            assert np.all(end >= clock)
            clock = end

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
    @pytest.mark.parametrize("n", [None, 1, 7, 4099])
    def test_matches_formula_bit_for_bit(self, alpha, n):
        # the in-place evaluation against the formula written out on fresh arrays
        rng_new = np.random.Generator(np.random.Philox(key=[5, 1]))
        rng_ref = np.random.Generator(np.random.Philox(key=[5, 1]))
        tau = 1e-4
        got = sample_waiting_time(alpha, tau, rng_new, n=n)
        u = rng_ref.random(1 if n is None else n)
        u[u == 0.0] = np.finfo(float).tiny
        if alpha == 1.0:
            want = -tau * np.log(u)
        else:
            v = np.clip(rng_ref.random(u.size), 1e-300, 1.0 - 1e-16)
            factor = np.sin(alpha * np.pi) / np.tan(alpha * np.pi * v) - np.cos(alpha * np.pi)
            want = -tau * np.log(u) * factor ** (1.0 / alpha)
        if n is None:
            assert isinstance(got, float) and got == want[0]
        else:
            assert np.array_equal(got, want)
        assert _stream_position(rng_new) == _stream_position(rng_ref)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_waiting_time(1.3, 1.0, rng)
        with pytest.raises(DomainError):
            sample_waiting_time(0.5, -1.0, rng)


def _fresh(n, mu0):
    """Positions, directions and weights of n walkers at the origin."""
    return np.zeros(n), np.full(n, mu0), np.ones(n)


class TestStep:
    def test_event_frequencies(self, medium):
        cp = map_params(medium, 1e-4)
        rng = np.random.default_rng(3)
        n = 100_000
        x, mu, weight = _fresh(n, 0.3)
        absorbed = _collide(x, mu, weight, cp, medium.phase, rng)
        assert not np.any(absorbed)  # xi_a = 0 here
        moved = x != 0.0
        assert np.all(mu[moved] == 0.3)
        assert x[moved] == pytest.approx(np.full(moved.sum(), 0.3 * cp.r))
        for frac, expect in ((np.mean(~moved), cp.xi_s), (np.mean(moved), 1 - cp.xi_t)):
            sig = np.sqrt(expect * (1 - expect) / n)
            assert abs(frac - expect) < 3.5 * sig

    def test_absorption_leaves_state(self):
        m = MediumParams(alpha=0.5, v=1.0, sigma_s=1.0, sigma_a=8.0,
                         phase=PhaseFunction.isotropic())
        cp = map_params(m, 1e-2)
        rng = np.random.default_rng(4)
        x, mu, weight = _fresh(500, 0.5)
        absorbed = _collide(x, mu, weight, cp, m.phase, rng)
        if not np.any(absorbed):
            pytest.fail("no absorption in 500 strongly absorbing events")
        assert np.all(x[absorbed] == 0.0)
        assert np.all(mu[absorbed] == 0.5)
        assert np.all(weight[absorbed] == 1.0)

    def test_clock_monotone(self, medium):
        # each walker's renewal intervals [clock, end) tile [0, death): with
        # no absorption every walker is seen at every observation time, and
        # with absorption a walker missing at one time stays missing later
        t_obs = np.array([0.001, 0.004, 0.01, 0.03, 0.05])
        cp = map_params(medium, 1e-4)
        _, _, alive = _run_block(2000, t_obs, cp, medium.phase, np.random.default_rng(5))
        assert np.all(alive)
        m = MediumParams(alpha=0.5, v=1.0, sigma_s=1.0, sigma_a=8.0,
                         phase=PhaseFunction.isotropic())
        cp = map_params(m, 1e-4)
        _, _, alive = _run_block(2000, t_obs, cp, m.phase, np.random.default_rng(5))
        assert np.all(alive[1:] <= alive[:-1])
        assert 0 < alive[-1].sum() < alive[0].sum() < 2000

    def test_mean_direction_after_scattering(self, medium):
        cp = map_params(medium, 1e-4)
        rng = np.random.default_rng(6)
        mu_prime = 0.25  # non-negative kernel column
        n = 50_000
        acc = np.empty(0)
        while acc.size < n:
            x, mu, weight = _fresh(n, mu_prime)
            _collide(x, mu, weight, cp, medium.phase, rng)
            acc = np.concatenate((acc, mu[x == 0.0]))
        acc = acc[:n]
        est = np.mean(acc)
        expect = 0.9 * mu_prime
        assert abs(est - expect) < 3.5 * np.std(acc) / np.sqrt(len(acc))


# -- reference oracle: the renewal loop over full-size arrays stepped through an index array --


class _Walkers:
    """A block of live walkers at the origin with directions ``mu``.

    Position, direction, clock, alive flag and weight are parallel arrays
    updated in place.  The ``snap_*`` arrays, one row per observation time,
    hold each walker's state at that time.
    """

    def __init__(self, mu, t_obs=()):
        self.mu = np.asarray(mu, dtype=float)
        m = self.mu.size
        self.x, self.clock = np.zeros(m), np.zeros(m)
        self.alive = np.ones(m, dtype=bool)
        self.weight = np.ones(m)
        self.t_obs = t_obs
        self.snap_x = np.zeros((len(t_obs), m))
        self.snap_w = np.zeros((len(t_obs), m))
        self.snap_alive = np.zeros((len(t_obs), m), dtype=bool)

    def observe(self, idx, start, end):
        for it, t_o in enumerate(self.t_obs):
            cidx = idx[(start <= t_o) & (end > t_o)]
            self.snap_x[it, cidx] = self.x[cidx]
            self.snap_w[it, cidx] = self.weight[cidx]
            self.snap_alive[it, cidx] = True


def _renewal_step(walkers, idx, cp, pf, rng):
    if not np.all(walkers.alive[idx]):
        raise DomainError("cannot step a dead walker")
    start = walkers.clock[idx]
    end = start + sample_waiting_time(cp.alpha, cp.tau, rng, n=idx.size)
    walkers.observe(idx, start, end)
    walkers.clock[idx] = end
    u = rng.random(idx.size)
    scatter = u < cp.xi_s
    absorb = (u >= cp.xi_s) & (u < cp.xi_t)
    sc_idx = idx[scatter]
    if sc_idx.size:
        mu_new, wfac = phase_sample_batch(pf, walkers.mu[sc_idx], rng)
        walkers.mu[sc_idx] = mu_new
        walkers.weight[sc_idx] *= wfac
    mv_idx = idx[~scatter & ~absorb]
    walkers.x[mv_idx] += walkers.mu[mv_idx] * cp.r
    walkers.alive[idx[absorb]] = False
    return end


def _run_block_reference(m, t_obs, cp, pf, rng):
    walkers = _Walkers(rng.uniform(-1.0, 1.0, size=m), t_obs)
    t_end = float(t_obs[-1])
    idx = np.flatnonzero(walkers.clock <= t_end)
    while idx.size:
        end = _renewal_step(walkers, idx, cp, pf, rng)
        idx = idx[walkers.alive[idx] & (end <= t_end)]
    return walkers.snap_x, walkers.snap_w, walkers.snap_alive


def _stream_position(rng):
    """The Philox counter and buffer: equal only after the same number of draws."""
    st = rng.bit_generator.state
    return (st["state"]["counter"].tolist(), st["buffer"].tolist(), st["buffer_pos"],
            st["has_uint32"], st["uinteger"])


# (medium, tau, observation times)
RENEWAL_CASES = {
    "ctrw_workload": (MediumParams(alpha=0.9, v=1.0, sigma_s=9.0, sigma_a=1.0,
                                   phase=PhaseFunction.linear(0.9)), 1e-4, (0.02, 0.05)),
    "signed_kernel": (section5_medium(0.5), 1e-4, (0.01, 0.02, 0.05)),
    "isotropic_absorbing": (MediumParams(alpha=0.5, v=1.0, sigma_s=1.0, sigma_a=8.0,
                                         phase=PhaseFunction.isotropic()), 1e-2, (0.5,)),
    "exponential_waits": (MediumParams(alpha=1.0, v=1.0, sigma_s=9.0, sigma_a=1.0,
                                       phase=PhaseFunction.linear(0.9)), 1e-3, (0.05,)),
    "degree_two_kernel": (MediumParams(alpha=0.75, v=1.0, sigma_s=5.0, sigma_a=0.5,
                                       phase=PhaseFunction([1.0, 1.2, 0.6])), 1e-2,
                          (0.02, 0.05, 0.1)),
}


class TestRunBlockMatchesReference:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("case", sorted(RENEWAL_CASES))
    def test_bit_identical(self, case, seed):
        params, tau, t_obs = RENEWAL_CASES[case]
        cp = map_params(params, tau)
        t_obs = np.asarray(t_obs)
        rng_new = np.random.Generator(np.random.Philox(key=[seed, 0]))
        rng_ref = np.random.Generator(np.random.Philox(key=[seed, 0]))
        got = _run_block(3000, t_obs, cp, params.phase, rng_new)
        want = _run_block_reference(3000, t_obs, cp, params.phase, rng_ref)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert _stream_position(rng_new) == _stream_position(rng_ref)
        snap_x, snap_w, snap_alive = got
        assert np.any(snap_alive[-1]) and np.any(snap_x[-1] != 0.0)
        if case == "signed_kernel":
            assert np.any(snap_w[snap_alive] != 1.0)
        if params.sigma_a > 0:
            assert not np.all(snap_alive[-1])


def _simulate_reference(n_walkers, t_obs, x_grid, params, tau, seed, block):
    """The serial block loop: block b draws from Philox (seed, b), histograms summed in order."""
    cp = map_params(params, tau)
    t_obs = np.asarray(t_obs, dtype=float)
    centers = np.asarray(x_grid, dtype=float)
    dx = centers[1] - centers[0]
    edges = np.concatenate((centers - 0.5 * dx, [centers[-1] + 0.5 * dx]))
    hist_w = np.zeros((t_obs.size, centers.size))
    hist_w2 = np.zeros_like(hist_w)
    alive_w = np.zeros(t_obs.size)
    for b in range((n_walkers + block - 1) // block):
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        m = min(block, n_walkers - b * block)
        snap_x, snap_w, snap_alive = _run_block(m, t_obs, cp, params.phase, rng)
        for it in range(t_obs.size):
            live = snap_alive[it]
            idx = np.searchsorted(edges, snap_x[it][live], side="right") - 1
            ok = (idx >= 0) & (idx < centers.size)
            np.add.at(hist_w[it], idx[ok], snap_w[it][live][ok])
            np.add.at(hist_w2[it], idx[ok], snap_w[it][live][ok] ** 2)
            alive_w[it] += live.sum()
    norm = n_walkers * dx
    return hist_w / norm, alive_w / n_walkers, np.sqrt(hist_w2) / norm


class TestBlocksMatchSerialReference:
    # 1, 2 and 5 blocks of 2000 walkers, the last of the five holding 500;
    # three usable CPUs put more threads than blocks or cores on the pool
    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("n_walkers", [1500, 4000, 8500])
    @pytest.mark.parametrize("case", ["degree_two_kernel", "ctrw_workload"])
    def test_bit_identical(self, monkeypatch, case, n_walkers, cpus):
        params, tau, t_obs = RENEWAL_CASES[case]
        monkeypatch.setattr(ctrw, "_BLOCK", 2000)
        monkeypatch.setattr(ctrw, "_usable_cpus", lambda: cpus)
        xg = np.linspace(-0.3, 0.3, 31)
        got = simulate_density(n_walkers, t_obs, xg, params, tau, seed=4)
        want = _simulate_reference(n_walkers, t_obs, xg, params, tau, 4, 2000)
        for g, w in zip((got.field.values, got.survival, got.stderr), want):
            assert np.array_equal(g, w)
        assert np.all(got.survival < 1.0)  # both cases absorb


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_writes_the_bytes_of_many(tmp_path):
    # two blocks (140 000 walkers > 2**17): one thread when pinned to one
    # CPU, one per usable CPU otherwise
    argv = [sys.executable, "-m", "fracrte.cli", "ctrw", "--alpha", "0.9", "--sigma-s", "9",
            "--sigma-a", "1", "--n-walkers", "140000", "--t", "0.002,0.005", "--seed", "3"]
    outputs = []
    cpu = min(os.sched_getaffinity(0))
    for pin in (True, False):
        out = tmp_path / str(pin)
        out.mkdir()
        proc = subprocess.run(argv + ["--output-path", str(out)], capture_output=True,
                              text=True, timeout=300,
                              preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None)
        assert proc.returncode == 0, proc.stderr
        files = sorted(out.iterdir())
        assert len(files) == 2
        outputs.append([(f.name, f.read_bytes()) for f in files])
    assert outputs[0] == outputs[1]


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
