"""Continuous-time random walk realizing the fractional transport dynamics.

Walkers wait for Mittag-Leffler distributed times (survival
E_alpha(-(t/tau)^alpha), the heavy-tailed law whose Laplace transform is
exactly 1/(1 + (tau s)^alpha)), then scatter, jump, or get absorbed with
probabilities (xi_s, 1 - xi_t, xi_a).  Scattering off a truncated kernel
column that dips negative samples |p| and carries a signed weight, so
weighted histograms converge to the signed-kernel transport solution.

Simulation is deterministic for a fixed seed regardless of how work is
chunked: every block of walkers owns a counter-based Philox stream keyed
by (seed, block index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScaleError
from .legendre import phase_sample_batch
from .transport import DensityField

__all__ = [
    "CTRWParams",
    "CTRWResult",
    "map_params",
    "sample_waiting_time",
    "simulate_density",
]

_BLOCK = 1 << 17


@dataclass(frozen=True)
class CTRWParams:
    """Per-event probabilities, step length, and waiting-time law."""

    tau: float
    xi_t: float
    xi_s: float
    r: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.xi_s <= self.xi_t < 1.0):
            raise DomainError(
                f"require 0 < xi_s <= xi_t < 1, got xi_s={self.xi_s}, xi_t={self.xi_t}"
            )
        if self.r <= 0 or self.tau <= 0:
            raise DomainError("jump length r and time scale tau must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")

    @property
    def xi_a(self):
        return self.xi_t - self.xi_s


def map_params(params, tau):
    """CTRW constants reproducing a medium's rates at time scale tau.

    xi_t = sigma_t tau^alpha, xi_s = sigma_s tau^alpha,
    r = v tau^alpha / (1 - xi_t).
    """
    xi_t = params.sigma_t * tau**params.alpha
    if xi_t >= 1.0:
        raise ScaleError(
            f"sigma_t * tau^alpha = {xi_t:.3f} >= 1; decrease the time scale tau"
        )
    xi_s = params.sigma_s * tau**params.alpha
    r = params.v * tau**params.alpha / (1.0 - xi_t)
    return CTRWParams(tau=float(tau), xi_t=float(xi_t), xi_s=float(xi_s),
                      r=float(r), alpha=params.alpha)


def sample_waiting_time(alpha, tau, rng, n=None):
    """Draw Mittag-Leffler waiting times with survival E_alpha(-(t/tau)^alpha).

    Uses the exact inversion T = -tau ln(U) [sin(a pi)/tan(a pi V)
    - cos(a pi)]^(1/a) with independent uniforms U, V; alpha = 1
    degenerates to Exponential(mean tau).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if tau <= 0:
        raise DomainError("tau must be positive")
    squeeze = n is None
    size = 1 if squeeze else int(n)
    u = rng.random(size)
    u[u == 0.0] = np.finfo(float).tiny
    if alpha == 1.0:
        t = -tau * np.log(u)
    else:
        v = np.clip(rng.random(size), 1e-300, 1.0 - 1e-16)
        factor = np.sin(alpha * np.pi) / np.tan(alpha * np.pi * v) - np.cos(alpha * np.pi)
        t = -tau * np.log(u) * factor ** (1.0 / alpha)
    return float(t[0]) if squeeze else t


class _Walkers:
    """A block of live walkers at the origin with directions ``mu``.

    Position, direction, clock, alive flag and weight are parallel arrays
    updated in place.  ``weight`` carries the signed importance factor
    accumulated by scattering off kernel columns with negative lobes; it
    stays exactly 1 while the sampled columns are non-negative.  The
    ``snap_*`` arrays, one row per observation time, hold each walker's
    state at that time (position after its last event at or before it).
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
        """Snapshot walkers ``idx`` whose waiting interval [start, end) holds
        an observation time; call before the event changes their state."""
        for it, t_o in enumerate(self.t_obs):
            cidx = idx[(start <= t_o) & (end > t_o)]
            self.snap_x[it, cidx] = self.x[cidx]
            self.snap_w[it, cidx] = self.weight[cidx]
            self.snap_alive[it, cidx] = True


def _renewal_step(walkers, idx, cp, pf, rng):
    """Advance the walkers at indices ``idx`` by one renewal event each.

    Each clock advances by a sampled waiting time (observation times
    crossed by it snapshot the pre-event state), then exactly one of three
    things happens: with probability xi_s the direction is resampled from
    the kernel column (position unchanged), with probability 1 - xi_t the
    walker moves by mu * r (direction unchanged), and with probability
    xi_a it is absorbed.  Randomness is drawn in that order (waiting
    times, event uniforms, phase samples), which fixes the stream for a
    seed.  Returns the new clocks of the stepped walkers.
    """
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


@dataclass(frozen=True)
class CTRWResult:
    """Histogram estimate plus survival fractions and per-bin errors."""

    field: DensityField
    survival: np.ndarray
    stderr: np.ndarray


def simulate_density(n_walkers, t_obs, x_grid, params, tau, seed, pf=None):
    """Monte Carlo estimate of the energy density on a bin grid.

    Walkers start at the origin with isotropic direction and evolve by the
    renewal dynamics; a walker's position at an observation time is its
    position after the last event at or before that time.  Returned values
    are weighted bin densities (weights over n_walkers times bin width),
    directly comparable to the deterministic energy density; ``survival``
    estimates E_alpha(-sigma_a t^alpha).

    Parameters
    ----------
    n_walkers : int
    t_obs : sequence of float
        Increasing observation times.
    x_grid : array_like
        Increasing, uniformly spaced bin centers (at least two).
    params : MediumParams
    tau : float
        Renewal time scale; sigma_t tau^alpha must stay below 1.
    seed : int
        Stream seed; output is bit-reproducible for fixed
        (seed, n_walkers, grid) regardless of chunking or thread count.
    pf : PhaseFunction, optional
        Defaults to the medium's kernel.
    """
    if n_walkers < 1:
        raise DomainError("need at least one walker")
    cp = map_params(params, tau)
    pf = pf or params.phase
    t_obs = np.atleast_1d(np.asarray(t_obs, dtype=float))
    if np.any(t_obs <= 0) or np.any(np.diff(t_obs) <= 0):
        raise DomainError("observation times must be positive and increasing")
    centers = np.asarray(x_grid, dtype=float)
    if centers.ndim != 1 or centers.size < 2:
        raise DomainError("x_grid needs at least two bin centers")
    spacing = np.diff(centers)
    dx = spacing[0]
    if not (dx > 0 and np.all(np.abs(spacing - dx) <= 1e-9 * dx)):
        raise DomainError("x_grid must be increasing with uniform spacing (1e-9 relative)")
    edges = np.concatenate((centers - 0.5 * dx, [centers[-1] + 0.5 * dx]))

    hist_w = np.zeros((t_obs.size, centers.size))
    hist_w2 = np.zeros_like(hist_w)
    alive_w = np.zeros(t_obs.size)

    n_blocks = (n_walkers + _BLOCK - 1) // _BLOCK
    for block in range(n_blocks):
        m = min(_BLOCK, n_walkers - block * _BLOCK)
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        snap_x, snap_w, snap_alive = _run_block(m, t_obs, cp, pf, rng)
        for it in range(t_obs.size):
            live = snap_alive[it]
            if np.any(live):
                idx = np.searchsorted(edges, snap_x[it][live], side="right") - 1
                ok = (idx >= 0) & (idx < centers.size)
                np.add.at(hist_w[it], idx[ok], snap_w[it][live][ok])
                np.add.at(hist_w2[it], idx[ok], snap_w[it][live][ok] ** 2)
                alive_w[it] += live.sum()

    norm = n_walkers * dx
    field = DensityField(
        x_grid=centers,
        times=tuple(t_obs),
        values=hist_w / norm,
        method="ctrw",
        params_fingerprint=params.fingerprint(None),
    )
    return CTRWResult(field=field, survival=alive_w / n_walkers,
                      stderr=np.sqrt(hist_w2) / norm)


def _run_block(m, t_obs, cp, pf, rng):
    """Renewal loop for one walker block."""
    walkers = _Walkers(rng.uniform(-1.0, 1.0, size=m), t_obs)
    t_end = float(t_obs[-1])
    idx = np.flatnonzero(walkers.clock <= t_end)
    while idx.size:
        # the active set only shrinks: dead walkers and clocks past t_end never rejoin
        end = _renewal_step(walkers, idx, cp, pf, rng)
        idx = idx[walkers.alive[idx] & (end <= t_end)]
    return walkers.snap_x, walkers.snap_w, walkers.snap_alive
