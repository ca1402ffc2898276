"""Continuous-time random walk realizing the fractional transport dynamics.

Walkers wait for Mittag-Leffler distributed times (survival
E_alpha(-(t/tau)^alpha), the heavy-tailed law whose Laplace transform is
exactly 1/(1 + (tau s)^alpha)), then scatter, jump, or get absorbed with
probabilities (xi_s, 1 - xi_t, xi_a).  Scattering off a truncated kernel
column that dips negative samples |p| and carries a signed weight, so
weighted histograms converge to the signed-kernel transport solution.

One renewal loop advances a block of walkers: arrays holding only the
live walkers (their ids, positions, directions, weights and clocks) draw
one wait each, record the pre-event state of those whose wait spans an
observation time, take one event each, and are compacted in place by a
boolean mask that keeps id order.  Randomness is drawn in the order
waits, event uniforms, phase samples, which fixes the stream for a seed.

Blocks of up to 2**17 walkers run concurrently on a thread pool sized by
the CPUs the process may use; each owns a counter-based Philox stream
keyed by (seed, block index), and their histograms are summed in block
order.  So the output is bit-identical for a fixed seed regardless of
thread count.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
    degenerates to Exponential(mean tau).  The formula is evaluated in place
    on the two uniform arrays, in the order written.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if tau <= 0:
        raise DomainError("tau must be positive")
    squeeze = n is None
    size = 1 if squeeze else int(n)
    t = rng.random(size)
    t[t == 0.0] = np.finfo(float).tiny
    np.log(t, out=t)
    t *= -tau
    if alpha != 1.0:
        factor = rng.random(size)
        np.clip(factor, 1e-300, 1.0 - 1e-16, out=factor)
        factor *= alpha * np.pi
        np.tan(factor, out=factor)
        np.divide(np.sin(alpha * np.pi), factor, out=factor)
        factor -= np.cos(alpha * np.pi)
        factor **= 1.0 / alpha
        t *= factor
    return float(t[0]) if squeeze else t


def _collide(x, mu, weight, cp, pf, rng):
    """Apply one renewal event to each walker, updating the arrays in place.

    With probability xi_s the direction is resampled from the kernel column
    (position unchanged, weight times the column's signed factor), with
    probability 1 - xi_t the walker moves by mu * r (direction unchanged),
    and with probability xi_a it is absorbed (state unchanged).  The event
    uniforms are drawn before the phase samples.  Returns the absorbed mask.
    """
    u = rng.random(x.size)
    scatter = u < cp.xi_s
    move = u >= cp.xi_t
    absorbed = ~(scatter | move)
    if np.any(scatter):
        mu_new, wfac = phase_sample_batch(pf, mu[scatter], rng)
        mu[scatter] = mu_new
        weight[scatter] *= wfac
    np.multiply(mu, cp.r, out=u)
    np.add(x, u, out=x, where=move)
    return absorbed


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

    Blocks of up to 2**17 walkers run on a thread pool with one thread per
    usable CPU, capped at the block count (with one, on the calling thread
    and no pool), at most one block per thread at a time, and their
    histograms are summed in block order.  Every running block holds its
    snapshots and every worker thread its own malloc arena, so peak memory
    grows with min(usable CPUs, blocks).

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
        (seed, n_walkers, grid) regardless of thread count.
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

    def run(block):
        m = min(_BLOCK, n_walkers - block * _BLOCK)
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        return _run_block(m, t_obs, cp, pf, rng)

    def add(snapshots):
        snap_x, snap_w, snap_alive = snapshots
        for it in range(t_obs.size):
            live = snap_alive[it]
            if np.any(live):
                idx = np.searchsorted(edges, snap_x[it][live], side="right") - 1
                ok = (idx >= 0) & (idx < centers.size)
                w = snap_w[it][live][ok]
                np.add.at(hist_w[it], idx[ok], w)
                np.add.at(hist_w2[it], idx[ok], w ** 2)
                alive_w[it] += live.sum()

    n_blocks = (n_walkers + _BLOCK - 1) // _BLOCK
    workers = min(_usable_cpus(), n_blocks)
    if workers == 1:
        # a worker thread would gain nothing here and cost its own malloc
        # arena, about 5 MB of peak RSS on a one-block run
        for block in range(n_blocks):
            add(run(block))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # the next block is submitted only after the oldest has been
            # summed, so at most one block per thread holds its snapshots
            pending = deque()
            for block in range(n_blocks):
                pending.append(pool.submit(run, block))
                if len(pending) == workers:
                    add(pending.popleft().result())
            while pending:
                add(pending.popleft().result())

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


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_block(m, t_obs, cp, pf, rng):
    """Renewal loop for one block of m walkers starting at the origin.

    Returns ``snap_x``, ``snap_w`` and ``snap_alive``, one row per
    observation time and one column per walker id.
    """
    mu = rng.uniform(-1.0, 1.0, size=m)
    ids = np.arange(m)
    x, weight, clock = np.zeros(m), np.ones(m), np.zeros(m)
    snap_x = np.zeros((t_obs.size, m))
    snap_w = np.zeros_like(snap_x)
    snap_alive = np.zeros(snap_x.shape, dtype=bool)
    t_end = float(t_obs[-1])
    while ids.size:
        end = sample_waiting_time(cp.alpha, cp.tau, rng, n=ids.size)
        end += clock
        for it, t_o in enumerate(t_obs):
            seen = (clock <= t_o) & (end > t_o)
            at = ids[seen]
            snap_x[it, at] = x[seen]
            snap_w[it, at] = weight[seen]
            snap_alive[it, at] = True
        keep = ~_collide(x, mu, weight, cp, pf, rng) & (end <= t_end)
        # compact into the front of the block's own buffers: fresh arrays
        # every step fragment the heap and raise the peak RSS
        n = np.count_nonzero(keep)
        clock[:n] = end[keep]
        for a in (ids, x, mu, weight):
            a[:n] = a[keep]
        ids, x, mu, weight, clock = ids[:n], x[:n], mu[:n], weight[:n], clock[:n]
    return snap_x, snap_w, snap_alive
