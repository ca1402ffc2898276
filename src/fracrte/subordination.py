"""Build fractional-order solutions from the first-order solution.

The order-alpha density is an integral of the alpha = 1 density over an
operational time, weighted by the kernel
phi(tau, t) = (t / (alpha tau^(1+1/alpha))) f_alpha(t / tau^(1/alpha)),
whose Laplace transform in t is s^(alpha-1) exp(-tau s^alpha); the kernel
is a probability density in tau for every t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .specfun import stable_density
from .transport import DensityField, QuadratureSpec, _modal_density

__all__ = ["SubordinationKernel", "kernel_phi", "build_kernel", "subordinated_energy_density"]

# entries of one (wavenumber x mode) by kernel-node block of factors
_BLOCK_ENTRIES = 1 << 16


def kernel_phi(tau, t, alpha):
    """Operational-time weight phi(tau, t) >= 0.

    f_alpha comes from :func:`~fracrte.specfun.stable_density`: its closed
    form at half order, else its certified series or Zolotarev's integral.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    tau_arr = np.asarray(tau, dtype=float)
    scalar = tau_arr.ndim == 0
    tau_flat = np.atleast_1d(tau_arr).ravel()
    if np.any(tau_flat <= 0) or t <= 0:
        raise DomainError("tau and t must be positive")
    arg = t / tau_flat ** (1.0 / alpha)
    out = t / (alpha * tau_flat ** (1.0 + 1.0 / alpha)) * stable_density(alpha, arg)
    out = out.reshape(tau_arr.shape) if not scalar else out[0]
    return float(out) if scalar else out


@dataclass(frozen=True)
class SubordinationKernel:
    """Quadrature grid and weights for one (alpha, t) operational integral.

    ``nodes`` and ``weights`` integrate smooth functions of tau against
    phi(tau, t) d tau; ``mass`` records the quadrature of phi itself
    (exactly one for the true kernel) as a built-in health check.
    """

    alpha: float
    t: float
    nodes: np.ndarray
    weights: np.ndarray  # includes phi values

    @property
    def mass(self):
        return float(np.sum(self.weights))


def _relative_width(alpha):
    """Relative tau spread of the kernel, sqrt(Var)/mean from its moments."""
    from scipy.special import gamma as _gamma

    ratio = 2.0 / _gamma(1.0 + 2.0 * alpha) - 1.0 / _gamma(1.0 + alpha) ** 2
    return np.sqrt(max(ratio, 1e-8))


def build_kernel(t, alpha, n_nodes=None, span_decades_low=12.0, span_decades_high=5.0):
    """Log-spaced trapezoid grid for the operational-time integral.

    The kernel concentrates around tau ~ t^alpha but tends to a nonzero
    constant t^(-alpha)/Gamma(1-alpha) as tau -> 0, so the grid reaches
    far further down (12 decades) than up; providers singular like
    tau^(-1/2) at the origin then lose less than 1e-6 of their integral to
    the cutoff.  The node count adapts to the kernel's relative width,
    which collapses as alpha -> 1 (the kernel approaches a delta at
    tau = t).
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    center = t**alpha
    lo = center * 10.0 ** (-span_decades_low)
    hi = center * 10.0**span_decades_high
    if n_nodes is None:
        span_ln = np.log(hi) - np.log(lo)
        step = min(_relative_width(alpha) / 5.0, 0.065)
        n_nodes = int(np.clip(np.ceil(span_ln / step), 600, 40000))
    log_nodes = np.linspace(np.log(lo), np.log(hi), int(n_nodes))
    if alpha > 0.9:
        # the kernel peak collapses toward a delta at tau = t^alpha much
        # faster than its standard deviation shrinks; lay a fine window
        # across the peak so the trapezoid resolves it
        width = _relative_width(alpha)
        peak_width = (1.0 - alpha) * max(abs(np.log(1.0 - alpha)), 1.0)
        n_fine = int(np.clip(np.ceil(50.0 * width / (peak_width / 30.0)), 2500, 24000))
        fine = np.log(center) + np.linspace(-25.0 * width, 25.0 * width, n_fine)
        log_nodes = np.unique(np.concatenate((log_nodes, fine)))
    nodes = np.exp(log_nodes)
    gaps = np.diff(log_nodes)
    trap = np.empty(log_nodes.shape)
    trap[0] = 0.5 * gaps[0]
    trap[-1] = 0.5 * gaps[-1]
    trap[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    phi = kernel_phi(nodes, t, alpha)
    return SubordinationKernel(alpha=alpha, t=t, nodes=nodes, weights=phi * nodes * trap)


def subordinated_energy_density(x_grid, times, params, N, spec=None):
    """Order-alpha energy density rebuilt from the first-order solution.

    ``params`` is the order-alpha medium (0 < alpha < 1).  Its alpha = 1
    moment system is decomposed once (exact mode weights); per time, the
    kernel weights fold exp(-lambda tau) over all operational-time nodes
    into one factor per (wavenumber, mode), and one reduction maps every
    time onto the positions.  The reduction is mollified with width 6/k_max (k_max
    is 350 unless ``spec`` fixes it), which makes it a plain panel sum,
    linear in the integrand: this equals subordinating the first-order
    density node by node, and approximates ``energy_density`` at order
    alpha with ``mode="exact"`` and the same mollifier.
    """
    if not (0.0 < params.alpha < 1.0):
        raise DomainError(f"subordination requires alpha strictly inside (0, 1), "
                          f"got {params.alpha}")
    x_grid = np.asarray(x_grid, dtype=float)
    times = tuple(float(t) for t in np.atleast_1d(times))
    spec = spec or QuadratureSpec()
    spec = replace(spec, k_max=spec.k_max or 350.0)

    def factors(lam, t):
        kernel = build_kernel(t, params.alpha)
        # nodes in the kernel's deep tail carry weight exactly 0
        live = kernel.weights != 0.0
        nodes, weights = kernel.nodes[live], kernel.weights[live]
        lam_flat = lam.ravel()
        acc = np.zeros(lam_flat.shape, dtype=complex)
        chunk = max(1, _BLOCK_ENTRIES // lam_flat.size)
        for start in range(0, nodes.size, chunk):
            block = np.multiply.outer(lam_flat, -nodes[start:start + chunk])
            acc += np.exp(block, out=block) @ weights[start:start + chunk]
        return acc.reshape(lam.shape)

    values = _modal_density(np.abs(x_grid), times, replace(params, alpha=1.0), N, "exact",
                            spec, factors, mollifier_width=6.0 / spec.k_max)
    return DensityField(
        x_grid=x_grid,
        times=times,
        values=values,
        method="subordinate",
        params_fingerprint=params.fingerprint(N),
    )
