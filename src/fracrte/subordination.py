"""Build fractional-order solutions from the first-order solution.

The order-alpha density is an integral of the alpha = 1 density over an
operational time, weighted by the kernel
phi(tau, t) = (t / (alpha tau^(1+1/alpha))) f_alpha(t / tau^(1/alpha)),
a probability density in tau with int phi(tau, t) exp(-lam tau) d tau =
E_alpha(-lam t^alpha) (Meerschaert & Scheffler, J. Appl. Prob. 41 (2004)).
It is self-similar, phi(tau, t) d tau = phi(sigma, 1) d sigma for
sigma = tau / t^alpha, so :func:`build_kernel`'s Gauss panels in ln sigma
depend on alpha alone, save for a cap on each panel's oscillation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, QuadratureError
from .specfun import stable_density
from .transport import DensityField, QuadratureSpec, _modal_density

__all__ = ["SubordinationKernel", "kernel_phi", "build_kernel", "subordinated_energy_density"]

# entries of one (wavenumber x mode) by kernel-node block of factors
_BLOCK_ENTRIES = 1 << 16
_MASS_GATE = 1e-13  # panels carrying less mass are not cut for oscillation
_PANEL_RADIANS = 16.0  # largest |lam| x tau-width of a cut panel
_leggauss = functools.cache(np.polynomial.legendre.leggauss)  # built on first use


def kernel_phi(tau, t, alpha):
    """Operational-time weight phi(tau, t) >= 0.

    f_alpha comes from :func:`~fracrte.specfun.stable_density`: its closed
    form at half order, else its certified series or Zolotarev's integral.
    Raises :class:`~fracrte.errors.QuadratureError` where t / tau^(1/alpha)
    overflows or underflows, as it does below alpha ~ 0.04 on the lowest
    panel of :func:`build_kernel`, 12 decades below the kernel's centre.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0) or t <= 0:
        raise DomainError("tau and t must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        arg = t / tau ** (1.0 / alpha)
    if not np.all(np.isfinite(arg) & (arg > 0.0)):
        raise QuadratureError(f"kernel argument t / tau^(1/alpha) leaves the floating-point "
                              f"range at alpha={alpha}, t={t}")
    out = t / (alpha * tau ** (1.0 + 1.0 / alpha)) * stable_density(alpha, arg)
    return float(out) if tau.ndim == 0 else out


@dataclass(frozen=True)
class SubordinationKernel:
    """Nodes (tau) and nonzero weights of one (alpha, t) operational-time rule.

    ``mass``, the rule applied to phi, is exactly one for the true kernel;
    the fold sum(weights exp(-lam nodes)) = E_alpha(-lam t^alpha) is the
    sharper check, as it also tests how the rule resolves the oscillation.
    """

    alpha: float
    t: float
    nodes: np.ndarray
    weights: np.ndarray  # includes phi values

    @property
    def mass(self):
        return float(np.sum(self.weights))


def build_kernel(t, alpha, n_nodes=None, lam_max=None):
    """Composite Gauss rule for the operational-time integral at (t, alpha).

    16-node Gauss-Legendre panels in x = ln(tau / t^alpha): sixteen core
    panels of width min(2 (1 - alpha), 1) at -ln Gamma(1 + alpha), narrow
    as phi's right edge falls like exp(-(tau / t^alpha)^(1/(1-alpha))),
    then panels of doubling width down to 12 decades below the centre and
    up to the first edge where phi underflows.  Each panel carrying over
    1e-13 of the mass is cut evenly in tau until it spans at most 16 rad
    of exp(-lam tau), |lam| <= ``lam_max``.  ``n_nodes`` is a floor: all
    panels are cut evenly until that many nodes carry weight.  A weight is
    Gauss weight x half-width x phi(tau, t) tau; zero weights are dropped.
    """
    if t <= 0 or not (0.0 < alpha < 1.0):
        raise DomainError(f"need t > 0 and alpha in (0, 1), got t={t}, alpha={alpha}")
    scale = t**alpha
    s, gw = _leggauss(16)

    def weights(x):  # panels between consecutive edges x
        half = 0.5 * np.diff(x)[:, None]
        tau = scale * np.exp(0.5 * (x[1:] + x[:-1])[:, None] + half * s)
        return tau, gw * half * kernel_phi(tau, t, alpha) * tau

    def cut(x, pieces):  # panel i becomes pieces[i] panels of equal width in tau
        e = np.exp(x)
        sub = [np.linspace(a, b, int(m), endpoint=False) for a, b, m in zip(e[:-1], e[1:], pieces)]
        return np.log(np.append(np.concatenate(sub), e[-1]))

    center = -math.lgamma(1.0 + alpha)
    edges = list(center + min(2.0 * (1.0 - alpha), 1.0) * np.arange(-8.0, 9.0))
    bottom = center - 12.0 * math.log(10.0)
    while edges[0] > bottom:
        edges.insert(0, max(3.0 * edges[0] - 2.0 * edges[1], bottom))
    while kernel_phi(scale * math.exp(edges[-1]), t, alpha) > 0.0:
        edges.append(3.0 * edges[-1] - 2.0 * edges[-2])
    edges = np.array(edges)
    tau, w = weights(edges)
    radians = scale * np.diff(np.exp(edges)) * (lam_max or 0.0)
    pieces = np.where(w.sum(axis=1) > _MASS_GATE, np.ceil(radians / _PANEL_RADIANS), 1)
    if pieces.max() > 1:
        edges = cut(edges, pieces)
        tau, w = weights(edges)
    while n_nodes and np.count_nonzero(w) < n_nodes:
        edges = cut(edges, np.full(edges.size - 1, math.ceil(n_nodes / np.count_nonzero(w))))
        tau, w = weights(edges)
    keep = w != 0.0
    return SubordinationKernel(alpha=alpha, t=t, nodes=tau[keep], weights=w[keep])


def subordinated_energy_density(x_grid, times, params, N, spec=None):
    """Order-alpha energy density rebuilt from the first-order solution.

    ``params`` is the order-alpha medium (0 < alpha < 1).  Its alpha = 1
    moment system is decomposed once (exact mode weights); per time, the
    kernel, cut for the largest |lambda|, folds exp(-lambda tau) into one
    factor per (wavenumber, mode), and one reduction maps every time onto
    the positions.  The reduction is mollified with width 6/k_max (k_max
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
        kernel = build_kernel(t, params.alpha, lam_max=float(np.max(np.abs(lam))))
        acc = np.zeros(lam.shape, dtype=complex)
        chunk = max(1, _BLOCK_ENTRIES // lam.size)
        for start in range(0, kernel.nodes.size, chunk):
            block = np.multiply.outer(lam, -kernel.nodes[start:start + chunk])
            acc += np.exp(block, out=block) @ kernel.weights[start:start + chunk]
        return acc

    values = _modal_density(np.abs(x_grid), times, replace(params, alpha=1.0), N, "exact",
                            spec, factors, mollifier_width=6.0 / spec.k_max)
    return DensityField(x_grid=x_grid, times=times, values=values, method="subordinate",
                        params_fingerprint=params.fingerprint(N))
