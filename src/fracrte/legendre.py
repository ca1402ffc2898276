"""Legendre polynomials and the scattering phase function.

The scattering kernel is expanded as p(mu, mu') = (1/2) sum_l beta_l
P_l(mu) P_l(mu'), with beta_0 = 1 so the kernel integrates to one in mu'
for every mu.  Truncated expansions of strongly forward-peaked kernels
are not pointwise non-negative (the standard linear-anisotropic kernel
with beta_1 = 2.7 dips below zero); construction records the grid minimum
instead of rejecting such kernels, and the direction sampler compensates
with signed importance weights so sampled moments still reproduce the
signed kernel.  Kernels of degree <= 1 are sampled by one closed-form
inverse of the |p| CDF, higher degrees by rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidPhaseFunctionError

__all__ = [
    "PhaseFunction",
    "legendre_eval",
    "phase_eval",
    "anisotropy_g",
    "phase_sample_batch",
]

_POSITIVITY_GRID = 512


def legendre_eval(l, mu):
    """P_l(mu) by upward three-term recurrence.

    Parameters
    ----------
    l : int
        Degree, >= 0.
    mu : float or array_like
        Evaluation points in [-1, 1].

    Returns
    -------
    float or numpy.ndarray
    """
    if l < 0:
        raise DomainError(f"degree l must be >= 0, got {l}")
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu_arr) > 1.0 + 1e-14):
        raise DomainError("argument mu must lie in [-1, 1]")
    out = _legendre_table(l, mu_arr.ravel())[l].reshape(mu_arr.shape)
    return float(out) if out.ndim == 0 else out


def _legendre_table(l_max, mu):
    """All P_l(mu) for l = 0..l_max, shape (l_max+1, len(mu))."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    table = np.empty((l_max + 1, mu.size))
    table[0] = 1.0
    if l_max >= 1:
        table[1] = mu
    for ell in range(1, l_max):
        table[ell + 1] = ((2 * ell + 1) * mu * table[ell] - ell * table[ell - 1]) / (ell + 1)
    return table


@dataclass(frozen=True)
class PhaseFunction:
    """Legendre-expanded scattering kernel with coefficients beta_0..beta_L.

    Parameters
    ----------
    beta : sequence of float
        Expansion coefficients; ``beta[0]`` must equal 1 and
        ``0 < beta[l] < 2l+1`` for l >= 1.
    require_nonnegative : bool
        When True, raise :class:`InvalidPhaseFunctionError` if the kernel
        scan finds a negative value.  Default False: truncated kernels may
        legitimately dip negative and downstream samplers handle it.

    Attributes
    ----------
    degree : int
        Expansion degree L.
    min_on_grid : float
        Minimum of p(mu, mu') on a 512 x 512 scan.
    """

    beta: tuple
    require_nonnegative: bool = False
    min_on_grid: float = field(init=False, default=0.0)

    def __init__(self, beta, require_nonnegative=False):
        beta = tuple(float(b) for b in np.atleast_1d(beta))
        if len(beta) == 0 or not abs(beta[0] - 1.0) <= 1e-12:
            raise InvalidPhaseFunctionError("beta_0 must be 1 (kernel normalization)")
        for l, b in enumerate(beta[1:], start=1):
            if not (0.0 < b < 2 * l + 1):
                raise InvalidPhaseFunctionError(
                    f"beta_{l} must lie in (0, {2 * l + 1}), got {b}"
                )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "require_nonnegative", require_nonnegative)
        grid = np.linspace(-1.0, 1.0, _POSITIVITY_GRID)
        table = _legendre_table(len(beta) - 1, grid)
        weighted = table * (0.5 * np.asarray(beta))[:, None]
        values = np.einsum("li,lj->ij", weighted, table)
        object.__setattr__(self, "min_on_grid", float(values.min()))
        if require_nonnegative and self.min_on_grid < -1e-12:
            raise InvalidPhaseFunctionError(
                f"kernel is negative (min {self.min_on_grid:.3e} on scan grid)"
            )

    @property
    def degree(self):
        return len(self.beta) - 1

    @property
    def is_nonnegative(self):
        return self.min_on_grid >= -1e-12

    @classmethod
    def isotropic(cls):
        return cls(beta=(1.0,))

    @classmethod
    def linear(cls, g):
        """Linear-anisotropic kernel with mean scattering cosine g."""
        if abs(g) >= 1.0:
            raise InvalidPhaseFunctionError(f"anisotropy factor must satisfy |g| < 1, got {g}")
        if g == 0.0:
            return cls(beta=(1.0,))
        return cls(beta=(1.0, 3.0 * g))


def phase_eval(pf, mu, mu_prime):
    """Kernel value p(mu, mu'); symmetric in its angular arguments."""
    mu_a = np.asarray(mu, dtype=float)
    mu_b = np.asarray(mu_prime, dtype=float)
    if np.any(np.abs(mu_a) > 1 + 1e-14) or np.any(np.abs(mu_b) > 1 + 1e-14):
        raise DomainError("directions must lie in [-1, 1]")
    scalar = mu_a.ndim == 0 and mu_b.ndim == 0
    mu_a, mu_b = np.broadcast_arrays(np.atleast_1d(mu_a), np.atleast_1d(mu_b))
    ta = _legendre_table(pf.degree, mu_a.ravel())
    tb = _legendre_table(pf.degree, mu_b.ravel())
    vals = 0.5 * np.einsum("l,li,li->i", np.asarray(pf.beta), ta, tb)
    vals = vals.reshape(mu_a.shape)
    return float(vals.ravel()[0]) if scalar else vals


def anisotropy_g(pf):
    """Mean scattering cosine g = beta_1 / 3 (zero for isotropic kernels)."""
    if pf.degree < 1:
        return 0.0
    return pf.beta[1] / 3.0


def _linear_cdf(a, mu):
    """Signed CDF F(mu) = (mu+1)/2 + a (mu^2 - 1) of the linear kernel."""
    return 0.5 * (mu + 1.0) + a * (mu * mu - 1.0)


def _invert_quadratic(a, target, decreasing):
    """Root of a mu^2 + mu/2 + (1/2 - a) = target, on the decreasing branch
    (q/a) where ``decreasing`` holds and on the increasing one elsewhere.

    The increasing root takes the c/q form (q <= -1/4) that stays stable as
    a -> 0, where the quadratic degenerates to the uniform inverse 2*target - 1.
    """
    c = 0.5 - a - target
    disc = np.maximum(0.25 - 4.0 * a * c, 0.0)
    q = -0.5 * (0.5 + np.sqrt(disc))
    with np.errstate(all="ignore"):  # q/a is read only where decreasing, so |a| > 1/4
        increasing = np.where(np.abs(a) > 1e-12, c / q, 2.0 * target - 1.0)
        root = np.where(decreasing, q / a, increasing)
    return np.clip(root, -1.0, 1.0)


def phase_sample_batch(pf, mu_prime, rng):
    """Draw a direction and a weight from the column p(., mu') for each mu'.

    Degree L <= 1 inverts the piecewise-quadratic CDF in closed form; higher
    degrees take rejection draws from |p|.  The weight is 1 where the column
    is non-negative.  Where truncation makes it signed, mu is drawn from
    |p|/norm and weighs sign(p) * integral |p|, so that weighted sample
    moments estimate integrals against the signed kernel.  ``rng`` is the
    caller's own stream; both arrays returned have the shape of ``mu_prime``.
    """
    mu_prime = np.asarray(mu_prime, dtype=float)
    if np.any(np.abs(mu_prime) > 1 + 1e-14):
        raise DomainError("mu_prime must lie in [-1, 1]")
    if pf.degree <= 1:
        beta1 = pf.beta[1] if pf.degree else 0.0
        return _sample_linear(beta1, mu_prime, rng.random(mu_prime.shape))
    mu = np.empty(mu_prime.shape)
    w = np.empty(mu_prime.shape)
    for i, mp in enumerate(mu_prime.ravel()):
        mu.ravel()[i], w.ravel()[i] = _sample_rejection_one(pf, float(mp), rng)
    return mu, w


def _sample_linear(beta1, mu_prime, u):
    """Inverse-CDF draws from columns of the kernel of degree <= 1, elementwise.

    ``mu_prime`` and ``u`` have matching shapes; beta1 = 0 is the isotropic
    kernel, whose draws are 2u - 1.  Columns with |beta1 mu'| <= 1 are
    densities: mu solves F(mu) = u and the weight is 1.  A signed column is
    negative on a lobe from mu0 = -1/(beta1 mu') to the left end (a > 0) or
    the right end (a < 0) of [-1, 1], of mass ``lobe``.  Its |p|-CDF, scaled
    to z = 1 + 2 lobe, runs -F over a left lobe and F - 2 lobe after it, or
    F before a right lobe and 2 F(mu0) - F on it; draws in the lobe weigh -z
    and the others z.
    """
    a = beta1 * mu_prime / 4.0
    signed = np.abs(beta1 * mu_prime) > 1.0
    if not signed.any():  # densities only: mu solves F(mu) = u, which is 2u - 1 at beta1 = 0
        return (_invert_quadratic(a, u, False) if beta1 else 2.0 * u - 1.0), np.ones(u.shape)
    left = a > 0
    with np.errstate(all="ignore"):  # read only where signed; mu' = 0 gives 0 * inf
        f0 = _linear_cdf(a, -1.0 / (beta1 * mu_prime))
    lobe = np.where(signed, np.where(left, -f0, f0 - 1.0), 0.0)
    z = 1.0 + 2.0 * lobe
    us = u * z
    in_lobe = signed & np.where(left, us < lobe, us > f0)
    target = np.where(in_lobe, np.where(left, -us, 2.0 * f0 - us),
                      np.where(left, us - 2.0 * lobe, us))
    return _invert_quadratic(a, target, in_lobe), np.where(in_lobe, -z, z)


def _sample_rejection_one(pf, mu_prime, rng):
    """Rejection draw from |p(., mu_prime)| for kernels above degree one."""
    grid = np.linspace(-1.0, 1.0, 1024)
    col = phase_eval(pf, grid, np.full(grid.shape, mu_prime))
    bound = np.max(np.abs(col)) * 1.05
    z_norm = np.trapezoid(np.abs(col), grid)
    while True:
        cand = rng.uniform(-1.0, 1.0, size=16)
        height = rng.uniform(0.0, bound, size=16)
        pv = phase_eval(pf, cand, np.full(16, mu_prime))
        keep = np.flatnonzero(height < np.abs(pv))
        if keep.size:
            i = keep[0]
            return float(cand[i]), float(np.sign(pv[i]) * z_norm)
