"""Fractional diffusion limit of the transport model.

In the small mean-free-path scaling the transport density converges to
the solution of a time-fractional diffusion equation with coefficient
D0 = v^2 / (3 (1 - g) sigma_s).  The fundamental solution is available two
independent ways: a half-line cosine transform of the Mittag-Leffler
relaxation mode, and (without absorption) the self-similar M-Wright
profile.  Both are normalized to unit mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import m_wright, mittag_leffler
from .spectral import d0
from .transport import fourier_inversion

__all__ = [
    "DiffusionParams",
    "d0",
    "diffusion_density_quadrature",
    "diffusion_density_mwright",
]


@dataclass(frozen=True)
class DiffusionParams:
    """Order, diffusion coefficient, and absorption rate."""

    alpha: float
    D0: float
    sigma_a: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.D0 <= 0:
            raise DomainError(f"D0 must be positive, got {self.D0}")
        if self.sigma_a < 0:
            raise DomainError("sigma_a must be >= 0")

    @classmethod
    def from_medium(cls, params):
        return cls(alpha=params.alpha, D0=d0(params), sigma_a=params.sigma_a)


def diffusion_density_quadrature(x, t, dp, spec=None):
    """Fundamental diffusion solution by cosine-transform quadrature.

    Evaluates (1/pi) * integral_0^inf cos(kx) E_alpha(-(D0 k^2 + sigma_a)
    t^alpha) dk.  Even in x; unit mass when sigma_a = 0.  ``x`` may be a
    scalar (returns a float) or an array (returns an array of its shape);
    one panel layout serves all positions of one call.  The integrand's
    scale 1/sqrt(D0 t^alpha) is the layout's k_c, so without a ``spec``
    the range ends at 2e4 times it.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    alpha, D0, sig_a = dp.alpha, dp.D0, dp.sigma_a

    def f(k):
        k = np.asarray(k, dtype=float)
        return mittag_leffler(alpha, -(D0 * k**2 + sig_a) * t**alpha).real

    return fourier_inversion(f, x, spec=spec, k_c=1.0 / np.sqrt(D0 * t**alpha))


def diffusion_density_mwright(x, t, dp):
    """Closed-form fundamental solution via the M-Wright profile.

    (1/(2 sqrt(D0))) t^(-alpha/2) M_{alpha/2}(|x| / (sqrt(D0) t^(alpha/2))),
    the half prefactor giving unit mass.  Available only without
    absorption, where the self-similar form holds.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if dp.sigma_a != 0.0:
        raise DomainError(
            "the self-similar closed form requires sigma_a = 0; "
            "use diffusion_density_quadrature"
        )
    scale = np.sqrt(dp.D0) * t ** (dp.alpha / 2.0)
    x_arr = np.abs(np.asarray(x, dtype=float))
    scalar = x_arr.ndim == 0
    vals = m_wright(dp.alpha / 2.0, np.atleast_1d(x_arr) / scale) / (2.0 * scale)
    return float(vals[0]) if scalar else vals.reshape(np.asarray(x).shape)
