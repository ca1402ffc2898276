"""Time-fractional radiative transport in a 1D slab.

Solves the transport equation with a fractional (memory) time derivative
by Legendre spectral expansion and matrix Mittag-Leffler evolution, with
three independent cross-checks built in: the fractional diffusion limit,
a continuous-time random walk sampler, and the operational-time
subordination identity that constructs fractional-order solutions from
the first-order one.
"""

from .ctrw import CTRWParams, map_params, sample_waiting_time, simulate_density
from .diffusion import DiffusionParams, d0, diffusion_density_mwright, diffusion_density_quadrature
from .legendre import PhaseFunction, anisotropy_g, legendre_eval, phase_eval, phase_sample
from .specfun import f_alpha_half, m_wright, mittag_leffler, stable_density
from .spectral import (
    MediumParams,
    ModeDecomposition,
    SpectralOperator,
    assemble_operator,
    critical_wavenumber,
    decompose,
    exact_mode_weights,
    h_coeff,
    hermitian_mode_weights,
    ml_matrix_action,
)
from .subordination import (
    SubordinationKernel,
    build_kernel,
    kernel_phi,
    subordinated_energy_density,
)
from .transport import (
    CoefficientVector,
    DensityField,
    QuadratureSpec,
    ballistic_density,
    energy_density,
    energy_density_closed_p1,
    evolve_coefficients,
    fourier_inversion,
    initial_coefficients,
    scattered_coefficients,
    source_vector,
)

__version__ = "0.1.0"

__all__ = [
    "mittag_leffler", "m_wright", "f_alpha_half", "stable_density",
    "PhaseFunction", "legendre_eval", "phase_eval", "anisotropy_g", "phase_sample",
    "MediumParams", "SpectralOperator", "ModeDecomposition", "h_coeff",
    "assemble_operator", "decompose", "ml_matrix_action", "hermitian_mode_weights",
    "exact_mode_weights", "critical_wavenumber",
    "QuadratureSpec", "CoefficientVector", "DensityField", "initial_coefficients",
    "evolve_coefficients", "fourier_inversion", "energy_density",
    "energy_density_closed_p1", "ballistic_density", "source_vector",
    "scattered_coefficients",
    "DiffusionParams", "d0", "diffusion_density_quadrature", "diffusion_density_mwright",
    "CTRWParams", "map_params", "sample_waiting_time", "simulate_density",
    "SubordinationKernel", "kernel_phi", "build_kernel",
    "subordinated_energy_density",
    "__version__",
]
