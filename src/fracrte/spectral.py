"""Spectral machinery for the Legendre-truncated transport operator.

For each wavenumber k the truncated angular moments evolve under a complex
symmetric tridiagonal operator A(k); the time evolution of the moment
vector is the matrix Mittag-Leffler function E_alpha(-A(k) t^alpha).  The
operator is non-normal for 0 < |k| below the critical wavenumber.  Every
matrix function here is applied through the exact projectors
q_n q_n^T / q_n^T q_n, whose left vectors are the transposed right ones
(A^T = A).  The Hermitian convention, which conjugates the eigenvector
components (the classical normal-matrix formula), survives only as the
component-0 weights of :func:`hermitian_mode_weights`, because the
closed-form benchmark solution is written in it; it agrees with the exact
expansion at k = 0 and asymptotically for large |k| but differs in
between.  Eigenvalues are computed from the real similar matrix
J^{-1} A J, J = diag(i^l), and so form exact conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DefectiveOperatorError,
    DegenerateTransportError,
    DomainError,
    EigenSolverError,
)
from .legendre import PhaseFunction, anisotropy_g
from .pool import ordered_map
from .specfun import mittag_leffler

__all__ = [
    "MediumParams",
    "SpectralOperator",
    "ModeDecomposition",
    "h_coeff",
    "assemble_operator",
    "decompose",
    "modal_action",
    "ml_matrix_action",
    "hermitian_mode_weights",
    "exact_mode_weights",
    "critical_wavenumber",
    "d0",
]

# Eigenvalue condition number above which a matrix is treated as defective.
# At a coalescence point the eigenvector turns self-orthogonal (q^T q -> 0):
# kappa is 3.2e7 at k_c for N = 1 in floating point and 7.1e5 at
# k_c (1 + 1e-12); the displaced quadrature nodes sit near 2e3.
_KAPPA_MAX = 1e7


@dataclass(frozen=True)
class MediumParams:
    """Physical constants of one homogeneous medium.

    Rates are per unit fractional time t^alpha; ``sigma_t`` is the sum of
    scattering and absorption rates.
    """

    alpha: float
    v: float
    sigma_s: float
    sigma_a: float
    phase: PhaseFunction

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 < self.v < np.inf:
            raise DomainError(f"speed v must be positive and finite, got {self.v}")
        if not 0 < self.sigma_s < np.inf:
            raise DomainError(f"sigma_s must be positive and finite, got {self.sigma_s}")
        if not 0 <= self.sigma_a < np.inf:
            raise DomainError(f"sigma_a must be >= 0 and finite, got {self.sigma_a}")

    @property
    def sigma_t(self):
        return self.sigma_s + self.sigma_a

    @property
    def g(self):
        return anisotropy_g(self.phase)


def section5_medium(alpha, sigma_a=0.0):
    """The benchmark medium: v=1, sigma_s=10, g=0.9 (beta_1=2.7)."""
    return MediumParams(alpha=alpha, v=1.0, sigma_s=10.0, sigma_a=sigma_a,
                        phase=PhaseFunction.linear(0.9))


def critical_wavenumber(params):
    """k_c = (sqrt(3)/2) sigma_s (1 - g) / v, the eigenvalue-coalescence
    point of the two-moment (N=1) operator."""
    return 0.5 * np.sqrt(3.0) * params.sigma_s * (1.0 - params.g) / params.v


def d0(params):
    """Diffusion coefficient v^2 / (3 (1 - g) sigma_s) of a medium.

    The square is dimensionally forced ([v] = length / time^alpha and
    [sigma_s] = 1 / time^alpha, so only v^2/sigma_s is length^2 per
    fractional time) and is what makes the coefficient invariant under
    the small-mean-free-path scaling v -> v/e, sigma_s -> sigma_s/e^2.
    At the benchmark speed v = 1 it coincides with the first power.
    """
    g = params.g
    if g >= 1.0:
        raise DegenerateTransportError(
            f"anisotropy factor g={g} >= 1 degenerates the diffusion limit"
        )
    return params.v**2 / (3.0 * (1.0 - g) * params.sigma_s)


def h_coeff(l, params):
    """Moment damping coefficient h_l = 2l+1 - (sigma_s/sigma_t) beta_l.

    The kernel coefficient enters only for l up to the expansion degree;
    h_0 reduces to sigma_a/sigma_t and h_l = 2l+1 beyond the kernel.
    """
    if l < 0:
        raise DomainError("l must be >= 0")
    beta_l = params.phase.beta[l] if l <= params.phase.degree else 0.0
    return 2 * l + 1 - (params.sigma_s / params.sigma_t) * beta_l


@dataclass(frozen=True)
class SpectralOperator:
    """Tridiagonal moment-coupling operator, stacked over wavenumbers.

    ``entries`` has shape ``np.shape(k) + (N+1, N+1)``; a scalar ``k``
    gives one matrix.
    """

    k: float | np.ndarray
    entries: np.ndarray


def assemble_operator(k, params, N):
    """Build the (N+1) x (N+1) operator for wavenumber k (scalar or array).

    Off-diagonal streaming couplings are i v k l / sqrt(4 l^2 - 1); the
    diagonal holds sigma_t h_l / (2l + 1).  The matrix equals its own
    transpose; at k = 0 it is diagonal with smallest entry sigma_a.
    """
    if N < params.phase.degree:
        raise ConfigurationError(
            f"truncation N={N} below kernel degree L={params.phase.degree}"
        )
    k_arr = np.asarray(k, dtype=float)
    ls = np.arange(N + 1)
    h = np.array([h_coeff(int(l), params) for l in ls])
    diag = params.sigma_t * h / (2 * ls + 1)
    couple = 1j * params.v * k_arr[..., None] * ls[1:] / np.sqrt(4.0 * ls[1:] ** 2 - 1.0)
    A = np.zeros(k_arr.shape + (N + 1, N + 1), dtype=complex)
    A[..., ls, ls] = diag
    A[..., ls[1:], ls[1:] - 1] = couple
    A[..., ls[1:] - 1, ls[1:]] = couple
    return SpectralOperator(k=float(k_arr) if k_arr.ndim == 0 else k_arr, entries=A)


@dataclass(frozen=True)
class ModeDecomposition:
    """Eigensystem of a SpectralOperator, stacked like its wavenumbers.

    ``vectors`` holds the eigenvectors q_n as columns of Q; A = A^T makes
    q_n^T a left eigenvector, so Q^{-1} = diag(1/q_n^T q_n) Q^T.  ``kappa``
    is the largest eigenvalue condition number q_n^H q_n / |q_n^T q_n| of
    each matrix.  It diverges where eigenvalues coalesce and q_n turns
    self-orthogonal; ``defective_flag`` marks kappa > _KAPPA_MAX, where the
    expansion must not be used.  A scalar wavenumber gives float and bool
    fields, an array one arrays of its shape.  Q = J Q_R with Q_R real (see
    :func:`decompose`), so conjugate modes have conjugate weights.
    """

    k: float | np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    kappa: float | np.ndarray
    defective_flag: bool | np.ndarray


def _rejected(stack):
    """Mask of the matrices the eigensolver rejects, one call each."""
    bad = np.zeros(len(stack), dtype=bool)
    for i, matrix in enumerate(stack):
        try:
            np.linalg.eig(matrix)
        except np.linalg.LinAlgError:
            bad[i] = True
    return bad


# eigensolver work (n^3 per n x n matrix) of one slice: 64 matrices at
# N = 15, where slices of half the batch raised the peak RSS by 10-20 MB;
# one slice for up to 2^15 matrices at N = 1, which threads do not speed up
_SLICE_WORK = 1 << 18


def decompose(op):
    """Eigendecomposition of the operator: eigenvalues, right eigenvectors
    and the largest eigenvalue condition number of each matrix.

    One real eigensolver call per slice of stacked wavenumbers: for the
    unitary J = diag(i^l), R = J^{-1} A J has the diagonal of A, -c_l above
    it and +c_l below it (A's couplings are i c_l), so R is real and exactly
    similar to A.  Its complex eigenvalues come in exact conjugate pairs
    with conjugate eigenvectors Q_R; Q = J Q_R.  The repeated eigenvalues
    of the diagonal k = 0 operator keep orthonormal eigenvectors (kappa = 1).

    The slices hold ``_SLICE_WORK // n**3`` matrices each and run on the
    usable CPUs (see :func:`~fracrte.pool.ordered_map`), each writing its
    rows of the output arrays.  The solvers treat each matrix alone, so
    the result does not depend on the slicing or the thread count.  Slices
    are sized by the solver's n^3 work: at N = 1 a transport batch is one
    slice on the calling thread, since the per-matrix cost of 2 x 2 solves
    is too small for a second thread to repay its start and its malloc
    arena; at N = 15 slices stay small (64 matrices) to bound the peak
    RSS, because every worker thread allocates in its own arena.
    """
    n = op.entries.shape[-1]
    batch = op.entries.shape[:-2]
    stack = op.entries.reshape(-1, n, n)
    # exact powers of i, whatever a complex power routine would round to
    J = np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
    lam = np.empty(stack.shape[:-1], dtype=complex)
    Q = np.empty_like(stack)
    kappa = np.empty(len(stack))
    step = max(1, _SLICE_WORK // n**3)

    def solve(lo):
        s = slice(lo, lo + step)
        real = (J.conj()[:, None] * stack[s] * J).real
        try:
            lam_s, Q_s = np.linalg.eig(real)
        except np.linalg.LinAlgError as exc:
            failed = np.broadcast_to(op.k, batch).reshape(-1)[s][_rejected(real)]
            raise EigenSolverError(f"eigensolver failed at k={failed}", k=failed) from exc
        lam[s], Q[s] = lam_s, J[:, None] * Q_s
        q_h_q, q_t_q = (np.abs(_expansion(Q[s], h)[1]) for h in (True, False))
        with np.errstate(divide="ignore"):
            kappa[s] = np.max(q_h_q / q_t_q, axis=-1)

    for _ in ordered_map(solve, range(0, len(stack), step)):
        pass
    defective = kappa > _KAPPA_MAX
    scalar = not batch
    return ModeDecomposition(
        k=op.k,
        eigenvalues=lam.reshape(batch + (n,)),
        vectors=Q.reshape(op.entries.shape),
        kappa=float(kappa[0]) if scalar else kappa.reshape(batch),
        defective_flag=bool(defective[0]) if scalar else defective.reshape(batch),
    )


def _expansion(Q, hermitian):
    """Left factors Y and normalizations y_n^T q_n of the eigenvector expansion.

    A diagonalizable A has the resolution I = sum_n q_n y_n^T / (y_n^T q_n)
    with y_n its left eigenvectors; A = A^T makes y_n = q_n, the exact
    expansion.  The hermitian convention takes y_n = conj(q_n) instead,
    which is exact only for normal A.  The two differ in nothing else.
    """
    Y = Q.conj() if hermitian else Q
    return Y, np.einsum("...in,...in->...n", Y, Q)


def modal_action(dec, factors, c0):
    """f(A) c0 from the modal factors f_n = f(lambda_n) of one matrix.

    Sums f_n q_n (q_n^T c0) / (q_n^T q_n) over the exact projectors of
    :func:`_expansion`; ``factors`` is ordered like ``dec.eigenvalues``.
    """
    if dec.defective_flag:
        raise DefectiveOperatorError(
            f"defective operator at k={dec.k}; displace the wavenumber",
            k=dec.k,
        )
    Y, norms = _expansion(dec.vectors, hermitian=False)
    return dec.vectors @ (factors * ((Y.T @ np.asarray(c0, dtype=complex)) / norms))


def ml_matrix_action(dec, t, alpha, c0):
    """Apply E_alpha(-A t^alpha) to a moment vector via the eigensystem.

    Uses the left eigenvectors q_n^T / q_n^T q_n (rows of Q^{-1}), not
    Hermitian conjugates; this is the exact evolution of the truncated
    system.  At t = 0 the result equals ``c0`` to round-off because
    E_alpha(0) = 1 on every mode.
    """
    if t < 0:
        raise DomainError("time t must be >= 0")
    return modal_action(dec, mittag_leffler(alpha, -dec.eigenvalues * t**alpha), c0)


def hermitian_mode_weights(dec):
    """Component-0 weights |q_n[0]|^2 under Hermitian normalization of eigenvectors.

    For the two-moment benchmark operator these are (1 -+ s)/2 below the
    critical wavenumber (s = sqrt(1 - (k/k_c)^2), the smaller eigenvalue
    carrying the larger weight) and 1/2 above it; they sum to one there.
    """
    _, norms = _expansion(dec.vectors, hermitian=True)
    return np.abs(dec.vectors[..., 0, :]) ** 2 / norms.real


def exact_mode_weights(dec):
    """Component-0 weights of the exact expansion, q_n[0]^2 / q_n^T q_n.

    These are complex in general, sum to one, and reduce to
    -(1-s)/(2s) and (1+s)/(2s) for the two-moment benchmark operator.
    """
    if np.any(dec.defective_flag):
        raise DefectiveOperatorError("defective operator has no eigenvector expansion", k=dec.k)
    Y, norms = _expansion(dec.vectors, hermitian=False)
    return dec.vectors[..., 0, :] * Y[..., 0, :] / norms
