"""Spectral machinery for the Legendre-truncated transport operator.

For each wavenumber k the truncated angular moments evolve under a complex
symmetric tridiagonal operator A(k); the time evolution of the moment
vector is the matrix Mittag-Leffler function E_alpha(-A(k) t^alpha).  The
operator is non-normal for 0 < |k| below the critical wavenumber, so two
expansions are exposed: the exact one built from right and left
eigenvectors, and the Hermitian-weight expansion that uses conjugated
eigenvector components (the classical normal-matrix formula).  They agree
at k = 0 and asymptotically for large |k| but differ in between; both are
kept because the closed-form benchmark solution is written in the
Hermitian convention.  Eigenvalues are computed from the real similar
matrix J^{-1} A J, J = diag(i^l), and so form exact conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DefectiveOperatorError,
    DomainError,
    EigenSolverError,
)
from .legendre import PhaseFunction, anisotropy_g
from .specfun import mittag_leffler

__all__ = [
    "MediumParams",
    "SpectralOperator",
    "ModeDecomposition",
    "h_coeff",
    "assemble_operator",
    "decompose",
    "ml_matrix_action",
    "hermitian_mode_weights",
    "exact_mode_weights",
    "critical_wavenumber",
]

# Relative eigenvalue gap below which a point is treated as defective.
# A true double root splits by ~sqrt(eps)*norm (~2e-8) in floating point,
# so the threshold sits above that; displaced quadrature nodes sit at
# gaps of 1e-4*norm and are never caught.
_GAP_FACTOR = 1e-7


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
        if self.v <= 0:
            raise DomainError(f"speed v must be positive, got {self.v}")
        if self.sigma_s <= 0:
            raise DomainError(f"sigma_s must be positive, got {self.sigma_s}")
        if self.sigma_a < 0:
            raise DomainError(f"sigma_a must be >= 0, got {self.sigma_a}")

    @property
    def sigma_t(self):
        return self.sigma_s + self.sigma_a

    @property
    def g(self):
        return anisotropy_g(self.phase)

    def fingerprint(self, N=None):
        import hashlib

        payload = repr((self.alpha, self.v, self.sigma_s, self.sigma_a, self.phase.beta, N))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def section5_medium(alpha, sigma_a=0.0):
    """The benchmark medium: v=1, sigma_s=10, g=0.9 (beta_1=2.7)."""
    return MediumParams(alpha=alpha, v=1.0, sigma_s=10.0, sigma_a=sigma_a,
                        phase=PhaseFunction.linear(0.9))


def critical_wavenumber(params):
    """k_c = (sqrt(3)/2) sigma_s (1 - g) / v, the eigenvalue-coalescence
    point of the two-moment (N=1) operator."""
    return 0.5 * np.sqrt(3.0) * params.sigma_s * (1.0 - params.g) / params.v


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

    N: int
    k: float | np.ndarray
    entries: np.ndarray
    h: np.ndarray

    @property
    def norm(self):
        """Infinity norm (maximum absolute row sum) of each matrix."""
        norm = np.abs(self.entries).sum(axis=-1).max(axis=-1)
        return float(norm) if norm.ndim == 0 else norm


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
    return SpectralOperator(N=N, k=float(k_arr) if k_arr.ndim == 0 else k_arr,
                            entries=A, h=h)


@dataclass(frozen=True)
class ModeDecomposition:
    """Eigensystem of a SpectralOperator, stacked like its wavenumbers.

    ``right_vectors`` holds eigenvectors as columns of Q and
    ``left_vectors`` the rows of Q^{-1} (true left eigenvectors, no
    conjugation).  ``defective_flag`` marks eigenvalue coalescence, where
    Q is numerically singular and the expansion must not be used; the
    left vectors of a flagged matrix are NaN.  A scalar wavenumber gives
    float and bool fields, an array one arrays of its shape.  Q = J Q_R with
    Q_R real (see :func:`decompose`), so conjugate modes have conjugate weights.
    """

    k: float | np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_estimate: float | np.ndarray
    defective_flag: bool | np.ndarray
    operator_norm: float | np.ndarray = field(default=0.0)


def defective_mask(lam, cond, norm):
    """Coalescence test, vectorized over leading batch axes of ``lam``.

    Defective means the smallest eigenvalue gap is below
    ``_GAP_FACTOR * norm`` and cond(Q) exceeds 1e7.
    """
    idx = np.arange(lam.shape[-1])
    gaps = np.abs(lam[..., :, None] - lam[..., None, :])
    gaps[..., idx, idx] = np.inf
    return (gaps.min(axis=(-2, -1)) < _GAP_FACTOR * norm) & (cond > 1e7)


def decompose(op):
    """Full eigendecomposition of the operator with left eigenvectors.

    One real eigensolver call covers every stacked wavenumber: for the
    unitary J = diag(i^l), R = J^{-1} A J has the diagonal of A, -c_l above
    it and +c_l below it (A's couplings are i c_l), so R is real and exactly
    similar to A.  Its complex eigenvalues come in exact conjugate pairs
    with conjugate eigenvectors Q_R; Q = J Q_R has the same column norms
    and condition number.  A matrix is defective only when eigenvalues
    coalesce AND the eigenvector basis degenerates; repeated eigenvalues of
    the diagonal k = 0 operator keep independent eigenvectors and are fine.
    """
    # exact powers of i, whatever a complex power routine would round to
    J = np.array([1, 1j, -1, -1j])[np.arange(op.entries.shape[-1]) % 4]
    try:
        lam, Q = np.linalg.eig((J.conj()[:, None] * op.entries * J).real)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed at k={op.k}", k=op.k) from exc
    lam, Q = lam.astype(complex), J[:, None] * Q
    norm = op.norm
    norm = np.where(norm > 0, norm, 1.0)
    cond = np.linalg.cond(Q)
    defective = defective_mask(lam, cond, norm)
    if not defective.any():
        Qinv = np.linalg.inv(Q)
    else:
        cond = np.where(defective, np.inf, cond)
        Qinv = np.full_like(Q, np.nan)
        if not defective.all():
            Qinv[~defective] = np.linalg.inv(Q[~defective])
    scalar = defective.ndim == 0
    return ModeDecomposition(
        k=op.k,
        eigenvalues=lam,
        right_vectors=Q,
        left_vectors=Qinv,
        condition_estimate=float(cond) if scalar else cond,
        defective_flag=bool(defective) if scalar else defective,
        operator_norm=float(norm) if scalar else norm,
    )


def ml_matrix_action(dec, t, alpha, c0):
    """Apply E_alpha(-A t^alpha) to a moment vector via the eigensystem.

    Uses the left eigenvectors (rows of Q^{-1}), not Hermitian conjugates;
    this is the exact evolution of the truncated system.  At t = 0 the
    result equals ``c0`` to round-off because E_alpha(0) = 1 on every mode.
    """
    if dec.defective_flag:
        raise DefectiveOperatorError(
            f"defective operator at k={dec.k}; displace the wavenumber",
            k=dec.k,
        )
    if t < 0:
        raise DomainError("time t must be >= 0")
    c0 = np.asarray(c0, dtype=complex)
    ml = mittag_leffler(alpha, -dec.eigenvalues * t**alpha)
    return dec.right_vectors @ (ml * (dec.left_vectors @ c0))


def hermitian_matrix_action(dec, t, alpha, c0):
    """Evolution using Hermitian-conjugate eigenvector weights.

    Expands with projectors q_n q_n^H / (q_n^H q_n); exact only for normal
    operators, but this is the convention the closed-form benchmark
    solution is written in, so it is exposed alongside the exact action.
    """
    if dec.defective_flag:
        raise DefectiveOperatorError(
            f"defective operator at k={dec.k}; displace the wavenumber",
            k=dec.k,
        )
    if t < 0:
        raise DomainError("time t must be >= 0")
    c0 = np.asarray(c0, dtype=complex)
    Q = dec.right_vectors
    ml = mittag_leffler(alpha, -dec.eigenvalues * t**alpha)
    coeffs = (Q.conj().T @ c0) / np.einsum("in,in->n", Q.conj(), Q)
    return Q @ (ml * coeffs)


def hermitian_mode_weights(dec, component=0):
    """|q_n^(component)|^2 under Hermitian normalization of eigenvectors.

    For the two-moment benchmark operator these are (1 -+ s)/2 below the
    critical wavenumber (s = sqrt(1 - (k/k_c)^2), the smaller eigenvalue
    carrying the larger weight) and 1/2 above it; they sum to one there.
    """
    Q = dec.right_vectors
    norms = np.einsum("...in,...in->...n", Q.conj(), Q).real
    return np.abs(Q[..., component, :]) ** 2 / norms


def exact_mode_weights(dec, component=0):
    """Component weights of the exact expansion, q_n[c] * (Q^{-1})[n, c].

    These are complex in general, sum to one, and reduce to
    -(1-s)/(2s) and (1+s)/(2s) for the two-moment benchmark operator.
    """
    if np.any(dec.defective_flag):
        raise DefectiveOperatorError("defective operator has no eigenvector expansion", k=dec.k)
    return dec.right_vectors[..., component, :] * dec.left_vectors[..., :, component]
