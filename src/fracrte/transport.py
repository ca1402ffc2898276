"""Angular and energy densities by oscillatory Fourier inversion.

The Fourier-transformed moment vector evolves mode-by-mode under the
matrix Mittag-Leffler function; real-space densities come from the
half-line cosine/sine inversion.  One panel layout, a function of the
medium, the quadrature spec and the largest time only, splits [0, K]: 12
sine-graded panels up to the integrand's kink scale k_c, then panels
growing geometrically to K.  The panels resolve the integrand, not the
oscillation: each panel's Legendre series is integrated exactly against
e^(ikx) (Filon's rule; Iserles & Norsett, Proc. R. Soc. A 461 (2005)
1383), so no position enters the layout and a value does not depend on
the rest of its grid.  The integrands decay only algebraically (like 1/k^2
after direction integration): the energy layout subtracts the known N = 1
front and adds back its transform, one M-Wright call for every time; the
shared reduction does the same with a fitted a/(k^2+q^2) tail, and the
remainder past K is three end-point terms from the last panel's series.
One array pass over (time x distinct position), in blocks of positions
whose panel sums stay within a fixed entry count, serves every density here
(energy, closed two-moment, ballistic) and the diffusion limit; repeated
positions are reduced once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ResolventError
from .legendre import legendre_eval
from .specfun import m_wright, mittag_leffler
from .spectral import (
    assemble_operator,
    critical_wavenumber,
    d0,
    decompose,
    exact_mode_weights,
    hermitian_mode_weights,
    ml_matrix_action,
    modal_action,
)

__all__ = [
    "QuadratureSpec",
    "CoefficientVector",
    "DensityField",
    "initial_coefficients",
    "evolve_coefficients",
    "fourier_inversion",
    "energy_density",
    "energy_density_closed_p1",
    "ballistic_density",
    "source_vector",
    "scattered_coefficients",
]

MODES = ("exact", "hermitian")


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the half-line oscillatory quadrature.

    ``k_max`` is the end K of the integrated range; None takes 2e4 times
    the integrand's wavenumber scale k_c (the medium's critical
    wavenumber for transport densities).  No position enters K.
    ``nodes_per_halfperiod`` is the number of Gauss nodes per panel.
    ``acceleration_order`` is accepted and ignored: the Filon rule has no
    acceleration to order.  ``tail_mode`` affects energy densities only
    and chooses how content beyond K is handled: ``"none"`` relies on the
    fitted tail and the end-point terms alone, ``"asymptotic_subtraction"``
    also removes the known large-k form of the integrand and restores its
    exact transform.
    """

    k_max: float | None = None
    nodes_per_halfperiod: int = 16
    acceleration_order: int = 8
    tail_mode: str = "asymptotic_subtraction"

    def __post_init__(self):
        if self.k_max is not None and not 0 < self.k_max < np.inf:
            raise DomainError("k_max must be positive and finite")
        if self.nodes_per_halfperiod < 8:
            raise DomainError("nodes_per_halfperiod must be >= 8")
        if self.tail_mode not in ("none", "asymptotic_subtraction"):
            raise DomainError(f"unknown tail_mode {self.tail_mode!r}")


@dataclass(frozen=True)
class CoefficientVector:
    """Legendre moment coefficients at one (k, t, mu0)."""

    k: float
    t: float
    mu0: float
    c: np.ndarray


@dataclass(frozen=True)
class DensityField:
    """Sampled density values with grid metadata and provenance."""

    x_grid: np.ndarray
    times: tuple
    values: np.ndarray  # shape (len(times), len(x_grid))
    method: str


def initial_coefficients(mu0, N):
    """Moment loading of a delta pulse in space and direction.

    c_l = sqrt(2l+1) P_l(mu0) / 2 for l = 0..N.
    """
    if abs(mu0) > 1 + 1e-14:
        raise DomainError("mu0 must lie in [-1, 1]")
    ls = np.arange(N + 1)
    c = np.array([np.sqrt(2 * l + 1) * legendre_eval(int(l), mu0) / 2.0 for l in ls],
                 dtype=complex)
    return CoefficientVector(k=0.0, t=0.0, mu0=float(mu0), c=c)


def _decompose_displaced(k, params, N):
    """Eigendecomposition at k (scalar or array), displaced off defective points.

    Flagged wavenumbers are re-decomposed at k + 1e-7 max(k_c, 1) * attempt
    for up to five attempts, a shift invisible at quadrature accuracy.
    Every attempt decomposes the whole array; unflagged entries keep their
    offset, so their values do not change.  The QuadratureError raised
    when that fails names, in its message and ``detail["k"]``, only the
    wavenumbers still flagged.
    """
    shift = 1e-7 * max(critical_wavenumber(params), 1.0)
    k = np.asarray(k, dtype=float)
    offset = np.zeros(k.shape)
    for attempt in range(6):
        dec = decompose(assemble_operator(k + offset, params, N))
        if not np.any(dec.defective_flag):
            return dec
        offset = np.where(dec.defective_flag, shift * (attempt + 1), offset)
    flagged = k[np.asarray(dec.defective_flag)]
    raise QuadratureError(f"could not displace off defective point near k={flagged}",
                          detail={"k": flagged})


def evolve_coefficients(k, t, mu0, N, params):
    """Moment vector at time t for one wavenumber.

    Applies the true matrix Mittag-Leffler function via the eigenvectors
    and their transposes (:func:`~fracrte.spectral.ml_matrix_action`).
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    c0 = initial_coefficients(mu0, N).c
    if t == 0:
        return CoefficientVector(k=float(k), t=0.0, mu0=float(mu0), c=c0)
    c = ml_matrix_action(_decompose_displaced(k, params, N), t, params.alpha, c0)
    return CoefficientVector(k=float(k), t=float(t), mu0=float(mu0), c=c)


# -- oscillatory half-line quadrature ------------------------------------

# panels above k_c grow by this ratio; the default range end is K = _K_OVER_KC * k_c
_PANEL_RATIO = 1.3
_K_OVER_KC = 2e4


@functools.cache
def _bessel_series_table(n):
    """Row k - 1 holds the w^(2k) coefficients of (2l+1)!! j_l(w) / w^l, l < n, k = 1..7."""
    k = np.arange(1, 8)[:, None]
    return np.cumprod(-0.5 / (k * (2 * np.arange(n) + 2 * k + 1)), axis=0)[..., None]


def _spherical_jn(n, w):
    """Spherical Bessel functions j_0..j_{n-1} at |w|, shape ``w.shape + (n,)``.

    Upward recurrence where it is stable (|w| >= n); Miller's backward
    recurrence below, normalised by whichever of j_0, j_1 is larger; under
    0.5, where the backward recurrence would overflow, the power series by
    Horner's rule in w^2 (the first term left out is below 1e-22 of the
    first).  Each step is elementwise, so no row depends on the others.
    """
    w = np.abs(np.asarray(w, dtype=float))
    out = np.empty(w.shape + (n,))
    up, series = w >= n, w < 0.5
    down = ~(up | series)
    # each branch fills (n, points), so each step writes whole rows
    if np.any(up):
        x = w[up]
        j = np.empty((n, x.size))
        j[0] = np.sin(x) / x
        j[1] = (j[0] - np.cos(x)) / x
        for l in range(1, n - 1):
            j[l + 1] = (2 * l + 1) / x * j[l] - j[l - 1]
        out[up] = j.T
    if np.any(down):
        x = w[down]
        j = np.empty((n, x.size))
        hi, lo = np.zeros(x.size), np.full(x.size, 1e-300)
        # past l = w + 7.3 w^(1/3) (Airy decay) j_l(w) is below 1e-16 of j_w(w), and w < n
        for l in range(n + 10 + 8 * int(np.ceil(np.cbrt(n))), 0, -1):
            hi, lo = lo, (2 * l + 1) / x * lo - hi
            if l <= n:
                j[l - 1] = lo
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        j *= np.where(np.abs(j0) >= np.abs(j1), j0 / j[0], j1 / j[1])
        out[down] = j.T
    if np.any(series):
        x = w[series]
        y = x * x
        total = np.zeros((n, x.size))
        for row in _bessel_series_table(n)[::-1]:
            total += row
            total *= y
        lead = np.ones((n, x.size))  # w^l / (2l+1)!!, row by row (twice as fast as cumprod)
        for l in range(1, n):
            lead[l] = lead[l - 1] * x / (2 * l + 1)
        lead *= total + 1.0
        out[series] = lead.T
    return out


@functools.cache
def _legendre_tables(n):
    """Gauss rule and the constant matrices of the n-node Filon panel.

    On s in [-1, 1] the n Gauss values f_i give the Legendre coefficients
    c_j = (2j+1)/2 sum_i w_i P_j(s_i) f_i of the interpolant, and
    int_-1^1 P_j(s) e^(i w s) ds = 2 i^j j_j(w) (DLMF 10.60) integrates each
    exactly.  Returns the nodes, the matrix taking values to 2 i^j c_j,
    and the one taking values to the series' value, first and second
    s-derivatives at s = 1.  Built on first use, not at import.
    """
    s, w = np.polynomial.legendre.leggauss(n)
    j = np.arange(n)
    to_coef = (j + 0.5) * w[:, None] * np.polynomial.legendre.legvander(s, n - 1)
    at_one = np.stack((np.ones(n), j * (j + 1) / 2.0, (j - 1) * j * (j + 1) * (j + 2) / 8.0))
    return s, to_coef * (2.0 * np.array([1, 1j, -1, -1j])[j % 4]), to_coef @ at_one.T


def _fit_algebraic_tail(k_top, r_top, q):
    """Limit coefficient a of the model a/(k^2+q^2) matching the integrand top.

    The product r*(k^2+q^2) is regressed against 1/k so the returned value
    is the k -> infinity limit, unbiased by the next (1/k^3) series term.
    Subtracting the fitted model and adding back its exact cosine
    transform a*exp(-q|x|)/(2q) leaves a faster-decaying remainder.
    """
    vals = np.real(r_top) * (k_top**2 + q**2)
    if not np.all(np.isfinite(vals)):
        return 0.0
    # a genuine algebraic tail has one sign across the window; mixed signs
    # mean the window sits on an oscillatory remnant and no model applies
    if not (np.all(vals > 0.0) or np.all(vals < 0.0)):
        return 0.0
    design = np.column_stack((np.ones_like(k_top), 1.0 / k_top))
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = vals - design @ coef
    a = float(coef[0])
    if not np.isfinite(a) or np.std(resid) > 0.25 * abs(a) + 1e-13:
        return 0.0
    return a


# entries of one (position x node) Bessel table and of one
# (row x position x panel) array of panel sums; both bound a chunk of positions
_CHUNK_ENTRIES = 1 << 16


class _PanelLayout:
    """Fixed panel set on [0, K] shared by every evaluation position.

    The panels resolve the integrand only; the oscillation e^(ikx) is
    integrated exactly against each panel's Legendre series (Filon's rule),
    so no position enters the layout.  A fine segment of 12 sine-graded
    panels covers [0, k_c] (for transport integrands the eigenvalue
    branches meet there); a diffusive scale ``k_w`` below k_c (content of
    width ~3/k_w in x) gets its own 12 panels on [0, k_w], and k_c stays an
    edge.  Above k_c the panels grow geometrically by ``_PANEL_RATIO`` up to
    K: ``spec.k_max``, or ``_K_OVER_KC`` k_c (2e4 k_c) when it is None.
    """

    def __init__(self, k_c, spec, k_w=np.inf):
        n = spec.nodes_per_halfperiod
        k_max = spec.k_max or _K_OVER_KC * k_c
        k_c = min(k_c, 0.5 * k_max)
        # sine grading clusters edges at k_c, where the eigenvalue branches
        # meet with square-root behavior on both sides
        grading = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, 13))
        edges_a = k_c * grading
        if k_w < k_c:
            edges_a = np.concatenate((k_w * grading, k_w + (k_c - k_w) * grading[1:-1], [k_c]))
        n_geo = int(np.ceil(np.log(k_max / k_c) / np.log(_PANEL_RATIO)))
        edges_b = k_c * (k_max / k_c) ** (np.arange(1, n_geo + 1) / n_geo)
        edges_b[-1] = k_max
        self.edges = np.concatenate((edges_a, edges_b))
        s, self._to_coef, self._to_ends = _legendre_tables(n)
        self.half = 0.5 * np.diff(self.edges)
        self.mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        self.flat_nodes = (self.mid[:, None] + self.half[:, None] * s).ravel()
        self.k_max = k_max
        self.q = max(k_c, 0.5)
        self._top = slice(-3 * n, None)  # the fitted tail's window: the top three panels

    def reduce(self, f_rows, x, mollifier_width=None, ends=True):
        """Invert rows of integrand values at ``flat_nodes`` onto positions ``x``.

        ``f_rows`` (rows, nodes) may be complex (Hermitian integrand, signed
        ``x``); the result is (rows, len(x)).  This is the plain Filon sum
        every density shares; a known large-k model of the integrand is the
        caller's to subtract and restore.  A ``mollifier_width``
        multiplies the integrand by a Gaussian of that width; once it has
        died by K (K * width > 5) the integrand is complete: its plain
        panel sum is the value, and a fitted tail would only model the
        cutoff shape.  Otherwise a fitted a/(k^2+q^2) tail is subtracted
        from each row and added back, and, with ``ends``, the remainder r
        past K is e^(iKx)(i r/x - r'/x^2 - i r''/x^3) from the last panel's
        series where K|x| >= 10; nearer the origin it is dropped (it is at
        most the integral of |r| past K).

        Each distinct position is reduced once and its value scattered to
        every copy; only exactly equal values merge, so mirror positions
        that differ in their last bits stay separate.  The distinct
        positions go in chunks whose Bessel table (positions x nodes) and
        panel sums (rows x positions x panels) each hold at most
        ``_CHUNK_ENTRIES`` entries.  Every step works row by row and
        position by position, and the layout does not depend on the
        positions, so a value does not depend on the other positions of
        the call.  Raises QuadratureError if a value is
        not finite.
        """
        nodes = self.flat_nodes
        f_rows = np.array(f_rows, ndmin=2)
        if mollifier_width:
            f_rows *= np.exp(-0.5 * (nodes * mollifier_width) ** 2)
        complete = bool(mollifier_width) and self.k_max * mollifier_width > 5.0
        a_alg = np.array([0.0 if complete else _fit_algebraic_tail(
            nodes[self._top], row[self._top], self.q) for row in f_rows])
        f_rows = f_rows - a_alg[:, None] / (nodes**2 + self.q**2)
        panel_f = f_rows.reshape(len(f_rows), len(self.half), -1)
        # einsum, not matmul: a first complex matmul sets up BLAS's complex
        # kernels, +0.25 MB of peak RSS on a subordinate run
        coef = np.einsum("tpi,ij->tpj", panel_f, self._to_coef) * self.half[:, None]
        coef = (np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag))
        end = None
        if ends and not complete:
            end = panel_f[:, -1] @ self._to_ends / self.half[-1] ** np.arange(3)
        x = np.asarray(x, dtype=float)
        distinct, inverse = np.unique(x, return_inverse=True)
        values = np.empty((len(f_rows), distinct.size))
        chunk = max(1, _CHUNK_ENTRIES // max(nodes.size, len(f_rows) * len(self.half)))
        for lo in range(0, distinct.size, chunk):
            xc = distinct[lo:lo + chunk]
            values[:, lo:lo + chunk] = self._filon_sum(self._panel_sums(xc, coef), xc, end)
        # Hermitian integrand: (1/2pi) * 2 Re
        values = values / np.pi + (a_alg[:, None] * np.exp(-self.q * np.abs(distinct))
                                   / (2.0 * self.q))
        values = values[:, inverse]
        finite = np.all(np.isfinite(values), axis=0)
        if not np.all(finite):
            raise QuadratureError("half-line inversion gave a non-finite value",
                                  detail={"x": x[~finite]})
        return values

    def _panel_sums(self, x, coef):
        """Panel integrals (rows, positions, panels) of Re e^(ikx) f(k): per
        panel e^(i mid x) sum_j 2 i^j c_j h j_j(h x) with ``coef`` the real
        and imaginary parts of 2 i^j c_j h."""
        omega = np.multiply.outer(x, self.half)
        bessel = _spherical_jn(coef[0].shape[-1], omega)
        bessel[..., 1::2] *= np.sign(omega)[..., None]  # j_j(-w) = (-1)^j j_j(w)
        phase = np.multiply.outer(x, self.mid)
        return (np.cos(phase) * np.einsum("xpn,tpn->txp", bessel, coef[0])
                - np.sin(phase) * np.einsum("xpn,tpn->txp", bessel, coef[1]))

    def _filon_sum(self, panels, x, end):
        """Sum of the panel integrals (rows, positions, panels) of positions
        ``x``, plus the end-point terms of the remainder past K when ``end``
        holds its value and k-derivatives at K, one row per integrand row."""
        out = np.sum(panels, axis=-1)
        far = np.abs(x) * self.k_max >= 10.0
        if end is not None and np.any(far):
            xf = x[far]
            series = (1j * end[:, :1] / xf - end[:, 1:2] / xf**2 - 1j * end[:, 2:] / xf**3)
            out[:, far] += (np.exp(1j * self.k_max * xf) * series).real
        return out


def fourier_inversion(f, x, spec=None, k_c=1.0, mollifier_width=None):
    """Half-line Fourier inversion (1/pi) int_0^inf [cos(kx) Re f - sin(kx) Im f] dk.

    ``f`` is a vectorized integrand of a wavenumber array and may return
    complex values.  ``x`` is a position of any sign (returns a float) or
    an array of them (returns an array of its shape).  One panel layout
    serves every position: ``k_c`` is the integrand's wavenumber scale
    (fine panels cover [0, k_c], geometric ones continue to K =
    ``spec.k_max``, or 2e4 k_c when it is None); no position enters it, so
    a value does not depend on the rest of its grid.  ``f`` is evaluated
    once at the layout's nodes and every position goes through the shared
    Filon reduction, with the end-point terms past K.  ``spec.tail_mode``
    is not read.  A ``mollifier_width`` multiplies ``f`` by a Gaussian of
    that width (see ``_PanelLayout.reduce``).  Raises QuadratureError if a
    value is not finite.
    """
    spec = spec or QuadratureSpec()
    x_arr = np.asarray(x, dtype=float)
    layout = _PanelLayout(k_c, spec)
    values = layout.reduce(f(layout.flat_nodes), x_arr.ravel(),
                           mollifier_width=mollifier_width)[0]
    return float(values[0]) if x_arr.ndim == 0 else values.reshape(x_arr.shape)


# -- energy density -------------------------------------------------------


def _mode_weights_batch(k_nodes, params, N, mode):
    """Eigenvalues and component-0 weights at many wavenumbers."""
    dec = _decompose_displaced(k_nodes, params, N)
    weights = exact_mode_weights if mode == "exact" else hermitian_mode_weights
    return dec.eigenvalues, weights(dec)


class _EnergyLayout(_PanelLayout):
    """The panel layout seen from a medium.

    The fine segment ends at the medium's critical wavenumber, and
    ``reduce`` owns the energy density's large-k policy.  Unmollified, with
    the spec's asymptotic subtraction and alpha < 1, it subtracts the N = 1
    front E_2a(-(ck)^2), c = v t^a/sqrt(3), of every time (one
    ``mittag_leffler`` call) and adds back its transform M_a(|x|/c)/(2c)
    (one ``m_wright`` call on the distinct |x|); neither function's value
    at a point depends on the other points of its call.  The end-point
    terms past K are added only for alpha < 1: at alpha = 1 the front terms
    of the integrand do not decay, and the plain sum is the value.  Given
    the largest time ``t_max``, the fine segment also resolves the diffusive
    width w = sqrt(D0 t_max^alpha): it is graded on [0, 3/w] whenever
    3/w < k_c, that is once t_max^alpha > 36 / (sigma_s (1 - g)).
    """

    def __init__(self, params, spec, t_max=None):
        k_w = np.inf if t_max is None else 3.0 / np.sqrt(d0(params) * t_max**params.alpha)
        super().__init__(critical_wavenumber(params), spec, k_w)
        self.params, self.spec = params, spec

    def reduce(self, u_hat, x_abs, times, mollifier_width=None):
        """Cosine-transform node values, one row per time, onto positions:
        (len(times), nodes) -> (len(times), len(x_abs)); a scalar time maps
        one row to one row."""
        alpha = self.params.alpha
        # the front describes the unmollified object, and at alpha = 1 it does not decay
        front = (not mollifier_width and self.spec.tail_mode == "asymptotic_subtraction"
                 and alpha < 1.0)
        if front:
            c = np.array([self.params.v * t**alpha / np.sqrt(3.0) for t in np.atleast_1d(times)])
            u_hat = u_hat - mittag_leffler(
                2.0 * alpha, -np.multiply.outer(c, self.flat_nodes) ** 2).real
        values = super().reduce(u_hat, x_abs, mollifier_width=mollifier_width,
                                ends=alpha < 1.0)
        if front:
            distinct, inverse = np.unique(np.abs(x_abs), return_inverse=True)
            scaled = distinct / c[:, None]
            transform = m_wright(alpha, scaled.ravel()).reshape(scaled.shape) / (2.0 * c[:, None])
            values += transform[:, inverse]
        return values[0] if np.ndim(times) == 0 else values


def _modal_density(x_abs, times, params, N, mode, spec, factors, mollifier_width=None):
    """Energy density values, shape (len(times), len(x_abs)), from modal factors.

    One layout and one batched decomposition serve every time; per time,
    ``factors(lam, t)`` gives the evolution factor of each mode in the 1-D
    array ``lam`` and the weighted mode sum gives the transformed density.
    Modes come in exact conjugate pairs with conjugate weights (see
    :func:`~fracrte.spectral.decompose`), so only Im lam >= 0 is evaluated,
    Im lam > 0 at twice its weight.  That needs factors(conj lam) =
    conj factors(lam): true of the Mittag-Leffler factor and of any real
    exp-kernel fold.  One reduction maps every time onto the positions.
    """
    layout = _EnergyLayout(params, spec, max(times))
    lam, w = _mode_weights_batch(layout.flat_nodes, params, N, mode)
    upper = lam.imag >= 0  # one mode of each conjugate pair, and every real mode
    w = np.where(lam.imag > 0, 2 * w, w)[upper]
    rows, lam = np.nonzero(upper)[0], lam[upper]
    u_hat = np.array([np.bincount(rows, (w * factors(lam, t)).real, len(upper)) for t in times])
    return layout.reduce(u_hat, x_abs, times, mollifier_width=mollifier_width)


def energy_density(x_grid, times, params, N, mode="hermitian", spec=None,
                   mollifier_width=None):
    """Energy density U(x, t; N) for an isotropic unit pulse at the origin.

    The transformed density is real and even in k, so only the cosine part
    of the inversion survives; U is even in x and carries total mass
    E_alpha(-sigma_a t^alpha).

    Parameters
    ----------
    x_grid : array_like
        Positions (any sign; evaluation uses |x| and evenness).
    times : sequence of float
        Strictly positive observation times.
    params : MediumParams
    N : int
        Truncation order, >= kernel degree.
    mode : {"exact", "hermitian"}
    spec : QuadratureSpec, optional
    mollifier_width : float, optional
        Width of a Gaussian mollifier applied in transform space; use it
        to regularize the traveling wave-front singularities of low
        truncation orders at order one (mass is preserved exactly).

    Returns
    -------
    DensityField
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}")
    x_grid = np.asarray(x_grid, dtype=float)
    times = tuple(float(t) for t in np.atleast_1d(times))
    if any(t <= 0 for t in times):
        raise DomainError("times must be positive")

    def factors(lam, t):
        return mittag_leffler(params.alpha, -lam * t**params.alpha)

    values = _modal_density(np.abs(x_grid), times, params, N, mode,
                            spec or QuadratureSpec(), factors, mollifier_width)
    return DensityField(
        x_grid=x_grid,
        times=times,
        values=values,
        method=mode,
    )


def _closed_p1_integrand(k, t, params):
    """Two-branch transformed energy density of the two-moment system.

    The eigenvalues are sigma_a + (d/2)(1 -+ s), d = sigma_s (1 - g),
    s = sqrt(1 - (k/k_c)^2).  Below the critical wavenumber the two real
    relaxation modes enter with weights (1 -+ s)/2; above it the real part
    of one member of the complex-conjugate mode pair.
    """
    alpha = params.alpha
    k_c = critical_wavenumber(params)
    half_d = 0.5 * params.sigma_s * (1.0 - params.g)
    k = np.asarray(k, dtype=float)
    out = np.empty(k.shape, dtype=float)
    below = k <= k_c
    if np.any(below):
        s = np.sqrt(np.maximum(1.0 - (k[below] / k_c) ** 2, 0.0))
        ep = mittag_leffler(alpha, -(params.sigma_a + half_d * (1.0 + s)) * t**alpha).real
        em = mittag_leffler(alpha, -(params.sigma_a + half_d * (1.0 - s)) * t**alpha).real
        out[below] = 0.5 * ((1.0 - s) * ep + (1.0 + s) * em)
    if np.any(~below):
        lam = params.sigma_a + half_d * (1.0 - 1j * np.sqrt((k[~below] / k_c) ** 2 - 1.0))
        out[~below] = mittag_leffler(alpha, -lam * t**alpha).real
    return out


def energy_density_closed_p1(x, t, params, spec=None):
    """Closed-form two-moment energy density at positions ``x``.

    Evaluates the literal two-branch integrand (no eigensolver) on the
    same shared panel layout used by :func:`energy_density`, so the two
    routes agree to round-off wherever the closed form applies.
    Normalized to unit mass (delta initial condition).  A scalar ``x``
    returns a float, an array returns an array of its shape.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    spec = spec or QuadratureSpec()
    x_arr = np.asarray(x, dtype=float)
    x_abs = np.abs(x_arr.ravel())
    layout = _EnergyLayout(params, spec, t)
    vals = layout.reduce(_closed_p1_integrand(layout.flat_nodes, t, params), x_abs, t)
    return float(vals[0]) if x_arr.ndim == 0 else vals.reshape(x_arr.shape)


def ballistic_density(x, mu, mu0, t, params, spec=None, mollifier_width=0.01):
    """Unscattered density coefficient at (x, t) for direction mu = mu0.

    The ballistic part is a delta sheet in direction; this returns the
    spatial profile multiplying delta(mu - mu0), mollified by a Gaussian
    of width ``mollifier_width`` (the profile itself is a delta at
    x = v mu0 t when alpha = 1).  Mass over x equals
    E_alpha(-sigma_t t^alpha) for any mollifier width.  Without a ``spec``
    the integration range ends at k_max = 16 / mollifier_width.  A scalar
    ``x`` returns a float, an array returns an array of its shape; one
    panel layout serves all positions of one call.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if abs(mu - mu0) > 1e-12:
        return 0.0 if np.ndim(x) == 0 else np.zeros(np.shape(x))
    alpha, v, sig_t = params.alpha, params.v, params.sigma_t
    eps = mollifier_width

    # at 16/eps the mollifier is below e^-32 over the top half of the range,
    # so the plain panel sum is the value for every eps (the default K, 2e4
    # k_c, is complete only for eps > 2.5e-4 / k_c)
    spec = spec or QuadratureSpec(k_max=16.0 / eps if eps > 0 else None)
    return fourier_inversion(
        lambda k: mittag_leffler(alpha, -(1j * k * v * mu0 + sig_t) * t**alpha),
        x, spec, critical_wavenumber(params), mollifier_width=eps)


def source_vector(mu0, params, N):
    """First-collision source moments b_l = sigma_s beta_l P_l(mu0) / (2 sqrt(2l+1)).

    Only kernel orders l <= L contribute.
    """
    L = params.phase.degree
    b = np.zeros(N + 1, dtype=complex)
    for l in range(min(L, N) + 1):
        b[l] = params.sigma_s * params.phase.beta[l] * legendre_eval(l, mu0) / (
            2.0 * np.sqrt(2 * l + 1)
        )
    return b


def _truncation_closure(k, mu0, params, N):
    """Last-row streaming defect of the projected ballistic vector.

    The delta sheet in direction couples moment N to moment N+1; the
    truncated operator drops that coupling, so the ballistic/scattered
    split only closes when the dropped term is carried into the source.
    """
    return (
        1j * params.v * k * (N + 1) * legendre_eval(N + 1, mu0)
        / (2.0 * np.sqrt(2 * N + 1))
    )


def scattered_coefficients(k, t, mu0, N, params):
    """Moments of the collided (scattered) part of the density.

    The forced moment system with the attenuated ballistic source has
    c_s(t) = (zeta I - A)^{-1} [E_alpha(-A t^alpha) - E_alpha(-zeta t^alpha)] B,
    zeta = i k v mu0 + sigma_t.  Both matrix functions are diagonal in the
    exact projectors, so mode n carries the factor
    (E_alpha(-lambda_n t^alpha) - E_alpha(-zeta t^alpha)) / (zeta - lambda_n).
    A, zeta and the truncation closure carried in B are all taken at the
    wavenumber of the decomposition (k except at defective points, see
    :func:`_decompose_displaced`), as is the attenuation of
    :func:`ballistic_coefficients`; so c_ballistic + c_scattered = c_full
    holds to round-off at every finite truncation order and every k.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    if t == 0:
        return CoefficientVector(k=float(k), t=0.0, mu0=float(mu0),
                                 c=np.zeros(N + 1, dtype=complex))
    dec = _decompose_displaced(k, params, N)
    zeta = 1j * dec.k * params.v * mu0 + params.sigma_t
    # cond(zeta I - A) estimated from the spectrum: the spread of
    # |zeta - lambda_n| times the eigenvalue condition number
    gap = np.abs(zeta - dec.eigenvalues)
    if dec.kappa * gap.max() > 1e12 * gap.min():
        raise ResolventError(f"resolvent ill-conditioned at k={k} "
                             f"(min |zeta - lambda| = {gap.min():.1e})")
    b = source_vector(mu0, params, N)
    b[N] += _truncation_closure(dec.k, mu0, params, N)
    ml = mittag_leffler(params.alpha, -dec.eigenvalues * t**params.alpha)
    ml_zeta = mittag_leffler(params.alpha, -zeta * t**params.alpha)
    c = modal_action(dec, (ml - ml_zeta) / (zeta - dec.eigenvalues), b)
    return CoefficientVector(k=float(k), t=float(t), mu0=float(mu0), c=c)


def ballistic_coefficients(k, t, mu0, N, params):
    """Moments of the unscattered part: the projected, attenuated pulse.

    The attenuation E_alpha(-zeta t^alpha) is taken at the wavenumber that
    :func:`evolve_coefficients` and :func:`scattered_coefficients` use,
    which is k displaced off a defective point.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    c0 = initial_coefficients(mu0, N).c
    zeta = 1j * _decompose_displaced(k, params, N).k * params.v * mu0 + params.sigma_t
    atten = mittag_leffler(params.alpha, -zeta * t**params.alpha)
    return CoefficientVector(k=float(k), t=float(t), mu0=float(mu0), c=c0 * atten)
