"""Angular and energy densities by oscillatory Fourier inversion.

The Fourier-transformed moment vector evolves mode-by-mode under the
matrix Mittag-Leffler function; real-space densities come from the
half-line cosine/sine inversion.  The integrands decay only algebraically
(like 1/k^2 after direction integration), so plain truncation is useless:
one panel layout splits the half-line and integrates each panel with
Gauss rules, and one array pass over (time x position), in bounded chunks
of positions, forms the partial sums and accelerates them (Wynn's epsilon
where the phase oscillates, reciprocal-wavenumber extrapolation near
x = 0).  Every density here (energy, closed two-moment, ballistic) and
the diffusion limit reach that one reduction; for energy densities the
known large-k limit is optionally subtracted and its transform added back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ResolventError
from .legendre import legendre_eval
from .specfun import m_wright, mittag_leffler
from .spectral import (
    assemble_operator,
    critical_wavenumber,
    decompose,
    exact_mode_weights,
    hermitian_matrix_action,
    hermitian_mode_weights,
    ml_matrix_action,
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

    ``k_max`` of None lets each call pick
    min(max(40/max(x_min, 1e-2), 50*k_c, 300), 5e3), where x_min is the
    smallest nonzero |x| requested (1 when there is none) and k_c the
    wavenumber scale of the integrand.  ``tail_mode`` affects energy
    densities only and chooses how content beyond the integrated range is
    handled: ``"none"`` relies on acceleration alone,
    ``"asymptotic_subtraction"`` removes the known large-k form of the
    integrand and restores its exact transform.
    """

    k_max: float | None = None
    nodes_per_halfperiod: int = 16
    acceleration_order: int = 8
    tail_mode: str = "asymptotic_subtraction"

    def __post_init__(self):
        if self.k_max is not None and self.k_max <= 0:
            raise DomainError("k_max must be positive")
        if self.nodes_per_halfperiod < 8:
            raise DomainError("nodes_per_halfperiod must be >= 8")
        if not (0 <= self.acceleration_order <= 12):
            raise DomainError("acceleration_order must be in [0, 12]")
        if self.tail_mode not in ("none", "asymptotic_subtraction"):
            raise DomainError(f"unknown tail_mode {self.tail_mode!r}")


@dataclass(frozen=True)
class TailModel:
    """Analytic large-k model of an integrand and its exact transform.

    ``integrand(k)`` is subtracted from the numerical integrand over the
    finite range; ``transform(x)`` is the exact value of
    (1/pi) * integral_0^inf cos(kx) integrand(k) dk, added back.
    """

    integrand: object
    transform: object


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
    params_fingerprint: str = ""


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
    offset, so their values do not change.
    """
    shift = 1e-7 * max(critical_wavenumber(params), 1.0)
    k = np.asarray(k, dtype=float)
    offset = np.zeros(k.shape)
    for attempt in range(6):
        dec = decompose(assemble_operator(k + offset, params, N))
        if not np.any(dec.defective_flag):
            return dec
        offset = np.where(dec.defective_flag, shift * (attempt + 1), offset)
    raise QuadratureError(f"could not displace off defective point near k={k}")


def evolve_coefficients(k, t, mu0, N, params, mode="exact"):
    """Moment vector at time t for one wavenumber.

    ``mode="exact"`` applies the true matrix Mittag-Leffler function via
    left/right eigenvectors; ``mode="hermitian"`` uses the conjugated
    eigenvector weights of the closed-form convention.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}")
    if t < 0:
        raise DomainError("t must be >= 0")
    c0 = initial_coefficients(mu0, N).c
    if t == 0:
        return CoefficientVector(k=float(k), t=0.0, mu0=float(mu0), c=c0)
    dec = _decompose_displaced(k, params, N)
    action = ml_matrix_action if mode == "exact" else hermitian_matrix_action
    c = action(dec, t, params.alpha, c0)
    return CoefficientVector(k=float(k), t=float(t), mu0=float(mu0), c=c)


# -- oscillatory half-line quadrature ------------------------------------


def _wynn_epsilon(sums):
    """Limit estimates of partial-sum sequences (one per row) by Wynn's epsilon table.

    Returns ``(value, spread)`` arrays; ``spread`` is the scatter of the
    last three even columns (a convergence diagnostic).  A row whose last
    five sums agree to rounding level is converged (spread 0).  A
    difference at rounding level is not inverted, which would inject huge
    spurious entries; the row's table stops after that column.  A row
    whose estimate exceeds three times its largest sum falls back to its
    last sum (spread inf).
    """
    s = np.asarray(sums, dtype=float)
    rows, n = s.shape
    last = s[:, -1].copy()
    if n < 3:
        return last, np.full(rows, np.inf)
    scale = np.maximum(np.max(np.abs(s), axis=1), 1e-300)
    converged = np.ptp(s[:, -5:], axis=1) < 1e-13 * scale
    prev, cur, evens = np.zeros((rows, n + 1)), s, [last]
    n_even, live = np.ones(rows, dtype=int), np.ones(rows, dtype=bool)  # live: table not stopped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(1, n):
            diff = cur[:, 1:] - cur[:, :-1]
            small = np.abs(diff) < 1e-15 * scale[:, None]
            prev, cur = cur, np.where(small, prev[:, 1:-1], prev[:, 1:-1] + 1.0 / diff)
            if col % 2 == 0:
                evens.append(cur[:, -1])
                n_even += live
            live &= ~np.any(small, axis=1)
            if not np.any(live):
                break
    pick = np.maximum(n_even[:, None] - np.array([3, 2, 1]), 0)  # each row's last three evens
    tail = np.take_along_axis(np.stack(evens, axis=1), pick, axis=1)
    spread, value = np.ptp(tail, axis=1), tail[:, -1]
    blown = ~converged & (np.abs(value) > 3.0 * scale)
    value = np.where(converged | blown, last, value)
    spread = np.where(converged, 0.0, np.where(blown, np.inf, spread))
    return value, spread


# how _extrapolate_wide finished a row: plain-sum rules in order, then Neville
_WIDE_BRANCHES = ("flat", "sign_flip", "travel", "few_octaves", "neville_rejected", "neville")


def _extrapolate_wide(cum_sums, edges_right):
    """Extrapolate rows of cumulative panel sums to infinite wavenumber.

    After the analytic tail subtractions the remaining truncation error
    decays like 1/k^2, so the sums at octave-spaced top edges (k_max,
    k_max/2, k_max/4, k_max/8) follow a low-order polynomial in 1/k;
    Neville extrapolation to 1/k = 0 removes the leading terms.  Octaves
    below k_max/8 are excluded: there the integrand is not yet in its
    asymptotic regime and would poison the fit.  Returns the values and,
    per row, the index into ``_WIDE_BRANCHES`` of the rule that set it.
    """
    c = np.asarray(cum_sums, dtype=float)
    rows, n = c.shape
    last = c[:, -1]
    mag = np.maximum(np.abs(last), 1e-30)
    plain = [np.abs(last - c[:, n // 2]) < 1e-11 * mag]
    # the power-law model only describes integrands whose panel increments
    # decay regularly; sign flips in the increments, or a net change over
    # the top octave much smaller than the traversed variation, mean the
    # integrand oscillates in wavenumber (traveling fronts) and the
    # converged plain sum is the honest answer
    tail_inc = np.diff(c[:, -7:], axis=1)
    significant = (np.abs(tail_inc) > 1e-14 * mag[:, None]) & (tail_inc.shape[1] >= 3)
    plain.append(np.any(significant & (tail_inc > 0), axis=1)
                 & np.any(significant & (tail_inc < 0), axis=1))
    k_hi = edges_right[-1]
    i_half = int(np.argmin(np.abs(edges_right - 0.5 * k_hi)))
    moved = np.sum(np.abs(np.diff(c[:, i_half:], axis=1)), axis=1)
    plain.append((i_half < n - 2) & (moved > 0) & (np.abs(last - c[:, i_half]) < 0.5 * moved))
    idx = list(dict.fromkeys(int(np.argmin(np.abs(edges_right - k_hi / 2.0**j)))
                             for j in range(4) if k_hi / 2.0**j >= edges_right[0]))
    plain.append(np.full(rows, len(idx) < 3))
    value = last
    if len(idx) >= 3:
        u, p = 1.0 / edges_right[idx], c[:, idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for level in range(1, len(idx)):  # Neville's scheme towards 1/k = 0
                p = p[:, 1:] + (p[:, 1:] - p[:, :-1]) * u[level:] / (u[:-level] - u[level:])
            value = p[:, 0]
            plain.append(~np.isfinite(value) | (np.abs(value - last) > 0.5 * mag + 1e-12))
    # the first rule that applies wins; a row that meets none keeps Neville's value
    branch = np.argmax(plain + [np.ones(rows, dtype=bool)], axis=0)
    return np.where(branch == _WIDE_BRANCHES.index("neville"), value, last), branch


def _gauss_panels(edges, n_nodes):
    gx, gw = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * gx[None, :]
    weights = half[:, None] * np.broadcast_to(gw, nodes.shape)
    return nodes, weights


def _layout_extent(spec, x_abs, k_c):
    """Largest |x| and k_max of the layout serving positions ``x_abs``.

    Unless the spec fixes k_max, the smallest nonzero |x| sets it; the 300
    floor keeps the tail-fit window deep in the asymptotic regime even
    when every requested position is near the origin.
    """
    nonzero = x_abs[x_abs > 0]
    x_min = float(np.min(nonzero)) if nonzero.size else 1.0
    x_max = float(np.max(x_abs)) if x_abs.size else 1.0
    if spec.k_max is not None:
        return x_max, spec.k_max
    x_ref = max(x_min, 1e-2)
    return x_max, min(max(40.0 / x_ref, 50.0 * max(k_c, 1e-6), 300.0), 5e3)


def _fit_algebraic_tail(k_top, r_top, q):
    """Limit coefficient a of the model a/(k^2+q^2) matching the integrand top.

    The product r*(k^2+q^2) is regressed against 1/k so the returned value
    is the k -> infinity limit, unbiased by the next (1/k^3) series term.
    Subtracting the fitted model and adding back its exact cosine
    transform a*exp(-q|x|)/(2q) leaves a faster-decaying remainder for
    truncation and extrapolation to absorb.
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


# entries of one (position x node) cosine table, which bounds a reduction chunk
_CHUNK_ENTRIES = 1 << 16


class _PanelLayout:
    """Fixed panel set on [0, k_max] shared by every evaluation position.

    A fine segment covers [0, k_c] (for transport integrands the
    eigenvalue branches kink there), uniform panels continue to k_max sized
    so the fastest cosine still resolves; integrand values at the nodes
    are reduced against any x with acceleration and exact tail add-backs.
    """

    def __init__(self, k_c, spec, x_max, k_max):
        self.spec = spec
        k_c = min(k_c, 0.5 * k_max)
        # sine grading clusters edges at k_c, where the eigenvalue branches
        # meet with square-root behavior on both sides
        edges_a = k_c * np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, 13))
        width_cap = 25.0 / max(x_max, 0.5)
        n_b = int(max(30, np.ceil((k_max - k_c) / width_cap)))
        width_b = (k_max - k_c) / n_b
        ramp = k_c + width_b * np.linspace(0.0, 1.0, 9) ** 2
        uniform = np.linspace(k_c + width_b, k_max, n_b)
        self.edges = np.concatenate((edges_a, ramp[1:], uniform[1:]))
        self.n_seg_a = len(edges_a) - 1 + len(ramp) - 1
        self.nodes, self.weights = _gauss_panels(self.edges, spec.nodes_per_halfperiod)
        self.flat_nodes = self.nodes.ravel()
        self.k_max = k_max
        self.q = max(k_c, 0.5)
        n_top = (len(self.edges) - 1 - self.n_seg_a) // 3 * spec.nodes_per_halfperiod
        self._top = slice(-max(n_top, 2 * spec.nodes_per_halfperiod), None)

    def reduce(self, f_rows, x, tails=None, mollifier_width=None):
        """Invert rows of integrand values at ``flat_nodes`` onto positions ``x``.

        ``f_rows`` (rows, nodes) may be complex (Hermitian integrand, signed
        ``x``); the result is (rows, len(x)).  ``tails`` gives one model (or
        None) per row, subtracted and its transform added back.  A
        ``mollifier_width`` multiplies the integrand by a Gaussian of that
        width; once it has died by k_max (k_max * width > 5) the integrand
        is complete: its plain panel sum is the value, and extrapolation or
        a fitted tail would only model the cutoff shape.  Otherwise a fitted
        a/(k^2+q^2) tail is subtracted from each row and added back.  One
        array pass over rows x positions, in chunks of positions: a chunk's
        cosine table (and sine table for complex integrands) serves every
        row, and its panel sums are accelerated before the next chunk
        starts.  The chunks run on the calling thread: a chunk's cosine
        table releases the GIL, but its acceleration is many small array
        operations that hold it, so on two threads the chunks waited on
        each other and the solve time varied from run to run by more than
        the threads saved.  Raises QuadratureError if a value is not finite.
        """
        nodes = self.flat_nodes
        f_rows = np.array(f_rows, ndmin=2)
        if mollifier_width:
            f_rows *= np.exp(-0.5 * (nodes * mollifier_width) ** 2)
        complete = bool(mollifier_width) and self.k_max * mollifier_width > 5.0
        tails = tails or [None] * len(f_rows)
        for row, tail in zip(f_rows, tails):
            if tail is not None:
                row -= tail.integrand(nodes)
        a_alg = np.array([0.0 if complete else _fit_algebraic_tail(
            nodes[self._top], row[self._top], self.q) for row in f_rows])
        f_rows = f_rows - a_alg[:, None] / (nodes**2 + self.q**2)
        panel_f = f_rows.reshape(len(f_rows), *self.nodes.shape)
        w_re = self.weights * panel_f.real
        w_im = self.weights * panel_f.imag if np.iscomplexobj(panel_f) else None
        x = np.asarray(x, dtype=float)
        values = np.empty((len(f_rows), x.size))
        step = max(1, _CHUNK_ENTRIES // nodes.size)
        for lo in range(0, x.size, step):
            phase = np.multiply.outer(x[lo:lo + step], self.nodes)
            panels = np.einsum("xpn,tpn->txp", np.cos(phase), w_re)
            if w_im is not None:
                panels -= np.einsum("xpn,tpn->txp", np.sin(phase), w_im)
            values[:, lo:lo + step] = self._accelerate(panels, x[lo:lo + step], complete)
        # Hermitian integrand: (1/2pi) * 2 Re
        values = values / np.pi + a_alg[:, None] * np.exp(-self.q * np.abs(x)) / (2.0 * self.q)
        for row, tail in zip(values, tails):
            if tail is not None:
                row += tail.transform(x)
        finite = np.all(np.isfinite(values), axis=0)
        if not np.all(finite):
            raise QuadratureError("half-line inversion gave a non-finite value",
                                  panels=len(self.edges) - 1, detail={"x": x[~finite]})
        return values

    def _accelerate(self, panels, x, complete):
        """Limits of panel sums (rows, positions, panels): the plain sum when
        ``complete``, else Wynn's epsilon (plain sum where it does not settle)
        where the uniform panels span three periods, else the wide rule."""
        head = np.sum(panels[..., :self.n_seg_a], axis=-1)
        sums = head[..., None] + np.cumsum(panels[..., self.n_seg_a:], axis=-1)
        out = sums[..., -1].copy()
        if complete:
            return out
        n_rows, n_sums = len(sums), sums.shape[-1]
        wynn = np.abs(x) * (self.edges[-1] - self.edges[self.n_seg_a]) >= 6.0 * np.pi
        if np.any(wynn):
            s = sums[:, wynn].reshape(-1, n_sums)
            value, spread = _wynn_epsilon(s[:, -(2 * self.spec.acceleration_order + 1):])
            unsettled = ~np.isfinite(value) | (
                spread > 1e-3 * np.maximum(np.max(np.abs(s), axis=1), 1e-30))
            out[:, wynn] = np.where(unsettled, s[:, -1], value).reshape(n_rows, -1)
        if not np.all(wynn):
            value, _ = _extrapolate_wide(sums[:, ~wynn].reshape(-1, n_sums),
                                         self.edges[self.n_seg_a + 1:])
            out[:, ~wynn] = value.reshape(n_rows, -1)
        return out


def fourier_inversion(f, x, spec=None, k_c=1.0, mollifier_width=None):
    """Half-line Fourier inversion (1/pi) int_0^inf [cos(kx) Re f - sin(kx) Im f] dk.

    ``f`` is a vectorized integrand of a wavenumber array and may return
    complex values.  ``x`` is a position of any sign (returns a float) or
    an array of them (returns an array of its shape).  One panel layout
    serves every position: the smallest nonzero |x| sets its k_max unless
    ``spec`` fixes it, and the largest |x| its panel width.  ``f`` is
    evaluated once at the layout's nodes and every position goes through
    the shared accelerated reduction.  ``k_c`` is the integrand's
    wavenumber scale: fine panels cover [0, k_c], and it enters the
    automatic k_max.  ``spec.tail_mode`` is not read.  A
    ``mollifier_width`` multiplies ``f`` by a Gaussian of that width (see
    ``_PanelLayout.reduce``).  Raises QuadratureError if a value is not
    finite.
    """
    spec = spec or QuadratureSpec()
    x_arr = np.asarray(x, dtype=float)
    x_flat = x_arr.ravel()
    layout = _PanelLayout(k_c, spec, *_layout_extent(spec, np.abs(x_flat), k_c))
    values = layout.reduce(f(layout.flat_nodes), x_flat, mollifier_width=mollifier_width)[0]
    return float(values[0]) if x_arr.ndim == 0 else values.reshape(x_arr.shape)


# -- energy density -------------------------------------------------------


def _mode_weights_batch(k_nodes, params, N, mode):
    """Eigenvalues and component-0 weights at many wavenumbers."""
    dec = _decompose_displaced(k_nodes, params, N)
    weights = exact_mode_weights if mode == "exact" else hermitian_mode_weights
    return dec.eigenvalues, weights(dec)


def _tail_model_for(params, t):
    """Large-k integrand limit E_2a(-(vk t^a)^2 / 3) and its transform."""
    alpha, v = params.alpha, params.v
    if alpha >= 1.0:
        return None
    c = v * t**alpha / np.sqrt(3.0)

    def tail_integrand(k):
        return mittag_leffler(2.0 * alpha, -((np.asarray(k) * c) ** 2)).real

    def tail_transform(x):
        return m_wright(alpha, abs(x) / c) / (2.0 * c)

    return TailModel(integrand=tail_integrand, transform=tail_transform)


class _EnergyLayout(_PanelLayout):
    """The panel layout seen from a medium.

    The fine segment ends at the medium's critical wavenumber, and
    ``reduce`` applies the energy-density policy: an optional Gaussian
    mollifier, or else the analytic large-k tail when the spec asks for it.
    """

    def __init__(self, params, spec, x_max, k_max):
        super().__init__(critical_wavenumber(params), spec, x_max, k_max)
        self.params = params

    @classmethod
    def for_positions(cls, params, spec, x_abs):
        """Layout for positions ``x_abs`` (see :func:`_layout_extent`)."""
        return cls(params, spec, *_layout_extent(spec, x_abs, critical_wavenumber(params)))

    def reduce(self, u_hat, x_abs, times, mollifier_width=None):
        """Cosine-transform node values, one row per time, onto positions:
        (len(times), nodes) -> (len(times), len(x_abs)); a scalar time maps
        one row to one row."""
        # the analytic tail model describes the unmollified object
        tails = None
        if not mollifier_width and self.spec.tail_mode == "asymptotic_subtraction":
            tails = [_tail_model_for(self.params, t) for t in np.atleast_1d(times)]
        values = super().reduce(np.asarray(u_hat, dtype=float), x_abs, tails=tails,
                                mollifier_width=mollifier_width)
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
    layout = _EnergyLayout.for_positions(params, spec, x_abs)
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
        params_fingerprint=params.fingerprint(N),
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
    layout = _EnergyLayout.for_positions(params, spec, x_abs)
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
    # so the plain panel sum is the value (the automatic k_max can end early)
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


def scattered_coefficients(k, t, mu0, N, params, mode="exact",
                           include_truncation_closure=True):
    """Moments of the collided (scattered) part of the density.

    Solves the forced moment system with the attenuated ballistic source:
    c_s(t) = (zeta I - A)^{-1} [E_alpha(-A t^alpha) - E_alpha(-zeta t^alpha)] B,
    zeta = i k v mu0 + sigma_t.  With the truncation closure included in B
    the identity c_ballistic + c_scattered = c_full holds to round-off at
    every finite truncation order.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    ls = np.arange(N + 1)
    if t == 0:
        return CoefficientVector(k=float(k), t=0.0, mu0=float(mu0),
                                 c=np.zeros(N + 1, dtype=complex))
    zeta = 1j * k * params.v * mu0 + params.sigma_t
    b = source_vector(mu0, params, N)
    if include_truncation_closure:
        b = b.copy()
        b[N] += _truncation_closure(k, mu0, params, N)
    dec = _decompose_displaced(k, params, N)
    action = ml_matrix_action if mode == "exact" else hermitian_matrix_action
    ml_b = action(dec, t, params.alpha, b)
    scalar_ml = mittag_leffler(params.alpha, -zeta * t**params.alpha)
    rhs = ml_b - scalar_ml * b
    A = assemble_operator(k, params, N).entries
    shifted = zeta * np.eye(N + 1) - A
    try:
        c = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResolventError(f"resolvent singular at k={k}, mu0={mu0}") from exc
    cond = np.linalg.cond(shifted)
    if cond > 1e12:
        raise ResolventError(f"resolvent ill-conditioned at k={k} (cond={cond:.1e})")
    return CoefficientVector(k=float(k), t=float(t), mu0=float(mu0), c=c)


def ballistic_coefficients(k, t, mu0, N, params):
    """Moments of the unscattered part: the projected, attenuated pulse."""
    c0 = initial_coefficients(mu0, N).c
    zeta = 1j * k * params.v * mu0 + params.sigma_t
    atten = mittag_leffler(params.alpha, -zeta * t**params.alpha)
    return CoefficientVector(k=float(k), t=float(t), mu0=float(mu0), c=c0 * atten)
