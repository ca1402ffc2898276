"""Operator assembly, eigenstructure, and matrix Mittag-Leffler action."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from fracrte import pool, spectral
from fracrte.errors import (
    ConfigurationError,
    DefectiveOperatorError,
    DomainError,
    EigenSolverError,
)
from fracrte.legendre import PhaseFunction
from fracrte.spectral import (
    MediumParams,
    assemble_operator,
    critical_wavenumber,
    decompose,
    exact_mode_weights,
    h_coeff,
    hermitian_matrix_action,
    hermitian_mode_weights,
    ml_matrix_action,
    section5_medium,
)
from fracrte.transport import _mode_weights_batch


def _inf_norm(op):
    """Infinity norm (maximum absolute row sum) of each stacked matrix."""
    return np.abs(op.entries).sum(axis=-1).max(axis=-1)


@pytest.fixture(scope="module")
def medium():
    return section5_medium(alpha=0.5)


@pytest.fixture(scope="module")
def k_c(medium):
    return critical_wavenumber(medium)


class TestMediumParams:
    def test_benchmark_values(self, medium, k_c):
        assert medium.sigma_t == 10.0
        assert medium.g == pytest.approx(0.9)
        assert k_c == pytest.approx(np.sqrt(3) / 2, rel=1e-12)

    def test_validation(self):
        pf = PhaseFunction.isotropic()
        with pytest.raises(DomainError):
            MediumParams(alpha=1.5, v=1.0, sigma_s=1.0, sigma_a=0.0, phase=pf)
        with pytest.raises(DomainError):
            MediumParams(alpha=0.5, v=1.0, sigma_s=-1.0, sigma_a=0.0, phase=pf)


class TestMomentCoefficients:
    def test_h_zero_scattering_only(self, medium):
        assert h_coeff(0, medium) == pytest.approx(0.0, abs=1e-14)

    def test_h_one_benchmark(self, medium):
        assert h_coeff(1, medium) == pytest.approx(0.3, rel=1e-12)

    def test_h_beyond_kernel(self, medium):
        assert h_coeff(5, medium) == 11.0

    def test_h_zero_with_absorption(self):
        m = section5_medium(0.5, sigma_a=1.0)
        assert h_coeff(0, m) == pytest.approx(m.sigma_a / m.sigma_t)


class TestAssembly:
    def test_benchmark_matrix(self, medium, k_c):
        op = assemble_operator(1.0, medium, 1)
        expect = np.array([[0.0, 1.0j], [1.0j, 2.0 * k_c]]) / np.sqrt(3.0)
        assert np.max(np.abs(op.entries - expect)) < 1e-14

    def test_symmetric_not_hermitian(self, medium):
        op = assemble_operator(2.3, medium, 5).entries
        assert np.max(np.abs(op - op.T)) == 0.0
        assert np.max(np.abs(op - op.conj().T)) > 0.1

    def test_zero_wavenumber_diagonal(self):
        m = section5_medium(0.5, sigma_a=1.0)
        op = assemble_operator(0.0, m, 3).entries
        assert np.max(np.abs(op - np.diag(np.diag(op)))) == 0.0
        assert np.min(np.diag(op).real) == pytest.approx(1.0)  # sigma_a

    def test_truncation_below_kernel_degree(self, medium):
        with pytest.raises(ConfigurationError):
            assemble_operator(1.0, medium, 0)


class TestDecomposition:
    def test_closed_form_eigenvalues(self, medium, k_c):
        for frac in np.concatenate((np.linspace(0.05, 0.98, 12), np.linspace(1.02, 5.0, 12))):
            k = frac * k_c
            dec = decompose(assemble_operator(k, medium, 1))
            s = np.sqrt(complex(1.0 - frac**2))
            ref = np.array([(k_c / np.sqrt(3)) * (1 + s), (k_c / np.sqrt(3)) * (1 - s)])
            got = dec.eigenvalues
            # match by minimum distance, conjugate-pair order is arbitrary
            err = min(
                np.max(np.abs(got - ref)), np.max(np.abs(got - ref[::-1]))
            )
            assert err < 1e-10

    def test_zero_wavenumber_modes(self, medium):
        dec = decompose(assemble_operator(0.0, medium, 1))
        assert sorted(np.round(dec.eigenvalues.real, 10)) == pytest.approx([0.0, 1.0])
        # conserved mode aligned with the zeroth unit vector
        i0 = int(np.argmin(np.abs(dec.eigenvalues)))
        v = dec.vectors[:, i0]
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_defective_at_critical_wavenumber(self, medium, k_c):
        dec = decompose(assemble_operator(k_c, medium, 1))
        assert dec.defective_flag
        with pytest.raises(DefectiveOperatorError):
            ml_matrix_action(dec, 0.1, 0.5, np.array([1.0, 0.0]))

    def test_displaced_point_clean(self, medium, k_c):
        dec = decompose(assemble_operator(k_c * (1 + 1e-7), medium, 1))
        assert not dec.defective_flag

    def test_repeated_diagonal_not_defective(self, medium):
        # at k = 0 the operator is diagonal with equal entries for l >= 2:
        # degenerate but diagonalizable
        dec = decompose(assemble_operator(0.0, medium, 5))
        assert not dec.defective_flag

    def test_residual_and_biorthogonality(self, medium):
        # A = A^T, so the transposed eigenvectors, scaled by 1/q^T q, are
        # the rows of Q^-1
        for k in (0.2, 1.0, 4.0):
            op = assemble_operator(k, medium, 7)
            dec = decompose(op)
            A, Q = op.entries, dec.vectors
            for n in range(8):
                r = A @ Q[:, n] - dec.eigenvalues[n] * Q[:, n]
                assert np.linalg.norm(r) < 1e-10 * _inf_norm(op)
            left = Q.T / np.sum(Q * Q, axis=0)[:, None]
            assert np.max(np.abs(left @ Q - np.eye(8))) < 1e-10
            assert np.max(np.abs(left - np.linalg.inv(Q))) < 1e-10

    def test_dissipativity(self, medium):
        for k in np.linspace(0.0, 10.0, 40):
            dec = decompose(assemble_operator(float(k), medium, 7))
            assert np.min(dec.eigenvalues.real) > -1e-12


class TestBatchedDecomposition:
    @given(
        extra=st.lists(st.floats(0.0, 50.0), min_size=0, max_size=12),
        N=st.integers(1, 8),
    )
    def test_batch_equals_per_wavenumber(self, extra, N):
        m = section5_medium(alpha=0.5)
        ks = np.array([0.0, critical_wavenumber(m)] + extra)
        dec = decompose(assemble_operator(ks, m, N))
        for i, k in enumerate(ks):
            one = decompose(assemble_operator(k, m, N))
            assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(dec.vectors[i], one.vectors)
            assert dec.kappa[i] == one.kappa
            assert dec.defective_flag[i] == one.defective_flag

    @given(N=st.integers(1, 15))
    def test_modes_agree_at_zero_wavenumber(self, N):
        m = section5_medium(alpha=0.5)
        _, w_exact = _mode_weights_batch(np.array([0.0]), m, N, "exact")
        _, w_herm = _mode_weights_batch(np.array([0.0]), m, N, "hermitian")
        assert np.max(np.abs(w_exact - w_herm)) <= 1e-14
        assert abs(np.sum(w_exact) - 1.0) <= 1e-14
        assert abs(np.sum(w_herm) - 1.0) <= 1e-14

    def test_scalar_fields_stay_scalar(self, medium):
        dec = decompose(assemble_operator(1.0, medium, 3))
        assert isinstance(dec.k, float)
        assert isinstance(dec.kappa, float)
        assert isinstance(dec.defective_flag, bool)

    @pytest.mark.parametrize("mode", ["exact", "hermitian"])
    def test_mode_weights_displace_critical_node(self, medium, k_c, mode):
        # a node exactly at the coalescence point takes the decomposition of
        # the first displaced wavenumber
        lam, w = _mode_weights_batch(np.array([0.5 * k_c, k_c, 2.0 * k_c]), medium, 1, mode)
        assert np.all(np.isfinite(lam)) and np.all(np.isfinite(w))
        dec = decompose(assemble_operator(k_c + 1e-7 * max(k_c, 1.0), medium, 1))
        assert not dec.defective_flag
        weights = exact_mode_weights if mode == "exact" else hermitian_mode_weights
        assert np.array_equal(lam[1], dec.eigenvalues)
        assert np.array_equal(w[1], weights(dec))


class TestSlicedDecomposition:
    """Slices of a few matrices, on one and on three threads, give the
    per-wavenumber decomposition bit for bit."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("N", [1, 4])
    def test_slices_equal_per_wavenumber(self, monkeypatch, switch_often, medium, k_c, N,
                                         cpus):
        monkeypatch.setattr(spectral, "_SLICE_WORK", 7 * (N + 1) ** 3)  # six slices
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        ks = np.linspace(0.0, 2.9 * k_c, 40)
        ks[33] = k_c  # the N = 1 coalescence point, in the fifth slice
        dec = decompose(assemble_operator(ks, medium, N))
        for i, k in enumerate(ks):
            one = decompose(assemble_operator(k, medium, N))
            assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(dec.vectors[i], one.vectors)
            assert dec.kappa[i] == one.kappa
            assert dec.defective_flag[i] == one.defective_flag
        # only the N = 1 coalescence point is flagged; the repeated diagonal
        # of k = 0 keeps orthonormal eigenvectors
        assert np.flatnonzero(dec.defective_flag).tolist() == ([33] if N == 1 else [])
        assert dec.kappa[0] == 1.0

    def test_solver_error_in_a_worker_reaches_the_caller(self, monkeypatch, medium):
        monkeypatch.setattr(spectral, "_SLICE_WORK", 7 * 8)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
        ks = np.linspace(0.0, 5.0, 40)
        ks[30] = np.nan
        with pytest.raises(EigenSolverError) as info:
            decompose(assemble_operator(ks, medium, 1))
        assert info.value.k.shape == (1,) and np.isnan(info.value.k[0])

    def test_solver_error_names_only_the_failing_wavenumber(self, medium):
        # the error carries and prints the rejected matrix's wavenumber, not
        # the whole batch (which numpy would print abbreviated)
        ks = np.linspace(0.0, 5.0, 2000)
        op = assemble_operator(ks, medium, 1)
        op.entries[1500, 0, 0] = np.nan
        with pytest.raises(EigenSolverError) as info:
            decompose(op)
        assert np.array_equal(info.value.k, [ks[1500]])
        assert str(info.value) == f"eigensolver failed at k={np.array([ks[1500]])}"


class TestMatrixAction:
    def test_identity_at_time_zero(self, medium):
        dec = decompose(assemble_operator(0.7, medium, 3))
        c0 = np.array([1.0, 0.2, 0.1, 0.05], dtype=complex)
        got = ml_matrix_action(dec, 0.0, 0.5, c0)
        assert np.max(np.abs(got - c0)) < 1e-14

    def test_order_one_matches_expm(self):
        m = section5_medium(1.0)
        rng = np.random.default_rng(8)
        for k in (0.3, 2.0, 7.5):
            op = assemble_operator(k, m, 5)
            dec = decompose(op)
            c0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            t = 0.41
            got = ml_matrix_action(dec, t, 1.0, c0)
            ref = expm(-op.entries * t) @ c0
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_exact_two_moment_weights(self, medium, k_c):
        k = 0.6 * k_c
        dec = decompose(assemble_operator(k, medium, 1))
        s = np.sqrt(1.0 - 0.36)
        w = exact_mode_weights(dec)
        lam = dec.eigenvalues
        iplus = int(np.argmax(lam.real))
        assert w[iplus] == pytest.approx(-(1 - s) / (2 * s), rel=1e-10)
        assert w[1 - iplus] == pytest.approx((1 + s) / (2 * s), rel=1e-10)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_component_weights_from_action(self, medium, k_c):
        # evolving the moment loading and reading component zero agrees with
        # the closed two-by-two reduction
        k = 0.6 * k_c
        dec = decompose(assemble_operator(k, medium, 1))
        c0 = np.array([0.5, np.sqrt(3) / 2], dtype=complex)
        t, alpha = 0.13, 0.5
        got = ml_matrix_action(dec, t, alpha, c0)[0]
        from fracrte.specfun import mittag_leffler

        coeff = np.linalg.solve(dec.vectors, c0)
        direct = np.sum(
            dec.vectors[0, :] * coeff
            * mittag_leffler(alpha, -dec.eigenvalues * t**alpha)
        )
        assert got == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("action", [ml_matrix_action, hermitian_matrix_action])
    def test_negative_time_rejected(self, medium, action):
        dec = decompose(assemble_operator(1.0, medium, 1))
        c0 = np.array([0.5, np.sqrt(3) / 2], dtype=complex)
        with pytest.raises(DomainError):
            action(dec, -0.1, 0.5, c0)


class TestHermitianWeights:
    def test_above_critical_half_half(self, medium, k_c):
        dec = decompose(assemble_operator(2.0 * k_c, medium, 1))
        assert np.max(np.abs(hermitian_mode_weights(dec) - 0.5)) < 1e-12

    def test_below_critical_closed_form(self, medium, k_c):
        frac = 0.7
        dec = decompose(assemble_operator(frac * k_c, medium, 1))
        s = np.sqrt(1 - frac**2)
        w = hermitian_mode_weights(dec)
        lam = dec.eigenvalues.real
        ismall = int(np.argmin(lam))
        # larger weight rides the smaller eigenvalue
        assert w[ismall] == pytest.approx((1 + s) / 2, rel=1e-10)
        assert w[1 - ismall] == pytest.approx((1 - s) / 2, rel=1e-10)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_wavenumber_all_on_conserved_mode(self, medium):
        dec = decompose(assemble_operator(0.0, medium, 1))
        w = hermitian_mode_weights(dec)
        i0 = int(np.argmin(np.abs(dec.eigenvalues)))
        assert w[i0] == pytest.approx(1.0, abs=1e-12)
        assert w[1 - i0] == pytest.approx(0.0, abs=1e-12)

    def test_modes_differ_between_critical_points(self, medium, k_c):
        # the operator is non-normal for 0 < k < k_c: conjugated weights and
        # exact left-eigenvector weights disagree there (reported, by design)
        dec = decompose(assemble_operator(0.6 * k_c, medium, 1))
        wh = hermitian_mode_weights(dec)
        we = exact_mode_weights(dec)
        assert np.max(np.abs(np.sort(wh) - np.sort(we.real))) > 0.1

    def test_hermitian_action_at_zero_wavenumber_matches_exact(self, medium):
        dec = decompose(assemble_operator(0.0, medium, 1))
        c0 = np.array([0.5, 0.1], dtype=complex)
        a = ml_matrix_action(dec, 0.3, 0.5, c0)
        b = hermitian_matrix_action(dec, 0.3, 0.5, c0)
        assert np.max(np.abs(a - b)) < 1e-12


def _gap_and_cond_defective(lam, Q, norm):
    """The coalescence test of an inverse-based decomposition: the smallest
    eigenvalue gap below 1e-7 ||A||_inf (a true double root splits by
    ~sqrt(eps) ||A|| in floating point) and cond(Q) above 1e7."""
    idx = np.arange(lam.shape[-1])
    gaps = np.abs(lam[..., :, None] - lam[..., None, :])
    gaps[..., idx, idx] = np.inf
    close = gaps.min(axis=(-2, -1)) < 1e-7 * np.where(norm > 0, norm, 1.0)
    cond = np.full(close.shape, np.nan)
    cond[close] = np.linalg.cond(Q[close])
    return close & (cond > 1e7)


def _decompose_complex_reference(op):
    """The complex route: one complex eigensolver call on A(k) itself.

    Returns eigenvalues, exact and hermitian component-0 weights (NaN
    where defective) and the defect flags.
    """
    lam, Q = np.linalg.eig(op.entries)
    defective = _gap_and_cond_defective(lam, Q, _inf_norm(op))
    Qinv = np.full_like(Q, np.nan)
    Qinv[~defective] = np.linalg.inv(Q[~defective])
    exact = Q[..., 0, :] * Qinv[..., :, 0]
    hermitian = np.abs(Q[..., 0, :]) ** 2 / np.sum(np.abs(Q) ** 2, axis=-2)
    return lam, exact, hermitian, defective


class TestNoInverse:
    def test_decompose_calls_neither_inv_nor_cond(self, monkeypatch, medium, k_c):
        # the left vectors are the transposed right ones and kappa is read
        # off them, so no inverse and no SVD runs, not even at coalescence
        def forbidden(*args, **kwargs):
            raise AssertionError("decompose must not call inv or cond")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(np.linalg, "cond", forbidden)
        dec = decompose(assemble_operator(np.array([0.0, 0.5 * k_c, k_c, 3.0 * k_c]), medium, 1))
        assert dec.defective_flag.tolist() == [False, False, True, False]
        assert dec.kappa[2] > spectral._KAPPA_MAX


def _oracle_modes(entries, dps=40):
    """Eigenvalues and exact and hermitian component-0 weights of one matrix
    from an mpmath eigendecomposition and inverse at ``dps`` digits."""
    with mp.workdps(dps):
        lam, vec = mp.eig(mp.matrix(entries.tolist()))
        left = mp.inverse(vec)
        n = len(lam)
        exact = [complex(vec[0, j] * left[j, 0]) for j in range(n)]
        herm = [float(abs(vec[0, j]) ** 2 / sum(abs(vec[i, j]) ** 2 for i in range(n)))
                for j in range(n)]
        return np.array([complex(v) for v in lam]), np.array(exact), np.array(herm)


class TestHighPrecisionOracle:
    """Eigenvalues and both weight sets against a 40-digit eigendecomposition,
    from k -> 0 through the coalescence point to k >= 1e3.

    Near k_c the N = 1 weights carry the conditioning of the eigenvalue
    split, ~eps / |k / k_c - 1| relative for any double-precision solver
    (8e-11 at k_c (1 + 1e-6), with an inverse of Q as well), so the points
    near k_c sit 1e-2 to 1e-1 off it, plus the displaced node k_c (1 + 1e-7).
    """

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 11, 15])
    def test_weights_and_eigenvalues(self, medium, k_c, N):
        rng = np.random.default_rng(100 + N)
        near = 1 + rng.choice([-1, 1]) * rng.uniform(1e-2, 1e-1)
        ks = np.r_[10 ** rng.uniform(np.log10(6e-4), -1.0), rng.uniform(0.1, 20.0),
                   k_c * (1 + 1e-7), k_c * near, 10 ** rng.uniform(3.0, 4.3)]
        op = assemble_operator(ks, medium, N)
        dec = decompose(op)
        assert not dec.defective_flag.any()
        exact, herm = exact_mode_weights(dec), hermitian_mode_weights(dec)
        for i in range(len(ks)):
            lam_ref, exact_ref, herm_ref = _oracle_modes(op.entries[i])
            row, col = linear_sum_assignment(np.abs(dec.eigenvalues[i][:, None] - lam_ref))
            lam, ref = dec.eigenvalues[i][row], lam_ref[col]
            assert np.max(np.abs(lam - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-12
            for got, ref in ((exact[i, row], exact_ref[col]), (herm[i, row], herm_ref[col])):
                assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-12


class TestRealForm:
    """``decompose`` solves the real similar matrix J^-1 A J, J = diag(i^l)."""

    @given(
        N=st.integers(1, 15),
        extra=st.lists(st.floats(0.0, 2e3), min_size=0, max_size=10),
    )
    def test_matches_complex_reference(self, N, extra):
        m = section5_medium(alpha=0.5)
        ks = np.array([0.0, critical_wavenumber(m) * (1 + 1e-7)] + extra)
        op = assemble_operator(ks, m, N)
        dec = decompose(op)
        lam_ref, exact_ref, herm_ref, defective_ref = _decompose_complex_reference(op)
        assert np.array_equal(dec.defective_flag, defective_ref)
        exact = exact_mode_weights(dec) if not dec.defective_flag.any() else None
        herm = hermitian_mode_weights(dec)
        for i in range(len(ks)):
            lam = dec.eigenvalues[i]
            # exact conjugate pairs; every other eigenvalue exactly real
            upper, lower = lam[lam.imag > 0], lam[lam.imag < 0]
            assert np.array_equal(np.sort(upper.conj()), np.sort(lower))
            cost = np.abs(lam[:, None] - lam_ref[i][None, :])
            row, col = linear_sum_assignment(cost)
            assert np.max(cost[row, col]) <= 1e-12 * _inf_norm(op)[i]
            assert np.max(np.abs(herm[i, row] - herm_ref[i, col])) <= 1e-10
            if exact is not None:
                # exact weights grow like 1/|lam_1 - lam_2| near coalescence
                # (~1.1e3 at N = 1, k_c (1 + 1e-7)), so the bound is relative there
                scale = np.maximum(np.abs(exact_ref[i, col]), 1.0)
                assert np.max(np.abs(exact[i, row] - exact_ref[i, col]) / scale) <= 1e-10

    def test_near_coalescence_weights_against_high_precision(self, medium, k_c):
        # just past k_c the real form keeps the exact weights (~1.1e3) to
        # 1.7e-10 of a 50-digit eigendecomposition; the complex route
        # misses by 6.7e-8 there
        op = assemble_operator(k_c * (1 + 1e-7), medium, 1)
        dec = decompose(op)
        with mp.workdps(50):
            lam_hp, vec_hp = mp.eig(mp.matrix(op.entries.tolist()))
            left_hp = mp.inverse(vec_hp)
            ref = {complex(lam_hp[j]): complex(vec_hp[0, j] * left_hp[j, 0]) for j in range(2)}
        for lam, w in zip(dec.eigenvalues, exact_mode_weights(dec)):
            nearest = min(ref, key=lambda mu: abs(mu - lam))
            assert abs(w - ref[nearest]) <= 1e-9

    def test_right_vectors_are_exact_image_of_real_vectors(self, medium):
        # Q = J Q_R with J = diag(i^l) exact, so J^-1 Q is Q_R bit for bit:
        # real columns for real eigenvalues, conjugate columns across a pair
        dec = decompose(assemble_operator(np.array([0.3, 3.1, 40.0]), medium, 6))
        J = np.array([1, 1j, -1, -1j])[np.arange(7) % 4]
        for lam, Q in zip(dec.eigenvalues, dec.vectors):
            Q_R = J.conj()[:, None] * Q
            assert np.all(Q_R[:, lam.imag == 0].imag == 0.0)
            for n in np.flatnonzero(lam.imag > 0):
                partners = np.flatnonzero(lam == lam[n].conj())
                assert any(np.array_equal(Q_R[:, p], Q_R[:, n].conj()) for p in partners)
