"""Operational-time kernel and the order-raising identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from fracrte.diffusion import DiffusionParams, diffusion_density_mwright
from fracrte.errors import DomainError
from fracrte.specfun import f_alpha_half, mittag_leffler
from fracrte.subordination import build_kernel, kernel_phi, subordinated_energy_density

D0 = 1.0 / 3.0


def subordinate_density(u1_provider, x, t, alpha):
    """Order-alpha density integral_0^inf u1(x, tau) phi(tau, t) d tau.

    Sums ``u1_provider(x, tau)`` over the kernel grid of ``build_kernel``,
    one node at a time; the provider takes the given x and a scalar tau.
    """
    kernel = build_kernel(t, alpha)
    x_arr = np.asarray(x, dtype=float)
    acc = np.zeros(np.atleast_1d(x_arr).shape)
    for tau_i, w_i in zip(kernel.nodes, kernel.weights):
        if w_i != 0.0:
            acc = acc + w_i * np.atleast_1d(u1_provider(x_arr, tau_i))
    return float(acc[0]) if x_arr.ndim == 0 else acc.reshape(x_arr.shape)


class TestKernelPhi:
    def test_half_order_closed_point(self):
        # phi(1, 1) = 2 f_{1/2}(1)
        assert kernel_phi(1.0, 1.0, 0.5) == pytest.approx(2.0 * f_alpha_half(1.0),
                                                          rel=1e-12)

    def test_nonnegative(self):
        taus = np.logspace(-4, 2, 60)
        for alpha in (0.25, 0.5, 0.75):
            assert np.all(kernel_phi(taus, 0.3, alpha) >= 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_phi(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            kernel_phi(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            kernel_phi(1.0, 1.0, 1.2)


class TestKernelGrid:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_unit_mass(self, alpha, t):
        assert abs(build_kernel(t, alpha).mass - 1.0) < 1e-6

    @settings(max_examples=150)
    @given(alpha=st.floats(0.3, 0.999), t=st.floats(0.01, 1.0), re=st.floats(0.0, 12.0),
           im=st.floats(-350.0, 350.0))
    def test_fold_is_mittag_leffler(self, alpha, t, re, im):
        # int phi(tau, t) exp(-lam tau) d tau = E_alpha(-lam t^alpha); unlike
        # the mass, the fold also shows whether the panels resolve the
        # oscillation of exp(-lam tau)
        lam = complex(re, im)
        kernel = build_kernel(t, alpha, lam_max=abs(lam))
        fold = np.sum(kernel.weights * np.exp(-lam * kernel.nodes))
        assert abs(fold - mittag_leffler(alpha, -lam * t**alpha)) <= 1e-9

    def test_node_count(self):
        # the subordinate benchmark's kernel: alpha = 0.95, t = 0.05 and the
        # largest |lam| of its upper N = 1 modes
        assert build_kernel(0.05, 0.95, lam_max=202.0).nodes.size <= 500

    def test_node_floor(self):
        assert build_kernel(0.05, 0.5, n_nodes=2400).nodes.size >= 2400

    def test_first_moment(self):
        # integral of tau phi(tau, t) d tau = t^alpha / Gamma(1 + alpha)
        for alpha, t in ((0.5, 0.3), (0.75, 1.0)):
            k = build_kernel(t, alpha)
            mom = float(np.sum(k.weights * k.nodes))
            assert mom == pytest.approx(t**alpha / gamma(1 + alpha), rel=1e-6)

    def test_near_first_order_moment(self):
        # as alpha -> 1 the kernel collapses toward a delta at tau = t; the
        # quadrature must still integrate it (the exact first moment is
        # t^alpha / Gamma(1 + alpha), which deviates from t by ~4e-4 at
        # alpha = 0.999, so the kernel is compared against the exact value)
        k = build_kernel(1.0, 0.999)
        mom = float(np.sum(k.weights * k.nodes))
        exact = 1.0 / gamma(1.999)
        assert abs(mom - exact) < 1e-4
        assert abs(mom - 1.0) < 2e-3


class TestSubordination:
    def test_constant_provider(self):
        val = subordinate_density(lambda x, tau: np.full(np.atleast_1d(x).shape, 3.7),
                                  0.0, 0.3, 0.5)
        assert val == pytest.approx(3.7, rel=1e-6)

    def test_heat_kernel_to_fractional_diffusion(self):
        def heat(x, tau):
            return np.exp(-np.atleast_1d(x) ** 2 / (4 * D0 * tau)) / np.sqrt(
                4 * np.pi * D0 * tau
            )

        dp = DiffusionParams(alpha=0.5, D0=D0)
        xs = np.linspace(0.0, 3.0, 13)
        got = subordinate_density(heat, xs, 0.1, 0.5)
        ref = diffusion_density_mwright(xs, 0.1, dp)
        assert np.max(np.abs(got - ref)) < 1e-5

    def test_transport_identity_small(self):
        # subordinating the first-order transport solution reproduces the
        # half-order solution; both sides carry the same mollifier (6/k_max)
        # so the comparison tests the identity, not delta-regularization
        # choices
        from fracrte.spectral import section5_medium
        from fracrte.transport import QuadratureSpec, energy_density

        eps = 0.02
        t = 0.05
        m_half = section5_medium(0.5)
        xs = np.linspace(0.0, 1.5, 16)
        spec = QuadratureSpec(k_max=300.0, tail_mode="none")

        direct = energy_density(xs, [t], m_half, 1, mode="exact", spec=spec,
                                mollifier_width=eps).values[0]
        sub = subordinated_energy_density(xs, [t], m_half, 1, spec=spec).values[0]
        num = np.trapezoid(np.abs(sub - direct), xs)
        den = np.trapezoid(np.abs(direct), xs)
        assert num / den < 1e-3

    def test_low_order_matches_direct(self):
        # criterion 7's comparison at alpha = 0.3: the subordinated density
        # against the direct solve with the same mollifier, bound 1e-3
        from fracrte.spectral import section5_medium
        from fracrte.transport import QuadratureSpec, energy_density

        xs = np.linspace(-2.0, 2.0, 41)
        medium = section5_medium(0.3)
        spec = QuadratureSpec(k_max=350.0, tail_mode="none")
        direct = energy_density(xs, [0.05], medium, 1, mode="exact", spec=spec,
                                mollifier_width=6.0 / 350.0).values[0]
        sub = subordinated_energy_density(xs, [0.05], medium, 1).values[0]
        assert np.sum(np.abs(sub - direct)) / np.sum(np.abs(direct)) < 1e-3
