"""Diffusion limit: coefficient, dual evaluation routes, moments."""

import types

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from fracrte.diffusion import (
    DiffusionParams,
    d0,
    diffusion_density_mwright,
    diffusion_density_quadrature,
)
from fracrte.errors import DegenerateTransportError, DomainError
from fracrte.legendre import PhaseFunction
from fracrte.spectral import MediumParams, section5_medium

GAMMA_3_4 = 1.2254167024651776451


def test_benchmark_coefficient():
    assert d0(section5_medium(0.5)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_isotropic_unit_coefficient():
    m = MediumParams(alpha=0.5, v=1.0, sigma_s=1.0, sigma_a=0.0,
                     phase=PhaseFunction.isotropic())
    assert d0(m) == pytest.approx(1.0 / 3.0)


def test_degenerate_guard():
    stub = types.SimpleNamespace(g=1.0, v=1.0, sigma_s=1.0)
    with pytest.raises(DegenerateTransportError):
        d0(stub)


def test_coefficient_invariant_under_mean_free_path_scaling():
    # v -> v/e, sigma_s -> sigma_s/e^2 leaves D0 unchanged, which is what
    # lets the transport density approach a fixed diffusion profile
    base = section5_medium(0.5)
    for e in (0.5, 0.25):
        scaled = MediumParams(alpha=0.5, v=1.0 / e, sigma_s=10.0 / e**2,
                              sigma_a=0.0, phase=base.phase)
        assert d0(scaled) == pytest.approx(d0(base), rel=1e-12)


def test_heat_kernel_reduction():
    dp = DiffusionParams(alpha=1.0, D0=1.0 / 3.0)
    t = 0.01
    for x in (0.0, 0.5, 1.0):
        ref = np.exp(-(x**2) / (4 * dp.D0 * t)) / np.sqrt(4 * np.pi * dp.D0 * t)
        assert diffusion_density_quadrature(x, t, dp) == pytest.approx(ref, abs=1e-8)
        assert diffusion_density_mwright(x, t, dp) == pytest.approx(ref, rel=1e-10)


def test_closed_form_origin_value():
    dp = DiffusionParams(alpha=0.5, D0=1.0 / 3.0)
    expect = (np.sqrt(3) / 2.0) / GAMMA_3_4
    assert diffusion_density_mwright(0.0, 1.0, dp) == pytest.approx(expect, rel=1e-10)


def test_cross_method_origin():
    dp = DiffusionParams(alpha=0.5, D0=1.0 / 3.0)
    q = diffusion_density_quadrature(0.0, 0.1, dp)
    mw = diffusion_density_mwright(0.0, 0.1, dp)
    assert q == pytest.approx(mw, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_cross_method_grid(alpha):
    dp = DiffusionParams(alpha=alpha, D0=1.0 / 3.0)
    for t in (0.01, 0.1, 1.0):
        xs = np.linspace(0.0, 4.0, 41)
        mw = diffusion_density_mwright(xs, t, dp)
        for x, ref in zip(xs, mw):
            q = diffusion_density_quadrature(float(x), t, dp)
            assert abs(q - ref) <= 1e-6 * (1.0 + abs(ref))


def test_quadrature_takes_position_arrays():
    dp = DiffusionParams(alpha=0.75, D0=1.0 / 3.0)
    xs = np.linspace(-4.0, 4.0, 41).reshape(41, 1)
    q = diffusion_density_quadrature(xs, 0.1, dp)
    assert q.shape == xs.shape
    mw = diffusion_density_mwright(xs, 0.1, dp)
    assert np.max(np.abs(q - mw) / (1.0 + np.abs(mw))) <= 1e-6


def test_unit_mass():
    dp = DiffusionParams(alpha=0.5, D0=1.0 / 3.0)
    val, _ = quad(lambda x: diffusion_density_mwright(x, 0.3, dp), 0, 50, limit=300)
    assert 2 * val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_second_moment(alpha):
    dp = DiffusionParams(alpha=alpha, D0=1.0 / 3.0)
    t = 0.1
    val, _ = quad(lambda x: x * x * diffusion_density_mwright(x, t, dp), 0, 40,
                  limit=400)
    expect = 2.0 * dp.D0 * t**alpha / gamma(1.0 + alpha)
    assert 2 * val == pytest.approx(expect, abs=1e-6)


def test_self_similar_collapse():
    dp = DiffusionParams(alpha=0.5, D0=1.0 / 3.0)
    y = np.linspace(0.0, 3.0, 17)
    t1, t2 = 0.05, 0.8
    p1 = t1 ** (dp.alpha / 2) * diffusion_density_mwright(y * t1 ** (dp.alpha / 2), t1, dp)
    p2 = t2 ** (dp.alpha / 2) * diffusion_density_mwright(y * t2 ** (dp.alpha / 2), t2, dp)
    assert np.max(np.abs(p1 - p2)) < 1e-8


def test_positive_everywhere():
    dp = DiffusionParams(alpha=0.75, D0=1.0 / 3.0)
    vals = diffusion_density_mwright(np.linspace(0, 6, 61), 0.1, dp)
    assert np.all(vals > 0)


def test_absorption_blocks_closed_form():
    dp = DiffusionParams(alpha=0.5, D0=1.0 / 3.0, sigma_a=1.0)
    with pytest.raises(DomainError):
        diffusion_density_mwright(0.0, 0.1, dp)
    # but the quadrature route exists and damps the mode
    plain = DiffusionParams(alpha=0.5, D0=1.0 / 3.0)
    assert (diffusion_density_quadrature(0.0, 0.1, dp)
            < diffusion_density_quadrature(0.0, 0.1, plain))
