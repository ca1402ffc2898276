"""Correctness gates: one per workload, applied to every CLI output.

A gate is built once per run from the resolved CLI configuration (its
reference is computed by an independent route) and then checks each
call's CSV files.  ``check`` returns ``(ok, resid_ratio, message)``;
``resid_ratio`` is the largest check residual divided by its bound, so a
passing output has a ratio of at most 1.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os

import numpy as np


def read_outputs(directory):
    """Parse every CSV in ``directory``: {time: (x, U, raw bytes)}, sorted by time."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            raw = fh.read()
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        t = float(rows[0][4])
        x = np.array([float(r[0]) for r in rows])
        u = np.array([float(r[1]) for r in rows])
        out[t] = (x, u, raw)
    return dict(sorted(out.items()))


@contextlib.contextmanager
def capturing(target):
    """Record the return values of one package function while the block runs.

    ``target`` is a (module, function) pair or None.  The CLI imports
    lazily inside its subcommands, so patching the defining module is seen.
    """
    seen = []
    if target is None:
        yield seen
        return
    module = importlib.import_module(target[0])
    original = getattr(module, target[1])

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(module, target[1], recorder)
    try:
        yield seen
    finally:
        setattr(module, target[1], original)


def ml_series(alpha, z, terms=60):
    """E_alpha(z) for small real |z| by its power series (independent of fracrte)."""
    return math.fsum(z**k / math.gamma(alpha * k + 1.0) for k in range(terms))


EVEN_BOUND = 1e-7  # of max|U|; the quadrature noise floor far out, measured 1.8e-9


def _shape_problem(outputs, times, n_x):
    """Complete, finite output with the requested times, or a message saying why not."""
    if len(outputs) != len(times) or any(
            abs(a - b) > 1e-9 * b for a, b in zip(outputs, times)):
        return f"times {list(outputs)} differ from requested {list(times)}"
    for t, (x, u, _raw) in outputs.items():
        if x.size != n_x or not np.all(np.isfinite(u)):
            return f"t={t:g}: {x.size} rows or non-finite values"
    return None


def _evenness_ratio(outputs):
    """Largest |U(x) - U(-x)| over its bound, for grids symmetric about 0."""
    worst = 0.0
    for _t, (_x, u, _raw) in outputs.items():
        scale = max(float(np.max(np.abs(u))), 1e-300)
        worst = max(worst, float(np.max(np.abs(u - u[::-1]))) / (EVEN_BOUND * scale))
    return worst


class Gate:
    """Base gate: shape and evenness checks plus a workload residual against a bound."""

    even = True
    capture = None  # package function whose result the warm-up call records

    def __init__(self, config, captured=()):
        self.config = config
        self.times = tuple(float(t) for t in config.times)

    def check(self, outputs):
        problem = _shape_problem(outputs, self.times, self.config.n_x)
        if problem:
            return False, math.inf, problem
        ratio, message = self.residual(outputs)
        if self.even:
            even = _evenness_ratio(outputs)
            if even > ratio:
                ratio, message = even, f"evenness defect at {even:.3g} of its bound"
        return bool(ratio <= 1.0), float(ratio), message

    def residual(self, outputs):
        raise NotImplementedError


class ClosedFormGate(Gate):
    """N=1 hermitian transport against the literal two-branch closed form."""

    bound = 1e-8  # of max|U|; measured <= 8e-11

    def __init__(self, config, captured=()):
        super().__init__(config)
        from fracrte.transport import energy_density_closed_p1

        xs = config.x_grid()
        params = config.medium()
        self.reference = {t: energy_density_closed_p1(xs, t, params, spec=config.quadrature())
                          for t in self.times}

    def residual(self, outputs):
        worst = 0.0
        for (_t, (_x, u, _raw)), ref in zip(outputs.items(), self.reference.values()):
            worst = max(worst, float(np.max(np.abs(u - ref)) / np.max(np.abs(ref))))
        return worst / self.bound, f"max deviation from closed form {worst:.2e} of max|U|"


class VarianceGate(Gate):
    """Second moment against the variance law (2 v^2 / 3) f[0, 0, a_1].

    f(lambda) = E_alpha(-lambda t^alpha) and a_1 = sigma_t h_1 / 3; the
    second divided difference is summed from the series directly.  The
    grid trapezoid under-resolves the ballistic front at early times, so
    the bound is looser there.
    """

    def bound(self, t):
        return 5e-3 if t < 0.09 else 2e-4  # measured 1.2e-3 at t=0.05, 3e-5 at t>=0.1

    def residual(self, outputs):
        params = self.config.medium()
        if params.sigma_a != 0.0:
            raise ValueError("the variance law here assumes sigma_a = 0")
        alpha = params.alpha
        h1 = 3.0 - (params.sigma_s / params.sigma_t) * params.phase.beta[1]
        a1 = params.sigma_t * h1 / 3.0
        worst, note = 0.0, ""
        for t, (x, u, _raw) in outputs.items():
            s = t**alpha
            dd = math.fsum((-s) ** k * a1 ** (k - 2) / math.gamma(alpha * k + 1.0)
                           for k in range(2, 60))
            expected = 2.0 * params.v**2 / 3.0 * dd
            f = x**2 * u
            got = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))
            rel = abs(got - expected) / expected
            if rel / self.bound(t) >= worst:
                worst, note = rel / self.bound(t), f"variance law off by {rel:.2e} at t={t:g}"
        return worst, note


class SubordinationGate(Gate):
    """Subordinated density against a direct mollified order-alpha solve."""

    bound = 1e-3  # relative L1, the criterion-7 bound; measured 1.6e-7

    def __init__(self, config, captured=()):
        super().__init__(config)
        from fracrte.transport import QuadratureSpec, energy_density

        k_max = 350.0
        spec = QuadratureSpec(k_max=k_max, nodes_per_halfperiod=config.nodes_per_halfperiod,
                              acceleration_order=config.acceleration_order, tail_mode="none")
        field = energy_density(config.x_grid(), self.times, config.medium(), config.N,
                               mode="exact", spec=spec, mollifier_width=6.0 / k_max)
        self.reference = dict(zip(self.times, field.values))

    def residual(self, outputs):
        worst = 0.0
        for (_t, (_x, u, _raw)), ref in zip(outputs.items(), self.reference.values()):
            worst = max(worst, float(np.sum(np.abs(u - ref)) / np.sum(np.abs(ref))))
        return worst / self.bound, f"relative L1 against direct solve {worst:.2e}"


class CTRWGate(Gate):
    """Survival within 3 sigma of E_alpha(-sigma_a t^alpha) and byte-identical reruns.

    The warm-up call's ``simulate_density`` result supplies the survival
    fractions, and that call's CSV values must equal its histogram.  Its
    CSV bytes are then the reference for every other call of the run,
    which uses the same seed.
    """

    even = False  # a histogram is even only up to sampling noise
    capture = ("fracrte.ctrw", "simulate_density")

    def __init__(self, config, captured=()):
        super().__init__(config)
        if len(captured) != 1:
            raise ValueError(f"expected one simulate_density result, got {len(captured)}")
        self.survival = captured[0].survival
        self.values = captured[0].field.values
        self.first_bytes = None

    def survival_ratio(self, survival):
        params = self.config.medium()
        worst = 0.0
        for t, s in zip(self.times, survival):
            p = ml_series(params.alpha, -params.sigma_a * t**params.alpha)
            sigma = math.sqrt(p * (1.0 - p) / self.config.n_walkers)
            worst = max(worst, abs(s - p) / (3.0 * sigma))
        return worst

    def residual(self, outputs):
        raw = tuple(r for _x, _u, r in outputs.values())
        if self.first_bytes is None:
            self.first_bytes = raw
        if raw != self.first_bytes:
            return math.inf, "CSV bytes differ between runs with one seed"
        for (_t, (_x, u, _r)), ref in zip(outputs.items(), self.values):
            if float(np.max(np.abs(u - ref))) > 1e-11 * max(float(np.max(np.abs(ref))), 1e-300):
                return math.inf, "CSV differs from the recorded simulate_density histogram"
        ratio = self.survival_ratio(self.survival)
        return ratio, f"survival at {ratio:.2f} of its 3-sigma band"


GATES = {
    "transport_wide": ClosedFormGate,
    "transport_pn": VarianceGate,
    "subordinate": SubordinationGate,
    "ctrw": CTRWGate,
}
