"""Command-line front end.

Subcommands compute densities (transport, diffusion, ctrw, subordinate),
run the invariant suite (validate), or emit the benchmark figure data
(figures).  Output is CSV with a fixed schema; configuration comes from
flags, optionally layered over a flat key=value file.

Exit codes: 0 success, 1 validation failure, 2 usage error (including
invalid physical inputs rejected by the library), 3 I/O error, 4 numerical
failure (an eigensolver, resolvent or quadrature that did not converge on
valid input).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .diffusion import DiffusionParams, diffusion_density_mwright, diffusion_density_quadrature
from .errors import NumericalError
from .legendre import PhaseFunction
from .spectral import MediumParams
from .subordination import subordinated_energy_density
from .transport import MODES, QuadratureSpec, energy_density

CSV_HEADER = "x,U,method,alpha,t,N,mode"

FIGURE_PANELS = (
    (0.25, (0.0001, 0.0025, 0.01)),
    (0.5, (0.01, 0.05, 0.1)),
    (0.75, (0.05, 0.1, 0.2)),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (defaults are the benchmark medium)."""

    subcommand: str = "transport"
    alpha: float = 0.5
    v: float = 1.0
    sigma_s: float = 10.0
    sigma_a: float = 0.0
    g: float = 0.9
    beta: tuple = ()
    N: int = 1
    x_min: float = -2.0
    x_max: float = 2.0
    n_x: int = 81
    times: tuple = (0.05,)
    k_max: float = 0.0  # 0 means automatic
    nodes_per_halfperiod: int = 16  # Gauss nodes per panel
    acceleration_order: int = 8  # ignored (see QuadratureSpec); perfbench/gates.py reads it
    tail_mode: str = "asymptotic_subtraction"
    mode: str = "hermitian"
    seed: int = 1
    n_walkers: int = 100000
    tau: float = 1e-4
    output_path: str = "."

    def __post_init__(self):
        if self.subcommand not in ("transport", "diffusion", "ctrw", "subordinate",
                                   "validate", "figures"):
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.n_x < 2 or not self.x_min < self.x_max:
            raise ValueError("grid requires n_x >= 2 and x_min < x_max")
        ts = tuple(self.times)
        if any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be positive and strictly increasing")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    def medium(self):
        if self.beta:
            phase = PhaseFunction(self.beta)
        else:
            phase = PhaseFunction.linear(self.g)
        return MediumParams(alpha=self.alpha, v=self.v, sigma_s=self.sigma_s,
                            sigma_a=self.sigma_a, phase=phase)

    def quadrature(self):
        return QuadratureSpec(
            k_max=self.k_max if self.k_max > 0 else None,
            nodes_per_halfperiod=self.nodes_per_halfperiod,
            tail_mode=self.tail_mode,
        )

    def x_grid(self):
        return np.linspace(self.x_min, self.x_max, self.n_x)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _parse_value(key, raw):
    """Parse a flag or file value by the type of its RunConfig default; tuples hold floats."""
    kind = type(_DEFAULTS[key])
    try:
        if kind is tuple:
            return tuple(float(p) for p in str(raw).replace(",", " ").split())
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None


def load_config_file(path):
    """Read flat key=value lines ('#' starts a comment) into a dict."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def emit_config(config):
    """Serialize a config as key=value text; inverse of the file loader."""
    lines = []
    for f in fields(RunConfig):
        val = getattr(config, f.name)
        if isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        lines.append(f"{f.name}={val}")
    return "\n".join(lines) + "\n"


def parse_config(argv):
    """Resolve a RunConfig: flags override file values override defaults."""
    parser = argparse.ArgumentParser(
        prog="fracrte",
        description="Fractional-in-time transport in a 1D slab: spectral solver, "
                    "diffusion limit, random-walk sampler, subordination.",
    )
    parser.add_argument("subcommand",
                        choices=["transport", "diffusion", "ctrw", "subordinate",
                                 "validate", "figures"])
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--alpha")
    parser.add_argument("--v")
    parser.add_argument("--sigma-s", dest="sigma_s")
    parser.add_argument("--sigma-a", dest="sigma_a")
    parser.add_argument("--g", help="anisotropy factor; sets beta_1 = 3g")
    parser.add_argument("--beta", help="comma-separated kernel coefficients beta_0,beta_1,...")
    parser.add_argument("--N", help="truncation order")
    parser.add_argument("--x-min", dest="x_min")
    parser.add_argument("--x-max", dest="x_max")
    parser.add_argument("--n-x", dest="n_x")
    parser.add_argument("--t", dest="times", help="comma-separated times")
    parser.add_argument("--k-max", dest="k_max")
    parser.add_argument("--nodes-per-halfperiod", dest="nodes_per_halfperiod")
    parser.add_argument("--tail-mode", dest="tail_mode",
                        choices=["none", "asymptotic_subtraction"])
    parser.add_argument("--mode", choices=list(MODES))
    parser.add_argument("--seed")
    parser.add_argument("--n-walkers", dest="n_walkers")
    parser.add_argument("--tau")
    parser.add_argument("--output-path", dest="output_path")
    args = parser.parse_args(argv)

    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for f in fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = _parse_value(f.name, flag_val)
    values["subcommand"] = args.subcommand
    return RunConfig(**values)


def _write_csv(path, xs, values, method, config, t, mode):
    suffix = f",{method},{config.alpha:.12g},{t:.12g},{config.N},{mode}\n"
    rows = zip(np.asarray(xs).tolist(), np.asarray(values).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n" + "".join(f"{x:.12g},{u:.12g}{suffix}" for x, u in rows))
    return path


def _write_per_time(out_dir, name, config, xs, values, method, mode):
    """One CSV per observation time, ``<name>_alpha<alpha>_t<t>.csv``."""
    return [_write_csv(os.path.join(out_dir, f"{name}_alpha{config.alpha:g}_t{t:g}.csv"),
                       xs, vals, method, config, t, mode)
            for t, vals in zip(config.times, values)]


def _run_transport(config, out_dir):
    xs = config.x_grid()
    df = energy_density(xs, config.times, config.medium(), config.N, mode=config.mode,
                        spec=config.quadrature())
    return _write_per_time(out_dir, "transport", config, xs, df.values, config.mode,
                           config.mode)


def _run_diffusion(config, out_dir):
    dp = DiffusionParams.from_medium(config.medium())
    xs = config.x_grid()
    if dp.sigma_a == 0.0:
        values = [diffusion_density_mwright(xs, t, dp) for t in config.times]
    else:
        values = [diffusion_density_quadrature(xs, t, dp) for t in config.times]
    return _write_per_time(out_dir, "diffusion", config, xs, values, "diffusion", config.mode)


def _run_ctrw(config, out_dir):
    from .ctrw import simulate_density

    xs = config.x_grid()
    res = simulate_density(config.n_walkers, config.times, xs, config.medium(),
                           config.tau, config.seed)
    return _write_per_time(out_dir, "ctrw", config, xs, res.field.values, "ctrw", config.mode)


def _run_subordinate(config, out_dir):
    xs = config.x_grid()
    df = subordinated_energy_density(xs, config.times, config.medium(), config.N,
                                     spec=config.quadrature())
    return _write_per_time(out_dir, "subordinate", config, xs, df.values, "subordinate",
                           "exact")


def _run_figures(config, out_dir):
    paths = []
    for alpha, times in FIGURE_PANELS:
        cfg = replace(config, alpha=alpha, times=times, x_min=-2.0, x_max=2.0)
        params = cfg.medium()
        xs = cfg.x_grid()
        df = energy_density(xs, times, params, cfg.N, mode=cfg.mode,
                            spec=cfg.quadrature())
        dp = DiffusionParams.from_medium(params)
        for t, u_t in zip(times, df.values):
            stem = os.path.join(out_dir, f"figures_alpha{alpha:g}_t{t:g}")
            paths.append(_write_csv(f"{stem}_transport.csv", xs, u_t, cfg.mode, cfg, t,
                                    cfg.mode))
            paths.append(_write_csv(f"{stem}_diffusion.csv", xs,
                                    diffusion_density_mwright(xs, t, dp), "diffusion",
                                    cfg, t, cfg.mode))
    return paths


def _run_validate(config):
    """Fast invariant sweep; prints one pass/fail line per check."""
    from .specfun import (_MAX_TERMS, _RTOL, _m_wright_series, _stable_zolotarev, f_alpha_half,
                          mittag_leffler)
    from .spectral import assemble_operator, critical_wavenumber, decompose, hermitian_mode_weights
    from .subordination import build_kernel
    from .transport import (ballistic_coefficients, evolve_coefficients,
                            scattered_coefficients)

    checks = []
    z = np.linspace(0.0, 1.0, 9) * np.exp(1j * np.linspace(-np.pi, np.pi, 17))[:, None]
    taylor = sum(z**n / math.gamma(0.5 * n + 1.0) for n in range(60))
    checks.append(("half-order contour matches Taylor series on unit disc",
                   float(np.max(np.abs(mittag_leffler(0.5, z) - taylor))) < 1e-12))
    t = np.linspace(0.5, 2.0, 16) ** (-4.0 / 3.0)  # M_nu(x) = t^(nu+1) f_nu(t) / nu, x = t^-nu
    series, loss = _m_wright_series(0.75, t**-0.75, _RTOL, _MAX_TERMS)
    kernel = _stable_zolotarev(0.75, t) * t**1.75 / 0.75
    checks.append(("M-Wright series matches Zolotarev integral",
                   not np.any(loss) and float(np.max(np.abs(series / kernel - 1.0))) < 1e-10))
    x = np.linspace(0, 5, 26)
    checks.append(("order-two value matches cosine",
                   float(np.max(np.abs(mittag_leffler(2.0, -x**2) - np.cos(x)))) < 1e-10))
    t = np.geomspace(0.05, 5.0, 9)
    checks.append(("stable kernel closed form matches Zolotarev integral",
                   float(np.max(np.abs(f_alpha_half(t) / _stable_zolotarev(0.5, t) - 1.0)))
                   < 1e-12))

    params = config.medium()
    k_c = critical_wavenumber(params)
    half_d = 0.5 * params.sigma_s * (1.0 - params.g)
    ks = np.linspace(0.05, 3.0, 12) * k_c
    ok_eig = True
    for k in ks:
        dec = decompose(assemble_operator(float(k), params, 1))
        s = np.sqrt(complex(1 - (k / k_c) ** 2))
        lam_ref = sorted([params.sigma_a + half_d * (1 + s), params.sigma_a + half_d * (1 - s)],
                         key=lambda v: (round(v.real, 9), v.imag))
        lam_got = sorted(dec.eigenvalues, key=lambda v: (round(v.real, 9), v.imag))
        ok_eig &= max(abs(a - b) for a, b in zip(lam_got, lam_ref)) < 1e-9
        ok_eig &= abs(np.sum(hermitian_mode_weights(dec)) - 1.0) < 1e-10
    checks.append(("two-moment eigenvalues match closed form", bool(ok_eig)))

    rng = np.random.default_rng(config.seed)
    ok_split = True
    for _ in range(10):
        k = rng.uniform(0.05, 8.0)
        t = rng.uniform(0.01, 1.0)
        mu0 = rng.uniform(-1, 1)
        cb = ballistic_coefficients(k, t, mu0, 3, params).c
        cs = scattered_coefficients(k, t, mu0, 3, params).c
        cf = evolve_coefficients(k, t, mu0, 3, params).c
        ok_split &= float(np.linalg.norm(cb + cs - cf)) < 1e-8
    checks.append(("ballistic plus scattered equals full", bool(ok_split)))

    if 0.0 < config.alpha < 1.0:  # lam = 0 is the unit mass
        t, lam = max(config.times[0], 1e-3), np.array([0.0, 2.0, 12 + 350j, 5 - 120j, 350j])
        kernel = build_kernel(t, config.alpha, lam_max=350.0)
        fold = np.exp(np.multiply.outer(lam, -kernel.nodes)) @ kernel.weights
        ml = mittag_leffler(config.alpha, -lam * t**config.alpha)
        checks.append(("subordination kernel has unit mass and folds to Mittag-Leffler",
                       float(np.max(np.abs(fold - ml))) < 1e-8))

    dp = DiffusionParams.from_medium(params)
    if dp.sigma_a == 0:
        t = config.times[0]
        xs = np.linspace(0, 2, 9)
        mw = diffusion_density_mwright(xs, t, dp)
        qd = diffusion_density_quadrature(xs, t, dp)
        checks.append(("diffusion quadrature matches closed form",
                       float(np.max(np.abs(mw - qd) / (1 + np.abs(mw)))) < 1e-6))

    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return failed == 0


def run(config):
    """Execute a resolved configuration; returns the process exit status."""
    if config.subcommand == "validate":
        return 0 if _run_validate(config) else 1
    out_dir = config.output_path
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".fracrte_write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: output path not writable: {exc}", file=sys.stderr)
        return 3
    try:
        if config.subcommand == "transport":
            paths = _run_transport(config, out_dir)
        elif config.subcommand == "diffusion":
            paths = _run_diffusion(config, out_dir)
        elif config.subcommand == "ctrw":
            paths = _run_ctrw(config, out_dir)
        elif config.subcommand == "subordinate":
            paths = _run_subordinate(config, out_dir)
        else:
            paths = _run_figures(config, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # run() reports its own I/O failures (exit 3)
    try:
        return run(parse_config(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
