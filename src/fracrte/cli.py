"""Command-line front end.

Subcommands compute densities (transport, diffusion, ctrw, subordinate),
run the invariant suite (validate), or emit the benchmark figure data
(figures).  Output is CSV with a fixed schema; configuration comes from
flags, optionally layered over a flat key=value file.  ``RunConfig`` is the
one table of both: each field is a key and, with few exceptions, a flag.
Every value, from a flag or the file, is checked when the configuration is
built, whatever the subcommand, and so before anything is written; only
``N``, ``seed``, ``n_walkers`` and ``tau`` are left to the route that reads
them.  The output directory is made when the first CSV is written, so no
run that exits 2 or 4 creates it (``figures`` writes each panel before it
solves the next).

Exit codes: 0 success, 1 validation failure, 2 usage error (including
invalid physical inputs rejected by the library), 3 I/O error, 4 numerical
failure (an eigensolver, resolvent or quadrature that did not converge on
valid input).
"""

from __future__ import annotations

import argparse
import math
import os
import re
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
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|-(inf(inity)?|nan)", re.I)

FIGURE_PANELS = (
    (0.25, (0.0001, 0.0025, 0.01)),
    (0.5, (0.01, 0.05, 0.1)),
    (0.75, (0.05, 0.1, 0.2)),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (defaults are the benchmark medium).

    Each field but ``subcommand`` and ``acceleration_order`` is the flag
    ``--<name>`` with dashes for underscores, unless its metadata names
    another ``flag``; every field is a config-file key.  Construction checks
    the values, whatever the subcommand: the grid, times, mode and
    subcommand here, the medium and the quadrature by building them once.
    """

    subcommand: str = field(default="transport", metadata={"flag": None})
    alpha: float = 0.5
    v: float = 1.0
    sigma_s: float = 10.0
    sigma_a: float = 0.0
    g: float = field(default=0.9, metadata={"help": "anisotropy factor; sets beta_1 = 3g"})
    beta: tuple = field(default=(), metadata={
        "help": "comma-separated kernel coefficients beta_0,beta_1,..."})
    N: int = field(default=1, metadata={"help": "truncation order"})
    x_min: float = -2.0
    x_max: float = 2.0
    n_x: int = 81
    times: tuple = field(default=(0.05,), metadata={"flag": "--t",
                                                    "help": "comma-separated times"})
    k_max: float = 0.0  # 0 means automatic
    nodes_per_halfperiod: int = 16  # Gauss nodes per panel
    # ignored (see QuadratureSpec); a file key only, since perfbench/gates.py reads it
    acceleration_order: int = field(default=8, metadata={"flag": None})
    tail_mode: str = "asymptotic_subtraction"
    mode: str = "hermitian"
    seed: int = 1
    n_walkers: int = 100000
    tau: float = 1e-4
    output_path: str = "."

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if not (self.n_x >= 2 and -math.inf < self.x_min < self.x_max < math.inf):
            raise ValueError("grid requires n_x >= 2 and finite x_min < x_max")
        ts = tuple(self.times)
        if not (ts and 0 < ts[0] and ts[-1] < math.inf
                and all(b > a for a, b in zip(ts, ts[1:]))):
            raise ValueError("times must be non-empty, positive, finite and strictly increasing")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        phase = PhaseFunction(self.beta) if self.beta else PhaseFunction.linear(self.g)
        # not fields: they are built from the fields, once
        object.__setattr__(self, "_medium", MediumParams(
            alpha=self.alpha, v=self.v, sigma_s=self.sigma_s, sigma_a=self.sigma_a, phase=phase))
        object.__setattr__(self, "_quadrature", QuadratureSpec(
            k_max=self.k_max or None, nodes_per_halfperiod=self.nodes_per_halfperiod,
            tail_mode=self.tail_mode))

    def medium(self):
        return self._medium

    def quadrature(self):
        return self._quadrature

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
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key=value configuration file")
    for f in fields(RunConfig):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if flag:
            parser.add_argument(flag, dest=f.name, help=f.metadata.get("help"))
    args = vars(parser.parse_args(_attach_negative_values(argv)))
    config_file = args.pop("config")
    values = load_config_file(config_file) if config_file else {}
    values.update((key, _parse_value(key, raw)) for key, raw in args.items() if raw is not None)
    return RunConfig(**values)


def _attach_negative_values(argv):
    """Write ``--flag -1e-3`` as ``--flag=-1e-3``: argparse takes a token that starts
    with '-' for a value only in the forms -1 and -0.5, not -1e-3, -inf or -nan.
    Every long flag takes one value but --help, which is left alone, as is its prefix."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
                and _NEGATIVE.fullmatch(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _write_csv(path, xs, values, method, config, t, mode):
    suffix = f",{method},{config.alpha:.12g},{t:.12g},{config.N},{mode}\n"
    rows = zip(np.asarray(xs).tolist(), np.asarray(values).tolist())
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n" + "".join(f"{x:.12g},{u:.12g}{suffix}" for x, u in rows))
    return path


def _write_per_time(out_dir, name, config, xs, values, method, mode):
    """One CSV per observation time, ``<name>_alpha<alpha>_t<t>.csv``, with t at the
    12 significant digits of the CSV's own t column."""
    return [_write_csv(os.path.join(out_dir, f"{name}_alpha{config.alpha:g}_t{t:.12g}.csv"),
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
    from .specfun import _MAX_TERMS, _RTOL, _m_wright_series, _m_wright_zolotarev, mittag_leffler
    from .spectral import assemble_operator, critical_wavenumber, decompose, hermitian_mode_weights
    from .subordination import build_kernel
    from .transport import (ballistic_coefficients, evolve_coefficients,
                            scattered_coefficients)

    checks = []
    z = np.linspace(0.0, 1.0, 9) * np.exp(1j * np.linspace(-np.pi, np.pi, 17))[:, None]
    taylor = sum(z**n / math.gamma(0.5 * n + 1.0) for n in range(60))
    checks.append(("half-order contour matches Taylor series on unit disc",
                   float(np.max(np.abs(mittag_leffler(0.5, z) - taylor))) < 1e-12))
    x = np.linspace(0.5, 2.0, 16)
    series, loss = _m_wright_series(0.75, x, _RTOL, _MAX_TERMS)
    checks.append(("M-Wright series matches Zolotarev integral",
                   not np.any(loss)
                   and float(np.max(np.abs(series / _m_wright_zolotarev(0.75, x) - 1.0))) < 1e-10))
    x = np.linspace(0, 5, 26)
    checks.append(("order-two value matches cosine",
                   float(np.max(np.abs(mittag_leffler(2.0, -x**2) - np.cos(x)))) < 1e-10))
    x = np.geomspace(0.05, 5.0, 9) ** -0.5  # the stable law's t = x^(-1/nu)
    closed = np.exp(-0.25 * x**2) / np.sqrt(np.pi)
    checks.append(("stable kernel closed form matches Zolotarev integral",
                   float(np.max(np.abs(closed / _m_wright_zolotarev(0.5, x) - 1.0))) < 1e-12))

    params = config.medium()
    # the closed form is that of N = 1, which sees the kernel through beta_1 only
    two_moment = replace(params, phase=PhaseFunction(params.phase.beta[:2]))
    k_c = critical_wavenumber(two_moment)
    half_d = 0.5 * two_moment.sigma_s * (1.0 - two_moment.g)
    ks = np.linspace(0.05, 3.0, 12) * k_c
    dec = decompose(assemble_operator(ks, two_moment, 1))
    s = np.sqrt(1 - (ks / k_c) ** 2 + 0j)[:, None] * [1, -1]
    lam_ref = two_moment.sigma_a + half_d * (1 + s)
    eig_miss = np.max(np.abs(np.sort(dec.eigenvalues, axis=1) - np.sort(lam_ref, axis=1)))
    mass_miss = np.max(np.abs(np.sum(hermitian_mode_weights(dec), axis=1) - 1.0))
    checks.append(("two-moment eigenvalues match closed form",
                   float(eig_miss) < 1e-9 and float(mass_miss) < 1e-10))

    rng = np.random.default_rng(config.seed)
    ok_split = True
    n_split = max(3, params.phase.degree)
    for _ in range(10):
        k = rng.uniform(0.05, 8.0)
        t = rng.uniform(0.01, 1.0)
        mu0 = rng.uniform(-1, 1)
        cb = ballistic_coefficients(k, t, mu0, n_split, params).c
        cs = scattered_coefficients(k, t, mu0, n_split, params).c
        cf = evolve_coefficients(k, t, mu0, n_split, params).c
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


# the one list of subcommands: the parser's choices, RunConfig's check and run()'s
# dispatch; every entry but validate writes CSVs under an output directory
SUBCOMMANDS = {"transport": _run_transport, "diffusion": _run_diffusion, "ctrw": _run_ctrw,
               "subordinate": _run_subordinate, "validate": _run_validate,
               "figures": _run_figures}


def run(config):
    """Execute a resolved configuration; returns the process exit status."""
    if config.subcommand == "validate":
        return 0 if _run_validate(config) else 1
    try:
        paths = SUBCOMMANDS[config.subcommand](config, config.output_path)
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
