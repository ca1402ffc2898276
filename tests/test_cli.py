"""Command-line interface: config resolution, CSV schema, determinism."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracrte.cli import (
    CSV_HEADER,
    RunConfig,
    _write_csv,
    emit_config,
    load_config_file,
    main,
    parse_config,
)


class TestParseConfig:
    def test_defaults_are_benchmark_medium(self):
        cfg = parse_config(["transport"])
        assert cfg.alpha == 0.5
        assert cfg.v == 1.0
        assert cfg.sigma_s == 10.0
        assert cfg.sigma_a == 0.0
        assert cfg.g == 0.9
        assert cfg.N == 1
        assert cfg.mode == "hermitian"
        m = cfg.medium()
        assert m.phase.beta == (1.0, 2.7)

    def test_times_flag(self):
        cfg = parse_config(["transport", "--alpha", "0.5", "--t", "0.01,0.05,0.1"])
        assert cfg.times == (0.01, 0.05, 0.1)

    def test_alpha_out_of_range_is_usage_error(self, capsys):
        assert main(["transport", "--alpha", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, raw, key", [
        ("--n-x", "3.5", "n_x"),
        ("--tau", "x", "tau"),
        ("--t", "0.1,a", "times"),
    ])
    def test_unparsable_value_is_usage_error(self, flag, raw, key, capsys):
        # every flag is parsed by the type of its RunConfig default
        assert main(["transport", flag, raw]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: cannot parse")

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense=1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(str(p))

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha=0.25\nsigma_s=5.0\n# comment line\n")
        cfg = parse_config(["transport", "--config", str(p), "--alpha", "0.75"])
        assert cfg.alpha == 0.75
        assert cfg.sigma_s == 5.0

    def test_round_trip(self, tmp_path):
        cfg = parse_config(["diffusion", "--alpha", "0.25", "--t", "0.01,0.1",
                            "--n-x", "33", "--seed", "5"])
        p = tmp_path / "emitted.cfg"
        p.write_text(emit_config(cfg))
        values = load_config_file(str(p))
        assert RunConfig(**values) == cfg


class TestRun:
    def test_transport_csv_schema(self, tmp_path):
        code = main(["transport", "--alpha", "0.5", "--t", "0.02,0.05",
                     "--n-x", "11", "--x-min", "-1", "--x-max", "1",
                     "--output-path", str(tmp_path)])
        assert code == 0
        for t in ("0.02", "0.05"):
            path = tmp_path / f"transport_alpha0.5_t{t}.csv"
            lines = path.read_text().strip().splitlines()
            assert lines[0] == CSV_HEADER
            assert len(lines) == 12  # header + n_x rows
            first = lines[1].split(",")
            assert len(first) == 7
            assert first[2] == "hermitian"

    def test_diffusion_gaussian_values(self, tmp_path):
        code = main(["diffusion", "--alpha", "1", "--t", "0.01", "--n-x", "9",
                     "--x-min", "-0.5", "--x-max", "0.5",
                     "--output-path", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "diffusion_alpha1_t0.01.csv").read_text().strip().splitlines()
        for row in lines[1:]:
            x, u = float(row.split(",")[0]), float(row.split(",")[1])
            ref = np.exp(-x**2 / (4 * (1 / 3) * 0.01)) / np.sqrt(4 * np.pi * (1 / 3) * 0.01)
            assert u == pytest.approx(ref, rel=1e-8)

    def test_ctrw_seed_byte_determinism(self, tmp_path):
        args = ["ctrw", "--seed", "7", "--n-walkers", "20000", "--t", "0.02",
                "--n-x", "21"]
        main(args + ["--output-path", str(tmp_path / "a")])
        main(args + ["--output-path", str(tmp_path / "b")])
        fa = (tmp_path / "a" / "ctrw_alpha0.5_t0.02.csv").read_bytes()
        fb = (tmp_path / "b" / "ctrw_alpha0.5_t0.02.csv").read_bytes()
        assert fa == fb

    def test_csv_bytes_match_per_row_format(self, tmp_path):
        # the rows are written from lists in one join; the bytes equal those
        # of one f-string per row on the arrays' own elements
        rng = np.random.default_rng(3)
        xs = np.r_[rng.normal(size=200), -0.0, 5e-324, 1e300, -1e300, 0.1]
        values = np.r_[rng.lognormal(0.0, 30.0, 200), -0.0, 5e-324, 1e300, 7.0, 1.0 / 3.0]
        cfg = RunConfig(alpha=0.75, N=15)
        cases = [(xs, values, 0.05), (np.arange(-3, 4), np.arange(7) * 10**9, 1e-3)]
        for i, (x, u, t) in enumerate(cases):
            path = tmp_path / f"{i}.csv"
            _write_csv(str(path), x, u, "exact", cfg, t, "exact")
            expected = CSV_HEADER + "\n" + "".join(
                f"{a:.12g},{b:.12g},exact,{cfg.alpha:.12g},{t:.12g},{cfg.N},exact\n"
                for a, b in zip(x, u))
            assert path.read_bytes() == expected.encode("utf-8")

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("")  # a file where a directory is required
        code = main(["transport", "--t", "0.02", "--n-x", "5",
                     "--output-path", str(target)])
        assert code == 3

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "fracrte.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "transport" in out.stdout

    def test_import_skips_scipy_integrate(self, tmp_path, tmp_path_factory):
        # no route needs scipy.integrate or scipy.special, and importing
        # either slows every CLI start; ctrw, transport and subordinate
        # load neither
        probe = "print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)"
        ctrw = ["ctrw", "--n-walkers", "500", "--t", "0.01", "--n-x", "5",
                "--output-path", str(tmp_path)]
        solved = tmp_path_factory.mktemp("solved")
        solvers = [[name, "--t", "0.05", "--n-x", "5", "--output-path", str(solved)]
                   for name in ("transport", "subordinate")]
        for code in ("import fracrte.cli, sys; " + probe,
                     *(f"import sys; from fracrte.cli import main; main({argv!r}); " + probe
                       for argv in [ctrw] + solvers)):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip().splitlines()[-1] == "False False"
        assert len(list(tmp_path.iterdir())) == 1
        assert len(list(solved.iterdir())) == 2


# A fresh interpreter in which every scipy module fails to import, then the CLI
_WITHOUT_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, _NoScipy())
from fracrte.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["transport", "--t", "0.02,0.05", "--n-x", "5"],
    ["subordinate", "--t", "0.05", "--n-x", "5"],
    ["diffusion", "--t", "0.02,0.05", "--n-x", "5"],
    ["diffusion", "--t", "0.05", "--n-x", "5", "--sigma-a", "1", "--alpha", "0.8"],
])
def test_runs_without_scipy(argv, tmp_path):
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv,
                          "--output-path", str(tmp_path)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    times = argv[argv.index("--t") + 1].split(",")
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv"] * len(times)


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
    for path in (root / "src" / "fracrte").glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(), re.M), path


@pytest.mark.slow
def test_validate_subcommand_passes():
    assert main(["validate", "--alpha", "0.5", "--t", "0.05"]) == 0


@pytest.mark.slow
def test_validate_catches_a_wrong_contour(monkeypatch, capsys):
    # the half-order check compares the contour with an independent Taylor
    # sum, so a contour that goes wrong makes validate fail
    import fracrte.specfun as specfun

    right = specfun._ml_parabola
    monkeypatch.setattr(specfun, "_ml_parabola", lambda alpha, z: right(alpha, z) * (1 + 1e-9))
    assert main(["validate", "--alpha", "0.5", "--t", "0.05"]) == 1
    assert "FAIL  half-order contour matches Taylor series on unit disc" in capsys.readouterr().out


@pytest.mark.slow
def test_validate_catches_a_wrong_stable_kernel(monkeypatch, capsys):
    # the closed form f_{1/2} is checked against Zolotarev's integral, so a
    # wrong closed form makes validate fail
    import fracrte.specfun as specfun

    right = specfun.f_alpha_half
    monkeypatch.setattr(specfun, "f_alpha_half", lambda t: right(t) * (1 + 1e-9))
    assert main(["validate", "--alpha", "0.5", "--t", "0.05"]) == 1
    assert "FAIL  stable kernel closed form matches Zolotarev integral" in capsys.readouterr().out


@pytest.mark.slow
def test_validate_catches_a_wrong_subordination_kernel(monkeypatch, capsys):
    # the kernel check folds exp(-lam tau) against Mittag-Leffler, so a rule
    # with wrongly scaled nodes fails it, although its mass is still one
    from dataclasses import replace

    import fracrte.subordination as subordination

    right = subordination.build_kernel

    def stretched(*args, **kwargs):
        kernel = right(*args, **kwargs)
        return replace(kernel, nodes=kernel.nodes * (1 + 1e-6))

    monkeypatch.setattr(subordination, "build_kernel", stretched)
    assert main(["validate", "--alpha", "0.5", "--t", "0.05"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  subordination kernel has unit mass and folds to Mittag-Leffler" in out


@pytest.mark.slow
@pytest.mark.parametrize("flags", [["--v", "2"], ["--sigma-a", "1"]])
def test_validate_off_default_medium(flags, capsys):
    # the two-moment eigenvalue check holds for any speed and absorption
    assert main(["validate", "--alpha", "0.5", "--t", "0.05"] + flags) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["transport", "--N", "0"],
    ["transport", "--g", "1.5"],
    ["subordinate", "--alpha", "1"],
    ["ctrw", "--n-walkers", "0"],
])
def test_invalid_physical_input_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--output-path", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_numerical_failure_exit_code(tmp_path, capsys):
    # at this tiny order t / tau^(1/alpha) overflows on the subordination
    # kernel's lowest nodes: valid input past a numerical limit
    argv = ["subordinate", "--alpha", "0.03", "--n-x", "5"]
    assert main(argv + ["--output-path", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ")
    assert "alpha=0.03" in err
    assert err.count("\n") == 1


def test_tiny_order_mittag_leffler_succeeds(tmp_path, capsys):
    # the Mittag-Leffler contour serves alpha = 0.02, where a Taylor series
    # once ran out of terms and this run exited 4
    argv = ["diffusion", "--alpha", "0.02", "--sigma-a", "1", "--n-x", "5"]
    assert main(argv + ["--output-path", str(tmp_path)]) == 0
    values = np.loadtxt(tmp_path / "diffusion_alpha0.02_t0.05.csv", delimiter=",",
                        skiprows=1, usecols=1)
    assert np.all(np.isfinite(values))
    assert capsys.readouterr().err == ""


@pytest.mark.slow
def test_subordinate_subcommand_matches_direct(tmp_path):
    # the subordinated CSV is a genuine density: positive near the source
    # and close in L1 to the direct mollified fractional solve at matching
    # settings (criterion 7's bound)
    from fracrte.spectral import section5_medium
    from fracrte.transport import QuadratureSpec, energy_density

    code = main(["subordinate", "--alpha", "0.5", "--t", "0.05", "--n-x", "41",
                 "--output-path", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "subordinate_alpha0.5_t0.05.csv").read_text().strip().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert vals[len(vals) // 2] > 1.0
    assert np.all(vals[np.abs(xs) < 1.0] > 0)
    spec = QuadratureSpec(k_max=350.0, tail_mode="none")
    direct = energy_density(xs, [0.05], section5_medium(0.5), 1, mode="exact", spec=spec,
                            mollifier_width=6.0 / 350.0).values[0]
    assert np.sum(np.abs(vals - direct)) / np.sum(np.abs(direct)) < 1e-3


@pytest.mark.slow
def test_figures_emits_all_panels(tmp_path):
    code = main(["figures", "--n-x", "81", "--output-path", str(tmp_path)])
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert len(names) == 18  # nine panels, transport + diffusion each
    for alpha, times in ((0.25, ("0.0001", "0.0025", "0.01")),
                         (0.5, ("0.01", "0.05", "0.1")),
                         (0.75, ("0.05", "0.1", "0.2"))):
        for t in times:
            assert f"figures_alpha{alpha}_t{t}_transport.csv" in names
            assert f"figures_alpha{alpha}_t{t}_diffusion.csv" in names
    # the late strongly-super-diffusive panel shows the double peak: an
    # interior local minimum at the origin flanked by symmetric maxima
    rows = (tmp_path / "figures_alpha0.75_t0.2_transport.csv").read_text().strip().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    i0 = int(np.argmin(np.abs(xs)))
    ipeak = int(np.argmax(vals))
    assert abs(xs[ipeak]) > 0.05
    assert vals[ipeak] > vals[i0] * 1.02
