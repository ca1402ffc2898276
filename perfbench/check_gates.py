"""Negative tests of the correctness gates: perturbed outputs must be flagged.

Usage (from the root of a source checkout): python3 perfbench/check_gates.py [SEED]

For each workload this runs the CLI once in-process, checks that the
genuine output passes its gate, then checks that every perturbation in
the table below fails it.  Exits 1 if any genuine output fails or any
perturbed output passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fracrte.cli as cli  # noqa: E402
from gates import GATES, capturing, read_outputs  # noqa: E402
from run import WORKLOADS, workload_argv  # noqa: E402


def _map_u(outputs, fn):
    return {t: (x, fn(u.copy()), raw) for t, (x, u, raw) in outputs.items()}


def _bump_first(u):
    u[0] += 1e-6 * np.max(np.abs(u))
    return u


def _nan_middle(u):
    u[u.size // 2] = np.nan
    return u


def _flip_byte(outputs):
    t0 = next(iter(outputs))
    x, u, raw = outputs[t0]
    changed = dict(outputs)
    changed[t0] = (x, u, raw.replace(b",ctrw,", b",ctrw ,", 1))
    return changed


COMMON = {
    "one value 1e-6 of max off (uneven)": lambda o: _map_u(o, _bump_first),
    "a NaN": lambda o: _map_u(o, _nan_middle),
    "a time missing": lambda o: dict(list(o.items())[1:]) if len(o) > 1 else {},
}

PERTURBATIONS = {
    "transport_wide": {
        "all values scaled by 1 + 1e-6": lambda o: _map_u(o, lambda u: u * (1 + 1e-6)),
    },
    "transport_pn": {"all values scaled by 1.01": lambda o: _map_u(o, lambda u: u * 1.01)},
    "subordinate": {"all values scaled by 1.01": lambda o: _map_u(o, lambda u: u * 1.01)},
    "ctrw": {"one CSV byte changed": _flip_byte},
}


def main(seed=1):
    bad = 0
    for workload in WORKLOADS:
        argv = workload_argv(workload, seed)
        gate_class = GATES[workload]
        with tempfile.TemporaryDirectory() as out_dir:
            with contextlib.redirect_stdout(io.StringIO()), \
                    capturing(gate_class.capture) as captured:
                status = cli.main(argv + ["--output-path", out_dir])
            outputs = read_outputs(out_dir)
        gate = gate_class(cli.parse_config(argv), captured)
        ok, ratio, message = gate.check(outputs)
        print(f"{workload:<15} genuine output: {'pass' if ok else 'FAIL'} "
              f"(ratio {ratio:.3g}, {message})")
        bad += status != 0 or not ok
        for name, perturb in {**COMMON, **PERTURBATIONS[workload]}.items():
            flagged, ratio, message = gate.check(perturb(outputs))
            flagged = not flagged
            print(f"{'':<15} {name}: {'flagged' if flagged else 'NOT FLAGGED'} ({message})")
            bad += not flagged
        if workload == "ctrw":
            sigma = np.sqrt(gate.survival * (1 - gate.survival) / gate.config.n_walkers)
            ratio = gate.survival_ratio(gate.survival + 7.0 * sigma)
            print(f"{'':<15} survival moved by 7 sigma: "
                  f"{'flagged' if ratio > 1 else 'NOT FLAGGED'} (ratio {ratio:.2f})")
            bad += ratio <= 1
    print("all gates behave" if not bad else f"{bad} gate checks misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 1))
