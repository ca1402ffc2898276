"""The benchmark's correctness gates, run against this source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_check_gates_passes():
    # the gates read RunConfig.acceleration_order and nodes_per_halfperiod,
    # QuadratureSpec(tail_mode="none") and energy_density_closed_p1(spec=),
    # and rerun ctrw for byte-identical CSVs; a change that breaks any of
    # them fails here, before a benchmark run
    proc = subprocess.run([sys.executable, "perfbench/check_gates.py", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
