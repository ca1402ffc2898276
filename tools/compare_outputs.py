"""Compare the CLI outputs of two checkouts, workload by workload and seed by seed.

Usage (from anywhere; standard library only):

    python3 tools/compare_outputs.py PARENT CHANGE --seeds 1,7,23,94 \
        [--workload transport_pn ...] [--command "diffusion --alpha 0.5" ...] \
        [--one-cpu] [--tolerance BOUND]

Each benchmark workload (all of them unless ``--workload`` names some) runs
its CLI argv, as ``workload_argv`` in ``perfbench/run.py`` builds it for a
seed, once from each checkout into its own output directory.  Each
``--command`` runs once per checkout as written.  ``--one-cpu`` pins every
CLI process to one CPU.

Per workload and seed it prints ``identical`` when both sides wrote the same
CSV files byte for byte, the same exit status and the same standard output
(output paths aside); otherwise the largest move of U as a share of the
parent's max|U| in that file, with the file and position.  When that move
is at x = 0, the largest move at x != 0 follows it, with its own file and
position.  The exit status is 1 when anything differs; with
``--tolerance BOUND``, only when some run differs otherwise than by moves
of U of at most BOUND of max|U| (the same files, exit status, standard
output and other columns).
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS, module.workload_argv


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def compare_dirs(parent_dir, change_dir):
    """``identical``, or how the CSV files of two output directories differ."""
    return _compare_dirs(parent_dir, change_dir)[0]


def _compare_dirs(parent_dir, change_dir):
    """The verdict of :func:`compare_dirs` and the largest move of U as a share
    of max|U|: 0.0 when identical, None when more than U differs."""
    names = {d: sorted(f for f in os.listdir(d) if f.endswith(".csv"))
             for d in (parent_dir, change_dir)}
    if names[parent_dir] != names[change_dir]:
        only = sorted(set(names[parent_dir]) ^ set(names[change_dir]))
        return "different files: " + ", ".join(only), None
    worst, where, differ = 0.0, None, False
    off_worst, off_where = 0.0, None  # the largest move at x != 0
    for name in names[parent_dir]:
        paths = [os.path.join(d, name) for d in (parent_dir, change_dir)]
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            if a.read() == b.read():
                continue
        differ = True
        rows_p, rows_c = (_read_csv(p) for p in paths)
        strip = [[{k: v for k, v in r.items() if k != "U"} for r in rows]
                 for rows in (rows_p, rows_c)]
        if strip[0] != strip[1]:
            return f"{name}: columns other than U differ", None
        u_p = [float(r["U"]) for r in rows_p]
        u_c = [float(r["U"]) for r in rows_c]
        scale = max(abs(u) for u in u_p) or 1.0
        for row, a, b in zip(rows_p, u_p, u_c):
            move, x = abs(a - b) / scale, row["x"]
            if where is None or move > worst:
                worst, where, at_origin = move, f"{name}, x={x}", float(x) == 0.0
            if float(x) != 0.0 and (off_where is None or move > off_worst):
                off_worst, off_where = move, f"{name}, x={x}"
    if not differ:
        return "identical", 0.0
    verdict = f"largest move {worst:.2g} of max|U| ({where})"
    if at_origin and off_where is not None:
        verdict += f"; off x = 0 {off_worst:.2g} ({off_where})"
    return verdict, worst


def run_cli(checkout, argv, out_dir, one_cpu):
    """Run the CLI of ``checkout`` into ``out_dir``; (exit status, stdout)."""
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    pin = None
    if one_cpu:
        cpu = min(os.sched_getaffinity(0))

        def pin():
            os.sched_setaffinity(0, {cpu})

    proc = subprocess.run([sys.executable, "-m", "fracrte.cli", *argv, "--output-path", out_dir],
                          cwd=checkout, env=env, capture_output=True, text=True,
                          preexec_fn=pin)
    return proc.returncode, proc.stdout.replace(out_dir, "<out>")


def compare_run(parent, change, argv, one_cpu=False):
    """Run ``argv`` in both checkouts; the verdict and largest move of :func:`_compare_dirs`."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, side) for side in ("parent", "change")]
        status_p, out_p = run_cli(parent, argv, dirs[0], one_cpu)
        status_c, out_c = run_cli(change, argv, dirs[1], one_cpu)
        if status_p != status_c:
            return f"exit status {status_p} -> {status_c}", None
        if out_p != out_c:
            return "standard output differs", None
        if not all(os.path.isdir(d) for d in dirs):
            return "identical", 0.0
        return _compare_dirs(*dirs)


def main(argv=None):
    workloads, workload_argv = _load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds (default 1)")
    parser.add_argument("--workload", action="append", choices=sorted(workloads),
                        help="benchmark workload, repeatable (default: all)")
    parser.add_argument("--command", action="append", default=[],
                        help="further CLI argv, run once, repeatable")
    parser.add_argument("--one-cpu", action="store_true", help="pin the CLI to one CPU")
    parser.add_argument("--tolerance", type=float, metavar="BOUND",
                        help="largest move of U accepted, as a share of max|U| "
                             "(default: identical bytes)")
    args = parser.parse_args(argv)

    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = [(f"{name} seed {seed}", workload_argv(name, seed))
            for name in (args.workload or workloads) for seed in seeds]
    runs += [(command, shlex.split(command)) for command in args.command]
    differ = False
    for label, cli_argv in runs:
        verdict, move = compare_run(parent, change, cli_argv, args.one_cpu)
        if args.tolerance is None:
            differ |= verdict != "identical"
        else:
            differ |= move is None or move > args.tolerance
        print(f"{label}: {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
