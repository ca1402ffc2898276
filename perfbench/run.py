"""fracrte benchmark: CLI wall time on four seeded workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json:
import time of a fresh interpreter (``setup_s``), wall time of fresh
``python -m fracrte.cli`` processes (``cli_s``), warm in-process
``fracrte.cli.main`` calls (``solve_s``) and the peak RSS of the process
that ran them.  With ``--trace 1`` it times untraced and traced warm calls
and reports the per-layer metrics, with the tracing overhead.  Every
output is checked by the workload's gate (perfbench/gates.py).  The last
line of standard output is one JSON object with the results.

The CLI runs with its defaults: ``--threads`` is never passed and
``FRACRTE_THREADS`` is removed from the children's environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# base argv and observation times; the seed jitters each time by up to 5 %
WORKLOADS = {
    "transport_wide": (["transport", "--alpha", "0.5", "--n-x", "801"], (0.01, 0.05, 0.1)),
    "transport_pn": (["transport", "--alpha", "0.75", "--N", "15", "--mode", "exact",
                      "--n-x", "161"], (0.05, 0.1, 0.2)),
    "subordinate": (["subordinate", "--alpha", "0.95", "--n-x", "41"], (0.05,)),
    "ctrw": (["ctrw", "--alpha", "0.9", "--sigma-s", "9", "--sigma-a", "1",
              "--n-walkers", "200000", "--tau", "1e-4"], (0.02, 0.05)),
}

MIN_ROUNDS = 3  # samples of each timed metric per run, however long a call takes


def workload_argv(name, seed):
    """CLI argv for a workload: the seed moves each time by up to +-5 %."""
    base, times = WORKLOADS[name]
    rng = random.Random(seed)
    jittered = [f"{t * (1.0 + rng.uniform(-0.05, 0.05)):.6g}" for t in times]
    argv = base + ["--t", ",".join(jittered)]
    if name == "ctrw":
        argv += ["--seed", str(seed % 2**32)]
    return argv


def child_env():
    env = dict(os.environ)
    env.pop("FRACRTE_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_run(cmd, env, timeout=120):
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name, values, unit, what):
    q1, med, q3 = quartiles(values)
    print(f"{name:<12} {med:.4f} {unit:<3} median of {len(values)} {what}"
          f"  [q1 {q1:.4f}, q3 {q3:.4f}]")
    return med


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def layer_metrics(call_summary):
    """Derived per-layer values of one traced call."""
    m = dict(call_summary)
    nodes = m.get("subordination.build_kernel.nodes", 0)
    m["subordination.kernel_nodes"] = nodes
    m["subordination.nodes_used_frac"] = (m.get("transport.reduce.calls", 0) / nodes
                                          if nodes else 0.0)
    steps = m.get("ctrw.sample_waiting_time.calls", 0)
    events = m.get("ctrw.sample_waiting_time.events", 0)
    busy = m.get("ctrw.simulate_density.busy_s", 0.0)
    m["ctrw.renewal_steps"] = steps
    m["ctrw.events"] = events
    m["ctrw.events_per_step"] = events / steps if steps else 0.0
    m["ctrw.events_per_s"] = events / busy if busy else 0.0
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fracrte", "cli.py")):
        sys.exit(f"error: no fracrte sources under {os.path.join(ROOT, 'src')}")
    end_to_end, per_layer = load_metric_specs()

    env = child_env()
    python = sys.executable
    argv = workload_argv(args.workload, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("argv: fracrte " + " ".join(argv))

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch_root)
    try:
        metrics, attempted, failures, worker = measure(args, argv, env, python, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    meta = worker["meta"]
    print(f"meta: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={meta['python']} numpy={meta['numpy']} scipy={meta['scipy']} "
          f"blas={meta['blas']} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"failed_frac  {len(failures) / attempted:.4g} ({len(failures)} of {attempted} calls)")
    print(f"check        resid_ratio {worker['resid_ratio']:.3g} ({worker['check']})")

    wanted = per_layer if args.trace else end_to_end
    if args.trace:
        for spec in per_layer:
            print(f"  {spec['name']:<40} {metrics.get(spec['name'], 0.0):.6g} {spec['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {spec["name"]: {"value": _finite(metrics.get(spec["name"], 0.0)),
                                   "unit": spec["unit"]} for spec in wanted},
    }
    print(json.dumps(result))


def _finite(value):
    value = float(value)
    return value if math.isfinite(value) else 1e300


class Worker:
    """The warm-call process (perfbench/worker.py), driven one command at a time."""

    def __init__(self, python, env, job_path, log_path):
        self.log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen([python, os.path.join(HERE, "worker.py"), job_path],
                                         env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            self._expect("ready")
        except BaseException:
            self.close()
            raise

    def _expect(self, key):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            with open(self.log_path, encoding="utf-8") as log:
                tail = log.read()[-3000:]
            raise RuntimeError(f"worker exited ({self.proc.returncode}):\n{tail}")
        reply = json.loads(line)
        if key not in reply:
            raise RuntimeError(f"unexpected worker reply {line!r}")
        return reply

    def send(self, command, key):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._expect(key)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def repeat(step, budget):
    """Call ``step`` MIN_ROUNDS times, then while the next call should end within ``budget`` s."""
    start, last, done = time.perf_counter(), 0.0, 0
    while done < MIN_ROUNDS or (time.perf_counter() - start) + last <= budget:
        step_start = time.perf_counter()
        step()
        last = time.perf_counter() - step_start
        done += 1


def measure(args, argv, env, python, tmp):
    """Run the workload; returns (metrics, calls attempted, failures, worker report).

    Untraced, the run is a sequence of rounds until ``--seconds`` is spent
    (at least MIN_ROUNDS): one fresh CLI process, one fresh import, one
    warm call.  Interleaving gives each metric samples from the whole run
    rather than from one stretch of it.  Traced, half the time goes to
    untraced warm calls and half to traced ones.
    """
    job_path = os.path.join(tmp, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "argv": argv, "tmp": tmp,
                   "src": os.path.join(ROOT, "src")}, fh)
    metrics = {}
    fresh_dirs, failures = [], []
    cli_times, setup_times, warm_times, traced_times, summaries = [], [], [], [], []
    absent = []
    worker = Worker(python, env, job_path, os.path.join(tmp, "worker.log"))

    def fresh_round():
        out_dir = os.path.join(tmp, f"cli{len(cli_times)}")
        elapsed, proc = timed_run(
            [python, "-m", "fracrte.cli"] + argv + ["--output-path", out_dir], env)
        cli_times.append(elapsed)
        if proc.returncode != 0:
            failures.append(f"fresh process exit {proc.returncode}: {proc.stderr[-500:]}")
        else:
            fresh_dirs.append(out_dir)
        elapsed, proc = timed_run([python, "-c", "import fracrte.cli"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import of fracrte.cli failed:\n{proc.stderr[-2000:]}")
        setup_times.append(elapsed)
        warm_call()

    def warm_call():
        warm_times.append(worker.send("call", "elapsed")["elapsed"])

    def traced_call():
        reply = worker.send("call", "summary")
        traced_times.append(reply["elapsed"])
        summaries.append(reply["summary"])

    try:
        if not args.trace:
            repeat(fresh_round, args.seconds)
        else:
            repeat(warm_call, 0.5 * args.seconds)
            absent = worker.send("trace", "absent")["absent"]
            repeat(traced_call, 0.5 * args.seconds)
        report = worker.send("finish " + json.dumps(fresh_dirs), "calls")
    finally:
        worker.close()
    attempted = len(cli_times) + report["calls"]
    failures += report["failures"]

    solve = describe("solve_s", warm_times, "s", "warm calls")
    if not args.trace:
        metrics["setup_s"] = describe("setup_s", setup_times, "s", "fresh imports")
        metrics["cli_s"] = describe("cli_s", cli_times, "s", "fresh CLI processes")
        metrics["solve_s"] = solve
        metrics["peak_rss_mb"] = report["peak_rss_mb"]
        print(f"peak_rss_mb  {report['peak_rss_mb']:.1f} MB  (warm-call process)")
    else:
        from tracer import import_times

        metrics.update(import_times(python, env, ROOT))
        traced = describe("traced", traced_times, "s", "traced warm calls")
        per_call = [layer_metrics(s) for s in summaries]
        for name in set().union(*per_call):
            metrics[name] = statistics.median(c.get(name, 0.0) for c in per_call)
        metrics["trace.solve_s"] = traced
        metrics["trace.untraced_solve_s"] = solve
        metrics["trace.overhead_s"] = traced - solve
        metrics["check.resid_ratio"] = report["resid_ratio"]
        print(f"tracing overhead {traced - solve:+.4f} s per call; "
              f"absent wrap targets: {', '.join(absent) or 'none'}")
    return metrics, attempted, failures, report


if __name__ == "__main__":
    main()
