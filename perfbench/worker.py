"""Warm in-process calls of ``fracrte.cli.main`` for one workload, on command.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, the CLI argv (without ``--output-path``) and
the scratch directory.  The worker imports the CLI, makes one warm-up
call and answers ``ready``.  It then reads one command per line from
standard input and answers each with one JSON line:

``call``    time one ``fracrte.cli.main`` call (a closed loop: the parent
            sends the next command only after the answer);
``trace``   install the tracer; later calls also report their span summary;
``finish DIRS``  read the peak RSS, build the gate's reference, check
            the fresh-process output directories DIRS (a JSON list) and
            every warm call's output, report, and exit.

Idle between commands, the worker uses no CPU, so the parent can time
fresh processes in between.  A gate that needs a library result (the CTRW
survival) records it from the warm-up call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def _blas_name(np):
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _reply(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    import numpy as np
    import scipy

    import fracrte.cli as cli
    from gates import GATES, capturing, read_outputs

    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"fracrte imported from {cli.__file__}, not from {src}")

    out_dirs, statuses = [], []

    def one_call():
        out_dir = os.path.join(job["tmp"], f"warm{len(out_dirs)}")
        out_dirs.append(out_dir)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(job["argv"] + ["--output-path", out_dir])
        except Exception as exc:  # a raising call is a failed call, not a harness crash
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        statuses.append(status)
        return elapsed

    gate_class = GATES[job["workload"]]
    with capturing(gate_class.capture) as captured:
        one_call()  # warm-up: lazy imports, caches, first-touch allocations
    _reply({"ready": True})

    tracer, fresh_dirs = None, []
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "call":
                if tracer is not None:
                    tracer.reset()
                reply = {"elapsed": one_call()}
                if tracer is not None:
                    reply["summary"] = tracer.summary()
                _reply(reply)
            elif command == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
                _reply({"absent": tracer.absent})
            elif command == "finish":
                fresh_dirs = json.loads(argument)
                break
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate = gate_class(cli.parse_config(job["argv"]), captured)
    failures, ratios, message = [], [], "no output checked"
    for out_dir, status in [(d, 0) for d in fresh_dirs] + list(zip(out_dirs, statuses)):
        if status != 0:
            failures.append(f"{out_dir}: exit status {status}")
            continue
        try:
            ok, ratio, message = gate.check(read_outputs(out_dir))
        except (OSError, ValueError, IndexError) as exc:
            ok, ratio, message = False, float("inf"), f"unreadable output: {exc}"
        ratios.append(ratio)
        if not ok:
            failures.append(f"{out_dir}: {message}")
    _reply({
        "peak_rss_mb": peak_rss_mb,
        "calls": len(out_dirs),
        "failures": failures,
        "resid_ratio": max(ratios) if ratios else float("inf"),
        "check": message,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(np),
        },
    })


if __name__ == "__main__":
    main(sys.argv[1])
