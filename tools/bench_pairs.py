"""Run the benchmark on two checkouts in alternating pairs and summarise the end-to-end metrics.

Usage (from anywhere; standard library only):

    python3 tools/bench_pairs.py PARENT CHANGE --workload ctrw:10 \
        --workload transport_wide:6 --claim ctrw:solve_s \
        --description "what the change does" --out BENCH_<n>.json

Each ``--workload NAME[:PAIRS]`` gets PAIRS pairs (default 10) on the seeds
FIRST_SEED, FIRST_SEED + 1, ...  A pair runs
``perfbench/run.py --workload NAME --seed S --seconds SECONDS --trace 0`` once from
each checkout, with that checkout as the working directory; on odd seeds the
parent runs first, on even seeds the change.  The last line of each run's
standard output is its JSON result.

The output records, per workload and end-to-end metric of BENCHMARK.json,
the quartiles and median of each side, the pairs the change wins and loses
(ties count for neither, the direction is the metric's ``better``), the
ratio of the medians, every pair as ``[parent, change]`` and three verdicts:

- ``gain``: the change wins at least nine tenths of the pairs, its
  median is better than the parent's by more than the parent's
  interquartile spread, every run of the change was correct, and no
  larger share of its calls failed than of the parent's (a share, not a
  count, since a faster side fits more calls into a run of fixed length);
- ``worse``: the change's median is worse than the parent's by more than
  the metric's relative ``bound``;
- ``unresolved``: the parent's interquartile spread exceeds the bound
  (relative to its median), and not every change run beats every parent
  run.

``--claim WORKLOAD:METRIC`` names the gain the change claims; it is
written as ``"claimed"`` (null without it) and must name a workload that
is run and an end-to-end metric.  Per side the
failed and attempted calls and whether every run was correct; and the
host's core count and versions.  The two checkouts must have identical
``perfbench/`` trees and ``BENCHMARK.json``, so that both sides run the same
benchmark.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

SIDES = ("parent", "change")
FIRST_SEED = 91
SECONDS = 20  # the run length perfbench/README.md gives


def _tree_files(root):
    found = set()
    for here, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        found.update(os.path.relpath(os.path.join(here, f), root)
                     for f in files if not f.endswith(".pyc"))
    return found


def benchmark_differences(parent, change):
    """Paths under perfbench/ (and BENCHMARK.json) that differ between the checkouts."""
    a, b = os.path.join(parent, "perfbench"), os.path.join(change, "perfbench")
    names_a, names_b = _tree_files(a), _tree_files(b)
    differ = sorted(os.path.join("perfbench", n) for n in names_a ^ names_b)
    differ += sorted(os.path.join("perfbench", n) for n in names_a & names_b
                     if not filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False))
    spec_a, spec_b = (os.path.join(root, "BENCHMARK.json") for root in (parent, change))
    if not (os.path.isfile(spec_a) and os.path.isfile(spec_b)
            and filecmp.cmp(spec_a, spec_b, shallow=False)):
        differ.append("BENCHMARK.json")
    return differ


def run_once(checkout, workload, seed):
    """One benchmark run from ``checkout``; returns its JSON result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def summarise(runs, seeds, specs):
    """The per-workload record from ``runs[side]``, one result per seed."""
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
    }
    failed, attempted = out["failed"], out["attempted"]
    sound = out["correct"]["change"] and (failed["change"] * attempted["parent"]
                                          <= failed["parent"] * attempted["change"])
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        per_pair = [[p["metrics"][name]["value"], c["metrics"][name]["value"]]
                    for p, c in zip(runs["parent"], runs["change"])]
        parent, change = ([pair[i] for pair in per_pair] for i in (0, 1))
        wins = sum((c < p) if lower else (c > p) for p, c in per_pair)
        losses = sum((c > p) if lower else (c < p) for p, c in per_pair)
        p_q, c_q = quartiles(parent), quartiles(change)
        # signed so that a positive value means the change is better
        improvement = (p_q[1] - c_q[1]) if lower else (c_q[1] - p_q[1])
        spread, bound = p_q[2] - p_q[0], spec["bound"] * abs(p_q[1])
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        out[name] = {
            "parent_q25_med_q75": [round(v, 4) for v in p_q],
            "change_q25_med_q75": [round(v, 4) for v in c_q],
            "change_wins": wins,
            "change_losses": losses,
            "median_ratio": round(c_q[1] / p_q[1], 4) if p_q[1] else None,
            "gain": sound and 10 * wins >= 9 * len(per_pair) and improvement > spread,
            "worse": -improvement > bound,
            "unresolved": spread > bound and not beats_all,
            "per_pair": [[round(p, 4), round(c, 4)] for p, c in per_pair],
        }
    return out


def host_info():
    info = {"cores": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    return info


def parse_workload(text):
    name, _, pairs = text.partition(":")
    return name, int(pairs) if pairs else 10


def parse_claim(text):
    workload, sep, metric = text.partition(":")
    if not (workload and sep and metric):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {text!r}")
    return {"workload": workload, "metric": metric}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, type=parse_workload,
                        help="NAME[:PAIRS], repeatable; PAIRS defaults to 10")
    parser.add_argument("--claim", type=parse_claim,
                        help="WORKLOAD:METRIC of the claimed gain, written as \"claimed\"")
    parser.add_argument("--description", default="")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    differ = benchmark_differences(parent, change)
    if differ:
        sys.exit("error: the checkouts run different benchmarks; differing: "
                 + ", ".join(differ))
    with open(os.path.join(parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    if args.claim and (args.claim["workload"] not in dict(args.workload)
                       or args.claim["metric"] not in {s["name"] for s in specs}):
        sys.exit(f"error: --claim {args.claim['workload']}:{args.claim['metric']} names no "
                 "workload that is run or no end-to-end metric")
    roots = {"parent": parent, "change": change}

    workloads = {}
    for name, pairs in args.workload:
        seeds = list(range(FIRST_SEED, FIRST_SEED + pairs))
        runs = {s: [] for s in SIDES}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(roots[side], name, seed))
            print(f"{name} seed {seed}: " + "; ".join(
                f"{spec['name']} {runs['parent'][-1]['metrics'][spec['name']]['value']:.4g}"
                f" -> {runs['change'][-1]['metrics'][spec['name']]['value']:.4g}"
                for spec in specs), flush=True)
        workloads[name] = summarise(runs, seeds, specs)

    result = {
        "description": args.description,
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> "
                   f"--seconds {SECONDS} --trace 0",
        "host": host_info(),
        "protocol": "pairs of runs from separate checkouts with identical benchmark code, "
                    "order alternating per seed (odd seeds parent first); values are the "
                    "quartiles and median over the runs of each side; per_pair lists "
                    "[parent, change]; ties count as neither win nor loss",
        "claimed": args.claim,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
