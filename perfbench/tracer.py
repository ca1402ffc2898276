"""Span tracer that wraps fracrte entry points from outside the package.

Each target is a (module, attribute path) pair.  Because the package binds
names with ``from .x import y``, a function is patched both where it is
defined and in every module that imported it, so the wrapper sits at the
call site.  A target that no longer exists is reported as absent instead
of failing the run.

Spans are kept in memory.  Each thread keeps its own span stack; a span
opened on a thread whose stack is empty (a worker of the CLI's reduction
pool) takes the main thread's innermost open span as its parent.  A
span's self time is its duration minus the union of its children's
intervals, so children that overlap on several threads are not counted
twice.  Busy times (``*.busy_s``) are summed over spans and threads and
can exceed wall time when work runs on a pool.
"""

from __future__ import annotations

import functools
import importlib
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _size_arg(pos, key):
    """Count the elements of one argument (given by position or keyword)."""

    def count(args, kwargs, _result):
        value = kwargs.get(key) if key in kwargs else (args[pos] if len(args) > pos else None)
        return int(np.size(value)) if value is not None else 1

    return count


def _matrices(args, kwargs, _result):
    a = np.asarray(args[0]) if args else np.asarray(kwargs["a"])
    return int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1


def _waiting_events(args, kwargs, _result):
    n = kwargs.get("n", args[3] if len(args) > 3 else None)
    return 1 if n is None else int(n)


def _kernel_nodes(_args, _kwargs, result):
    return 0 if result is None else int(np.size(result.nodes))


# (span name, defining module, attribute path, call-site modules, work counter, counter name)
TARGETS = [
    ("cli.main", "fracrte.cli", "main", (), None, None),
    ("transport.energy_density", "fracrte.transport", "energy_density",
     ("fracrte.cli",), None, None),
    ("transport.reduce", "fracrte.transport", "_EnergyLayout.reduce", (), None, None),
    ("transport.mode_weights", "fracrte.transport", "_mode_weights_batch", (), None, None),
    ("spectral.assemble_operator", "fracrte.spectral", "assemble_operator",
     ("fracrte.transport",), None, None),
    ("spectral.decompose", "fracrte.spectral", "decompose", ("fracrte.transport",), None, None),
    ("specfun.mittag_leffler", "fracrte.specfun", "mittag_leffler",
     ("fracrte.transport", "fracrte.spectral", "fracrte.diffusion"),
     _size_arg(1, "z"), "points"),
    ("specfun.m_wright", "fracrte.specfun", "m_wright",
     ("fracrte.transport", "fracrte.diffusion"), _size_arg(1, "x"), "points"),
    ("specfun.stable_density", "fracrte.specfun", "stable_density",
     ("fracrte.subordination",), _size_arg(1, "t"), "points"),
    ("subordination.build_kernel", "fracrte.subordination", "build_kernel", (),
     _kernel_nodes, "nodes"),
    ("ctrw.simulate_density", "fracrte.ctrw", "simulate_density", (), None, None),
    ("ctrw.sample_waiting_time", "fracrte.ctrw", "sample_waiting_time", (),
     _waiting_events, "events"),
    ("legendre.phase_sample_batch", "fracrte.legendre", "phase_sample_batch",
     ("fracrte.ctrw",), _size_arg(1, "mu_prime"), "samples"),
]

# numpy.linalg calls made from inside the package form the pseudo-layer "linalg"
LINALG_TARGETS = [
    ("linalg.eig", "eig", _matrices, "matrices"),
    ("linalg.inv", "inv", _matrices, "matrices"),
    ("linalg.cond", "cond", None, None),
    ("linalg.solve", "solve", None, None),
    ("linalg.lstsq", "lstsq", None, None),
]

LAYERS = ("cli", "transport", "spectral", "specfun", "subordination", "ctrw",
          "legendre", "linalg")


class Tracer:
    """Install wrappers, collect spans and counts, then restore the originals."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.get_ident()
        self._patches = []  # (owner, attribute, original)
        self.absent = []
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)

    # -- span bookkeeping --------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter=None, counter_name=None, package_only=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if package_only and not sys._getframe(1).f_globals.get("__name__", "").startswith(
                    "fracrte."):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, time.perf_counter(), None, parent])
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.spans[index][2] = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.counts[name + ".calls"] += 1
                    if counter is not None:
                        tracer.counts[f"{name}.{counter_name}"] += counter(args, kwargs, result)

        return traced

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self):
        for name, module_name, path, call_sites, counter, counter_name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter, counter_name)
            self._patch(owner, attribute, wrapper)
            for site_name in call_sites:
                try:
                    site = importlib.import_module(site_name)
                except ImportError:
                    continue
                if getattr(site, attribute, None) is original:
                    self._patch(site, attribute, wrapper)
        for name, attribute, counter, counter_name in LINALG_TARGETS:
            original = getattr(np.linalg, attribute)
            self._patch(np.linalg, attribute,
                        self._wrap(name, original, counter, counter_name, package_only=True))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name busy time, per-layer self time and the counts of one traced call."""
        spans = self.spans
        children = defaultdict(list)
        for index, (_name, _start, _end, parent) in enumerate(spans):
            if parent >= 0:
                children[parent].append(index)
        out = dict(self.counts)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(spans):
            if end is None:
                continue
            # busy time of a name counts only its outermost spans, so nested
            # calls of one function are not added twice
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                busy[name + ".busy_s"] += end - start
            covered = _union_length(
                [(max(spans[c][1], start), min(spans[c][2], end))
                 for c in children[index] if spans[c][2] is not None]
            )
            self_time[name.split(".", 1)[0] + ".self_s"] += (end - start) - covered
        out.update(busy)
        out["linalg.busy_s"] = sum(busy[name + ".busy_s"] for name, *_ in LINALG_TARGETS)
        for layer in LAYERS:
            out[layer + ".self_s"] = self_time[layer + ".self_s"]
        return out


def _union_length(intervals):
    total, reach = 0.0, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(python, env, cwd, launches=3):
    """Median cumulative import time of package modules under ``-X importtime``.

    ``cli.import_s`` is the whole cost of ``import fracrte.cli``, since the
    package ``__init__`` it triggers loads every module.  The other modules
    load nested in each other (``ctrw`` imports ``transport``, which imports
    ``specfun`` and with it ``scipy.integrate``), so their figures overlap.
    """
    samples = defaultdict(list)
    for _ in range(launches):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import fracrte.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import of fracrte.cli failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                cumulative[match.group(4)] = int(match.group(2)) * 1e-6
        samples["specfun.import_s"].append(cumulative.get("fracrte.specfun", 0.0))
        samples["transport.import_s"].append(cumulative.get("fracrte.transport", 0.0))
        samples["ctrw.import_s"].append(cumulative.get("fracrte.ctrw", 0.0))
        samples["cli.import_s"].append(cumulative.get("fracrte.cli", 0.0))
    return {name: float(np.median(values)) for name, values in samples.items()}
