"""The thread pool behind the CTRW blocks and the eigen slices.

``ordered_map`` runs independent tasks on one thread per usable CPU and
hands their results back in submission order, so a caller that combines
them in that order gets the same bytes whatever the thread count.  The
numpy kernels these tasks spend their time in release the GIL.  The
executor is imported when a second thread first starts.
"""

from __future__ import annotations

import math
import os
from collections import deque

__all__ = ["ordered_map", "usable_cpus"]


def _own_cpu_max():
    """Path of the cgroup v2 ``cpu.max`` of this process's own cgroup."""
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("0::"):
                    return "/sys/fs/cgroup" + line[3:].strip().rstrip("/") + "/cpu.max"
    except OSError:
        pass
    return "/sys/fs/cgroup/cpu.max"


def usable_cpus(cpu_max=None):
    """The number of CPUs this process may run on.

    The affinity mask, capped at ceil(quota / period) when the cgroup v2
    file ``cpu.max`` (by default the process's own) sets a CPU quota; a
    quota of ``max`` or a missing file leaves the mask.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        with open(cpu_max or _own_cpu_max(), encoding="ascii") as fh:
            quota, period = fh.read().split()[:2]
        if quota != "max":
            cpus = min(cpus, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return cpus


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each item, in the order of ``items``.

    The calls run on one thread per usable CPU, capped at the item count;
    with one, they run on the calling thread and no pool starts (a worker
    thread would gain nothing and cost its own malloc arena).  The next
    item is submitted only after the oldest result has been taken, so at
    most one task per thread is pending and its result held.  An exception
    raised by ``fn`` reaches the caller when that item's result is due.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items)) if len(items) > 1 else 1
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
