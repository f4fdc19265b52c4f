"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared virtual machine the CPU's speed follows other tenants' load:
second-long stretches run up to 50 % slower, and the level drifts by a
quarter over half an hour, for any code.  ``measure.py`` times a kernel
right before and right after every measured call and divides the call's
wall time by the mean of the two, so a slow stretch that slows both
cancels out.  The quotient times ``REFERENCE_S`` is the call's time in
*reference seconds*: its wall time on a machine where the kernel takes
``REFERENCE_S``.

A kernel tracks the code it is timed beside only if it does the same
kind of work, so there are two:

* ``arrays``, for the evaluation workloads: small numpy calls
  (sorted-array intersections, gathers, means, dot products) between
  interpreter work on small dicts, as in the similarity and prediction
  loops;
* ``records``, for the data workload: JSON lines parsed into a dict of
  tens of thousands of tuple-keyed entries and an id table, as in the
  dump reader.

A workload with a fork pool of *n* workers runs its kernel in *n*
processes at once, so the kernel feels the load on every core the pool
uses.  Neither kernel uses ``trustcf`` or ``--seed``, so no change to
the package and no input moves them.
"""

from __future__ import annotations

import gc
import json
import os
import struct
from time import perf_counter

import numpy as np

REFERENCE_S = 0.15

_rng = np.random.default_rng(20200325)

ROUNDS, ARRAYS = 90, 64
_ITEMS = [np.sort(_rng.choice(400, 50, replace=False)) for _ in range(ARRAYS)]
_VALUES = [_rng.integers(1, 6, 50).astype(float) for _ in range(ARRAYS)]

LINES, IDS = 24000, 3000
_IDS = ["".join(chr(97 + int(c)) for c in _rng.integers(0, 26, 22)) for _ in range(IDS)]
_LINES = [
    json.dumps({
        "user_id": _IDS[int(_rng.integers(IDS))],
        "business_id": _IDS[int(_rng.integers(IDS))],
        "stars": int(_rng.integers(1, 6)),
        "date": f"2016-{int(_rng.integers(1, 13)):02d}-{int(_rng.integers(1, 29)):02d}",
        "useful": int(_rng.integers(0, 9)),
        "text": "x" * int(_rng.integers(20, 200)),
    })
    for _ in range(LINES)
]


def _arrays() -> float:
    acc = 0.0
    for r in range(ROUNDS):
        for i in range(ARRAYS):
            j = (i * 7 + r) % ARRAYS
            _, iu, iv = np.intersect1d(_ITEMS[i], _ITEMS[j],
                                       assume_unique=True, return_indices=True)
            if iu.size:
                x = _VALUES[i][iu]
                y = _VALUES[j][iv]
                acc += float((x - x.mean()) @ (y - y.mean()))
            doubled = {k: 2 * k for k in range(40)}
            acc += sum(v for v in doubled.values() if v % 3)
    return acc


def _records() -> int:
    table = {}
    for line in _LINES:
        record = json.loads(line.strip())
        key = (str(record["user_id"]), str(record["business_id"]))
        table[key] = (record["date"], float(record["stars"]), int(record["useful"]))
    ids: dict[str, int] = {}
    for user, business in table:
        ids.setdefault(user, len(ids))
        ids.setdefault(business, len(ids))
    return len(ids)


KERNELS = {"arrays": _arrays, "records": _records}


def _timed(kernel) -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def kernel_s(name: str, processes: int = 1) -> float:
    """Time of the reference kernel ``name``, run at once in ``processes``.

    With more than one process, ``processes - 1`` forked children run the
    kernel beside this one, as fork-pool workers run beside each other.
    A pool hands its folds to whichever worker is free, so its time
    follows the workers' summed speed; the returned time is therefore
    the harmonic mean of the processes' own kernel times.  The children
    are forked, as ``run_experiment`` forks its pool, so they start within
    milliseconds; a spawned child's start-up would swamp the kernel.
    Earlier garbage is collected first, as before every measured call.
    """
    kernel = KERNELS[name]
    gc.collect()
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for _ in range(processes - 1):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    os.write(write_fd, struct.pack("d", _timed(kernel)))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd))
        times = [_timed(kernel)]
        for _, read_fd in children:
            times.append(struct.unpack("d", os.read(read_fd, 8))[0])
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    return len(times) / sum(1 / t for t in times)
