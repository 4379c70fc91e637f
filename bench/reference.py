"""Machine-speed reference: a fixed job timed next to the program.

On a shared 2-CPU virtual machine the same pass of the same code took 20-40%
longer for minutes at a time (measured while this benchmark was written), so
run-to-run spreads of raw wall time reached a quarter of the median.  Each
untraced pass is therefore preceded by REPS runs of `job`, a fixed mix of
interpreter work (lists, dicts, `math.fsum`) and small-array numpy work like
the program's own.  End-to-end times are reported scaled by
``SECONDS / median(job time)``: seconds at the speed the machine had when the
job took SECONDS.  The job runs with the cyclic garbage collector off, so its
time does not depend on how many objects the program keeps alive, and after
set-up, when threads of the previous pass have gone idle.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

SECONDS = 0.025  # the job's time on a quiet 2-CPU Intel Xeon VM
REPS = 5

_DATA = np.random.default_rng(0).random(30000)


def job() -> float:
    acc = 0.0
    for _ in range(4):
        acc += math.fsum(_DATA.tolist())
        table = {i: (i, i * 0.5) for i in range(20000)}
        acc += sum(v[1] for v in table.values())
        angles = np.arccos(np.clip(_DATA * 0.9, -1.0, 1.0)).reshape(-1, 3).sum(axis=1)
        acc += float(np.bincount(np.arange(angles.size) % 97, weights=angles).sum())
    return acc


def time_job(samples: list) -> None:
    """Append REPS timings of `job` to samples."""
    gc.disable()
    try:
        for _ in range(REPS):
            t = time.perf_counter()
            job()
            samples.append(time.perf_counter() - t)
    finally:
        gc.enable()
