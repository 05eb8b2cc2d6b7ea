"""Machine-speed yardstick and the small statistics the benchmark reports.

The boxes this benchmark runs on are shared: the same ``learn()`` on the
same input took 2.1 s to 4.1 s within four minutes on the builder's box,
and CPU time moved with wall time (the cores get slower, the process is
not descheduled).  A timing is therefore reported divided by the
*slowdown* a fixed NumPy-plus-interpreter loop showed immediately before
and after it.  The loop touches no code of the repository, so a change to
the program cannot move it.  Measured on yeast_seq, this took the spread
of window medians from 14-28% to 4-7%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds one yardstick unit takes at slowdown 1.0 (the builder's box,
#: typical); only fixes the scale, comparisons never depend on it
YARDSTICK_REF_S = 0.001
#: how long one yardstick sample runs
YARDSTICK_SAMPLE_S = 0.25

_ARRAY = np.random.default_rng(0).standard_normal((200, 200))


def _unit() -> int:
    # The learner's hot loops are log1p/exp row sums over small arrays and
    # interpreter-bound bookkeeping; the yardstick mixes the same two.
    for _ in range(4):
        float(np.log1p(np.exp(-np.abs(_ARRAY))).sum())
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def slowdown(sample_s: float = YARDSTICK_SAMPLE_S) -> float:
    """Current machine slowdown: yardstick unit time over the reference."""
    units = 0
    start = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= sample_s:
            return elapsed / units / YARDSTICK_REF_S


def summary(values) -> dict:
    """median / min / max / IQR / n of a sample (IQR 0 below 2 values)."""
    values = [float(v) for v in values]
    if not values:
        return {"median": None, "min": None, "max": None, "iqr": None, "n": 0}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr,
        "n": len(values),
    }
