"""Process-pool plumbing and instrumentation.

:class:`repro.parallel.transport.PoolTransport` constructs its pool
through this module so that

* the start method degrades gracefully: ``fork`` where available (Linux),
  ``spawn`` otherwise (macOS/Windows), with worker state always shipped
  explicitly through pool initargs so both methods behave identically;
* pool constructions and expression-matrix transfers are counted
  process-wide.  The counters let tests assert the executor's central
  contract — one pool and one matrix transfer per ``learn`` call, however
  many executors a code path might have built — without timing.
"""

from __future__ import annotations

import multiprocessing as mp

_COUNTERS = {"pool_constructions": 0, "matrix_transfers": 0}


def pool_context(method: str | None = None) -> mp.context.BaseContext:
    """The multiprocessing context to build pools from.

    ``fork`` is preferred (workers inherit the parent's address space, so
    initargs cost nothing extra); where it is unavailable the ``spawn``
    method is used and the same initargs are pickled to each fresh
    interpreter.  Pass ``method`` to force a specific start method.
    """
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def note_pool_construction(n: int = 1) -> None:
    _COUNTERS["pool_constructions"] += n


def note_matrix_transfer(n: int = 1) -> None:
    _COUNTERS["matrix_transfers"] += n


def counters() -> dict[str, int]:
    """A snapshot of the instrumentation counters."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    for key in _COUNTERS:
        _COUNTERS[key] = 0
