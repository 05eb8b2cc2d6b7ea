"""A thread-based message-passing communicator (simulated MPI).

Implements the collective operations the paper's algorithms use — barrier,
bcast, reduce/all-reduce, gather/all-gather, scan and segmented scan — over
``p`` Python threads with barrier-synchronised shared slots.  The semantics
mirror MPI: every collective is entered by all ranks of the communicator
and returns consistent results on all of them; reductions are applied in
rank order so results are deterministic.

This is the layer that makes the SPMD parallel learner
(:mod:`repro.parallel.engine`) a *real* parallel program rather than a
bookkeeping exercise: ranks genuinely execute concurrently and only
exchange data through these collectives.  ``SerialComm`` provides the
degenerate one-rank communicator so the same SPMD code runs sequentially.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class _Context:
    """Shared state of one communicator (one instance per thread group)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.barrier = threading.Barrier(size)
        self.slots: list[Any] = [None] * size
        self.lock = threading.Lock()
        self.subgroups: dict[tuple[int, Any], "_Context"] = {}


class ThreadComm:
    """One rank's handle on a thread communicator."""

    def __init__(self, context: _Context, rank: int) -> None:
        self._ctx = context
        self.rank = rank
        self.size = context.size
        self._split_epoch = 0

    # -- basic ------------------------------------------------------------
    def barrier(self) -> None:
        self._ctx.barrier.wait()

    def bcast(self, value: Any, root: int = 0) -> Any:
        ctx = self._ctx
        if self.rank == root:
            ctx.slots[root] = value
        ctx.barrier.wait()
        out = ctx.slots[root]
        ctx.barrier.wait()
        return out

    def allgather(self, value: Any) -> list[Any]:
        ctx = self._ctx
        ctx.slots[self.rank] = value
        ctx.barrier.wait()
        out = list(ctx.slots)
        ctx.barrier.wait()
        return out

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        out = self.allgather(value)
        return out if self.rank == root else None

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce in rank order (deterministic); default op is ``+``."""
        parts = self.allgather(value)
        if op is None:
            result = parts[0]
            for part in parts[1:]:
                result = result + part
            return result
        result = parts[0]
        for part in parts[1:]:
            result = op(result, part)
        return result

    def allreduce_max_with_index(self, value: float, payload: Any = None) -> tuple[float, int, Any]:
        """MPI's MAXLOC: the maximum value, the lowest rank holding it, and
        that rank's payload (used by Algorithm 4's tree-merge reduction)."""
        parts = self.allgather((value, self.rank, payload))
        best = max(parts, key=lambda item: (item[0], -item[1]))
        return best

    def exscan(self, value: Any) -> Any:
        """Exclusive prefix sum over ranks; rank 0 receives 0 (or None)."""
        parts = self.allgather(value)
        if self.rank == 0:
            return type(value)() if not isinstance(value, np.ndarray) else np.zeros_like(value)
        result = parts[0]
        for part in parts[1 : self.rank]:
            result = result + part
        return result

    def allgather_concat(self, array: np.ndarray) -> np.ndarray:
        """All-gather of per-rank arrays concatenated in rank order —
        MPI_Allgatherv for the block-distributed vectors of Algorithms 1-5."""
        parts = self.allgather(np.asarray(array))
        return np.concatenate(parts) if parts else np.zeros(0)

    # -- communicator splitting --------------------------------------------
    def split(self, color: Any) -> "ThreadComm":
        """MPI_Comm_split: ranks sharing ``color`` form a sub-communicator.

        Sub-ranks are assigned in parent-rank order.  Used to run the ``G``
        GaneSH runs on disjoint rank groups (Section 3.2.1).
        """
        ctx = self._ctx
        colors = self.allgather(color)
        members = [r for r, c in enumerate(colors) if c == color]
        epoch = self._split_epoch
        self._split_epoch += 1
        key = (epoch, color)
        with ctx.lock:
            if key not in ctx.subgroups:
                ctx.subgroups[key] = _Context(len(members))
            sub_ctx = ctx.subgroups[key]
        sub_rank = members.index(self.rank)
        ctx.barrier.wait()  # all ranks created/found their group
        return ThreadComm(sub_ctx, sub_rank)


class SerialComm:
    """The one-rank communicator: all collectives are identities."""

    rank = 0
    size = 1

    def barrier(self) -> None:
        pass

    def bcast(self, value: Any, root: int = 0) -> Any:
        return value

    def allgather(self, value: Any) -> list[Any]:
        return [value]

    def gather(self, value: Any, root: int = 0) -> list[Any]:
        return [value]

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        return value

    def allreduce_max_with_index(self, value: float, payload: Any = None) -> tuple[float, int, Any]:
        return (value, 0, payload)

    def exscan(self, value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return np.zeros_like(value)
        return type(value)()

    def allgather_concat(self, array: np.ndarray) -> np.ndarray:
        return np.asarray(array)

    def split(self, color: Any) -> "SerialComm":
        return SerialComm()


@dataclass
class SpmdFailure(Exception):
    """One or more SPMD ranks raised; carries every rank's exception."""

    errors: list[tuple[int, BaseException]]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "; ".join(f"rank {r}: {e!r}" for r, e in self.errors)


def run_spmd(p: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``p`` concurrent ranks.

    Returns the per-rank return values in rank order.  If any rank raises,
    the others are released (a broken barrier) and :class:`SpmdFailure`
    reports every failing rank.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if p == 1:
        return [fn(SerialComm(), *args, **kwargs)]

    context = _Context(p)
    results: list[Any] = [None] * p
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def worker(rank: int) -> None:
        comm = ThreadComm(context, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with errors_lock:
                errors.append((rank, exc))
            context.barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(p)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        errors.sort(key=lambda item: item[0])
        raise SpmdFailure(errors)
    return results
