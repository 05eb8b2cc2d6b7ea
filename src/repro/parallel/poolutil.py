"""Process-pool plumbing.

Every child process the executor tier launches — the pool workers of
:class:`repro.parallel.transport.PoolTransport`, the socket nodes of
:class:`repro.parallel.sharding.ShardTransport` — is built from
:func:`pool_context`, so there is one start-method rule: ``fork`` where
available (Linux), ``spawn`` otherwise (macOS/Windows) or when the caller
asks for it (:data:`THREADED_START_METHOD`), with child state always
shipped explicitly — pool initargs, the nodes' ``init`` frame — so both
methods behave identically.  What a transport built is counted on the
transport itself (``ExecutorStats.pools_constructed`` /
``matrix_transfers``).
"""

from __future__ import annotations

import multiprocessing as mp

#: what a caller living in a multi-threaded process (the service daemon)
#: passes as ``method``: a fork there can copy a lock another thread holds
#: and deadlock the child
THREADED_START_METHOD = "spawn"


def pool_context(method: str | None = None) -> mp.context.BaseContext:
    """The multiprocessing context to build pools and shard nodes from.

    ``fork`` is preferred (children inherit the parent's address space —
    loaded modules, the certified native kernel — so initargs cost nothing
    extra and a child costs a fork, not an interpreter); where it is
    unavailable the ``spawn`` method is used and the same initargs are
    pickled to each fresh interpreter.  Pass ``method`` to force a
    specific start method.
    """
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)
