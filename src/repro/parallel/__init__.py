"""The simulated distributed-memory machine and parallel learner.

mpi4py is not available in this environment (see DESIGN.md), so the paper's
MPI implementation is reproduced with three cooperating layers:

* :mod:`repro.parallel.comm` — a thread-based message-passing communicator
  that really executes ``p`` SPMD ranks with barrier-synchronised
  collectives (all-reduce, all-gather, scan, segmented scan).
* :mod:`repro.parallel.engine` — the SPMD parallel learner implementing
  Algorithms 1-6 against that communicator: replicated state, block-
  partitioned score computations, distributed sampling oracles.  Its output
  is bit-identical to the sequential learner for every ``p`` — the paper's
  central consistency property.
* :mod:`repro.parallel.trace` + :mod:`repro.parallel.costmodel` — per-item
  work traces recorded during a (sequential) run, projected to simulated
  run-times ``T_p`` for arbitrary ``p`` (up to the paper's 4096) under a
  calibrated compute rate and a ``(tau + mu * words) * log2(p)`` collective
  model.  This is what regenerates the strong-scaling figures.
* :mod:`repro.parallel.executor` — the one dispatch seam of Tasks 1 and
  3 and the one scheduler above it: ``open_executor`` picks a transport
  from ``config.parallel`` and binds ``TaskScheduler`` to it.  The
  scheduler owns checkpoint preload, largest-first module order, the
  module-vs-split choice, split chunking and the reduction of completion
  records into results, trace and stats — whatever carries the items.
* :mod:`repro.parallel.transport` — the single-host transports: in-process
  at one worker (the sequential learner), and above that one pool over
  one shared-memory copy of the expression matrix, alive for the whole
  ``learn`` invocation.
* :mod:`repro.parallel.sharding` — the shard-node transport: node
  processes, each running a single-host transport, pulling batches from
  the scheduler's one ordered list over a framed socket protocol.
* :mod:`repro.parallel.tasks` — what a transport runs: the task context,
  the named runners (GaneSH chain, whole module, split chunk) and the
  construction of split tasks from the flat candidate-split list.
* :mod:`repro.parallel.topology` — the machine probe: cores and NUMA
  domains read from sysfs (flat single-domain fallback), reported in
  traces and benchmark machine blocks, never used to schedule or size.

The package imports none of them: a process loads the layers it runs (an
in-process ``learn()`` neither the SPMD engine nor ``multiprocessing``),
and ``repro``'s own lazy exports name the public classes.
"""
