"""The named tasks an executor runs, and the context they run in.

An executor (the scheduler of :mod:`repro.parallel.executor` over a
transport: :mod:`repro.parallel.transport` on one host,
:mod:`repro.parallel.sharding` across nodes) answers one request: "run
these named tasks over this matrix, results in submission order".  This
module holds everything on the *task* side of that seam:

* the **task context** — one dict per executing process (matrix, candidate
  parents, config, seed, scorer, checkpoint stores), built by
  :func:`build_ctx`.  A pool worker keeps its context in :data:`_WORKER`
  (installed once by the pool initializer, together with the worker's
  stable index); an in-process transport keeps its own;
* the **runners** ``fn(ctx, item)`` — one GaneSH chain
  (:func:`_ganesh_run`), one batch of whole modules
  (:func:`_module_batch_run`), one chunk of the flat candidate-split list
  (:func:`_score_chunk_run`) — and :data:`TASK_RUNNERS`, the wire names
  shard nodes accept;
* the **split-task construction** — :func:`build_split_tasks` /
  :func:`_subdivide` cut the flat split list of Algorithm 5 into chunks
  (:func:`repro.core.learner.tree_phase` / ``select_phase``, re-exported
  here, are the driver-side halves of a module around that pooled pass).

Every task draws only from streams named by its own unit — ``("ganesh",
g)``, ``("modules", id)``, ``("splits", id)`` with index-addressed
per-split draws — so where, when and in how many pieces a task runs can
never change its result (the paper's Section 4.2 consistency property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LearnerConfig
from repro.core.learner import (
    _GaneshCheckpoints,
    _hooks_for,
    _ModuleCheckpoints,
    learn_module_batch,
    select_phase,  # noqa: F401 - re-exported: the executor's split mode
    tree_phase,  # noqa: F401 - ... and examples import them from here
)
from repro.ganesh.coclustering import run_replicated_ganesh
from repro.parallel.costmodel import block_bounds
from repro.parallel.trace import WorkTrace
from repro.rng.streams import IndexedStream, make_stream
from repro.scoring.kernel import split_kernel_from_arrays
from repro.scoring.split_score import SplitScorer

# -- the task context --------------------------------------------------------

#: a pool worker's task context plus its bookkeeping (``worker``, ``shm``,
#: ``flush_barrier``); installed once per worker by the pool initializer so
#: the matrix is attached a single time, never per task
_WORKER: dict = {}


def build_ctx(data, parents, config: LearnerConfig, seed: int,
              checkpoint_dir=None, writer=None) -> dict:
    """The context handed to every runner as ``fn(ctx, item)``.

    ``writer`` is the process's :class:`~repro.parallel.checkpoint_writer.
    AsyncCheckpointWriter` (pool workers); without one, checkpoint stores
    write synchronously (in-process execution).
    """
    return {
        "data": np.asarray(data),
        "parents": np.asarray(parents, dtype=np.int64),
        "config": config,
        "seed": seed,
        "scorer": SplitScorer(
            beta_grid=config.beta_grid,
            max_steps=config.max_sampling_steps,
            stop_repeats=config.sampling_stop_repeats,
        ),
        # per-module ("splits", id) indexed streams, opened on demand
        "streams": {},
        "checkpoint_dir": checkpoint_dir,
        "checkpoint_writer": writer,
        "module_checkpoints": (
            _ModuleCheckpoints(checkpoint_dir, seed, config, writer=writer)
            if checkpoint_dir is not None
            else None
        ),
    }


# -- runners -----------------------------------------------------------------


def _ganesh_run(ctx, item):
    """One Task 1 GaneSH chain on its replicated ``("ganesh", g)`` stream."""
    g, want_trace = item
    config = ctx["config"]
    # Recording (and shipping back) per-superstep work vectors is pure
    # overhead unless the driver was handed a trace.
    trace = WorkTrace() if want_trace else None
    labels = run_replicated_ganesh(
        ctx["data"],
        ctx["seed"],
        g,
        n_update_steps=config.n_update_steps,
        init_var_clusters=config.resolve_init_clusters(ctx["data"].shape[0]),
        prior=config.prior,
        rng_backend=config.rng_backend,
        hooks=_hooks_for(trace, run=g),
    )
    if ctx["checkpoint_dir"] is not None:
        _GaneshCheckpoints(
            ctx["checkpoint_dir"], ctx["seed"], config, ctx["data"].shape[0],
            writer=ctx["checkpoint_writer"],
        ).store(g, labels)
    return g, labels, (trace.steps if trace is not None else [])


def _module_batch_run(ctx, item):
    """Learn a batch of whole modules (Task 3 module-level parallelism):
    their nodes' candidate splits are scored together, each finished module
    is checkpointed at once.  Returns ``(module_id, module, trace steps)``
    per module."""
    batch, want_trace = item
    traces = {module_id: WorkTrace() for module_id, _ in batch} if want_trace else None
    modules = learn_module_batch(
        ctx["data"],
        batch,
        ctx["parents"],
        ctx["scorer"],
        ctx["config"],
        ctx["seed"],
        traces,
        ctx["module_checkpoints"],
    )
    return [
        (m.module_id, m, traces[m.module_id].steps if want_trace else [])
        for m in modules
    ]


@dataclass(frozen=True, eq=False)
class SplitTask:
    """A contiguous sub-range of one node's candidate splits."""

    module_id: int
    obs: np.ndarray  # node observations (int64)
    left_obs: np.ndarray  # left child observations (int64)
    module_split_base: int  # module-local split index of the node's first split
    row0: int  # first split row of this task within the node
    row1: int  # one past the last split row
    out_offset: int  # position in the flat output arrays


def _score_chunk_run(ctx, task: SplitTask):
    """Fine-grained candidate-split scoring (Task 3 split-level path)."""
    data = ctx["data"]
    parents = ctx["parents"]
    config: LearnerConfig = ctx["config"]
    scorer: SplitScorer = ctx["scorer"]
    streams: dict = ctx["streams"]

    if task.module_id not in streams:
        streams[task.module_id] = IndexedStream(
            make_stream(
                ctx["seed"], "splits", task.module_id, backend=config.rng_backend
            ),
            scorer.draws_per_item,
        )
    istream = streams[task.module_id]

    obs = task.obs
    n_obs = obs.size
    l0, l1 = task.row0 // n_obs, (task.row1 - 1) // n_obs + 1
    kernel = split_kernel_from_arrays(
        data, obs, task.left_obs, parents[l0:l1], scorer.beta_grid
    )
    items = np.arange(task.row0 - l0 * n_obs, task.row1 - l0 * n_obs)

    uniforms = istream.items_span(
        task.module_split_base + task.row0, task.row1 - task.row0
    )
    scores, steps, _beta, accepted = scorer.score_batch_kernel(
        kernel, uniforms, item_indices=items
    )
    return task.out_offset, scores, steps, accepted


#: every runner the scheduler dispatches, by wire name — the frame protocol
#: of :mod:`repro.parallel.sharding` ships the *name* rather than a pickled
#: callable so a node never unpickles code
TASK_RUNNERS = {
    "ganesh": _ganesh_run,
    "module_batch": _module_batch_run,
    "score_chunk": _score_chunk_run,
}


# -- split-task construction -------------------------------------------------


def build_split_tasks(node_records, n_parents: int) -> tuple[list[SplitTask], int]:
    """Per-node tasks from ``(module_id, obs, left_obs, module_obs_base)``
    records in enumeration order; returns the tasks and the total split count."""
    tasks: list[SplitTask] = []
    offset = 0
    for module_id, obs, left_obs, module_obs_base in node_records:
        n_obs = len(obs)
        n_splits = n_parents * n_obs
        tasks.append(
            SplitTask(
                module_id=module_id,
                # Small int64 arrays pickle far cheaper than tuples of
                # Python ints and feed margins_from_arrays directly.
                obs=np.asarray(obs, dtype=np.int64),
                left_obs=np.asarray(left_obs, dtype=np.int64),
                module_split_base=module_obs_base * n_parents,
                row0=0,
                row1=n_splits,
                out_offset=offset,
            )
        )
        offset += n_splits
    return tasks, offset


def _subdivide(tasks: list[SplitTask], total: int, n_chunks: int) -> list[SplitTask]:
    """Split node tasks along the flat index so chunks have equal split
    counts (:func:`block_bounds`, the paper's equal-count cut).

    Tasks and chunk bounds are both sorted along the flat split index, so a
    single merge walk suffices: O(tasks + chunks + pieces) instead of the
    O(chunks x tasks) rescan of every task per chunk.  Chunk boundaries
    only change *where* splits are scored, never their values: results are
    written back by flat offset.
    """
    out: list[SplitTask] = []
    ti = 0
    n_tasks = len(tasks)
    for lo, hi in block_bounds(total, n_chunks):
        if lo >= hi:
            continue
        # Skip tasks that end at or before this chunk; a task straddling a
        # chunk boundary is revisited because ti stops at the first overlap.
        while ti < n_tasks and tasks[ti].out_offset + (
            tasks[ti].row1 - tasks[ti].row0
        ) <= lo:
            ti += 1
        tj = ti
        while tj < n_tasks and tasks[tj].out_offset < hi:
            task = tasks[tj]
            a = max(lo, task.out_offset)
            b = min(hi, task.out_offset + (task.row1 - task.row0))
            if a < b:
                shift = a - task.out_offset
                out.append(
                    SplitTask(
                        module_id=task.module_id,
                        obs=task.obs,
                        left_obs=task.left_obs,
                        module_split_base=task.module_split_base,
                        row0=task.row0 + shift,
                        row1=task.row0 + shift + (b - a),
                        out_offset=a,
                    )
                )
            tj += 1
    return out
