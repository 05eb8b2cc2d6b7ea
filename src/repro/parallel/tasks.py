"""The named tasks an executor runs, and the context they run in.

An executor (the scheduler of :mod:`repro.parallel.executor` over a
transport: :mod:`repro.parallel.transport` on one host,
:mod:`repro.parallel.sharding` across nodes) answers one request: "run
these named tasks over this matrix, results in submission order".  This
module holds everything on the *task* side of that seam:

* the **task context** — one dict per executing process (matrix, candidate
  parents, config, seed, scorer, checkpoint store), built by
  :func:`build_ctx` and kept by whoever executes items: a pool worker's
  session (built once from its ``init`` frame, with the worker's stable
  index), an in-process transport;
* the **runners** ``fn(ctx, item)`` — one GaneSH chain
  (:func:`_ganesh_run`), one batch of whole modules
  (:func:`_module_batch_run`), one block of candidate parents of every
  pending node (:func:`_score_chunk_run`, split mode) — and
  :data:`TASK_RUNNERS`, the wire names shard nodes accept
  (:func:`repro.core.learner.tree_phase` / ``select_phase``, re-exported
  here, are the driver-side halves of a module around split mode's
  pooled pass).

Every task draws only from streams named by its own unit — ``("ganesh",
g)``, ``("modules", id)``, ``("splits", id)`` with index-addressed
per-split draws — so where, when and in how many pieces a task runs can
never change its result (the paper's Section 4.2 consistency property).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LearnerConfig
from repro.core.learner import (
    _hooks_for,
    learn_module_batch,
    select_phase,  # noqa: F401 - re-exported: the executor's split mode
    tree_phase,  # noqa: F401 - ... and examples import them from here
)
from repro.ganesh.coclustering import run_replicated_ganesh
from repro.parallel.trace import WorkTrace
from repro.rng.streams import IndexedStream, make_stream
from repro.scoring.split_score import SplitScorer
from repro.trees.splits import score_nodes

# -- the task context --------------------------------------------------------


def build_ctx(data, parents, config: LearnerConfig, seed: int,
              checkpoints=None) -> dict:
    """The context handed to every runner as ``fn(ctx, item)``.

    ``checkpoints`` is the driver's
    :class:`~repro.core.checkpoints.CheckpointStore` (``None`` without a
    checkpoint directory); a runner writes each unit it finishes before it
    returns.
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
            kernel_backend=config.parallel.kernel_backend,
        ),
        # per-module ("splits", id) indexed streams, opened on demand
        "streams": {},
        "checkpoints": checkpoints,
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
        kernel_backend=config.parallel.kernel_backend,
    )
    if ctx["checkpoints"] is not None:
        ctx["checkpoints"].store_run(g, labels)
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
        ctx["checkpoints"],
    )
    return [
        (m.module_id, m, traces[m.module_id].steps if want_trace else [])
        for m in modules
    ]


def _score_chunk_run(ctx, item):
    """Split mode's unit (Task 3 split level): the candidate parents
    ``[l0, l1)`` of every node record ``(module_id, obs, left_obs,
    module_obs_base)``, scored as one :func:`score_nodes` batch; a node's
    draws start at its module's split index ``module_obs_base * P + l0 *
    n_obs``.  Returns the batch's flat ``(log_scores, steps, accepted)``,
    ``steps`` ``None`` unless ``want_steps`` (only a traced run reads them,
    so an untraced worker ships 8 bytes a split less)."""
    l0, l1, records, want_steps = item
    parents = ctx["parents"]
    scorer: SplitScorer = ctx["scorer"]
    streams: dict = ctx["streams"]
    nodes = []
    for module_id, obs, left_obs, module_obs_base in records:
        if module_id not in streams:
            streams[module_id] = IndexedStream(
                make_stream(
                    ctx["seed"], "splits", module_id, backend=ctx["config"].rng_backend
                ),
                scorer.draws_per_item,
            )
        base = module_obs_base * parents.size + l0 * len(obs)
        nodes.append((obs, left_obs, streams[module_id], base))
    return score_nodes(ctx["data"], parents[l0:l1], scorer, nodes, want_steps)


#: every runner the scheduler dispatches, by wire name — the frame protocol
#: of :mod:`repro.parallel.sharding` ships the *name* rather than a pickled
#: callable so a node never unpickles code
TASK_RUNNERS = {
    "ganesh": _ganesh_run,
    "module_batch": _module_batch_run,
    "score_chunk": _score_chunk_run,
}
