"""The checkpoint store of resumable Tasks 1 and 3.

The paper's sequential runs take days to weeks, so every finished unit is
persisted where it finishes: GaneSH run ``g`` to ``ganesh_<g>.npz``
(labels plus a JSON fingerprint), module ``id`` to ``module_<id>.json``.
A restarted run loads whatever is on disk and recomputes the rest; since
every unit draws only its own named streams, the resumed result is the
one an uninterrupted run gives, for any worker or node count.

:class:`CheckpointStore` is the one reader and writer.  The driver builds
it once per executor (:meth:`CheckpointStore.open`) and ships it, as plain
data, to whoever executes units: the in-process task context, the pool
initializer, the shard ``init`` spec.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core.output import _node_from_dict, _node_to_dict
from repro.datatypes import Module, RegressionTree


def matrix_digest(values) -> str:
    """SHA-256 of a matrix's float64 bytes (row-major)."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64)).hexdigest()


@dataclass(frozen=True)
class CheckpointStore:
    """A checkpoint directory and the fingerprints its files must carry.

    ``task1`` is what a GaneSH run's labels depend on, ``task3`` what a
    learned module depends on; both cover the seed, the RNG backend, the
    prior, the matrix shape and a digest of its values.  A file written
    under another fingerprint (or, for a module, other members) is
    ignored, so changing a Task 3 parameter still reuses the Task 1 runs.
    """

    directory: str
    task1: dict
    task3: dict

    @classmethod
    def open(cls, directory, data, config, seed: int) -> CheckpointStore | None:
        """The store of one run over ``data``, or ``None`` without a
        directory (the matrix is hashed only when there is one)."""
        if directory is None:
            return None
        os.makedirs(directory, exist_ok=True)
        data = np.asarray(data)
        prior = config.prior
        common = {
            "seed": int(seed),
            "rng_backend": config.rng_backend,
            "prior": [prior.mu0, prior.lambda0, prior.alpha0, prior.beta0],
            "shape": list(data.shape),
            "matrix": matrix_digest(data),
        }
        parents = config.candidate_parents
        return cls(
            str(directory),
            dict(
                common,
                n_update_steps=config.n_update_steps,
                init_var_clusters=config.resolve_init_clusters(data.shape[0]),
            ),
            dict(
                common,
                tree_update_steps=config.tree_update_steps,
                tree_burn_in=config.tree_burn_in,
                n_splits_per_node=config.n_splits_per_node,
                max_sampling_steps=config.max_sampling_steps,
                sampling_stop_repeats=config.sampling_stop_repeats,
                beta_grid=list(config.beta_grid),
                candidate_parents=None if parents is None else [int(p) for p in parents],
            ),
        )

    # -- the one load rule and the one write ---------------------------------
    def _read(self, name: str, parse):
        """``parse(file)`` of checkpoint ``name``, or ``None``.

        Any file that cannot be read — missing, torn, truncated, foreign —
        is a missing checkpoint: its unit is recomputed and the file
        overwritten.  ``parse`` returns ``None`` for a readable file of
        another fingerprint.
        """
        try:
            with open(os.path.join(self.directory, name), "rb") as fh:
                return parse(fh)
        except Exception:
            return None

    def _write(self, name: str, dump) -> None:
        """``dump(file)`` to a temporary file, then an atomic rename: a run
        killed at any instant leaves the old file or the new one, never a
        torn one."""
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            dump(fh)
        os.replace(tmp, path)

    # -- Task 1: GaneSH runs -----------------------------------------------
    def load_run(self, run_index: int) -> np.ndarray | None:
        def parse(fh):
            with np.load(fh, allow_pickle=False) as payload:
                if json.loads(str(payload["meta"])) != self.task1:
                    return None
                return np.asarray(payload["labels"], dtype=np.int64)

        return self._read(f"ganesh_{run_index}.npz", parse)

    def store_run(self, run_index: int, labels: np.ndarray) -> None:
        meta = json.dumps(self.task1)
        labels = np.asarray(labels, dtype=np.int64)
        self._write(
            f"ganesh_{run_index}.npz",
            lambda fh: np.savez_compressed(fh, meta=meta, labels=labels),
        )

    # -- Task 3: modules ---------------------------------------------------
    def load_module(self, module_id: int, members) -> Module | None:
        members = [int(v) for v in members]

        def parse(fh):
            payload = json.load(fh)
            if payload["fingerprint"] != self.task3 or payload["members"] != members:
                return None
            return Module(
                module_id=module_id,
                members=members,
                trees=[
                    RegressionTree(module_id=module_id, root=_node_from_dict(tree))
                    for tree in payload["trees"]
                ],
                weighted_parents={
                    int(k): float(v) for k, v in payload["weighted_parents"].items()
                },
                uniform_parents={
                    int(k): float(v) for k, v in payload["uniform_parents"].items()
                },
            )

        return self._read(f"module_{module_id}.json", parse)

    def store_module(self, module: Module) -> None:
        text = json.dumps({
            "fingerprint": self.task3,
            "members": [int(v) for v in module.members],
            "trees": [_node_to_dict(tree.root) for tree in module.trees],
            "weighted_parents": {str(k): v for k, v in module.weighted_parents.items()},
            "uniform_parents": {str(k): v for k, v in module.uniform_parents.items()},
        })
        self._write(f"module_{module.module_id}.json", lambda fh: fh.write(text.encode()))
