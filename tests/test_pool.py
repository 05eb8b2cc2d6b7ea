"""Tests for pooled split scoring by parent block
(``TaskPoolExecutor.score_splits``; the cut itself is covered in
``tests/test_parent_blocks.py``)."""

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.parallel.executor import open_executor
from repro.parallel.trace import WorkTrace
from repro.rng.streams import IndexedStream, make_stream
from repro.scoring.split_score import SplitScorer
from repro.trees.splits import score_node_splits


def _score_splits(data, records, config, seed, n_workers, schedule="dynamic"):
    """The flat split list scored through the one executor seam, traced:
    only a traced run counts each split's steps."""
    cfg = config.with_updates(
        parallel=ParallelConfig(n_workers=n_workers, schedule=schedule)
    )
    with open_executor(data, cfg, seed) as executor:
        return executor.score_splits(records, trace=WorkTrace())


def _node_records_and_reference(matrix, config, seed):
    """Run the sequential module phase far enough to extract node records
    and reference split scores."""
    learner = LemonTreeLearner(config)
    data = matrix.values
    members = learner.consensus(learner.sample_clusterings(matrix, seed))
    parents = np.asarray(config.resolve_candidate_parents(data.shape[0]))
    scorer = SplitScorer(
        beta_grid=config.beta_grid,
        max_steps=config.max_sampling_steps,
        stop_repeats=config.sampling_stop_repeats,
    )
    records = []
    ref_scores, ref_steps, ref_accept = [], [], []
    from repro.ganesh.coclustering import run_obs_only_ganesh
    from repro.rng.streams import GibbsRandom
    from repro.trees.hierarchy import build_tree_structure

    for module_id, mem in enumerate(members):
        block = data[mem]
        mrng = GibbsRandom(make_stream(seed, "modules", module_id))
        obs_samples = run_obs_only_ganesh(
            block, mrng, config.tree_update_steps, config.tree_burn_in, config.prior
        )
        istream = IndexedStream(
            make_stream(seed, "splits", module_id), scorer.draws_per_item
        )
        obs_base = 0
        for labels in obs_samples:
            tree = build_tree_structure(block, labels, module_id, config.prior)
            for node in tree.internal_nodes():
                records.append(
                    (module_id, node.observations, node.left.observations, obs_base)
                )
                scores = score_node_splits(
                    data, module_id, 0, node, parents, scorer, istream,
                    obs_base * parents.size,
                )
                ref_scores.append(scores.log_scores)
                ref_steps.append(scores.steps)
                ref_accept.append(scores.accepted)
                obs_base += int(node.observations.size)
    return (
        data,
        records,
        parents,
        np.concatenate(ref_scores) if ref_scores else np.zeros(0),
        np.concatenate(ref_steps) if ref_steps else np.zeros(0, dtype=int),
        np.concatenate(ref_accept) if ref_accept else np.zeros(0, dtype=bool),
    )


@pytest.fixture(scope="module")
def pool_setup(request):
    from repro.data.synthetic import make_module_dataset

    matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
    config = LearnerConfig(max_sampling_steps=5)
    return _node_records_and_reference(matrix, config, seed=11), config


class TestPoolScoring:
    def test_serial_path_matches_reference(self, pool_setup):
        (data, records, parents, ref_s, ref_t, ref_a), config = pool_setup
        scores, steps, accepted = _score_splits(
            data, records, config, seed=11, n_workers=1
        )
        np.testing.assert_array_equal(scores, ref_s)
        np.testing.assert_array_equal(steps, ref_t)
        np.testing.assert_array_equal(accepted, ref_a)

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_pool_matches_reference(self, pool_setup, schedule):
        """Chunking/worker assignment must not change results — the
        index-addressed randomness contract."""
        (data, records, parents, ref_s, ref_t, ref_a), config = pool_setup
        scores, steps, accepted = _score_splits(
            data, records, config, seed=11, n_workers=3, schedule=schedule
        )
        np.testing.assert_array_equal(scores, ref_s)
        np.testing.assert_array_equal(steps, ref_t)
        np.testing.assert_array_equal(accepted, ref_a)

    def test_rejects_unknown_schedule(self, pool_setup):
        (data, records, parents, *_), config = pool_setup
        with pytest.raises(ValueError):
            _score_splits(
                data, records, config, seed=1, n_workers=2, schedule="magic"
            )
