"""Tests for resumable execution: the checkpoint store of Tasks 1 and 3."""

import json

import numpy as np
import pytest

from repro.core.config import LearnerConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset
from repro.scoring.normal_gamma import NormalGammaPrior

#: two hand-made modules over the 40 variables of ``_dataset``
HALVES = [list(range(20)), list(range(20, 40))]


@pytest.fixture()
def setup(tiny_matrix, fast_config):
    learner = LemonTreeLearner(fast_config)
    samples = learner.sample_clusterings(tiny_matrix, seed=5)
    modules = learner.consensus(samples)
    return learner, tiny_matrix, modules


class TestCheckpoints:
    def test_checkpoints_written(self, setup, tmp_path):
        learner, matrix, modules = setup
        learner.learn_from_modules(matrix, modules, seed=5, checkpoint_dir=tmp_path)
        files = sorted(tmp_path.glob("module_*.json"))
        assert len(files) == len(modules)

    def test_resume_reproduces_network(self, setup, tmp_path):
        """A run resumed from a partial checkpoint directory yields the
        exact network an uninterrupted run produces."""
        learner, matrix, modules = setup
        full = learner.learn_from_modules(matrix, modules, seed=5).network

        # Simulate an interrupted run: learn everything, then delete the
        # checkpoints of the last modules so they must be recomputed.
        learner.learn_from_modules(matrix, modules, seed=5, checkpoint_dir=tmp_path)
        for module_id in range(len(modules) // 2, len(modules)):
            (tmp_path / f"module_{module_id}.json").unlink()
        resumed = learner.learn_from_modules(
            matrix, modules, seed=5, checkpoint_dir=tmp_path
        ).network
        assert resumed == full

    def test_checkpoints_actually_skip_work(self, setup, tmp_path):
        learner, matrix, modules = setup
        first = learner.learn_from_modules(
            matrix, modules, seed=5, checkpoint_dir=tmp_path
        )
        second = learner.learn_from_modules(
            matrix, modules, seed=5, checkpoint_dir=tmp_path
        )
        assert second.network == first.network
        # The warm run is dominated by JSON loading, far below learning time.
        assert second.task_times.modules < max(0.5, first.task_times.modules)

    def test_stale_config_checkpoint_ignored(self, setup, tmp_path):
        """Checkpoints carry a configuration fingerprint — changing the
        learning parameters must not silently reuse them."""
        learner, matrix, modules = setup
        learner.learn_from_modules(matrix, modules, seed=5, checkpoint_dir=tmp_path)
        other = LemonTreeLearner(LearnerConfig(max_sampling_steps=7))
        result = other.learn_from_modules(
            matrix, modules, seed=5, checkpoint_dir=tmp_path
        )
        fresh = other.learn_from_modules(matrix, modules, seed=5)
        assert result.network == fresh.network

    def test_stale_seed_checkpoint_ignored(self, setup, tmp_path):
        learner, matrix, modules = setup
        learner.learn_from_modules(matrix, modules, seed=5, checkpoint_dir=tmp_path)
        result = learner.learn_from_modules(
            matrix, modules, seed=6, checkpoint_dir=tmp_path
        )
        fresh = learner.learn_from_modules(matrix, modules, seed=6)
        assert result.network == fresh.network

    def test_mismatched_members_ignored(self, setup, tmp_path):
        learner, matrix, modules = setup
        learner.learn_from_modules(matrix, modules, seed=5, checkpoint_dir=tmp_path)
        # Corrupt one checkpoint's membership record.
        path = tmp_path / "module_0.json"
        payload = json.loads(path.read_text())
        payload["members"] = payload["members"][::-1]
        path.write_text(json.dumps(payload))
        result = learner.learn_from_modules(
            matrix, modules, seed=5, checkpoint_dir=tmp_path
        )
        fresh = learner.learn_from_modules(matrix, modules, seed=5)
        assert result.network == fresh.network

    def test_no_temp_files_left(self, setup, tmp_path):
        learner, matrix, modules = setup
        learner.learn_from_modules(matrix, modules, seed=5, checkpoint_dir=tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


def _dataset(seed):
    return make_module_dataset(40, 24, seed=seed).matrix


def _stamps(directory, pattern):
    return {f.name: f.stat().st_mtime_ns for f in directory.glob(pattern)}


class TestFingerprints:
    """Whatever a unit's result depends on is in its file's fingerprint."""

    def test_task3_prior_is_fingerprinted(self, tmp_path):
        matrix = _dataset(7)
        LemonTreeLearner(LearnerConfig(max_sampling_steps=5)).learn_from_modules(
            matrix, HALVES, seed=3, checkpoint_dir=tmp_path
        )
        other = LemonTreeLearner(LearnerConfig(
            max_sampling_steps=5, prior=NormalGammaPrior(0, 5, 3, 0.5)
        ))
        resumed = other.learn_from_modules(
            matrix, HALVES, seed=3, checkpoint_dir=tmp_path
        )
        assert resumed.network == other.learn_from_modules(matrix, HALVES, seed=3).network

    def test_task3_matrix_values_are_fingerprinted(self, tmp_path):
        learner = LemonTreeLearner(LearnerConfig(max_sampling_steps=5))
        learner.learn_from_modules(_dataset(7), HALVES, seed=3, checkpoint_dir=tmp_path)
        other = _dataset(8)  # same shape, other values
        resumed = learner.learn_from_modules(
            other, HALVES, seed=3, checkpoint_dir=tmp_path
        )
        assert resumed.network == learner.learn_from_modules(other, HALVES, seed=3).network

    def test_task1_matrix_values_are_fingerprinted(self, tmp_path):
        learner = LemonTreeLearner(LearnerConfig(n_ganesh_runs=2))
        learner.sample_clusterings(_dataset(7), seed=3, checkpoint_dir=tmp_path)
        other = _dataset(8)
        resumed = learner.sample_clusterings(other, seed=3, checkpoint_dir=tmp_path)
        for got, want in zip(resumed, learner.sample_clusterings(other, seed=3)):
            np.testing.assert_array_equal(got, want)

    def test_task3_parameter_change_reuses_task1_runs(self, tmp_path):
        """Task 1 and Task 3 carry separate fingerprints: a Task 3 knob
        invalidates the modules, never the GaneSH runs."""
        matrix = _dataset(7)
        LemonTreeLearner(LearnerConfig(max_sampling_steps=5, n_ganesh_runs=2)).learn(
            matrix, seed=3, checkpoint_dir=tmp_path
        )
        runs = _stamps(tmp_path, "ganesh_*.npz")
        modules = _stamps(tmp_path, "module_*.json")
        assert len(runs) == 2 and modules
        other = LemonTreeLearner(LearnerConfig(max_sampling_steps=7, n_ganesh_runs=2))
        resumed = other.learn(matrix, seed=3, checkpoint_dir=tmp_path)
        assert resumed.network == other.learn(matrix, seed=3).network
        assert _stamps(tmp_path, "ganesh_*.npz") == runs
        rewritten = _stamps(tmp_path, "module_*.json")
        assert all(rewritten[name] != stamp for name, stamp in modules.items())


class TestUnreadableCheckpoints:
    """An unreadable file is a missing checkpoint: the unit is recomputed
    and the file overwritten, the resume goes on."""

    def test_truncated_module_json(self, tmp_path):
        matrix = _dataset(7)
        learner = LemonTreeLearner(LearnerConfig(max_sampling_steps=5))
        fresh = learner.learn_from_modules(matrix, HALVES, seed=3, checkpoint_dir=tmp_path)
        path = tmp_path / "module_0.json"
        path.write_text(path.read_text()[:40])
        resumed = learner.learn_from_modules(
            matrix, HALVES, seed=3, checkpoint_dir=tmp_path
        )
        assert resumed.network == fresh.network
        assert json.loads(path.read_text())["members"] == HALVES[0]

    def test_junk_ganesh_npz(self, tmp_path):
        matrix = _dataset(7)
        learner = LemonTreeLearner(LearnerConfig(n_ganesh_runs=2))
        fresh = learner.sample_clusterings(matrix, seed=3, checkpoint_dir=tmp_path)
        path = tmp_path / "ganesh_0.npz"
        path.write_bytes(path.read_bytes()[:64])  # a torn zip archive
        resumed = learner.sample_clusterings(matrix, seed=3, checkpoint_dir=tmp_path)
        for got, want in zip(resumed, fresh):
            np.testing.assert_array_equal(got, want)
        with np.load(path) as payload:
            np.testing.assert_array_equal(payload["labels"], fresh[0])


class TestModuleLayout:
    """A module file holds the network document's module dict and its
    fingerprint; files written before it did still load."""

    def test_a_module_file_is_the_documents_module(self, tmp_path):
        from repro.core.output import network_to_json

        matrix = _dataset(7)
        learner = LemonTreeLearner(LearnerConfig(max_sampling_steps=5))
        network = learner.learn_from_modules(
            matrix, HALVES, seed=3, checkpoint_dir=tmp_path
        ).network
        document = json.loads(network_to_json(network))["modules"]
        for module in document:
            payload = json.loads((tmp_path / f"module_{module['module_id']}.json").read_text())
            assert set(payload) == {"fingerprint", *module}
            assert {key: payload[key] for key in module} == module

    def test_a_module_file_in_the_earlier_layout_loads(self, tmp_path):
        """A file with no ``module_id`` and its parents in insertion order,
        as module files were written before, loads as the module it holds,
        and a resumed run takes it as it is."""
        from repro.core.checkpoints import CheckpointStore
        from repro.core.output import _module_to_dict, _node_to_dict

        matrix = _dataset(7)
        config = LearnerConfig(max_sampling_steps=5)
        learner = LemonTreeLearner(config)
        fresh = learner.learn_from_modules(matrix, HALVES, seed=3, checkpoint_dir=tmp_path)
        store = CheckpointStore.open(tmp_path, matrix.values, config, 3)
        for module in fresh.network.modules:
            (tmp_path / f"module_{module.module_id}.json").write_text(json.dumps({
                "fingerprint": store.task3,
                "members": [int(v) for v in module.members],
                "trees": [_node_to_dict(tree.root) for tree in module.trees],
                "weighted_parents": {str(k): v for k, v in module.weighted_parents.items()},
                "uniform_parents": {str(k): v for k, v in module.uniform_parents.items()},
            }))
            loaded = store.load_module(module.module_id, module.members)
            assert _module_to_dict(loaded) == _module_to_dict(module)
        stamps = _stamps(tmp_path, "module_*.json")
        resumed = learner.learn_from_modules(matrix, HALVES, seed=3, checkpoint_dir=tmp_path)
        assert resumed.network == fresh.network
        assert _stamps(tmp_path, "module_*.json") == stamps
