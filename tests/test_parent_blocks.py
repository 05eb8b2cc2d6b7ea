"""Split scoring's one cut: a block of candidate parents of every node.

Split mode (``TaskScheduler.score_splits``) and the SPMD engine's split
phase give each worker or rank a contiguous block ``[l0, l1)`` of the
candidate parents of every pending node, scored as one ``score_nodes``
batch.  The cut covers every (node, parent) pair once, at its offset in
the flat list, never dispatches an empty block, fills each margin row
once per pass and cannot change a bit of the network.  An empty
candidate-parent list is refused where it is read.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset
from repro.datatypes import ExpressionMatrix
from repro.genomica import GenomicaConfig, GenomicaLearner
from repro.parallel import executor as executor_mod
from repro.parallel.engine import ParallelLearner
from repro.parallel.trace import WorkTrace
from repro.validation.scenarios import get_scenario
from tests.reference import ReferenceLearner

NATIVE = _native.load() is not None
BACKENDS = ["numpy"] + (["native"] if NATIVE else [])

#: four nodes of two modules, as ``tree_phase`` records them:
#: ``(module_id, obs, left_obs, module_obs_base)``
RECORDS = [
    (module_id, np.arange(n_obs), np.arange(n_obs // 2), base)
    for module_id, n_obs, base in ((0, 5, 0), (0, 3, 5), (1, 1, 0), (1, 7, 1))
]


def _scheduler(n_parents, n_workers, schedule):
    """A scheduler over a transport that never starts: ``score_splits``
    only cuts the parents and refills the flat arrays around
    ``submit_runs``."""
    return executor_mod.TaskScheduler(
        SimpleNamespace(
            data=None, parents=np.arange(n_parents), seed=0, checkpoints=None,
            config=LearnerConfig(parallel=ParallelConfig(schedule=schedule)),
            n_workers=n_workers, stats=SimpleNamespace(),
        )
    )


class TestParentBlockCover:
    @pytest.mark.parametrize(
        "schedule, n_workers, n_blocks",
        [("static", 1, 1), ("static", 2, 2), ("static", 8, 8), ("dynamic", 2, 8)],
        ids=["1-block", "2-blocks", "8-blocks", "dynamic-8-blocks"],
    )
    @pytest.mark.parametrize("n_parents", [1, 3, 120])
    def test_every_pair_is_scored_once_at_its_offset(
        self, n_parents, schedule, n_workers, n_blocks
    ):
        """Each dispatched block answers with the canonical flat index of
        every (node, parent, observation) it scored; refilled, the flat
        arrays read ``0, 1, 2, ...``.  Blocks are non-empty, contiguous and
        cover the parents: ``min(P, blocks)`` of them."""
        scheduler = _scheduler(n_parents, n_workers, schedule)
        offsets = np.cumsum([0] + [n_parents * obs.size for _m, obs, _l, _b in RECORDS])
        dispatched = []

        def submit_runs(fn, items, **_kwargs):
            assert fn is executor_mod._score_chunk_run
            results = []
            for l0, l1, records, want_steps in items:
                assert not want_steps  # untraced: only a trace reads steps
                dispatched.append((l0, l1))
                flat = np.concatenate([
                    offsets[q] + np.arange(l0 * obs.size, l1 * obs.size)
                    for q, (_m, obs, _l, _b) in enumerate(records)
                ])
                results.append((flat.astype(float), flat, flat % 3 == 0))
            return results

        scheduler.submit_runs = submit_runs
        scores, steps, accepted = scheduler.score_splits(RECORDS)
        every = np.arange(offsets[-1])
        np.testing.assert_array_equal(scores, every)
        np.testing.assert_array_equal(steps, every)
        np.testing.assert_array_equal(accepted, every % 3 == 0)
        assert len(dispatched) == min(n_parents, n_blocks)
        assert all(l0 < l1 for l0, l1 in dispatched)
        assert [l0 for l0, _l1 in dispatched] == [0] + [l1 for _l0, l1 in dispatched[:-1]]
        assert dispatched[-1][1] == n_parents


def _bench_yeast() -> ExpressionMatrix:
    """The benchmark's ``bench`` yeast matrix, built as its set-up builds
    it: structure seed 7, N(0, 0.2) noise drawn from seed 7."""
    structure = make_module_dataset(120, 128, seed=7)
    noise = np.random.default_rng(7).normal(0.0, 0.2, size=(120, 128))
    matrix = structure.matrix
    return ExpressionMatrix(matrix.values + noise, matrix.var_names, matrix.obs_names)


def _one_module(matrix, seed, backend, n_workers, **learner):
    """Learn every variable as one module; one module on two workers is
    split mode.  Returns the network and the run's kernel counters."""
    config = LearnerConfig(
        **learner, parallel=ParallelConfig(n_workers=n_workers, kernel_backend=backend)
    )
    trace = WorkTrace()
    result = LemonTreeLearner(config).learn_from_modules(
        matrix, [list(range(matrix.n_vars))], seed=seed, trace=trace
    )
    return result.network, trace.kernel_counters


class TestSplitModeCounts:
    @pytest.mark.skipif(not NATIVE, reason="margin rows are the native batch's")
    def test_split_mode_fills_each_margin_row_once(self):
        """The ``bench`` yeast matrix as one 120-variable module: two
        workers' parent blocks fill exactly the margin rows the in-process
        batch fills (a cut by row range refilled them per rank)."""
        runs = [
            _one_module(
                _bench_yeast(), 31, "native", n_workers,
                max_sampling_steps=25, sampling_stop_repeats=2,
            )
            for n_workers in (1, 2)
        ]
        (one, alone), (two, split) = runs
        assert one == two
        for key in ("margin_rows_filled", "margin_row_uses", "hits", "evaluations"):
            assert split[key] == alone[key], key

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_split_mode_counts_what_one_process_counts(self, backend):
        """On the tie-grid scenario (every row the same profile) the memo
        counters of two workers' blocks add up to the in-process ones."""
        matrix = get_scenario("tie-grid").build(24, 16, 3).matrix
        (one, alone), (two, split) = (
            _one_module(matrix, 5, backend, n_workers, max_sampling_steps=5)
            for n_workers in (1, 2)
        )
        assert one == two
        assert (split["hits"], split["evaluations"]) == (alone["hits"], alone["evaluations"])


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_untraced_split_mode_pool_ships_no_steps(self, monkeypatch, backend):
        """Two pool workers score one module's parent blocks: untraced, no
        block comes back with steps and selection is handed none; traced,
        every block counts them.  Both learn the one-worker network."""
        blocks, selected = [], []
        gather, select = executor_mod.gather_parent_blocks, executor_mod.select_phase

        def gathering(n_obs, n_parents, cut, parts):
            blocks.extend(part[1] for part in parts)
            return gather(n_obs, n_parents, cut, parts)

        def selecting(*args):
            selected.append(args[9])  # the flat steps
            return select(*args)

        monkeypatch.setattr(executor_mod, "gather_parent_blocks", gathering)
        monkeypatch.setattr(executor_mod, "select_phase", selecting)
        matrix = make_module_dataset(24, 16, seed=7).matrix
        config = LearnerConfig(
            max_sampling_steps=5,
            parallel=ParallelConfig(n_workers=2, kernel_backend=backend),
        )
        members = [list(range(matrix.n_vars))]
        for trace in (None, WorkTrace()):
            del blocks[:], selected[:]
            result = LemonTreeLearner(config).learn_from_modules(
                matrix, members, seed=5, trace=trace
            )
            assert result.stats["executor"]["n_workers"] == 2
            assert len(blocks) == 8 and len(selected) == 1  # 4 blocks a worker, 1 module
            counted = [steps is not None for steps in blocks + selected]
            assert counted == [trace is not None] * 9
        one = LearnerConfig(max_sampling_steps=5, parallel=ParallelConfig(kernel_backend=backend))
        alone = LemonTreeLearner(one).learn_from_modules(matrix, members, seed=5)
        assert result.network == alone.network


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
def test_more_ranks_and_workers_than_parents(tiny_matrix, backend, rng_backend):
    """Three SPMD ranks over two candidate parents: one rank's block is
    empty and scores nothing, and the network still equals the sequential
    one; so does GENOMICA's on two workers over the same two parents."""
    parallel = ParallelConfig(kernel_backend=backend)
    config = LearnerConfig(
        max_sampling_steps=3, candidate_parents=(0, 5), rng_backend=rng_backend,
        parallel=parallel,
    )
    assert (
        ParallelLearner(config).learn(tiny_matrix, seed=3, p=3).network
        == LemonTreeLearner(config).learn(tiny_matrix, seed=3).network
    )
    genomica = GenomicaConfig(
        n_modules=3, max_iterations=2, candidate_parents=(0, 5), rng_backend=rng_backend,
        parallel=parallel,
    )
    pooled = replace(genomica, parallel=ParallelConfig(n_workers=2, kernel_backend=backend))
    assert (
        GenomicaLearner(pooled).learn(tiny_matrix, seed=3).network
        == GenomicaLearner(genomica).learn(tiny_matrix, seed=3).network
    )


class TestEmptyCandidateParents:
    """``candidate_parents=()`` is refused by its one reader,
    ``LearnerConfig.resolve_candidate_parents``, on every learner and
    backend, not deep in scoring."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return make_module_dataset(8, 6, n_modules=2, seed=1).matrix

    @staticmethod
    def _config(backend, n_workers=1):
        return LearnerConfig(
            candidate_parents=(), max_sampling_steps=3,
            parallel=ParallelConfig(n_workers=n_workers, kernel_backend=backend),
        )

    def test_the_reader_refuses(self):
        with pytest.raises(ValueError, match="candidate_parents"):
            LearnerConfig(candidate_parents=()).resolve_candidate_parents(8)
        assert LearnerConfig(candidate_parents=(3,)).resolve_candidate_parents(8) == (3,)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_lemon_tree(self, matrix, backend, n_workers):
        learner = LemonTreeLearner(self._config(backend, n_workers))
        with pytest.raises(ValueError, match="candidate_parents"):
            learner.learn_from_modules(matrix, [[0, 1, 2, 3], [4, 5, 6, 7]], seed=1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spmd_and_reference(self, matrix, backend):
        with pytest.raises(ValueError, match="candidate_parents"):
            ParallelLearner(self._config(backend)).learn(matrix, seed=1, p=2)
        with pytest.raises(ValueError, match="candidate_parents"):
            ReferenceLearner(self._config(backend)).learn(matrix, seed=1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_genomica(self, matrix, backend, n_workers):
        config = GenomicaConfig(
            n_modules=2, max_iterations=1, candidate_parents=(),
            parallel=ParallelConfig(n_workers=n_workers, kernel_backend=backend),
        )
        with pytest.raises(ValueError, match="candidate_parents"):
            GenomicaLearner(config).learn(matrix, seed=1)
