"""The native batch scoring entry: many tree nodes, shared margin rows.

``repro_score_batch`` scores a batch of nodes parent by parent against one
table of ``log1p(exp(-|z|))`` rows.  Everything it returns — scores, steps,
beta indices, the three memo counters, a lent memo's end state — must equal
what each node's own NumPy chain produces, whatever the nodes share, however
small the table, and wherever the draws come from.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_to_json
from repro.parallel.trace import WorkTrace
from repro.rng.streams import IndexedStream, make_stream
from repro.scoring import kernel as kernel_mod
from repro.scoring.kernel import (
    ChainNode,
    LazySplitKernel,
    consume_kernel_totals,
    run_chains,
)
from repro.scoring.split_score import SplitScorer
from repro.trees.splits import score_nodes

pytestmark = pytest.mark.skipif(
    _native.load() is None,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)

#: universe widths around the pairwise sum's regimes: sequential below 8,
#: eight accumulators to 128, halving recursion above
WIDTHS = [1, 7, 8, 9, 127, 128, 129, 192, 300]
#: how a batch's nodes overlap in the universe
LAYOUTS = ["shared", "nested", "disjoint", "unsorted"]


def _node_obs(layout, n_u, rng):
    """Two or three nodes' observations as universe columns."""
    everything = np.arange(n_u)
    if layout == "shared":
        return [everything, everything.copy()]
    if layout == "nested":
        return [everything, everything[: max(1, n_u // 2)], everything[: max(1, n_u // 4)]]
    if layout == "disjoint":
        cut = max(1, n_u // 2)
        return [everything[:cut], everything[cut:] if cut < n_u else everything[:1]]
    return [rng.permutation(n_u), rng.permutation(n_u)[: max(1, n_u - 3)]]


def _universe(kind, n_parents, n_u, rng):
    values = rng.normal(size=(n_parents, n_u))
    if kind == "ties":  # duplicate parent values (shared groups), signed zeros
        values = np.round(values)
        zeros = values == 0.0
        values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return values


def _oracle(uvalues, obs, sign, items, scorer, chunk_elements, rows):
    """The node's own NumPy chain: the kernel (counters, memo) and results."""
    oracle = LazySplitKernel(
        uvalues[:, obs], sign, scorer.beta_grid, max_chunk_elements=chunk_elements,
        backend="numpy",
    )
    return oracle, scorer.score_batch_kernel(oracle, rows, item_indices=items)


class TestBatchEqualsPerNodeChain:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_u=st.sampled_from(WIDTHS),
        layout=st.sampled_from(LAYOUTS),
        kind=st.sampled_from(["random", "ties"]),
        n_parents=st.integers(1, 3),
        max_steps=st.sampled_from([1, 3, 6]),
        chunk_elements=st.sampled_from([1, 40, None]),
        rng_backend=st.sampled_from(["philox", "mrg"]),
        lend=st.booleans(),
        first=st.integers(0, 5),
    )
    def test_property_results_counters_memos(
        self, seed, n_u, layout, kind, n_parents, max_steps, chunk_elements,
        rng_backend, lend, first,
    ):
        """... over node sets with shared, nested, disjoint and unsorted
        observations, keyed spans (Philox) and array draws (MRG), lent and
        scratch memos, a sub-range of the first node's candidates, one row
        or many per evaluation chunk — and with a margin-table budget that
        holds one parent's rows (the default, and exactly), that is one
        element short and that is zero (no sharing: the fused evaluator),
        all giving identical output."""
        _assert_batch_equals_per_node_chains(
            seed, n_u, layout, kind, n_parents, max_steps, chunk_elements,
            rng_backend, lend, first,
        )


def _assert_batch_equals_per_node_chains(
    seed, n_u, layout, kind, n_parents, max_steps, chunk_elements, rng_backend, lend,
    first,
):
    rng = np.random.default_rng(seed)
    uvalues = _universe(kind, n_parents, n_u, rng)
    scorer = SplitScorer(max_steps=max_steps, stop_repeats=2)
    specs = []
    for q, obs in enumerate(_node_obs(layout, n_u, rng)):
        sign = np.where(rng.random(obs.size) < 0.5, 1.0, -1.0)
        n_items = n_parents * obs.size
        items = np.arange(min(first, n_items - 1), n_items) if q == 0 else None
        span = IndexedStream(
            make_stream(seed, "batch", q, backend=rng_backend), scorer.draws_per_item
        ).items_span(
            0 if items is None else int(items[0]),
            n_items if items is None else items.size,
        )
        specs.append((obs, sign, items, span))

    consume_kernel_totals()
    oracles = [
        _oracle(
            uvalues, obs, sign, items, scorer, chunk_elements,
            (span if isinstance(span, np.ndarray) else span.array()).reshape(
                -1, scorer.draws_per_item
            ),
        )
        for obs, sign, items, span in specs
    ]
    want = consume_kernel_totals()
    outputs = []
    table = scorer.beta_grid.size * n_u * n_u  # one parent's margin rows
    for table_elements in (None, table, table - 1, 0):
        nodes = [ChainNode(obs, sign, span, items) for obs, sign, items, span in specs]
        for node, (oracle, _results) in zip(nodes, oracles):
            if lend:
                groups = oracle.item_groups
                node.groups = groups if node.items is None else groups[node.items]
                node.cache = np.zeros_like(oracle._cache)
                node.seen = np.zeros_like(oracle._seen)
        *flat, bounds, counters = run_chains(
            _native.load(), uvalues, scorer.beta_grid, nodes, max_steps, 2,
            max_chunk_elements=chunk_elements, table_elements=table_elements,
        )
        got = consume_kernel_totals()
        for node, lo, hi, counted, (oracle, results) in zip(
            nodes, bounds, bounds[1:], counters, oracles
        ):
            for part, expected in zip(flat, results):
                np.testing.assert_array_equal(part[lo:hi], expected)
            assert counted == (
                oracle.hits, oracle.evaluations, oracle.peak_chunk_elements
            )
            if lend:
                np.testing.assert_array_equal(node.seen, oracle._seen)
                np.testing.assert_array_equal(
                    node.cache[node.seen], oracle._cache[oracle._seen]
                )
        for key in ("hits", "evaluations", "peak_chunk_elements"):
            assert got[key] == want[key]
        uses, filled = got.get("margin_row_uses", 0), got.get("margin_rows_filled", 0)
        if table_elements is None or table_elements >= table:
            assert filled <= uses == want["evaluations"]
            assert filled <= n_parents * scorer.beta_grid.size * n_u
        else:
            assert uses == filled == 0  # nothing shared: the fused evaluator
        assert ("philox_blocks" in got) == (rng_backend == "philox")
        outputs.append(flat)
    for other in outputs[1:]:
        for part, expected in zip(other, outputs[0]):
            np.testing.assert_array_equal(part, expected)


@pytest.fixture
def libm_provider():
    """The loaded library re-initialised on the scalar libm provider — what
    a machine without AVX-512 runs, and on one with it nothing else does —
    then restored to SVML however the test ends."""
    kernels = _native.load()
    kernels._lib.repro_native_init(b"", 0)
    try:
        yield kernels
    finally:
        if kernels.provider == "svml":
            restored = kernels._lib.repro_native_init(_native._numpy_umath_path().encode(), 1)
            assert restored == 1


class TestLibmProvider:
    """The scalar half of every provider branch (``margin_sum``'s apply
    and ``pw_sum`` among them) against the same oracles."""

    def test_certifies(self, libm_provider):
        assert libm_provider._lib.repro_native_provider() == 0
        assert _native._certify(libm_provider) is None

    @pytest.mark.parametrize("n_u", WIDTHS)
    def test_batch_equals_per_node_chain(self, libm_provider, n_u):
        for q, layout in enumerate(LAYOUTS):
            _assert_batch_equals_per_node_chains(
                seed=n_u * 8 + q, n_u=n_u, layout=layout,
                kind=("random", "ties")[q % 2], n_parents=1 + q % 3, max_steps=3,
                chunk_elements=(None, 40)[q % 2], rng_backend=("philox", "mrg")[q // 2 % 2],
                lend=q % 2 == 1, first=q,
            )


class TestPhiloxBlocks:
    """A batch call counts the Philox blocks it computes for its chains'
    draws (``kernel_counters["philox_blocks"]``).  Each chain item reads
    through a cursor of its own, so two consecutive steps share a block."""

    def _run(self, uvalues, scorer, nodes):
        consume_kernel_totals()
        *flat, bounds, _counters = run_chains(
            _native.load(), uvalues, scorer.beta_grid, nodes,
            scorer.max_steps, scorer.stop_repeats,
        )
        return flat, bounds, consume_kernel_totals()

    def test_array_draws_compute_none(self):
        uvalues, scorer, nodes = _two_nodes()
        nodes[0].uniforms = nodes[0].uniforms.array()
        _flat, _bounds, totals = self._run(uvalues, scorer, nodes[:1])
        assert totals["margin_row_uses"] > 0
        assert "philox_blocks" not in totals

    def test_each_item_computes_the_blocks_its_draws_touch(self):
        """An item that took ``steps`` steps read draws ``a`` to ``a + 2 *
        steps`` of its span: the four-draw blocks those touch, never more
        than ``(2 * steps) // 4 + 2``."""
        uvalues, scorer, nodes = _two_nodes()
        (_best, steps, _idx), bounds, totals = self._run(uvalues, scorer, nodes)
        touched = bound = 0
        for node, lo, hi in zip(nodes, bounds, bounds[1:]):
            first = node.uniforms.start + scorer.draws_per_item * np.arange(hi - lo)
            last = first + 2 * steps[lo:hi]
            touched += int((last // 4 - first // 4 + 1).sum())
            bound += int(((2 * steps[lo:hi]) // 4 + 2).sum())
        assert totals["philox_blocks"] == touched <= bound


def _two_nodes(seed=5, n_parents=2, n_u=12):
    rng = np.random.default_rng(seed)
    uvalues = rng.normal(size=(n_parents, n_u))
    scorer = SplitScorer(max_steps=4, stop_repeats=2)
    nodes = []
    for q, obs in enumerate((np.arange(n_u), np.arange(0, n_u, 3))):
        span = IndexedStream(
            make_stream(seed, "pre", q), scorer.draws_per_item
        ).items_span(0, n_parents * obs.size)
        nodes.append(
            ChainNode(obs, np.where(rng.random(obs.size) < 0.5, 1.0, -1.0), span)
        )
    return uvalues, scorer, nodes


class TestPreconditions:
    """What the shared path relies on is checked before C, by name; a
    ``ValueError`` leaves every memo untouched."""

    def _run(self, uvalues, scorer, nodes, **kwargs):
        return run_chains(
            _native.load(), uvalues, scorer.beta_grid, nodes,
            scorer.max_steps, scorer.stop_repeats, **kwargs,
        )

    def test_a_sign_that_is_not_plus_minus_one_takes_the_fused_evaluator(self):
        """``LazySplitKernel`` accepts any sign vector; only +-1 ones may
        read shared rows.  The odd node is scored, not refused — by the
        per-row evaluator, bit for bit its own NumPy chain — while its
        batch mate still shares."""
        uvalues, scorer, nodes = _two_nodes()
        nodes[1].sign = nodes[1].sign * np.linspace(0.5, 2.0, nodes[1].sign.size)
        consume_kernel_totals()
        *flat, bounds, counters = self._run(uvalues, scorer, nodes)
        totals = consume_kernel_totals()
        assert totals["margin_row_uses"] == counters[0][1]  # node 0's evaluations only
        for node, lo, hi, counted in zip(nodes, bounds, bounds[1:], counters):
            oracle, results = _oracle(
                uvalues, node.obs, node.sign, None, scorer, None,
                node.uniforms.array().reshape(-1, scorer.draws_per_item),
            )
            for part, expected in zip(flat, results):
                np.testing.assert_array_equal(part[lo:hi], expected)
            assert counted[:2] == (oracle.hits, oracle.evaluations)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda n: setattr(n, "obs", n.obs + 3), "obs must be columns of the universe"),
            (lambda n: setattr(n, "obs", -n.obs), "obs must be columns of the universe"),
            (lambda n: setattr(n, "sign", n.sign[:-1]), "sign must"),
            (lambda n: setattr(n, "items", np.array([3, 40])), "items must be candidates"),
            (lambda n: setattr(n, "items", np.array([13, 2])), "ascending by parent"),
            (lambda n: setattr(n, "uniforms", np.zeros((3, 9))), "uniforms must have shape"),
        ],
    )
    def test_bad_node_is_refused_and_memos_are_untouched(self, damage, message):
        uvalues, scorer, nodes = _two_nodes()
        lender = LazySplitKernel(
            uvalues[:, nodes[0].obs], nodes[0].sign, scorer.beta_grid, backend="native"
        )
        nodes[0].groups, nodes[0].cache, nodes[0].seen = (
            lender.item_groups, lender._cache, lender._seen,
        )
        damage(nodes[1])
        with pytest.raises(ValueError, match=message):
            self._run(uvalues, scorer, nodes)
        assert not lender._seen.any() and not lender._cache.any()

    def test_draw_addresses_go_through_the_one_validator(self):
        """A node's span at the end of the counter: refused before C (where
        ``offset + i`` would wrap to draw 0), by the sweeps' own check."""
        from repro.rng.philox import PhiloxStream

        uvalues, scorer, nodes = _two_nodes()
        count = nodes[1].uniforms.count
        nodes[1].uniforms = PhiloxStream(3).span((1 << 64) - count, count)
        with pytest.raises(ValueError, match="Philox key must fit 64 bits"):
            self._run(uvalues, scorer, nodes)

    def test_memo_that_does_not_match_is_refused(self):
        uvalues, scorer, nodes = _two_nodes()
        nodes[0].groups = np.zeros(nodes[0].obs.size * uvalues.shape[0], dtype=np.int64)
        nodes[0].cache, nodes[0].seen = np.zeros(6), np.zeros(6, dtype=bool)
        with pytest.raises(ValueError, match="memo tables do not match the beta grid"):
            self._run(uvalues, scorer, nodes)
        nodes[0].cache, nodes[0].seen = np.zeros(7), np.zeros(7, dtype=bool)
        nodes[0].groups[3] = 1
        with pytest.raises(ValueError, match="groups must name one memo row per item"):
            self._run(uvalues, scorer, nodes)

    def test_an_allocation_cap_bounds_the_table(self):
        """The table is optional: a cap one parent's rows would pass turns
        sharing off (the fused evaluator, same output) instead of failing;
        the evaluation chunks fail under a cap as the NumPy chain's do."""
        uvalues, scorer, nodes = _two_nodes()
        n_u = uvalues.shape[1]
        table = scorer.beta_grid.size * n_u * n_u
        *want, _bounds, _counters = self._run(uvalues, scorer, nodes)
        consume_kernel_totals()
        for cap, shares in ((table, True), (table - 1, False)):
            with kernel_mod.allocation_cap(cap):
                *got, _bounds, _counters = self._run(uvalues, scorer, nodes)
            assert ("margin_rows_filled" in consume_kernel_totals()) == shares
            for part, expected in zip(got, want):
                np.testing.assert_array_equal(part, expected)
        with kernel_mod.allocation_cap(n_u - 1):
            with pytest.raises(kernel_mod.AllocationCapExceeded, match="evaluation chunk"):
                self._run(uvalues, scorer, nodes)


class TestCertification:
    def test_doctored_entry_fails_certification_by_name(self):
        """A margin row read under another node's sign — here every node
        but a batch's first scored as if all its observations were left
        ones, what folding the first reader's sign into the row amounts to
        — is caught by the load-time battery, which names the entry."""
        kernels = _native.load()

        class Doctored:
            def __getattr__(self, name):
                return getattr(kernels, name)

            def score_batch(self, uvalues, urow, beta_grid, nodes, *args):
                doctored = [nodes[0]] + [
                    dataclasses.replace(node, sign=np.abs(node.sign)) for node in nodes[1:]
                ]
                return kernels.score_batch(uvalues, urow, beta_grid, doctored, *args)

        assert _native._certify(kernels) is None
        mismatch = _native._certify(Doctored())
        assert mismatch is not None and mismatch.startswith("score_batch mismatch")


@pytest.fixture
def entries(monkeypatch):
    """How often a ``learn()`` enters each scoring path."""
    counted = dict.fromkeys(("batch", "batch_nodes", "kernels", "run_chain", "numpy_chain"), 0)

    def counting(target, name, key, size=lambda *args, **kwargs: 1):
        original = getattr(target, name)

        def wrapper(*args, **kwargs):
            counted[key] += size(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, wrapper)

    counting(_native.NativeKernels, "score_batch", "batch")
    counting(
        _native.NativeKernels, "score_batch", "batch_nodes",
        lambda self, uvalues, urow, grid, nodes, *rest: len(nodes),
    )
    counting(LazySplitKernel, "__init__", "kernels")
    counting(LazySplitKernel, "run_chain", "run_chain")
    counting(SplitScorer, "_run_chain", "numpy_chain")
    return counted


class TestOneNativeCallPerModuleBatch:
    @staticmethod
    def _config(backend):
        return LearnerConfig(
            max_sampling_steps=5, n_ganesh_runs=2,
            parallel=ParallelConfig(kernel_backend=backend),
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_native_learn_scores_each_module_batch_in_one_call(
        self, tiny_matrix, entries, traced
    ):
        """In-process every pending module is one batch: one native scoring
        call for all their nodes, no per-node kernel, table or chain."""
        trace = WorkTrace() if traced else None
        result = LemonTreeLearner(self._config("native")).learn(tiny_matrix, 3, trace=trace)
        assert result.stats["n_internal_nodes"] > 1
        assert entries["batch"] == 1
        assert entries["batch_nodes"] == result.stats["n_internal_nodes"]
        assert entries["kernels"] == entries["run_chain"] == entries["numpy_chain"] == 0
        if traced:
            counters = trace.kernel_counters
            assert counters["margin_row_uses"] == counters["evaluations"]
            assert 0 < counters["margin_rows_filled"] < counters["margin_row_uses"]
            assert counters["philox_blocks"] > 0

    @pytest.mark.parametrize("use_checkpoints", [False, True])
    def test_a_served_job_scores_like_a_one_shot_learn(
        self, tiny_matrix, tmp_path, entries, use_checkpoints
    ):
        """A daemon job on one worker enters the scoring paths exactly as
        ``learn()`` does: one native call for every node of the batch."""
        from repro.service import InferenceService
        from repro.validation.metrics import network_fingerprint

        config = self._config("native")
        oracle = LemonTreeLearner(config).learn(tiny_matrix, 3)
        one_shot = dict(entries)
        entries.update(dict.fromkeys(entries, 0))
        with InferenceService(tmp_path, max_inflight=1) as service:
            payload = service.wait(
                service.submit(
                    tiny_matrix, config, 3, use_checkpoints=use_checkpoints
                )
            )
        assert payload["fingerprint"] == network_fingerprint(oracle.network)
        assert one_shot["batch"] == 1
        assert one_shot["batch_nodes"] == oracle.stats["n_internal_nodes"]
        assert entries == one_shot

    def test_numpy_learn_scores_node_by_node(self, tiny_matrix, entries):
        trace = WorkTrace()
        result = LemonTreeLearner(self._config("numpy")).learn(tiny_matrix, 3, trace=trace)
        assert entries["batch"] == entries["run_chain"] == 0
        assert entries["kernels"] == entries["numpy_chain"] == result.stats["n_internal_nodes"]
        assert "margin_row_uses" not in trace.kernel_counters

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_an_mrg_stream_is_scored_holding_one_nodes_draws(self, entries, backend):
        """An MRG stream has no addresses to hand out: its draws are arrays,
        51 x 8 B per split.  They are fetched node by node — never a whole
        batch's at once — and the nodes run as one-node batches."""
        import tracemalloc

        data = np.random.default_rng(0).normal(size=(6, 40))
        parents, obs = np.arange(6), np.arange(40)
        scorer = SplitScorer(max_steps=25)
        istream = IndexedStream(
            make_stream(1, "splits", 0, backend="mrg"), scorer.draws_per_item
        )
        nodes = [(obs, obs[:20], istream, q * parents.size * obs.size) for q in range(16)]
        node_draws = parents.size * obs.size * scorer.draws_per_item * 8
        previous = kernel_mod.set_kernel_backend(backend)
        try:
            score_nodes(data, parents, scorer, nodes[:1])  # warm imports and caches
            tracemalloc.start()
            score_nodes(data, parents, scorer, nodes)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            kernel_mod.set_kernel_backend(previous)
        assert peak < 5 * node_draws < len(nodes) * node_draws
        assert entries["kernels"] == len(nodes) + 1
        assert entries["batch_nodes"] == (len(nodes) + 1 if backend == "native" else 0)

    def test_batches_and_backends_learn_one_network(self, tiny_matrix):
        """... whatever the byte budget cuts a module batch into."""
        from repro.core import learner as learner_mod

        networks = []
        for backend, budget in (("numpy", None), ("native", None), ("native", 1)):
            saved = learner_mod.SCORE_BATCH_BYTES
            learner_mod.SCORE_BATCH_BYTES = saved if budget is None else budget
            try:
                networks.append(
                    network_to_json(
                        LemonTreeLearner(self._config(backend)).learn(tiny_matrix, 3).network
                    )
                )
            finally:
                learner_mod.SCORE_BATCH_BYTES = saved
        assert networks[0] == networks[1] == networks[2]

    def test_one_node_batch_is_the_per_node_entry(self, tiny_matrix):
        """``score_nodes`` over many nodes equals node-by-node calls of it
        (what ``score_node_splits`` and the benchmark's replay make)."""
        data = tiny_matrix.values
        parents = np.arange(data.shape[0])
        scorer = SplitScorer(max_steps=4)
        istream = IndexedStream(make_stream(1, "splits", 0), scorer.draws_per_item)
        rng = np.random.default_rng(2)
        nodes, base = [], 0
        for size in (data.shape[1], 5, 3):
            obs = rng.permutation(data.shape[1])[:size]
            nodes.append((obs, obs[: size // 2], istream, base))
            base += parents.size * size
        together = score_nodes(data, parents, scorer, nodes)
        apart = [score_nodes(data, parents, scorer, [node]) for node in nodes]
        for field, part in enumerate(together):
            np.testing.assert_array_equal(
                part, np.concatenate([one[field] for one in apart])
            )


class TestCheckpointedBatchResumes:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_deleted_checkpoints_of_a_batch_run_are_relearned_alone(
        self, tiny_matrix, tmp_path, workers
    ):
        """A batch checkpoints module by module; a rerun batches only what
        is missing, rewrites no survivor and writes the same network."""
        config = LearnerConfig(
            max_sampling_steps=5, parallel=ParallelConfig(n_workers=workers)
        )
        learner = LemonTreeLearner(config)
        first = learner.learn(tiny_matrix, 3, checkpoint_dir=tmp_path)
        files = sorted(tmp_path.glob("module_*.json"))
        assert len(files) == first.stats["n_modules"] > 2
        for lost in files[::2]:
            lost.unlink()
        stamps = {f.name: f.stat().st_mtime_ns for f in files[1::2]}
        resumed = learner.learn(tiny_matrix, 3, checkpoint_dir=tmp_path)
        assert network_to_json(resumed.network) == network_to_json(first.network)
        assert json.loads(network_to_json(resumed.network))  # what `cmp` compares
        assert all(f.exists() for f in files)
        for name, stamp in stamps.items():
            assert (tmp_path / name).stat().st_mtime_ns == stamp
