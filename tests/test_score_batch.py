"""The native batch scoring entry: many tree nodes, shared margin rows.

``repro_score_batch`` scores a batch of nodes parent by parent against one
table of ``log1p(exp(-|z|))`` rows.  Everything it returns — scores, steps,
beta indices, the three memo counters — must equal
what each node's own NumPy chain produces, whatever the nodes share, however
small the table, and wherever the draws come from; a grid batch's must equal
each node's ``score_grid_best_kernel``.
"""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.core.output import network_to_json
from repro.data.synthetic import make_module_dataset
from repro.parallel.trace import WorkTrace
from repro.rng.streams import IndexedStream, make_stream
from repro.scoring import kernel as kernel_mod
from repro.scoring import split_score as split_score_mod
from repro.scoring.kernel import (
    ChainNode,
    LazySplitKernel,
    chain_counters,
    run_chains,
)
from repro.scoring.split_score import DEFAULT_BETA_GRID, SplitScorer
from repro.trees.splits import score_nodes

pytestmark = pytest.mark.skipif(
    _native.load() is None,
    reason=f"native backend unavailable ({_native.availability()['status']})",
)

#: universe widths around the pairwise sum's regimes: sequential below 8,
#: eight accumulators to 128, halving recursion above
WIDTHS = [1, 7, 8, 9, 127, 128, 129, 192, 300]
#: those and every width to 17 and around 24 and 32 (partial eight-lane
#: blocks and 8 x 8 tiles)
EDGE_WIDTHS = st.one_of(st.integers(1, 17), st.sampled_from([23, 24, 25, 31, 32, 33, *WIDTHS]))
#: how a batch's nodes overlap in the universe; ``remainders`` gives node
#: sizes of every remainder mod MARGIN_GROUP (the keys the C entry sums four
#: at a time), ``single`` one-observation nodes, ``threshold`` a node
#: reading one row short of, or exactly, the whole-fill rule's row count
LAYOUTS = ["shared", "nested", "disjoint", "unsorted", "remainders", "single", "threshold"]


def _node_obs(layout, n_u, rng):
    """Two or three nodes' observations as universe columns."""
    everything = np.arange(n_u)
    if layout == "remainders":
        return [everything[: max(1, n_u - r)] for r in range(4)]
    if layout == "single":
        return [everything[:1], rng.integers(n_u, size=1)]
    if layout == "threshold":  # 32 reads of each column: both betas see all
        k = min(n_u, _whole_rows(n_u) - int(rng.integers(2)))
        return [np.tile(rng.permutation(n_u)[:k], 32)]
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
    elif kind == "two-valued":  # every value of a row tied with half the row
        values = np.where(values < 0.0, -0.5, 0.5)
    elif kind == "constant":  # one value per row: one group per parent
        values[:] = values[:, :1]
    return values


def _oracle(uvalues, obs, sign, scorer, chunk_elements, rows):
    """The node's own NumPy chain: the kernel (counters, memo) and results."""
    oracle = LazySplitKernel(
        uvalues[:, obs], sign, scorer.beta_grid, max_chunk_elements=chunk_elements
    )
    return oracle, scorer.score_batch_kernel(oracle, rows)


class TestBatchEqualsPerNodeChain:
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_u=EDGE_WIDTHS,
        layout=st.sampled_from(LAYOUTS),
        kind=st.sampled_from(["random", "ties", "two-valued", "constant"]),
        n_parents=st.integers(1, 3),
        max_steps=st.sampled_from([1, 3, 6]),
        chunk_elements=st.sampled_from([1, 40, None]),
        rng_backend=st.sampled_from(["philox", "mrg"]),
    )
    def test_property_results_counters_memos(
        self, seed, n_u, layout, kind, n_parents, max_steps, chunk_elements,
        rng_backend,
    ):
        """... over node sets with shared, nested, disjoint and unsorted
        observations, nodes of one observation, of every size mod four and
        at the whole-fill threshold; continuous, tied, two-valued and
        constant parent rows; Philox and MRG spans, one row
        or many per evaluation chunk — and with a margin-table budget that
        holds one parent's rows (the default, and exactly), that is one
        element short and that is zero (no sharing: the fused evaluator),
        all giving identical output."""
        _assert_batch_equals_per_node_chains(
            seed, n_u, layout, kind, n_parents, max_steps, chunk_elements, rng_backend,
        )


def _assert_batch_equals_per_node_chains(
    seed, n_u, layout, kind, n_parents, max_steps, chunk_elements, rng_backend,
):
    rng = np.random.default_rng(seed)
    uvalues = _universe(kind, n_parents, n_u, rng)
    grid = (0.5, 4.0) if layout == "threshold" else DEFAULT_BETA_GRID
    scorer = SplitScorer(grid, max_steps=max_steps, stop_repeats=2, kernel_backend="numpy")
    specs = []
    for q, obs in enumerate(_node_obs(layout, n_u, rng)):
        sign = np.where(rng.random(obs.size) < 0.5, 1.0, -1.0)
        span = IndexedStream(
            make_stream(seed, "batch", q, backend=rng_backend), scorer.draws_per_item
        ).items_span(0, n_parents * obs.size)
        specs.append((obs, sign, span))
    if layout == "threshold" and kind == "random":  # k distinct values, each read at both betas
        whole = _whole_blocks(uvalues, scorer.beta_grid, specs, max_steps)
        k = np.unique(specs[0][0]).size
        assert whole.all() if k >= _whole_rows(n_u) else not whole.any()

    oracles = [
        _oracle(
            uvalues, obs, sign, scorer, chunk_elements,
            span.array().reshape(-1, scorer.draws_per_item),
        )
        for obs, sign, span in specs
    ]
    want = scorer.drain_counters()
    outputs = []
    table = scorer.beta_grid.size * n_u * n_u  # one parent's margin rows
    for table_elements in (None, table, table - 1, 0):
        nodes = [ChainNode(obs, sign, span) for obs, sign, span in specs]
        *flat, bounds, counters, traffic = run_chains(
            _native.load(), uvalues, scorer.beta_grid, nodes, max_steps, 2,
            max_chunk_elements=chunk_elements, table_elements=table_elements,
        )
        got = chain_counters(counters, traffic)
        for lo, hi, counted, (oracle, results) in zip(bounds, bounds[1:], counters, oracles):
            for part, expected in zip(flat, results):
                np.testing.assert_array_equal(part[lo:hi], expected)
            assert counted == (
                oracle.hits, oracle.evaluations, oracle.peak_chunk_elements
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


class TestGridBatch:
    """``run_chains(..., grid=True)``: GENOMICA's exhaustive search over the
    beta grid, every candidate of every node, in one call."""

    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_u=EDGE_WIDTHS,
        layout=st.sampled_from(LAYOUTS),
        kind=st.sampled_from(["random", "ties", "two-valued", "constant"]),
        n_parents=st.integers(1, 3),
        n_beta=st.sampled_from([2, 3, 7]),
        chunk_elements=st.sampled_from([1, 40, None]),
        special=st.booleans(),
    )
    def test_property_equals_grid_best_per_node(
        self, seed, n_u, layout, kind, n_parents, n_beta, chunk_elements, special
    ):
        """... over the chain property's node sets and parent rows, with
        ±0, ±1e308 and an infinity in the universe or not (NaN and -inf
        scores), on grids of two to seven points, sharing one margin table
        (filled whole or row by row), exactly one parent's rows or none:
        node by node the scores and beta indices of its NumPy kernel's
        ``score_grid_best_kernel`` and its hits, evaluations and peak; a
        shared table fills each (parent, beta, value) row its nodes read
        once, at every beta, and no draw is computed."""
        rng = np.random.default_rng(seed)
        uvalues = _universe(kind, n_parents, n_u, rng)
        if special:
            uvalues.flat[rng.permutation(uvalues.size)[:3]] = (-0.0, 1e308, np.inf)
            uvalues.flat[rng.integers(uvalues.size)] = -1e308
        grid = np.geomspace(0.25, 16.0, n_beta)
        scorer = SplitScorer(grid, kernel_backend="numpy")
        specs = [
            (obs, np.where(rng.random(obs.size) < 0.5, 1.0, -1.0))
            for obs in _node_obs(layout, n_u, rng)
        ]
        with np.errstate(all="ignore"):
            oracles = []
            for obs, sign in specs:
                oracle = LazySplitKernel(
                    uvalues[:, obs], sign, grid, max_chunk_elements=chunk_elements
                )
                oracles.append((oracle, scorer.score_grid_best_kernel(oracle)[:2]))
            want = scorer.drain_counters()
            table = n_beta * n_u * n_u
            read = n_beta * sum(
                len(set(uvalues[l, np.concatenate([obs for obs, _ in specs])].tolist()))
                for l in range(n_parents)
            )
            for table_elements in (None, table, 0):
                best, steps, idx, bounds, counters, traffic = run_chains(
                    _native.load(), uvalues, grid, [ChainNode(*spec) for spec in specs],
                    1, 1, max_chunk_elements=chunk_elements, table_elements=table_elements,
                    grid=True,
                )
                assert steps is None
                for lo, hi, counted, (oracle, (want_best, want_idx)) in zip(
                    bounds, bounds[1:], counters, oracles
                ):
                    np.testing.assert_array_equal(best[lo:hi], want_best)
                    np.testing.assert_array_equal(idx[lo:hi], want_idx)
                    assert counted == (
                        oracle.hits, oracle.evaluations, oracle.peak_chunk_elements
                    )
                got = chain_counters(counters, traffic)
                for key in ("hits", "evaluations", "peak_chunk_elements"):
                    assert got[key] == want[key]
                shared = table_elements != 0
                assert traffic == (read * shared, want["evaluations"] * shared, 0)

    def test_a_tree_is_one_call_and_one_fill_per_row(self, tiny_matrix, monkeypatch):
        """GENOMICA's module build scores all of a tree's internal nodes as
        one grid batch: on the native backend one ``score_batch`` call per
        tree, no ``LazySplitKernel``, and each margin row filled once for
        the whole tree (``margin_rows_filled < margin_row_uses``) — with
        the NumPy backend's network and counters."""
        from repro.genomica import GenomicaConfig, GenomicaLearner

        calls = {"batch": [], "kernels": 0}
        batch, init = _native.NativeKernels.score_batch, LazySplitKernel.__init__

        def batching(self, *args, **kwargs):
            call = inspect.signature(batch).bind(self, *args, **kwargs)
            calls["batch"].append(call.arguments.get("grid", False))
            return batch(self, *args, **kwargs)

        def building(self, *args, **kwargs):
            calls["kernels"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(_native.NativeKernels, "score_batch", batching)
        monkeypatch.setattr(LazySplitKernel, "__init__", building)
        runs = {}
        for backend in ("numpy", "native"):
            config = GenomicaConfig(
                n_modules=3, max_iterations=2, parallel=ParallelConfig(kernel_backend=backend)
            )
            trace = WorkTrace()
            result = GenomicaLearner(config).learn(tiny_matrix, seed=5, trace=trace)
            runs[backend] = (result, trace, dict(calls, batch=list(calls["batch"])))
            calls.update(batch=[], kernels=0)
        (numpy_result, numpy_trace, numpy_calls), (result, trace, native_calls) = (
            runs["numpy"], runs["native"]
        )
        trees = [m for m in result.network.modules if m.trees and m.trees[0].internal_nodes()]
        n_nodes = sum(len(m.trees[0].internal_nodes()) for m in trees)
        assert native_calls == {"batch": [True] * len(trees), "kernels": 0}
        assert numpy_calls == {"batch": [], "kernels": n_nodes}
        assert result.network == numpy_result.network
        assert result.score_history == numpy_result.score_history
        counters = trace.kernel_counters
        for key in ("hits", "evaluations", "peak_chunk_elements"):
            assert counters[key] == numpy_trace.kernel_counters[key]
        assert counters["margin_rows_filled"] < counters["margin_row_uses"]
        assert counters["margin_row_uses"] == counters["evaluations"]


class TestStepsOnRequest:
    """Step counts are an output a caller asks for, as ``best_idx`` is:
    without them C counts in its own scratch and no array is made."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_u=EDGE_WIDTHS,
        layout=st.sampled_from([layout for layout in LAYOUTS if layout != "threshold"]),
        kind=st.sampled_from(["random", "ties", "constant"]),
        n_parents=st.integers(1, 3),
        max_steps=st.sampled_from([1, 3, 6]),
        rng_backend=st.sampled_from(["philox", "mrg"]),
        shared=st.booleans(),
    )
    def test_property_steps_change_nothing_else(
        self, seed, n_u, layout, kind, n_parents, max_steps, rng_backend, shared
    ):
        """A multi-node batch with and without steps, on Philox and MRG
        spans, sharing one margin table or none (``table_elements=0``):
        the same ``best_score`` bytes, beta indices, per-node counters and
        table counters, and ``steps`` is ``None`` only when not asked for."""
        rng = np.random.default_rng(seed)
        uvalues = _universe(kind, n_parents, n_u, rng)
        scorer = SplitScorer(max_steps=max_steps, stop_repeats=2, kernel_backend="numpy")
        nodes = []
        for q, obs in enumerate(_node_obs(layout, n_u, rng)):
            span = IndexedStream(
                make_stream(seed, "steps", q, backend=rng_backend), scorer.draws_per_item
            ).items_span(0, n_parents * obs.size)
            nodes.append(ChainNode(obs, np.where(rng.random(obs.size) < 0.5, 1.0, -1.0), span))
        assert len(nodes) >= 2
        with_steps, without = (
            run_chains(
                _native.load(), uvalues, scorer.beta_grid, nodes, max_steps, 2,
                table_elements=None if shared else 0, want_steps=want_steps,
            )
            for want_steps in (True, False)
        )
        score, steps, idx, bounds, counters, table = with_steps
        assert steps.shape == score.shape and steps.min() >= 1
        assert without[1] is None
        assert without[0].tobytes() == score.tobytes()
        np.testing.assert_array_equal(without[2], idx)
        np.testing.assert_array_equal(without[3], bounds)
        assert without[4] == counters and without[5] == table
        assert (table[1] > 0) == shared

    @staticmethod
    def _steps_selected(monkeypatch, backend):
        """Run an untraced and a traced one-worker ``learn()``; per run, the
        ``steps`` every ``select_phase`` call was handed and every native
        batch returned, and the traced run's trace."""
        from repro.core import learner as learner_mod

        seen = {"select": [], "batch": []}
        select, batch = learner_mod.select_phase, _native.NativeKernels.score_batch

        def selecting(*args, **kwargs):
            seen["select"].append(args[9])  # the flat steps
            return select(*args, **kwargs)

        def batching(*args, **kwargs):
            out = batch(*args, **kwargs)
            seen["batch"].append(out[1])
            return out

        monkeypatch.setattr(learner_mod, "select_phase", selecting)
        monkeypatch.setattr(_native.NativeKernels, "score_batch", batching)
        config = LearnerConfig(
            max_sampling_steps=5, parallel=ParallelConfig(kernel_backend=backend)
        )
        matrix = make_module_dataset(24, 16, seed=7).matrix
        runs = []
        for trace in (None, WorkTrace()):
            LemonTreeLearner(config).learn(matrix, 3, trace=trace)
            runs.append(({key: list(found) for key, found in seen.items()}, trace))
            for found in seen.values():
                found.clear()
        return runs

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_an_untraced_learn_builds_no_step_array(self, monkeypatch, backend):
        """Selection is handed no steps and the native batch returns none
        unless the learn is traced."""
        (untraced, _), (traced, _) = self._steps_selected(monkeypatch, backend)
        assert untraced["select"] and all(steps is None for steps in untraced["select"])
        assert all(steps is None for steps in untraced["batch"])
        assert traced["select"] and all(steps.size for steps in traced["select"])
        assert (len(traced["batch"]) > 0) == (backend == "native")
        assert all(steps is not None for steps in traced["batch"])

    def test_a_traced_learn_steps_as_the_numpy_backend(self, monkeypatch):
        """The steps a traced native learn records are the NumPy chain's,
        work unit for work unit, as are its kernel counters."""
        numpy_trace, native_trace = (
            self._steps_selected(monkeypatch, backend)[1][1] for backend in ("numpy", "native")
        )
        assert len(numpy_trace.steps) == len(native_trace.steps) > 0
        for want, got in zip(numpy_trace.steps, native_trace.steps):
            assert (want.phase, want.n_collectives, want.words, want.run) == (
                got.phase, got.n_collectives, got.words, got.run
            )
            np.testing.assert_array_equal(got.costs, want.costs)
        split_costs = [s.costs for s in native_trace.steps if s.phase == "modules.split_scoring"]
        assert split_costs and all(c.size and c.min() > 0 for c in split_costs)
        for key in ("hits", "evaluations"):
            assert native_trace.kernel_counters[key] == numpy_trace.kernel_counters[key]


def _whole_rows(n_u):
    """The rows of a (parent, beta) block the batch's first lookups must
    read for ``repro_score_batch`` to fill the block whole."""
    return 4 * ((n_u + 7) // 8 + 1)


def _whole_blocks(uvalues, beta_grid, specs, max_steps):
    """Which (parent, beta) blocks ``repro_score_batch`` fills whole before
    its chains run: those where the distinct (beta, value) rows the first
    lookups of its +-1 nodes read number at least ``4 * (ceil(n_u / 8) +
    1)`` — from that many lazy rows of ``ceil(n_u / 8)`` eight-lane blocks
    on, the ``ceil(n_u / 8) (ceil(n_u / 8) + 1) / 2`` tiles of 64 lanes of
    the symmetric fill cost no more."""
    per_item = 1 + 2 * max_steps
    n_parents, n_u = uvalues.shape
    n_beta = beta_grid.size
    whole = np.zeros((n_parents, n_beta), dtype=bool)
    for l in range(n_parents):
        rows = set()
        for obs, sign, span in specs:
            if (np.abs(sign) == 1.0).all():
                first = span.array()[(l * obs.size + np.arange(obs.size)) * per_item]
                beta = np.minimum((first * n_beta).astype(np.int64), n_beta - 1)
                rows.update(zip(beta.tolist(), uvalues[l, obs].tolist()))
        for b in range(n_beta):
            whole[l, b] = sum(row[0] == b for row in rows) >= _whole_rows(n_u)
    return whole


def _rows_read(oracle, beta_grid):
    """The distinct (parent, beta, value) margin rows a node's chain read:
    one per (group, beta) its NumPy kernel evaluated."""
    groups, beta = np.nonzero(oracle._seen.reshape(-1, beta_grid.size))
    return set(zip(oracle.group_row[groups].tolist(), beta.tolist(),
                   oracle.group_value[groups].tolist()))


class TestWholeBlockFill:
    """Where a batch's first lookups are certain to read enough rows of a
    (parent, beta) block, the block is filled whole by the symmetric tile
    fill before any chain runs; elsewhere rows are filled when first read.
    Either way every output and all five counters are the per-node NumPy
    chains', and ``margin_rows_filled`` counts the distinct rows read."""

    @staticmethod
    def _universe(rng, n_parents, n_u):
        values = rng.normal(size=(n_parents, n_u))
        values[:, :2] = (0.0, -0.0)  # one value, two columns
        values[:, 2] = values[:, 3]
        return values

    def _check(self, uvalues, specs, scorer, rng_backend):
        grid = scorer.beta_grid
        oracles = [
            _oracle(uvalues, obs, sign, scorer, None,
                    span.array().reshape(-1, scorer.draws_per_item))
            for obs, sign, span in specs
        ]
        want = scorer.drain_counters()
        *flat, bounds, counters, traffic = run_chains(
            _native.load(), uvalues, grid, [ChainNode(*spec) for spec in specs],
            scorer.max_steps, scorer.stop_repeats,
        )
        got = chain_counters(counters, traffic)
        touched = 0
        for (obs, _sign, span), lo, hi, counted, (oracle, results) in zip(
            specs, bounds, bounds[1:], counters, oracles
        ):
            for part, expected in zip(flat, results):
                np.testing.assert_array_equal(part[lo:hi], expected)
            assert counted == (oracle.hits, oracle.evaluations, oracle.peak_chunk_elements)
            first = span.start + scorer.draws_per_item * np.arange(hi - lo)
            touched += int(((first + 2 * flat[1][lo:hi]) // 4 - first // 4 + 1).sum())
        for key in ("hits", "evaluations", "peak_chunk_elements"):
            assert got[key] == want[key]
        assert got["margin_row_uses"] == want["evaluations"]
        assert got["margin_rows_filled"] == len(
            set().union(*(_rows_read(oracle, grid) for oracle, _ in oracles))
        )
        assert got.get("philox_blocks") == (touched if rng_backend == "philox" else None)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_u=st.sampled_from([16, 24, 40]),
        max_steps=st.sampled_from([1, 4]),
        rng_backend=st.sampled_from(["philox", "mrg"]),
    )
    def test_property_each_side_of_the_rule(self, seed, n_u, max_steps, rng_backend):
        self.assert_each_side_of_the_rule(seed, n_u, max_steps, rng_backend)

    def assert_each_side_of_the_rule(self, seed, n_u, max_steps, rng_backend):
        """A node reading every column eight times over on a two-point grid
        leaves every value at each beta to its first lookups: some blocks
        go whole.  Alone, a node of fewer columns than the rule's row count
        leaves every block lazy."""
        rng = np.random.default_rng(seed)
        scorer = SplitScorer((0.5, 4.0), max_steps=max_steps, kernel_backend="numpy")
        uvalues = self._universe(rng, 2, n_u)
        stream = make_stream(seed, "whole", backend=rng_backend)
        for layout, goes_whole in (
            ((np.tile(np.arange(n_u), 8), rng.permutation(n_u)[:7]), True),
            ((rng.permutation(n_u)[: n_u // 2],), False),
        ):
            specs = [
                (obs, np.where(rng.random(obs.size) < 0.5, 1.0, -1.0),
                 IndexedStream(stream.split(q), scorer.draws_per_item).items_span(
                     0, 2 * obs.size))
                for q, obs in enumerate(layout)
            ]
            assert _whole_blocks(uvalues, scorer.beta_grid, specs, max_steps).any() == goes_whole
            self._check(uvalues, specs, scorer, rng_backend)

    @pytest.mark.parametrize(
        "obs",
        [[0, 0, 2, 3], [3, 2, 1, 0], list(range(5, 14)), [2, 4, 4, 5], [7, 8, 9, 9, 11]],
        ids=["duplicated", "descending", "run-from-5", "endpoints-of-a-run", "repeat-in-run"],
    )
    @pytest.mark.parametrize("goes_whole", [True, False])
    def test_only_a_run_of_columns_is_loaded_whole(self, obs, goes_whole):
        """Only ``obs[j] == obs[0] + j`` for every ``j`` reads its margins
        by plain loads: columns whose endpoints or span look like a run but
        that repeat or reorder one are gathered, each where it is, whether
        their block was filled whole or row by row."""
        rng = np.random.default_rng(len(obs))
        scorer = SplitScorer((0.5, 4.0), max_steps=3, kernel_backend="numpy")
        uvalues = self._universe(rng, 2, 16)
        stream = make_stream(11, "runs")
        layout = [np.array(obs)] + [np.tile(np.arange(16), 8)] * goes_whole
        specs = [
            (o, np.where(rng.random(o.size) < 0.5, 1.0, -1.0),
             IndexedStream(stream.split(q), scorer.draws_per_item).items_span(0, 2 * o.size))
            for q, o in enumerate(layout)
        ]
        assert _whole_blocks(uvalues, scorer.beta_grid, specs, 3).any() == goes_whole
        self._check(uvalues, specs, scorer, "philox")

    def test_the_certification_battery_takes_both_fills(self):
        """The load-time battery certifies batches on each side of the rule."""
        sides = set()
        with np.errstate(all="ignore"):  # the probes overflow by design
            cases = list(_native._batch_cases())
        for _label, (uvalues, scorer, _chunk, probes, share, *_kind) in cases:
            if share:
                whole = _whole_blocks(
                    uvalues, scorer.beta_grid, [p[:3] for p in probes], scorer.max_steps
                )
                sides.add(bool(whole.any()))
        assert sides == {True, False}

    def test_the_certification_battery_runs_a_batch_without_steps(self):
        """One load-time batch case asks for no step counts, so a kernel
        whose scores or counters depend on writing them fails to load; the
        NumPy oracle's run then compares everything but its steps."""
        with np.errstate(all="ignore"):
            cases = dict(_native._batch_cases())
        stepless = [label for label, case in cases.items() if not case[5]]
        assert len(stepless) == 1 and stepless[0].endswith("no steps")
        oracle, native = (
            _native._batch_runs(cases[stepless[0]], kernels)[0]
            for kernels in (None, _native.load())
        )
        assert len(oracle) == len(native) == 3  # scores, beta indices, counters
        assert _native._runs_agree([oracle, native])


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

    def test_certifies_where_libm_log_is_numpys(self, libm_provider, monkeypatch):
        """Where NumPy's ``log`` is SVML's, glibc's differs from it in the
        last bit on about one input in a thousand, and the variable sweep's
        widest probe — its stacked calls keep the most marginals unquantized
        — rejects the libm provider by name; every other probe it passes.
        Where NumPy's ``log`` is libm's, it certifies outright."""
        assert libm_provider._lib.repro_native_provider() == 0
        with np.errstate(all="ignore"):  # one probe holds an inf
            wide = max(
                _native._var_cases(),
                key=lambda probe: sum(c.obs.n_clusters for c in probe[1][1].clusters),
            )[0]
        assert _native._certify(libm_provider) in (None, f"var sweep mismatch at {wide}")
        narrower = tuple(
            row._replace(cases=lambda: (p for p in _native._var_cases() if p[0] != wide))
            if row.name == "var sweep" else row
            for row in _native._CERTIFICATION
        )
        monkeypatch.setattr(_native, "_CERTIFICATION", narrower)
        assert _native._certify(libm_provider) is None

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    def test_whole_blocks_equal_per_node_chains(self, libm_provider, rng_backend):
        """The scalar whole-block fill, mirrored entry by entry."""
        for seed, n_u in enumerate((16, 24, 40)):
            TestWholeBlockFill().assert_each_side_of_the_rule(seed, n_u, 3, rng_backend)

    @pytest.mark.parametrize("n_u", WIDTHS)
    def test_batch_equals_per_node_chain(self, libm_provider, n_u):
        for q, layout in enumerate(LAYOUTS):
            _assert_batch_equals_per_node_chains(
                seed=n_u * 8 + q, n_u=n_u, layout=layout,
                kind=("random", "ties")[q % 2], n_parents=1 + q % 3, max_steps=3,
                chunk_elements=(None, 40)[q % 2], rng_backend=("philox", "mrg")[q // 2 % 2],
            )


class TestPhiloxBlocks:
    """A batch call counts the Philox blocks it computes for its chains'
    draws (``kernel_counters["philox_blocks"]``).  Each chain item reads
    through a cursor of its own, so two consecutive steps share a block."""

    def _run(self, uvalues, scorer, nodes):
        *flat, bounds, counters, traffic = run_chains(
            _native.load(), uvalues, scorer.beta_grid, nodes,
            scorer.max_steps, scorer.stop_repeats,
        )
        return flat, bounds, chain_counters(counters, traffic)

    def test_mrg_draws_compute_none(self):
        uvalues, scorer, nodes = _two_nodes()
        span = nodes[0].span
        nodes[0].span = make_stream(5, "pre", 0, backend="mrg").span(span.start, span.count)
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
            first = node.span.start + scorer.draws_per_item * np.arange(hi - lo)
            last = first + 2 * steps[lo:hi]
            touched += int((last // 4 - first // 4 + 1).sum())
            bound += int(((2 * steps[lo:hi]) // 4 + 2).sum())
        assert totals["philox_blocks"] == touched <= bound


def _two_nodes(seed=5, n_parents=2, n_u=12):
    rng = np.random.default_rng(seed)
    uvalues = rng.normal(size=(n_parents, n_u))
    scorer = SplitScorer(max_steps=4, stop_repeats=2, kernel_backend="numpy")
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
    ``ValueError`` scores nothing."""

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
        *flat, bounds, counters, traffic = self._run(uvalues, scorer, nodes)
        totals = chain_counters(counters, traffic)
        assert totals["margin_row_uses"] == counters[0][1]  # node 0's evaluations only
        for node, lo, hi, counted in zip(nodes, bounds, bounds[1:], counters):
            oracle, results = _oracle(
                uvalues, node.obs, node.sign, scorer, None,
                node.span.array().reshape(-1, scorer.draws_per_item),
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
            (lambda n: setattr(n, "span", n.span.array()), "span must be a DrawSpan"),
        ],
    )
    def test_bad_node_is_refused_and_nothing_is_scored(self, damage, message):
        uvalues, scorer, nodes = _two_nodes()
        damage(nodes[1])
        native = SplitScorer(
            scorer.beta_grid, scorer.max_steps, scorer.stop_repeats, kernel_backend="native"
        )
        with pytest.raises(ValueError, match=message):
            native.score_chain_nodes(uvalues, nodes)
        assert native.drain_counters() is None

    @pytest.mark.parametrize("generator", ["philox", "mrg"])
    def test_draw_addresses_go_through_the_one_validator(self, generator):
        """A node's span at the end of the counter: refused before C (where
        ``offset + i`` would wrap to draw 0), by the sweeps' own check."""
        uvalues, scorer, nodes = _two_nodes()
        count = nodes[1].span.count
        nodes[1].span = make_stream(3, backend=generator).span((1 << 64) - count, count)
        with pytest.raises(ValueError, match="64-bit key, its draws in"):
            self._run(uvalues, scorer, nodes)

    def test_the_table_budget_bounds_sharing(self):
        """The table is optional: a budget one parent's rows fit shares
        them, one element less turns sharing off (the fused evaluator, same
        output) instead of failing."""
        uvalues, scorer, nodes = _two_nodes()
        n_u = uvalues.shape[1]
        table = scorer.beta_grid.size * n_u * n_u
        *want, _bounds, _counters, _traffic = self._run(uvalues, scorer, nodes)
        for budget, shares in ((table, True), (table - 1, False)):
            *got, _bounds, counters, traffic = self._run(
                uvalues, scorer, nodes, table_elements=budget
            )
            assert ("margin_rows_filled" in chain_counters(counters, traffic)) == shares
            for part, expected in zip(got, want):
                np.testing.assert_array_equal(part, expected)


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

    def test_the_battery_agrees_unquantized(self, monkeypatch):
        """With a quantum of 2**-60, quantizing leaves every score of
        magnitude 2**-7 or more unchanged, so the battery's batch probes
        compare the sums to the last bit: an addition order that differs
        from NumPy's pairwise one only in rounding, which the real quantum
        nearly always absorbs, shows here — in the groups of four keys the
        SVML provider sums at once and in the one-key path."""
        kernels = _native.load()
        if kernels.provider != "svml":
            pytest.skip("the libm provider's exp/log1p need not be NumPy's to the bit")
        for module in (kernel_mod, split_score_mod):
            monkeypatch.setattr(module, "SCORE_QUANTUM", 2.0**-60)
        with np.errstate(all="ignore"):  # the probes overflow by design
            for label, case in [*_native._batch_cases(), *_native._grid_cases()]:
                runs = [*_native._batch_runs(case), *_native._batch_runs(case, kernels)]
                assert _native._runs_agree(runs), label


@pytest.fixture
def entries(monkeypatch):
    """How often a ``learn()`` enters each scoring path."""
    counted = dict.fromkeys(("batch", "batch_nodes", "kernels", "numpy_chain"), 0)

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
        assert entries["kernels"] == entries["numpy_chain"] == 0
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
        assert entries["batch"] == 0
        assert entries["kernels"] == entries["numpy_chain"] == result.stats["n_internal_nodes"]
        assert "margin_row_uses" not in trace.kernel_counters

    def test_an_mrg_batch_is_one_native_call(self, entries):
        """An MRG stream hands out spans as a Philox one does: a native
        ``score_nodes`` over 16 nodes is one batch call of 16 nodes, and
        it scores what the NumPy backend scores."""
        data = np.random.default_rng(0).normal(size=(6, 40))
        parents, obs = np.arange(6), np.arange(40)
        results = {}
        for backend in ("numpy", "native"):
            scorer = SplitScorer(max_steps=25, kernel_backend=backend)
            istream = IndexedStream(
                make_stream(1, "splits", 0, backend="mrg"), scorer.draws_per_item
            )
            nodes = [
                (obs, obs[: 5 + q], istream, q * parents.size * obs.size) for q in range(16)
            ]
            results[backend] = score_nodes(data, parents, scorer, nodes)
        assert entries["batch"] == 1 and entries["batch_nodes"] == 16
        for got, want in zip(results["native"], results["numpy"]):
            np.testing.assert_array_equal(got, want)

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
        scorer = SplitScorer(max_steps=4, kernel_backend="native")
        istream = IndexedStream(make_stream(1, "splits", 0), scorer.draws_per_item)
        rng = np.random.default_rng(2)
        nodes, base = [], 0
        for size in (data.shape[1], 5, 3):
            obs = np.sort(rng.permutation(data.shape[1])[:size])  # as a tree node's are
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
