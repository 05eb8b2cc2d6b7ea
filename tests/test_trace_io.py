"""Tests for trace persistence and paper-scale projection parameters."""

import json

import numpy as np
import pytest

from repro.core.learner import LemonTreeLearner
from repro.parallel.costmodel import MachineModel
from repro.parallel.trace import (
    WorkTrace,
    load_trace,
    project_time,
    save_trace,
    summarize_trace,
)


def _trace():
    trace = WorkTrace()
    trace.record("ganesh.var_reassign", np.array([1.0, 2.0, 3.0]), run=0)
    trace.record("modules.split_scoring", np.arange(10, dtype=float), n_collectives=1, words=4)
    trace.mark_time("ganesh", 1.0)
    trace.mark_time("consensus", 0.2)
    trace.mark_time("modules", 3.0)
    trace.mark_worker_time("shard0/worker-0", 0.8)
    trace.mark_kernel(
        {"hits": 3, "evaluations": 5, "peak_chunk_elements": 96, "backends": ["numpy"]}
    )
    trace.mark_node_time("shard0", 0.8)
    trace.mark_node_transfer("shard0", 4096, 0.01)
    trace.calibration = {"tau": 2e-6, "mu": 6.4e-10}
    return trace


#: ``topology`` as releases before the NUMA-domain tier's removal wrote it:
#: the placement plan
_PLACEMENT_TOPOLOGY = {
    "topology": {"source": "sysfs", "n_cores": 2, "n_domains": 2},
    "worker_domains": [0, 1],
    "domain_chunk_elements": [131072, 131072],
}

#: ``topology`` as releases with the cache-derived kernel chunk size wrote
#: it: the probed L2/L3 capacities and the chunk size the run used
_CACHE_TOPOLOGY = {
    "source": "sysfs", "n_cores": 2, "n_domains": 1, "domain_sizes": [2],
    "l2_bytes": 2 << 20, "l3_bytes": 300 << 20, "n_workers": 2,
    "kernel_chunk_elements": 131072,
}


def _save_as_parent_commit(trace, path, topology):
    """The ``.npz`` earlier releases wrote: today's layout plus five
    per-domain / per-steal accumulators (before the NUMA-domain tier's
    removal), the shared score store's counters in ``kernel_counters``
    (before the store's) and an older ``topology``."""
    save_trace(trace, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files if key != "meta"}
        meta = json.loads(str(data["meta"]))
    meta["kernel_counters"].update(store_hits=4, store_misses=2, store_evictions=1)
    meta.update(
        domain_times={"node0": 0.5, "node1": 0.3},
        worker_steals={"worker-1": 2},
        worker_stolen_seconds={"worker-1": 0.25},
        domain_local_times={"node0": 0.55},
        domain_stolen_times={"node0": 0.25},
        topology=topology,
    )
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


class TestSaveLoad:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = _trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        self._assert_same(load_trace(path), trace)
        self._assert_earlier_release_loads(trace, path, _PLACEMENT_TOPOLOGY)

    def test_cache_probe_topology_loads(self, tmp_path):
        """A trace whose ``topology`` still carries the probed L2/L3 sizes
        and the kernel chunk size loads with those keys as written."""
        self._assert_earlier_release_loads(
            _trace(), tmp_path / "trace.npz", _CACHE_TOPOLOGY
        )

    def _assert_earlier_release_loads(self, trace, path, topology):
        # A trace cached by an earlier release still loads: the removed
        # accumulators are ignored, the store's counters are neither
        # summarized nor merged, everything else comes back.
        _save_as_parent_commit(trace, path, topology)
        back = load_trace(path)
        assert "store" not in summarize_trace(back)
        merged = WorkTrace()
        merged.mark_kernel(back.kernel_counters)
        back.kernel_counters = merged.kernel_counters
        self._assert_same(back, trace)
        assert not hasattr(back, "domain_times")
        assert back.topology == topology

    def _assert_same(self, back, trace):
        assert back.times == trace.times
        assert back.n_ganesh_runs == trace.n_ganesh_runs == 1
        assert len(back.steps) == len(trace.steps)
        for a, b in zip(trace.steps, back.steps):
            assert a.phase == b.phase
            assert a.n_collectives == b.n_collectives
            assert a.words == b.words
            assert a.run == b.run
            np.testing.assert_array_equal(a.costs, b.costs)
        assert back.worker_times == trace.worker_times
        assert back.kernel_counters == trace.kernel_counters
        assert back.node_times == trace.node_times
        assert back.node_transfer_bytes == trace.node_transfer_bytes
        assert back.node_transfer_seconds == trace.node_transfer_seconds
        assert back.calibration == trace.calibration

    def test_roundtrip_preserves_projection(self, tmp_path):
        trace = _trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        back = load_trace(path)
        for p in (1, 4, 64):
            assert project_time(back, p).total == pytest.approx(
                project_time(trace, p).total
            )

    def test_real_learner_trace_roundtrip(self, tmp_path, tiny_matrix, fast_config):
        trace = WorkTrace()
        LemonTreeLearner(fast_config).learn(tiny_matrix, seed=1, trace=trace)
        path = tmp_path / "real.npz"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.total_units() == pytest.approx(trace.total_units())
        assert back.split_imbalance(8) == pytest.approx(trace.split_imbalance(8))


class TestSummarize:
    def test_cli_prints_times_kernel_and_margin_rows(self, tmp_path, capsys):
        """``repro trace summarize FILE``: the sharing factor of the native
        batch entry's margin rows is readable from a saved trace."""
        from repro.cli import main

        trace = _trace()
        trace.mark_kernel(
            {"margin_rows_filled": 4, "margin_row_uses": 10, "philox_blocks": 7}
        )
        trace.mark_kernel({"margin_rows_filled": 1, "margin_row_uses": 2})
        save_trace(trace, tmp_path / "t.npz")
        assert main(["trace", "summarize", str(tmp_path / "t.npz")]) == 0
        out = capsys.readouterr().out
        assert "task modules: 3.000 s" in out
        assert "worker shard0/worker-0: 0.800 s" in out
        assert "channel shard0: 4096 bytes" in out
        assert "kernel (numpy): 5 evaluations, 3 hits (hit ratio 0.375)" in out
        assert "margin rows: 5 filled for 12 uses (shared 2.40x)" in out
        assert "philox blocks computed: 7" in out

    def test_cli_summarizes_an_earlier_release_trace(self, tmp_path, capsys):
        """A trace whose counters still carry the shared score store's
        keys, and no Philox block count, summarizes like today's: same
        kernel line, no store line, no block line."""
        from repro.cli import main

        _save_as_parent_commit(_trace(), tmp_path / "old.npz", _CACHE_TOPOLOGY)
        assert main(["trace", "summarize", str(tmp_path / "old.npz")]) == 0
        out = capsys.readouterr().out
        assert "kernel (numpy): 5 evaluations, 3 hits (hit ratio 0.375)" in out
        assert "store" not in out
        assert "philox" not in out

    def test_a_trace_without_margin_rows_has_no_margin_line(self):
        from repro.parallel.trace import summarize_trace

        assert "margin rows" not in summarize_trace(_trace())


class TestPaperScaleProjection:
    def test_consensus_scaled_separately(self):
        trace = _trace()
        pt = project_time(trace, 1, compute_scale=100.0, consensus_scale=4.0)
        assert pt.consensus == pytest.approx(0.2 * 4.0)
        assert pt.ganesh + pt.modules == pytest.approx((1.0 + 3.0) * 100.0)

    def test_consensus_defaults_to_compute_scale(self):
        trace = _trace()
        pt = project_time(trace, 1, compute_scale=10.0)
        assert pt.consensus == pytest.approx(2.0)

    def test_comm_scale_raises_collective_cost(self):
        trace = _trace()
        model = MachineModel(tau=1e-3, mu=1e-6)
        base = project_time(trace, 64, model=model).total
        scaled = project_time(trace, 64, model=model, comm_scale=10.0).total
        assert scaled > base

    def test_rejects_bad_scales(self):
        trace = _trace()
        with pytest.raises(ValueError):
            project_time(trace, 2, comm_scale=0.0)
        with pytest.raises(ValueError):
            project_time(trace, 2, consensus_scale=-1.0)

    def test_paper_scale_t1_identity(self):
        """compute_scale = consensus_scale = s multiplies T_1 by exactly s
        — the anchor the Section 5.2.2 benches rely on."""
        trace = _trace()
        t1 = project_time(trace, 1).total
        scaled = project_time(trace, 1, compute_scale=7.0, consensus_scale=7.0).total
        assert scaled == pytest.approx(7.0 * t1)
