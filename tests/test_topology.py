"""Tests for hardware topology probing and the ParallelConfig API.

The contracts this file pins down:

* the sysfs probe is deterministic, clamps to the affinity mask, and any
  missing or unparseable entry degrades to the flat single-domain model;
* a traced run records the machine it ran on;
* the old flat config knobs (``LearnerConfig.n_workers`` /
  ``parallel_mode`` / ``schedule``, ``GenomicaConfig.n_workers``) and the
  NUMA-domain knobs (``ParallelConfig.steal`` / ``.topology``) are gone.
"""

import dataclasses
import os
import pickle

import pytest

import repro
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.genomica.learner import GenomicaConfig
from repro.parallel.topology import (
    MachineTopology,
    _parse_cpulist,
    available_cpus,
    flat_topology,
    probe_topology,
    resolve_topology,
)
from repro.parallel.trace import WorkTrace, load_trace, save_trace


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _make_sysfs(root, node_cpulists):
    """A fake sysfs tree under ``root`` (driven via ``sysfs_root``)."""
    for i, cpulist in enumerate(node_cpulists):
        _write(root / "devices" / "system" / "node" / f"node{i}" / "cpulist",
               f"{cpulist}\n")

class TestProbe:
    def test_sysfs_probe_deterministic(self, tmp_path):
        cpu = available_cpus()[0]
        _make_sysfs(tmp_path, [str(cpu)])
        first = probe_topology(sysfs_root=tmp_path)
        second = probe_topology(sysfs_root=tmp_path)
        assert first == second
        assert first.source == "sysfs"
        assert first.numa_domains == ((cpu,),)

    def test_missing_sysfs_falls_back_flat(self, tmp_path):
        first = probe_topology(sysfs_root=tmp_path / "no-such-sysfs")
        second = probe_topology(sysfs_root=tmp_path / "no-such-sysfs")
        assert first == second == flat_topology()
        assert first.source == "flat"

    def test_unschedulable_nodes_dropped(self, tmp_path):
        cpus = available_cpus()
        bogus = max(cpus) + 1
        _make_sysfs(tmp_path, [str(cpus[0]), str(bogus)])
        topology = probe_topology(sysfs_root=tmp_path)
        assert topology.numa_domains == ((cpus[0],),)

    def test_all_nodes_unschedulable_falls_back_flat(self, tmp_path):
        bogus = max(available_cpus()) + 1
        _make_sysfs(tmp_path, [str(bogus)])
        assert probe_topology(sysfs_root=tmp_path) == flat_topology()

    def test_unparseable_cpulist_falls_back_flat(self, tmp_path):
        _make_sysfs(tmp_path, ["not-a-cpulist"])
        assert probe_topology(sysfs_root=tmp_path) == flat_topology()

    def test_flat_topology_matches_affinity_mask(self):
        assert flat_topology().numa_domains == (available_cpus(),)
        assert flat_topology(3).numa_domains == ((0, 1, 2),)

    def test_parse_cpulist(self):
        assert _parse_cpulist("0-3,8,10-11") == (0, 1, 2, 3, 8, 10, 11)
        assert _parse_cpulist("5\n") == (5,)
        with pytest.raises(ValueError):
            _parse_cpulist("a-b")

    def test_resolve_topology(self):
        assert resolve_topology("flat") == flat_topology()
        assert resolve_topology("auto").n_cores >= 1
        with pytest.raises(ValueError):
            resolve_topology("numa")

    def test_describe_records_cores_and_domains_only(self):
        topology = MachineTopology(numa_domains=((0, 1), (2,)), source="sysfs")
        assert topology.describe() == {
            "source": "sysfs",
            "n_cores": 3,
            "n_domains": 2,
            "domain_sizes": [2, 1],
        }

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            MachineTopology(numa_domains=())
        with pytest.raises(ValueError):
            MachineTopology(numa_domains=((0,),), source="dmi")


class TestTraceRecordsMachine:
    def test_trace_records_topology(self, tiny_matrix, tmp_path):
        config = LearnerConfig(
            max_sampling_steps=4, parallel=ParallelConfig(n_workers=2)
        )
        members = [list(range(lo, lo + 8)) for lo in range(0, 24, 8)]
        trace = WorkTrace()
        LemonTreeLearner(config).learn_from_modules(
            tiny_matrix, members, seed=9, trace=trace
        )
        assert trace.topology == dict(probe_topology().describe(), n_workers=2)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        assert load_trace(path).topology == trace.topology

    def test_one_worker_trace_records_topology(self, tiny_matrix):
        """The in-process tier records the same machine block, with its one
        worker, and nothing about the kernel's chunk size."""
        config = LearnerConfig(
            max_sampling_steps=4, parallel=ParallelConfig(n_workers=1)
        )
        members = [list(range(lo, lo + 8)) for lo in range(0, 24, 8)]
        trace = WorkTrace()
        LemonTreeLearner(config).learn_from_modules(
            tiny_matrix, members, seed=9, trace=trace
        )
        assert trace.topology == dict(probe_topology().describe(), n_workers=1)


class TestParallelConfigApi:
    """``config.parallel`` is the only spelling of the backend knobs."""

    def test_dropped_flat_knobs_rejected(self):
        # The one-release deprecation shims for the flat knobs are gone:
        # the old spellings are now hard errors.
        with pytest.raises(TypeError):
            LearnerConfig(n_workers=2)
        with pytest.raises(TypeError):
            LearnerConfig(parallel_mode="module")
        with pytest.raises(TypeError):
            LearnerConfig(schedule="static")
        with pytest.raises(TypeError):
            GenomicaConfig(n_workers=2)
        with pytest.raises(TypeError):
            LearnerConfig().with_updates(n_workers=4)
        # ... and so are the NUMA-domain knobs: one shared queue, one
        # probed machine, nothing to select.
        with pytest.raises(TypeError):
            ParallelConfig(steal=False)
        with pytest.raises(TypeError):
            ParallelConfig(topology="flat")
        with pytest.raises(AttributeError):
            ParallelConfig().resolve_topology()
        # ... and so is the process-shared score store's budget.
        with pytest.raises(TypeError):
            ParallelConfig(score_cache_bytes=1)

    def test_dropped_property_reads_are_attribute_errors(self):
        cfg = LearnerConfig(parallel=ParallelConfig(n_workers=5))
        with pytest.raises(AttributeError):
            cfg.n_workers
        with pytest.raises(AttributeError):
            cfg.parallel_mode
        with pytest.raises(AttributeError):
            GenomicaConfig().n_workers

    def test_with_updates_replaces_parallel(self):
        cfg = LearnerConfig()
        updated = cfg.with_updates(
            parallel=ParallelConfig(n_workers=4), max_sampling_steps=3
        )
        assert updated.parallel.n_workers == 4
        assert updated.max_sampling_steps == 3

    def test_new_pickle_round_trips(self):
        cfg = LearnerConfig(parallel=ParallelConfig(n_workers=2, schedule="static"))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_resolve_n_workers_clamps_to_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        allowed = len(os.sched_getaffinity(0))
        assert ParallelConfig(n_workers=0).resolve_n_workers() == max(1, allowed)
        assert ParallelConfig(n_workers=7).resolve_n_workers() == 7
        assert LearnerConfig().with_updates(
            parallel=ParallelConfig(n_workers=0)
        ).resolve_n_workers() == max(1, allowed)

    def test_resolve_n_workers_counts_available_cpus(self, monkeypatch):
        """One affinity rule: "every available core" is
        ``topology.available_cpus()``, and an explicit count never asks."""
        from repro.parallel import topology

        monkeypatch.setattr(topology, "available_cpus", lambda: (3, 5, 9))
        assert ParallelConfig(n_workers=0).resolve_n_workers() == 3

        def refuse():
            raise AssertionError("an explicit worker count probed the machine")

        monkeypatch.setattr(topology, "available_cpus", refuse)
        assert ParallelConfig(n_workers=2).resolve_n_workers() == 2

    def test_parallel_config_validation(self):
        with pytest.raises(TypeError):  # the decomposition is not a knob
            ParallelConfig(mode="split")
        with pytest.raises(ValueError):
            ParallelConfig(schedule="work-stealing")
        assert [f.name for f in dataclasses.fields(ParallelConfig)] == [
            "n_workers", "schedule", "kernel_backend", "n_nodes", "node_backend",
        ]

    def test_package_exports(self):
        assert repro.ParallelConfig is ParallelConfig
        assert repro.MachineTopology is MachineTopology
        assert "ParallelConfig" in repro.__all__
        assert "MachineTopology" in repro.__all__
