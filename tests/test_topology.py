"""Tests for hardware topology probing, placement and the ParallelConfig API.

The contracts this file pins down:

* the sysfs probe is deterministic, clamps to the affinity mask, and any
  missing or unparseable entry degrades to the flat single-domain model;
* a placement plan assigns every worker exactly one domain and its chunk
  bounds partition any flat work range — degenerating to plain
  ``block_bounds`` on a flat topology;
* pinned (topology "auto" / multi-domain) and unpinned (topology "flat")
  executor runs produce bit-identical networks on the Task 3 fixture;
* per-domain cache descriptors flow into per-domain kernel chunk sizes,
  degenerating to the machine-wide value on a flat topology;
* the old flat config knobs (``LearnerConfig.n_workers`` /
  ``parallel_mode`` / ``schedule``, ``GenomicaConfig.n_workers``) are
  gone — the ``config.parallel`` spelling is the only one.
"""

import os
import pickle

import pytest

import repro
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.datatypes import ModuleNetwork
from repro.genomica.learner import GenomicaConfig
from repro.parallel.costmodel import block_bounds
from repro.parallel.topology import (
    FLAT_CHUNK_ELEMENTS,
    MAX_CHUNK_ELEMENTS,
    MIN_CHUNK_ELEMENTS,
    MachineTopology,
    Placement,
    _parse_cache_size,
    _parse_cpulist,
    available_cpus,
    chunk_elements_for,
    flat_topology,
    pin_to,
    plan_placement,
    probe_topology,
    resolve_topology,
)
from repro.parallel.trace import WorkTrace, load_trace, save_trace


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _make_sysfs(root, node_cpulists, l2="2048K", l3="16M", cache_cpu=None):
    """A fake sysfs tree under ``root`` (driven via ``sysfs_root``)."""
    for i, cpulist in enumerate(node_cpulists):
        _write(root / "devices" / "system" / "node" / f"node{i}" / "cpulist",
               f"{cpulist}\n")
    if cache_cpu is None:
        cache_cpu = available_cpus()[0]
    cache = root / "devices" / "system" / "cpu" / f"cpu{cache_cpu}" / "cache"
    levels = [("index0", "1", "Data", "32K"), ("index1", "1", "Instruction", "32K"),
              ("index2", "2", "Unified", l2), ("index3", "3", "Unified", l3)]
    for name, level, ctype, size in levels:
        _write(cache / name / "level", f"{level}\n")
        _write(cache / name / "type", f"{ctype}\n")
        _write(cache / name / "size", f"{size}\n")


class TestProbe:
    def test_sysfs_probe_deterministic(self, tmp_path):
        cpu = available_cpus()[0]
        _make_sysfs(tmp_path, [str(cpu)])
        first = probe_topology(sysfs_root=tmp_path)
        second = probe_topology(sysfs_root=tmp_path)
        assert first == second
        assert first.source == "sysfs"
        assert first.numa_domains == ((cpu,),)
        assert first.l2_bytes == 2048 << 10
        assert first.l3_bytes == 16 << 20

    def test_missing_sysfs_falls_back_flat(self, tmp_path):
        first = probe_topology(sysfs_root=tmp_path / "no-such-sysfs")
        second = probe_topology(sysfs_root=tmp_path / "no-such-sysfs")
        assert first == second == flat_topology()
        assert first.source == "flat"
        assert first.l2_bytes == 0 and first.l3_bytes == 0

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

    def test_bad_cache_entries_leave_sizes_unknown(self, tmp_path):
        cpu = available_cpus()[0]
        _make_sysfs(tmp_path, [str(cpu)], l2="banana", l3="nonsense")
        topology = probe_topology(sysfs_root=tmp_path)
        assert topology.source == "sysfs"
        assert topology.l2_bytes == 0 and topology.l3_bytes == 0
        assert chunk_elements_for(topology) == FLAT_CHUNK_ELEMENTS

    def test_flat_topology_matches_affinity_mask(self):
        assert flat_topology().numa_domains == (available_cpus(),)
        assert flat_topology(3).numa_domains == ((0, 1, 2),)

    def test_parse_cpulist(self):
        assert _parse_cpulist("0-3,8,10-11") == (0, 1, 2, 3, 8, 10, 11)
        assert _parse_cpulist("5\n") == (5,)
        with pytest.raises(ValueError):
            _parse_cpulist("a-b")

    def test_parse_cache_size(self):
        assert _parse_cache_size("2048K") == 2048 << 10
        assert _parse_cache_size("32M\n") == 32 << 20
        assert _parse_cache_size("1G") == 1 << 30
        assert _parse_cache_size("512") == 512
        with pytest.raises(ValueError):
            _parse_cache_size("lots")

    def test_resolve_topology(self):
        explicit = flat_topology(2)
        assert resolve_topology(explicit) is explicit
        assert resolve_topology("flat") == flat_topology()
        assert resolve_topology("auto").n_cores >= 1
        with pytest.raises(ValueError):
            resolve_topology("numa")

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            MachineTopology(numa_domains=())
        with pytest.raises(ValueError):
            MachineTopology(numa_domains=((0,),), l2_bytes=-1)
        with pytest.raises(ValueError):
            MachineTopology(numa_domains=((0,),), source="dmi")


class TestChunkSizing:
    def test_unknown_caches_keep_fixed_default(self):
        assert chunk_elements_for(flat_topology()) == FLAT_CHUNK_ELEMENTS

    def test_l2_budget_power_of_two(self):
        # 2 MiB L2, ample L3: half the L2 is 1 MiB -> 2^17 float64 elements.
        topology = MachineTopology(
            numa_domains=((0,),), l2_bytes=2 << 20, l3_bytes=1 << 30, source="sysfs"
        )
        assert chunk_elements_for(topology) == 1 << 17

    def test_shared_l3_caps_per_core_budget(self):
        # 8 cores sharing 8 MiB L3: 1 MiB per core beats the 2 MiB half-L2.
        topology = MachineTopology(
            numa_domains=(tuple(range(8)),), l2_bytes=4 << 20, l3_bytes=8 << 20,
            source="sysfs",
        )
        assert chunk_elements_for(topology) == 1 << 17

    def test_clamped_to_bounds(self):
        tiny = MachineTopology(numa_domains=((0,),), l2_bytes=1024, source="sysfs")
        huge = MachineTopology(numa_domains=((0,),), l2_bytes=1 << 30, source="sysfs")
        assert chunk_elements_for(tiny) == MIN_CHUNK_ELEMENTS
        assert chunk_elements_for(huge) == MAX_CHUNK_ELEMENTS


def _two_domain_topology():
    cpu = available_cpus()[0]
    # Two synthetic domains mapped onto schedulable CPUs so pinning works
    # even on a single-core runner.
    return MachineTopology(
        numa_domains=((cpu,), (cpu,)), l2_bytes=2 << 20, l3_bytes=16 << 20,
        source="sysfs",
    )


def _uneven_topology():
    return MachineTopology(
        numa_domains=((0,), (1, 2, 3), (4, 5)), source="sysfs"
    )


class TestPlacement:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "topology", [flat_topology(4), _two_domain_topology(), _uneven_topology()]
    )
    def test_every_worker_placed_exactly_once(self, topology, n_workers):
        placement = plan_placement(topology, n_workers)
        assert placement.n_workers == n_workers
        assert len(placement.worker_domains) == n_workers
        assert all(0 <= d < topology.n_domains for d in placement.worker_domains)
        # Contiguous runs: same-domain workers own adjacent static blocks.
        assert list(placement.worker_domains) == sorted(placement.worker_domains)
        for w in range(n_workers):
            assert placement.worker_cpus(w) == topology.numa_domains[
                placement.domain_of(w)
            ]

    def test_workers_apportioned_by_core_share(self):
        placement = plan_placement(_uneven_topology(), 6)
        counts = [placement.worker_domains.count(d) for d in range(3)]
        assert counts == [1, 3, 2]

    def test_replacement_workers_wrap_onto_plan(self):
        placement = plan_placement(_two_domain_topology(), 2)
        assert placement.domain_of(2) == placement.domain_of(0)
        assert placement.worker_cpus(3) == placement.worker_cpus(1)

    @pytest.mark.parametrize("total", [1, 7, 64, 1000])
    @pytest.mark.parametrize("chunks_per_worker", [1, 4])
    @pytest.mark.parametrize(
        "topology", [flat_topology(4), _two_domain_topology(), _uneven_topology()]
    )
    def test_chunk_bounds_partition_range(self, topology, total, chunks_per_worker):
        placement = plan_placement(topology, 3)
        bounds = placement.chunk_bounds(total, chunks_per_worker)
        pos = 0
        for lo, hi in bounds:
            assert lo == pos and hi >= lo
            pos = hi
        assert pos == total

    @pytest.mark.parametrize("total", [1, 7, 64, 1000])
    def test_domain_blocks_partition_range(self, total):
        placement = plan_placement(_uneven_topology(), 5)
        blocks = placement.domain_blocks(total)
        assert len(blocks) == 3
        pos = 0
        for lo, hi in blocks:
            assert lo == pos and hi >= lo
            pos = hi
        assert pos == total

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("total", [1, 17, 100])
    def test_flat_placement_degenerates_to_block_bounds(self, n_workers, total):
        placement = plan_placement(flat_topology(), n_workers)
        assert placement.is_flat
        assert placement.chunk_bounds(total) == list(block_bounds(total, n_workers))
        assert placement.chunk_bounds(total, 4) == list(
            block_bounds(total, 4 * n_workers)
        )

    def test_pin_to_current_mask_succeeds(self):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no sched_setaffinity on this platform")
        assert pin_to(available_cpus()) is True
        assert pin_to(()) is False

    def test_describe_is_json_ready(self):
        import json

        placement = plan_placement(_uneven_topology(), 4)
        summary = json.loads(json.dumps(placement.describe()))
        assert summary["worker_domains"] == list(placement.worker_domains)
        assert summary["topology"]["n_domains"] == 3


@pytest.fixture(scope="module")
def task3_setup():
    from repro.data.synthetic import make_module_dataset

    matrix = make_module_dataset(20, 10, n_modules=3, seed=17).matrix
    config = LearnerConfig(max_sampling_steps=4)
    learner = LemonTreeLearner(config)
    members = learner.consensus(learner.sample_clusterings(matrix, seed=9))
    reference = learner.learn_from_modules(matrix, members, seed=9).network
    return matrix, config, members, reference


class TestBitIdentity:
    """Placement changes where work runs, never what it computes."""

    @pytest.mark.parametrize("topology", ["auto", "flat"])
    def test_pinned_matches_unpinned(self, task3_setup, topology):
        matrix, config, members, reference = task3_setup
        cfg = config.with_updates(
            parallel=ParallelConfig(n_workers=2, topology=topology)
        )
        net = LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=9
        ).network
        assert net == reference

    def test_multi_domain_placement_matches(self, task3_setup):
        """Static split chunks nested inside two NUMA-domain blocks: one
        module on two workers puts the input on the split side of
        ``choose_mode``."""
        from repro.parallel.executor import open_executor

        matrix, config, _members, _reference = task3_setup
        members = [list(range(matrix.n_vars))]
        reference = LemonTreeLearner(config).learn_from_modules(
            matrix, members, seed=9
        ).network
        cfg = config.with_updates(
            parallel=ParallelConfig(
                n_workers=2, schedule="static", topology=_two_domain_topology(),
            )
        )
        with open_executor(matrix.values, cfg, 9) as executor:
            modules = executor.learn_modules(members)
            assert executor.stats.mode == "split"
        assert ModuleNetwork(modules, matrix.var_names, matrix.n_obs) == reference

    def test_trace_records_topology_and_domain_times(self, task3_setup, tmp_path):
        matrix, config, members, _ = task3_setup
        cfg = config.with_updates(parallel=ParallelConfig(n_workers=2))
        trace = WorkTrace()
        LemonTreeLearner(cfg).learn_from_modules(
            matrix, members, seed=9, trace=trace
        )
        assert trace.topology is not None
        assert trace.topology["topology"]["n_domains"] >= 1
        assert trace.domain_times
        assert all(k.startswith("node") for k in trace.domain_times)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.topology == trace.topology
        assert back.domain_times == pytest.approx(trace.domain_times)


class TestDomainChunks:
    """Per-domain cache descriptors drive per-domain kernel chunk sizes."""

    def _hetero_topology(self):
        # Domain 0: 2 MiB L2 / 16 MiB L3 over 2 cores; domain 1: 512 KiB
        # L2 / 4 MiB L3 over 4 cores — a big.LITTLE-style split.
        return MachineTopology(
            numa_domains=((0, 1), (2, 3, 4, 5)),
            l2_bytes=2 << 20, l3_bytes=16 << 20, source="sysfs",
            domain_l2_bytes=(2 << 20, 512 << 10),
            domain_l3_bytes=(16 << 20, 4 << 20),
        )

    def test_per_domain_list_must_match_domain_count(self):
        with pytest.raises(ValueError):
            MachineTopology(
                numa_domains=((0,), (1,)), source="sysfs",
                domain_l2_bytes=(1 << 20,),
            )
        with pytest.raises(ValueError):
            MachineTopology(
                numa_domains=((0,),), source="sysfs", domain_l3_bytes=(-1,)
            )

    def test_domain_caches_fall_back_to_machine_wide(self):
        topology = MachineTopology(
            numa_domains=((0,), (1,)), l2_bytes=2 << 20, l3_bytes=8 << 20,
            source="sysfs",
        )
        assert topology.domain_caches(0) == (2 << 20, 8 << 20)
        assert topology.domain_caches(1) == (2 << 20, 8 << 20)

    def test_chunk_elements_differ_across_heterogeneous_domains(self):
        topology = self._hetero_topology()
        # Domain 0: half of 2 MiB L2 = 1 MiB -> 2^17 elements (L3 share
        # 16M/2 = 8M doesn't bind).  Domain 1: half of 512K = 256K -> 2^15
        # elements (L3 share 4M/4 = 1M doesn't bind).
        assert chunk_elements_for(topology, 0) == 1 << 17
        assert chunk_elements_for(topology, 1) == 1 << 15

    def test_domain_l3_divided_by_domain_cores_only(self):
        # 8 MiB L3 shared by the domain's own 4 cores -> 2 MiB share;
        # the other domain's 12 cores must not shrink it.
        topology = MachineTopology(
            numa_domains=(tuple(range(4)), tuple(range(4, 16))),
            l2_bytes=8 << 20, l3_bytes=8 << 20, source="sysfs",
        )
        # Half-L2 = 4 MiB, L3 share = 8M/4 = 2 MiB binds -> 2^18 elements.
        assert chunk_elements_for(topology, 0) == 1 << 18

    def test_single_domain_matches_machine_wide(self):
        # Flat degeneration: per-domain chunk == machine-wide chunk, so a
        # flat machine takes the exact pre-change value.
        topology = MachineTopology(
            numa_domains=(tuple(range(4)),), l2_bytes=2 << 20,
            l3_bytes=16 << 20, source="sysfs",
        )
        assert chunk_elements_for(topology, 0) == chunk_elements_for(topology)
        flat = flat_topology(4)
        assert chunk_elements_for(flat, 0) == FLAT_CHUNK_ELEMENTS

    def test_placement_ships_per_worker_chunks(self):
        topology = self._hetero_topology()
        placement = plan_placement(topology, 3)
        per_domain = placement.domain_chunk_elements()
        assert per_domain == (1 << 17, 1 << 15)
        for worker in range(placement.n_workers):
            domain = placement.domain_of(worker)
            assert placement.chunk_elements(worker) == per_domain[domain]

    def test_describe_round_trips_per_domain_caches(self):
        topology = self._hetero_topology()
        desc = topology.describe()
        assert desc["domain_l2_bytes"] == [2 << 20, 512 << 10]
        assert desc["domain_l3_bytes"] == [16 << 20, 4 << 20]
        assert flat_topology(2).describe()["domain_l2_bytes"] is None

    def test_probe_records_per_domain_caches(self, tmp_path):
        cpus = available_cpus()
        _make_sysfs(tmp_path, [str(c) for c in cpus[:2]])
        topology = probe_topology(sysfs_root=tmp_path)
        assert topology.source == "sysfs"
        assert topology.domain_l2_bytes is not None
        assert len(topology.domain_l2_bytes) == topology.n_domains
        # Domain 0's probe found the fake cache tree; machine-wide sizes
        # mirror domain 0 (the probe's reference domain).
        assert topology.domain_l2_bytes[0] == topology.l2_bytes == 2048 << 10

    def test_spread_domains_cycles_plan(self):
        placement = plan_placement(_two_domain_topology(), 2)
        assert placement.spread_domains(5) == [0, 1, 0, 1, 0]
        flat = plan_placement(flat_topology(4), 3)
        assert flat.spread_domains(4) == [0, 0, 0, 0]


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
        cfg = LearnerConfig(parallel=ParallelConfig(n_workers=2, topology="flat"))
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

    def test_parallel_config_validation(self):
        with pytest.raises(TypeError):  # the decomposition is not a knob
            ParallelConfig(mode="split")
        with pytest.raises(ValueError):
            ParallelConfig(schedule="work-stealing")
        with pytest.raises(ValueError):
            ParallelConfig(topology="numa")
        with pytest.raises(ValueError):
            ParallelConfig(steal="yes")
        assert ParallelConfig(topology=flat_topology(2)).resolve_topology(
        ) == flat_topology(2)
        assert ParallelConfig().steal is True

    def test_package_exports(self):
        assert repro.ParallelConfig is ParallelConfig
        assert repro.MachineTopology is MachineTopology
        assert "ParallelConfig" in repro.__all__
        assert "MachineTopology" in repro.__all__
