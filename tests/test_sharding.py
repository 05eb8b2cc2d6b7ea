"""The multi-node shard tier: protocol, dispatch order, calibration, identity.

The tier's contract is the paper's output-consistency property lifted one
level: for a fixed seed and RNG backend, the learned network is
bit-identical for every shard count x worker count, on node processes
forked or spawned.  These tests pin the frame codec, the order the shard
transport requests the scheduler's items in, the tau/mu calibration math,
and that contract end to end.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.datatypes import ModuleNetwork
from repro.parallel import poolutil
from repro.parallel.costmodel import calibrate_from_roundtrips
from repro.parallel.executor import open_executor
from repro.parallel.sharding import (
    MAX_FRAME_BYTES,
    NodeCrashedError,
    ShardedExecutor,
    decode_frame_length,
    encode_frame,
)
from repro.parallel.tasks import TASK_RUNNERS
from repro.parallel.trace import WorkTrace
from repro.scoring.kernel import consume_kernel_totals
from repro.validation.metrics import network_fingerprint
from tests.conftest import MODE_INPUTS


def _sharded_config(
    n_nodes: int, n_workers: int = 1, rng_backend: str = "philox"
) -> LearnerConfig:
    return LearnerConfig(
        n_ganesh_runs=4,
        max_sampling_steps=4,
        rng_backend=rng_backend,
        parallel=ParallelConfig(n_workers=n_workers, n_nodes=n_nodes),
    )


def _sequential_config(rng_backend: str = "philox") -> LearnerConfig:
    return _sharded_config(1, n_workers=1, rng_backend=rng_backend)


class TestFrameCodec:
    def test_round_trip(self):
        message = ("result", {"results": [np.arange(5)], "seconds": 0.25})
        frame = encode_frame(message)
        length = decode_frame_length(frame[:8])
        assert length == len(frame) - 8
        tag, payload = pickle.loads(frame[8:])
        assert tag == "result"
        np.testing.assert_array_equal(payload["results"][0], np.arange(5))

    def test_empty_message(self):
        frame = encode_frame(("close",))
        assert decode_frame_length(frame[:8]) == len(frame) - 8

    def test_oversized_header_rejected(self):
        import struct

        header = struct.pack("!Q", MAX_FRAME_BYTES + 1)
        with pytest.raises(NodeCrashedError, match="corrupt"):
            decode_frame_length(header)

    def test_max_frame_accepted(self):
        import struct

        assert decode_frame_length(struct.pack("!Q", MAX_FRAME_BYTES)) == (
            MAX_FRAME_BYTES
        )


class TestCalibration:
    def test_tau_from_small_echoes(self):
        model = calibrate_from_roundtrips([4e-6, 2e-6, 6e-6], [1.0], 1)
        assert model.tau == pytest.approx(2e-6)  # median(small) / 2

    def test_mu_from_payload_excess(self):
        # 1 ms empty echo, 3 ms with 1000 words each way:
        # mu = (3ms - 1ms) / (2 * 1000 words).
        model = calibrate_from_roundtrips([1e-3], [3e-3], 1000)
        assert model.tau == pytest.approx(0.5e-3)
        assert model.mu == pytest.approx(1e-6)

    def test_mu_clamped_nonnegative(self):
        # Jitter can make the large echo measure *faster*; mu clamps to 0.
        model = calibrate_from_roundtrips([2e-3], [1e-3], 1000)
        assert model.mu == 0.0

    def test_median_resists_outliers(self):
        model = calibrate_from_roundtrips([1e-6, 1e-6, 5e-1], [1.0], 1)
        assert model.tau == pytest.approx(0.5e-6)

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError):
            calibrate_from_roundtrips([], [1.0], 1)
        with pytest.raises(ValueError):
            calibrate_from_roundtrips([1.0], [], 1)
        with pytest.raises(ValueError):
            calibrate_from_roundtrips([1.0], [1.0], 0)


class TestConfigValidation:
    def test_n_nodes_floor(self):
        with pytest.raises(ValueError, match="n_nodes"):
            ParallelConfig(n_nodes=0)

    def test_node_backend_choices(self):
        """Shard nodes are processes: the removed in-process backend fails
        loudly, naming the removal; the one remaining value still parses."""
        with pytest.raises(ValueError, match="'thread' node backend was removed"):
            ParallelConfig(node_backend="thread")
        with pytest.raises(ValueError, match="node_backend"):
            ParallelConfig(node_backend="carrier-pigeon")
        assert ParallelConfig(node_backend="socket").node_backend == "socket"

    def test_executor_validates_too(self, tiny_matrix):
        """The executor takes its (validated) knobs from ``config.parallel``
        alone: the constructor overrides that could bypass that validation
        no longer exist."""
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        config = LearnerConfig(max_sampling_steps=3)
        for override in (
            {"n_nodes": 0},
            {"node_backend": "smoke-signals"},
            {"n_workers": 2},
        ):
            with pytest.raises(TypeError):
                ShardedExecutor(tiny_matrix.values, parents, config, 0, **override)
        executor = ShardedExecutor(tiny_matrix.values, parents, _sharded_config(2), 0)
        assert executor.n_nodes == 2
        assert not hasattr(executor, "node_backend")


class TestShardedIdentity:
    """One-shot ``learn()`` on forked node processes: fast enough for
    every-PR runs."""

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_learn_bit_identical(self, tiny_matrix, n_nodes, rng_backend):
        reference = LemonTreeLearner(
            _sequential_config(rng_backend)
        ).learn(tiny_matrix, seed=7)
        sharded = LemonTreeLearner(
            _sharded_config(n_nodes, rng_backend=rng_backend)
        ).learn(tiny_matrix, seed=7)
        assert network_fingerprint(sharded.network) == network_fingerprint(
            reference.network
        )

    def test_learner_reports_shard_stats(self, tiny_matrix):
        result = LemonTreeLearner(_sharded_config(2)).learn(tiny_matrix, seed=7)
        executor_stats = result.stats["executor"]
        assert executor_stats["n_workers"] == 2
        # What happened, not constants: one-worker nodes run in-process, so
        # the matrix crossed the wire once per node and no pool was built.
        assert executor_stats["pools_constructed"] == 0
        assert executor_stats["matrix_transfers"] == 2
        assert executor_stats["worker_inits"] == 0

    def test_trace_records_node_tier(self, tiny_matrix):
        trace = WorkTrace()
        LemonTreeLearner(_sharded_config(2)).learn(
            tiny_matrix, seed=7, trace=trace
        )
        assert set(trace.node_times) == {"shard0", "shard1"}
        assert all(v >= 0 for v in trace.node_times.values())
        assert sum(trace.node_transfer_bytes.values()) > 0
        assert trace.calibration is not None
        assert trace.calibration["tau"] >= 0.0
        assert trace.calibration["mu"] >= 0.0
        assert trace.topology["shard_nodes"] == 2

    def test_checkpoint_resume_through_tier(self, tiny_matrix, tmp_path):
        config = _sharded_config(2)
        learner = LemonTreeLearner(config)
        first = learner.sample_clusterings(
            tiny_matrix, seed=3, checkpoint_dir=tmp_path
        )
        stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }
        assert len(stamps) == config.n_ganesh_runs
        second = learner.sample_clusterings(
            tiny_matrix, seed=3, checkpoint_dir=tmp_path
        )
        for got, want in zip(second, first):
            np.testing.assert_array_equal(got, want)
        for f in tmp_path.glob("ganesh_*.npz"):
            assert f.stat().st_mtime_ns == stamps[f.name]


class TestOneSchedulerOverShards:
    """The shard tier has no scheduler of its own: mode choice, order and
    trace come from the code that drives one host."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the rendezvous is inherited by forked nodes",
    )
    @pytest.mark.parametrize("mode", ["split", "module"])
    def test_split_mode_over_shards(self, tiny_matrix, mode, monkeypatch):
        """One dominating module on two nodes is cut into the flat split
        list and scored on *both* (Algorithm 5 across the node tier); even
        modules stay whole.  Either way the network is the one-worker one.

        Which node wins how much of a dynamic queue is scheduling luck, so
        "both nodes ran items" is arranged, not hoped for: the forked nodes
        inherit the patched runner registry and a process-shared barrier,
        and each node's first item waits there for the other node's."""
        from repro.parallel import executor as executor_mod

        members = MODE_INPUTS[mode]
        reference = LemonTreeLearner(_sequential_config()).learn_from_modules(
            tiny_matrix, members, seed=7
        )
        wire_name = {"split": "score_chunk", "module": "module_batch"}[mode]
        runner = TASK_RUNNERS[wire_name]
        barrier = multiprocessing.get_context("fork").Barrier(2)
        first = []  # each node process has its own copy

        def rendezvous(ctx, item):
            if not first:
                first.append(item)
                # A lone node fails the test (typed, through the error
                # frame) instead of hanging it.
                barrier.wait(timeout=60.0)
            return runner(ctx, item)

        # The driver names a runner by identity and the node looks the name
        # up: both must see the wrapper.
        monkeypatch.setitem(TASK_RUNNERS, wire_name, rendezvous)
        monkeypatch.setattr(executor_mod, runner.__name__, rendezvous)
        trace = WorkTrace()
        with open_executor(tiny_matrix.values, _sharded_config(2), 7) as executor:
            modules = executor.learn_modules(members, trace=trace)
            assert executor.stats.mode == mode
            # whole modules: one batch of them per worker; split chunks:
            # at least one per node
            if mode == "module":
                assert executor.stats.tasks_dispatched == 2
            else:
                assert executor.stats.tasks_dispatched >= 2
        network = ModuleNetwork(modules, tiny_matrix.var_names, tiny_matrix.n_obs)
        assert network_fingerprint(network) == network_fingerprint(
            reference.network
        )
        assert set(trace.node_times) == {"shard0", "shard1"}
        assert all(seconds > 0 for seconds in trace.node_times.values())
        assert set(trace.worker_times) == {"shard0/worker-0", "shard1/worker-0"}

    def test_items_requested_in_scheduler_order(self, tiny_matrix):
        """Each node's requests walk the scheduler's one list forward, one
        item per request at one worker per node, and together they cover it
        exactly once — Task 1's chains in run order; in module mode one
        LPT-balanced batch of whole modules per worker, each led by its
        largest module."""
        members = [
            list(range(0, 2)), list(range(2, 10)), list(range(10, 13)),
            list(range(13, 19)), list(range(19, 24)),
        ]
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        requests: list[tuple[str, list]] = []
        with ShardedExecutor(
            tiny_matrix.values, parents, _sharded_config(2), 7
        ) as executor:
            executor.start()
            for channel in executor.transport._channels:
                def recording(message, channel=channel, send=channel.send_msg):
                    if message[0] == "run":
                        requests.append(
                            (channel.peer, [item[0] for _index, item in message[2]])
                        )
                    send(message)

                channel.send_msg = recording
            executor.sample_ganesh_runs(5)
            chains, requests[:] = list(requests), []
            executor.learn_modules(members)
            assert executor.stats.mode == "module"
        assert all(len(ids) == 1 for _peer, ids in chains)
        assert sorted(ids[0] for _peer, ids in chains) == list(range(5))
        for peer in {peer for peer, _ids in chains}:
            runs = [ids[0] for p, ids in chains if p == peer]
            assert runs == sorted(runs)
        assert all(len(batches) == 1 for _peer, batches in requests)
        batches = sorted(
            [module_id for module_id, _members in batch[0]] for _peer, batch in requests
        )
        # 8, 6, 5, 3, 2 members: greedy LPT over two batches
        assert batches == [[1, 2, 0], [3, 4]]

    def test_unnamed_runner_rejected(self, tiny_matrix):
        """The wire carries runner names only: a callable outside
        ``TASK_RUNNERS`` is refused before anything is sent."""
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with ShardedExecutor(
            tiny_matrix.values, parents, _sharded_config(2), 7
        ) as executor:
            with pytest.raises(ValueError, match="TASK_RUNNERS"):
                executor.submit_runs(len, [1, 2])


def _start_method(pid: int) -> str:
    """How ``pid`` was launched: a spawned child is a fresh interpreter
    running multiprocessing's bootstrap, a forked one shares our command."""
    cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    return "spawn" if b"multiprocessing.spawn" in cmdline else "fork"


class TestShardedIdentitySocket:
    """Socket-transport identity: real OS node processes, one cell per
    PR (the full grid runs in the slow/CI shard job).  The subclass below
    repeats every case on spawned nodes."""

    #: how the nodes are launched (``open_executor``'s ``mp_context``);
    #: ``None`` is a one-shot ``learn()``'s rule — fork where available
    mp_context = None

    def _open(self, matrix, config, seed, checkpoint_dir=None):
        return open_executor(
            matrix.values, config, seed, checkpoint_dir, mp_context=self.mp_context
        )

    def test_learn_bit_identical_two_nodes(self, tiny_matrix):
        reference = LemonTreeLearner(_sequential_config()).learn(
            tiny_matrix, seed=7
        )
        config = _sharded_config(2)
        with self._open(tiny_matrix, config, 7) as executor:
            sharded = LemonTreeLearner(config).learn(
                tiny_matrix, seed=7, executor=executor
            )
        assert network_fingerprint(sharded.network) == network_fingerprint(
            reference.network
        )

    def test_node_pids_are_real_processes(self, tiny_matrix):
        import os

        config = LearnerConfig(
            n_ganesh_runs=2, max_sampling_steps=3,
            parallel=ParallelConfig(n_nodes=2),
        )
        with self._open(tiny_matrix, config, 1) as executor:
            executor.start()
            assert len(set(executor.node_pids)) == 2
            assert os.getpid() not in executor.node_pids
            # The echoes are a trace annotation: start() does not pay for
            # them, the first traced dispatch does, once.
            assert executor.calibration is None
            executor.sample_ganesh_runs(1)
            assert executor.calibration is None
            executor.sample_ganesh_runs(1, trace=WorkTrace())
            calibration = executor.calibration
            assert calibration["n_nodes"] == 2
            assert calibration["small_echoes"] == 10
            assert calibration["large_echoes"] == 6
            executor.sample_ganesh_runs(1, trace=WorkTrace())
            assert executor.calibration is calibration
            if Path("/proc/self/cmdline").exists():
                expected = self.mp_context or poolutil.pool_context().get_start_method()
                assert {_start_method(pid) for pid in executor.node_pids} == {
                    expected
                }

    def test_kernel_counters_match_one_worker(self, tiny_matrix, monkeypatch):
        """Completion records carry each node's kernel-counter deltas, so a
        sharded trace counts exactly the evaluations one worker does — in
        temporaries of the driver's chunk size, which the init frame ships
        (a spawned node would otherwise probe the machine for its own)."""
        from repro.scoring import kernel as kernel_mod

        chunk = 8 * tiny_matrix.n_obs
        monkeypatch.setattr(kernel_mod, "_CONFIGURED_CHUNK_ELEMENTS", chunk)
        members = MODE_INPUTS["module"]
        totals = []
        for config in (
            _sequential_config(),
            _sharded_config(2),
        ):
            numpy_config = config.with_updates(
                parallel=ParallelConfig(
                    n_nodes=config.parallel.n_nodes, kernel_backend="numpy"
                )
            )
            trace = WorkTrace()
            with self._open(tiny_matrix, numpy_config, 7) as executor:
                consume_kernel_totals()  # earlier tests' leftovers
                executor.learn_modules(members, trace=trace)
                trace.mark_kernel(consume_kernel_totals())
            totals.append(trace.kernel_counters)
        one_worker, sharded = totals
        assert one_worker["evaluations"] > 0
        assert sharded["hits"] == one_worker["hits"]
        assert sharded["evaluations"] == one_worker["evaluations"]
        assert sharded["peak_chunk_elements"] == chunk
        assert one_worker["peak_chunk_elements"] == chunk

    def test_split_mode_over_socket_nodes(self, tiny_matrix):
        """One dominating module is cut into the flat split list and
        scored on both node processes; the network is the one-worker one."""
        members = MODE_INPUTS["split"]
        reference = LemonTreeLearner(_sequential_config()).learn_from_modules(
            tiny_matrix, members, seed=7
        )
        trace = WorkTrace()
        with self._open(tiny_matrix, _sharded_config(2), 7) as executor:
            modules = executor.learn_modules(members, trace=trace)
            assert executor.stats.mode == "split"
        network = ModuleNetwork(modules, tiny_matrix.var_names, tiny_matrix.n_obs)
        assert network_fingerprint(network) == network_fingerprint(
            reference.network
        )
        assert set(trace.node_times) == {"shard0", "shard1"}

    def test_checkpoint_resume_through_socket_nodes(self, tiny_matrix, tmp_path):
        config = _sharded_config(2)
        with self._open(tiny_matrix, config, 3, tmp_path) as executor:
            first = executor.sample_ganesh_runs(config.n_ganesh_runs)
        stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }
        assert len(stamps) == config.n_ganesh_runs
        with self._open(tiny_matrix, config, 3, tmp_path) as executor:
            second = executor.sample_ganesh_runs(config.n_ganesh_runs)
            assert executor.worker_pids() == []  # nothing pending: no nodes
        for got, want in zip(second, first):
            np.testing.assert_array_equal(got, want)
        for f in tmp_path.glob("ganesh_*.npz"):
            assert f.stat().st_mtime_ns == stamps[f.name]

    def test_stats_and_pids_report_the_node_pools(self, tiny_matrix):
        """Two nodes x two workers: the nodes' pools, transfers, inits and
        worker pids reach the driver's one stats block."""
        config = _sharded_config(2, n_workers=2)
        with self._open(tiny_matrix, config, 1) as executor:
            assert executor.worker_pids() == []  # nothing started yet
            executor.learn_modules(MODE_INPUTS["module"])
            assert executor.n_workers == executor.stats.n_workers == 4
            assert executor.stats.n_nodes == 2
            assert executor.stats.pools_constructed == 2
            # one init frame per node plus each node's shared-memory copy
            assert executor.stats.matrix_transfers == 4
            assert executor.stats.transfer_bytes > 0
            assert executor.worker_inits() == 4
            pids = executor.worker_pids()
            assert pids[:2] == executor.node_pids
            assert len(set(pids)) == 6


class TestShardedIdentitySocketSpawned(TestShardedIdentitySocket):
    """The same cases on nodes launched as fresh interpreters — what the
    service's lease asks for, and every platform without fork gets."""

    mp_context = "spawn"


def _probe_process_state(ctx, item):
    """A runner reporting what its process holds at module scope."""
    from repro.parallel import tasks
    from repro.scoring import kernel

    return {
        "worker": dict(tasks._WORKER),
        "kernel_totals": kernel.consume_kernel_totals(),
    }


@contextmanager
def _dirty_driver():
    """Leave in this process what a long-lived driver accumulates at module
    scope: kernel counters and a worker context."""
    from repro.parallel import tasks
    from repro.scoring import kernel

    kernel._account_totals(hits=11, evaluations=13, peak=17, backend="numpy")
    tasks._WORKER.update(worker=99)
    try:
        yield
    finally:
        tasks._WORKER.clear()
        kernel.consume_kernel_totals()


_PLAIN_LEARN_SCRIPT = """
import json, threading
from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.data.synthetic import make_module_dataset
from repro.parallel import poolutil

launches = []
pool_context = poolutil.pool_context

def recording(method=None):
    context = pool_context(method)
    launches.append([method, context.get_start_method(), threading.active_count()])
    return context

poolutil.pool_context = recording
matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
config = LearnerConfig(
    max_sampling_steps=3,
    parallel=ParallelConfig(n_nodes=2),
)
LemonTreeLearner(config).learn(matrix, seed=7)
print(json.dumps(launches))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only a forked node can inherit anything",
)
class TestForkedNodeIsFresh:
    """A forked node replaces a fresh interpreter and must behave like
    one: nothing the driver accumulated at module scope reaches a node's
    completion records."""

    def test_node_holds_no_driver_state(self, tiny_matrix, monkeypatch):
        # Forked nodes inherit the patched registry, so the probe has a
        # wire name there too.
        monkeypatch.setitem(TASK_RUNNERS, "probe", _probe_process_state)
        with _dirty_driver(), open_executor(
            tiny_matrix.values, _sharded_config(2), 7
        ) as executor:
            states = executor.submit_runs(_probe_process_state, [0, 1])
        for state in states:
            assert state == {"worker": {}, "kernel_totals": None}

    def test_traced_run_reports_the_one_worker_counters(self, tiny_matrix):
        members = MODE_INPUTS["module"]

        def counters(config):
            trace = WorkTrace()
            with open_executor(tiny_matrix.values, config, 7) as executor:
                executor.learn_modules(members, trace=trace)
            return trace.kernel_counters

        consume_kernel_totals()  # earlier tests' leftovers
        one_worker = counters(_sequential_config())
        with _dirty_driver():
            sharded = counters(_sharded_config(2))
        assert one_worker["evaluations"] > 0
        assert sharded == one_worker

    def test_plain_learn_forks_its_nodes_from_one_thread(self):
        """A one-shot ``learn()`` asks for no start method, gets fork, and
        launches before the driver has started any thread of its own."""
        done = subprocess.run(
            [sys.executable, "-c", _PLAIN_LEARN_SCRIPT],
            capture_output=True, text=True, timeout=120,
            cwd=Path(__file__).resolve().parents[1],
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == [[None, "fork", 1]]


@pytest.mark.slow
class TestShardedAcceptanceGrid:
    """The acceptance grid: node counts {1, 2, 4} x worker counts x RNG
    backends, all bit-identical."""

    @pytest.mark.parametrize("rng_backend", ["philox", "mrg"])
    def test_full_grid(self, tiny_matrix, rng_backend):
        reference = network_fingerprint(
            LemonTreeLearner(_sequential_config(rng_backend))
            .learn(tiny_matrix, seed=11)
            .network
        )
        for n_nodes in (1, 2, 4):
            for n_workers in (1, 2):
                if n_nodes == 1 and n_workers == 1:
                    continue  # that cell *is* the reference
                config = _sharded_config(
                    n_nodes, n_workers=n_workers, rng_backend=rng_backend
                )
                got = network_fingerprint(
                    LemonTreeLearner(config).learn(tiny_matrix, seed=11).network
                )
                assert got == reference, (
                    f"diverged at n_nodes={n_nodes} x w={n_workers} "
                    f"({rng_backend})"
                )


class TestValidationGridNodeAxis:
    def test_node_counts_extend_grid(self):
        from repro.validation.runner import backend_grid

        base = backend_grid(smoke=True)
        extended = backend_grid(smoke=True, node_counts=(1, 2))
        shard_cells = [c for c in extended if c.n_nodes > 1]
        # n=1 differentiates nothing; only n=2 joins, once per RNG backend.
        assert len(extended) == len(base) + 2
        assert {c.n_nodes for c in shard_cells} == {2}
        assert {c.rng_backend for c in shard_cells} == {"philox", "mrg"}

    def test_combo_label_names_shard_tier(self):
        from repro.validation.report import ComboResult

        cell = ComboResult(1, "numpy", "mrg", n_nodes=2)
        assert cell.label == "n=2/w=1/numpy/mrg"


class TestCliNodeFlags:
    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["learn", "--preset", "yeast"])
        assert args.nodes == 1
        assert not hasattr(args, "node_backend")

    def test_learn_accepts_nodes(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["learn", "--preset", "yeast", "--nodes", "2"]
        )
        assert args.nodes == 2

    def test_validate_accepts_node_axis(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["validate", "--smoke", "--nodes", "1", "2"]
        )
        assert args.nodes == [1, 2]

    def test_rejects_non_integer_nodes(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["learn", "--preset", "yeast", "--nodes", "two"]
            )
