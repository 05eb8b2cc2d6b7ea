"""Failure injection and degenerate-input behaviour."""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.datatypes import ExpressionMatrix
from repro.parallel import poolutil, sharding, transport
from repro.parallel.comm import SpmdFailure, run_spmd
from repro.parallel.engine import ParallelLearner
from repro.parallel.executor import (
    TaskPoolExecutor,
    WorkerCrashedError,
    _ganesh_run,
)
from repro.parallel.sharding import (
    NodeCrashedError,
    ShardedExecutor,
    _NodeSession,
)


def _proc_stat(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` after the command name: state, ppid, pgrp,
    session, ... (the name may itself contain spaces and parentheses)."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    """Whether ``pid`` is still running (a zombie is not)."""
    try:
        return _proc_stat(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def _session_processes() -> dict[int, str]:
    """Live processes of this session other than this one, pid -> command
    line.  Everything a test launches stays in the session — shard nodes
    lead their own process *group*, and workers orphaned by a killed node
    are re-parented, but neither leaves it — so this sees what a walk down
    from ``os.getpid()`` would miss."""
    session = os.getsid(0)
    found: dict[int, str] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            stat = _proc_stat(int(entry.name))
            if stat[0] == "Z" or int(stat[3]) != session:
                continue
            found[int(entry.name)] = (
                (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            )
        except (OSError, IndexError, ValueError):  # exited while we looked
            continue
    return found


@pytest.fixture(autouse=True)
def _no_leaks():
    """Whatever a test kills or crashes, nothing it started outlives it:
    no process (this process's own resource tracker aside) and no
    shared-memory segment."""
    if not Path("/proc/self/stat").exists():  # pragma: no cover - not Linux
        yield
        return
    shm = Path("/dev/shm")
    procs_before = set(_session_processes())
    segments_before = {f.name for f in shm.glob("psm_*")}
    yield
    deadline = time.monotonic() + 10.0
    while True:
        procs = {
            pid: cmd for pid, cmd in _session_processes().items()
            if pid not in procs_before and "resource_tracker" not in cmd
        }
        segments = {f.name for f in shm.glob("psm_*")} - segments_before
        if not (procs or segments) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not procs, f"processes outlived the test: {procs}"
    assert not segments, f"shared-memory segments outlived the test: {segments}"


class TestSpmdFailures:
    def test_one_rank_raising_reports_all(self):
        def fn(comm):
            comm.allreduce(1)
            if comm.rank == 1:
                raise ValueError("injected")
            # The surviving ranks block on the next collective; the abort
            # must release them rather than deadlock.
            comm.allreduce(2)

        with pytest.raises(SpmdFailure) as err:
            run_spmd(3, fn)
        ranks = [rank for rank, _ in err.value.errors]
        assert 1 in ranks

    def test_all_ranks_raising(self):
        def fn(comm):
            raise RuntimeError(f"rank {comm.rank}")

        with pytest.raises(SpmdFailure) as err:
            run_spmd(4, fn)
        assert len(err.value.errors) == 4

    def test_failure_message_readable(self):
        def fn(comm):
            if comm.rank == 0:
                raise KeyError("k")
            comm.barrier()

        with pytest.raises(SpmdFailure) as err:
            run_spmd(2, fn)
        assert "rank 0" in str(err.value)


def _exit_mid_run(ctx, item):
    """A task whose worker process dies outright partway through the
    batch (``os._exit`` skips all exception handling, like a kill -9)."""
    if item == 2:
        os._exit(1)
    return item


def _hold_unit(ctx, item):
    """A unit that, given a path, records its worker's pid there and holds
    on to the unit until it is killed; any other item returns at once."""
    if item is not None:
        staged = Path(item + ".tmp")
        staged.write_text(str(os.getpid()))
        staged.replace(item)
        time.sleep(120)
    return item


def _die_on_ganesh_zero(ctx, item):
    """Checkpointed-crash test task: the worker running run 0 dies outright
    (``os._exit`` skips all handling, like a kill -9 mid-dispatch) once
    another run's checkpoint has landed, so there is a survivor to resume
    from however fast the dead worker fails the dispatch."""
    g, want_trace = item
    if g == 0:
        deadline = time.monotonic() + 60.0
        while not list(Path(ctx["checkpoints"].directory).glob("ganesh_*.npz")):
            assert time.monotonic() < deadline, "no other run checkpointed"
            time.sleep(0.005)
        os._exit(13)
    return _ganesh_run(ctx, item)


class TestWorkerDeath:
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_dead_worker_detected_not_hung(self, tiny_matrix, schedule):
        """A worker that dies with a unit in hand is EOF on its channel:
        the executor surfaces the crash instead of waiting for the lost
        unit, and refuses further dispatches on the broken pool."""
        config = LearnerConfig(max_sampling_steps=3, parallel=ParallelConfig(n_workers=2))
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with TaskPoolExecutor(tiny_matrix.values, parents, config, 1) as executor:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(
                    _exit_mid_run, list(range(6)), schedule=schedule
                )
            # Nothing respawns a dead worker: the inits stay at two.
            assert executor.worker_inits() == 2
            with pytest.raises(WorkerCrashedError, match="died earlier"):
                executor.submit_runs(_exit_mid_run, [0, 1])

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_sigkilled_busy_worker_raises_at_once(self, tmp_path, tiny_matrix, mp_context):
        """At default settings a SIGKILLed worker holding a unit fails the
        dispatch within two seconds, under either start method, and leaves
        no segment and no child behind (the module's leak fixture)."""
        if mp_context not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {mp_context} start method here")
        config = LearnerConfig(max_sampling_steps=3, parallel=ParallelConfig(n_workers=2))
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        marker = tmp_path / "holding"
        killed_at = []

        def kill_the_holder():
            deadline = time.monotonic() + 60.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            pid = int(marker.read_text())
            killed_at.append(time.monotonic())
            os.kill(pid, signal.SIGKILL)

        with TaskPoolExecutor(
            tiny_matrix.values, parents, config, 1, mp_context=mp_context
        ) as executor:
            executor.start()
            killer = threading.Thread(target=kill_the_holder, daemon=True)
            killer.start()
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(_hold_unit, [str(marker), None])
            raised_at = time.monotonic()
            killer.join(timeout=60.0)
            assert killed_at
            assert raised_at - killed_at[0] < 2.0

    def test_crashed_pool_is_torn_down(self, tiny_matrix):
        """After a worker died mid-dispatch, ``close()`` still ends the
        survivors through the two-phase close and reaps every worker —
        the dead one included — promptly (the module's leak fixture checks
        that the shared matrix is unlinked too)."""
        config = LearnerConfig(max_sampling_steps=3, parallel=ParallelConfig(n_workers=2))
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        executor = TaskPoolExecutor(tiny_matrix.values, parents, config, 1)
        try:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(_exit_mid_run, list(range(6)), schedule="dynamic")
            workers = executor.worker_pids()
            assert len(workers) == 2
        finally:
            t0 = time.monotonic()
            executor.close()
        assert time.monotonic() - t0 < 5.0
        assert not any(_alive(pid) for pid in workers)

    @pytest.mark.parametrize("checkpoints", [False, True], ids=["no-dir", "dir"])
    def test_healthy_pool_is_torn_down(self, tiny_matrix, tmp_path, checkpoints):
        """A healthy pool's ``close()`` is answered, not enforced: every
        worker says ``bye`` and exits with code 0 — nobody is signalled —
        with a checkpoint directory too, since close dispatches nothing."""
        config = LearnerConfig(max_sampling_steps=3, parallel=ParallelConfig(n_workers=2))
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        executor = TaskPoolExecutor(
            tiny_matrix.values, parents, config, 1,
            checkpoint_dir=tmp_path if checkpoints else None,
        )
        try:
            assert executor.submit_runs(_exit_mid_run, [0, 1, 3]) == [0, 1, 3]
            procs = list(executor.transport._children.procs)
            assert len(procs) == 2
        finally:
            t0 = time.monotonic()
            executor.close()
        assert time.monotonic() - t0 < 5.0
        assert [proc.exitcode for proc in procs] == [0, 0]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="forked workers inherit the patched module; spawned ones re-import it",
    )
    def test_worker_dead_before_init_reply(self, tiny_matrix, monkeypatch):
        """A pool worker that dies before it answers ``init`` fails the
        first dispatch with the pool tier's own crash type, at once, and
        the pool refuses to run on afterwards."""
        monkeypatch.setattr(transport, "_WorkerSession", _exit_before_init_reply)
        config = LearnerConfig(max_sampling_steps=3, parallel=ParallelConfig(n_workers=2))
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with TaskPoolExecutor(tiny_matrix.values, parents, config, 1) as executor:
            t0 = time.monotonic()
            with pytest.raises(
                WorkerCrashedError, match=r"died before its init reply \(exit code 7\)"
            ):
                executor.submit_runs(_exit_mid_run, [0, 1])
            assert time.monotonic() - t0 < 2.0
            assert executor.worker_inits() == 0
            with pytest.raises(WorkerCrashedError, match="died earlier"):
                executor.submit_runs(_exit_mid_run, [0, 1])

    def test_resume_replays_only_unfinished_runs(self, tiny_matrix, tmp_path):
        """Kill a worker mid-dispatch with checkpointing on: the
        surviving runs' checkpoints are valid and a resumed run replays
        only the lost runs (survivor files are never rewritten)."""
        n_runs = 4
        config = LearnerConfig(
            max_sampling_steps=3, n_ganesh_runs=n_runs,
            parallel=ParallelConfig(n_workers=2),
        )
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        reference = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_workers=1))
        ).sample_clusterings(tiny_matrix, seed=1)

        with TaskPoolExecutor(
            tiny_matrix.values, parents, config, 1,
            checkpoint_dir=tmp_path,
        ) as executor:
            with pytest.raises(WorkerCrashedError):
                executor.submit_runs(
                    _die_on_ganesh_zero,
                    [(g, False) for g in range(n_runs)],
                    schedule="dynamic",
                )
        names = {f.name for f in tmp_path.glob("ganesh_*.npz")}
        assert "ganesh_0.npz" not in names  # the poisoned run never landed
        assert names  # at least one survivor checkpointed
        survivor_stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }

        samples = LemonTreeLearner(config).sample_clusterings(
            tiny_matrix, seed=1, checkpoint_dir=tmp_path
        )
        assert len(samples) == n_runs
        for got, want in zip(samples, reference):
            np.testing.assert_array_equal(got, want)
        for f in tmp_path.glob("ganesh_*.npz"):
            if f.name in survivor_stamps:
                assert f.stat().st_mtime_ns == survivor_stamps[f.name]


_KILL_RESUME_SCRIPT = """
import sys
from repro.core.learner import LemonTreeLearner
from repro.validation import get_scenario
from tests.test_failure_injection import _tie_heavy_setup

config, matrix = _tie_heavy_setup()
print("ready", flush=True)
LemonTreeLearner(config).learn(matrix, seed=5, checkpoint_dir=sys.argv[1])
"""


def _tie_heavy_setup():
    """The adversarial kill-and-resume workload: exact duplicate rows (the
    tie-heavy scenario) with enough GaneSH runs that checkpoints appear
    one by one while the run is still in flight."""
    from repro.core.config import LearnerConfig
    from repro.validation import get_scenario

    spec = get_scenario("duplicate-genes")
    config = LearnerConfig(
        n_ganesh_runs=8, n_update_steps=3, max_sampling_steps=4
    )
    return config, spec.generate(2, smoke=True).matrix


@pytest.mark.slow
class TestScenarioKillResume:
    def test_killed_learn_resumes_bit_identical(self, tmp_path):
        """SIGKILL a checkpointing learn() mid-flight on the tie-heavy
        scenario; the resumed run must produce exactly the network an
        uninterrupted run does (ties make any replay-order leak visible)."""
        config, matrix = _tie_heavy_setup()
        uninterrupted = LemonTreeLearner(config).learn(matrix, seed=5).network

        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_RESUME_SCRIPT, str(tmp_path)],
            stdout=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            # Kill as soon as the first GaneSH checkpoint lands — the run
            # is then provably mid-flight, with most work still pending.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if list(tmp_path.glob("ganesh_*.npz")) or proc.poll() is not None:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()

        survivors = {f.name for f in tmp_path.glob("ganesh_*.npz")}
        assert survivors  # the kill landed after work was checkpointed
        stamps = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }

        resumed = (
            LemonTreeLearner(config)
            .learn(matrix, seed=5, checkpoint_dir=tmp_path)
            .network
        )
        assert resumed == uninterrupted
        # Survivor checkpoints were reused, never rewritten.
        for f in tmp_path.glob("ganesh_*.npz"):
            if f.name in stamps:
                assert f.stat().st_mtime_ns == stamps[f.name]


class TestShardNodeDeath:
    """Failure injection on the multi-node shard tier: a SIGKILLed node
    process must surface as a typed ``NodeCrashedError`` (never a hang),
    and a restarted run must resume bit-identically from the checkpoints
    the surviving nodes wrote."""

    #: how the nodes are launched (``open_executor``'s ``mp_context``)
    mp_context = None

    def test_dead_node_raises_typed_error(self, tiny_matrix, tmp_path):
        """Kill a node before dispatch: the driver detects the dead peer
        deterministically and raises the shard tier's typed error."""
        config = LearnerConfig(
            n_ganesh_runs=4, max_sampling_steps=3,
            parallel=ParallelConfig(n_nodes=2),
        )
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        with ShardedExecutor(
            tiny_matrix.values, parents, config, 1, checkpoint_dir=tmp_path,
            mp_context=self.mp_context,
        ) as executor:
            executor.start()
            assert len(executor.node_pids) == 2
            os.kill(executor.node_pids[1], signal.SIGKILL)
            with pytest.raises(NodeCrashedError):
                executor.sample_ganesh_runs(4)
            # A crashed tier refuses further dispatches instead of
            # silently computing on the surviving subset.
            with pytest.raises(NodeCrashedError):
                executor.sample_ganesh_runs(4)

    @pytest.mark.slow
    def test_sigkill_mid_run_resumes_bit_identical(self, tmp_path, monkeypatch):
        """SIGKILL one shard node while chains are in flight on the
        tie-heavy workload; the survivors' checkpoints must carry a
        restarted run to exactly the uninterrupted ensemble.

        The dispatch is held at known points in the driver: node 0's first
        chain goes out only once node 1 has taken a chain of its own, and
        that chain is not sent before node 0 has checkpointed one; node 1
        is killed there.  Its chain can then never land, and node 0 stops
        after the chain it holds, so the run fails mid-flight however
        fast the chains are."""
        config, matrix = _tie_heavy_setup()
        reference = LemonTreeLearner(config).sample_clusterings(
            matrix, seed=5
        )
        parents = np.asarray(range(matrix.n_vars), dtype=np.int64)

        executor = ShardedExecutor(
            matrix.values, parents,
            config.with_updates(
                parallel=ParallelConfig(n_nodes=2)
            ),
            5, checkpoint_dir=tmp_path, mp_context=self.mp_context,
        )
        killed = []
        node1_holds_a_chain = threading.Event()
        send_msg = poolutil.SocketChannel.send_msg

        def held_send(channel, message):
            if message[0] == "run" and not killed:
                if channel.peer == "node 0":
                    assert node1_holds_a_chain.wait(60), "node 1 took no chain"
                elif channel.peer == "node 1":
                    node1_holds_a_chain.set()
                    deadline = time.monotonic() + 60.0
                    while not list(tmp_path.glob("ganesh_*.npz")):
                        assert time.monotonic() < deadline, "node 0 checkpointed nothing"
                        time.sleep(0.005)
                    pid = executor.node_pids[1]
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
            send_msg(channel, message)

        try:
            executor.start()
            monkeypatch.setattr(poolutil.SocketChannel, "send_msg", held_send)
            with pytest.raises(NodeCrashedError):
                executor.sample_ganesh_runs(config.n_ganesh_runs)
        finally:
            executor.close()
        assert killed

        survivors = {
            f.name: f.stat().st_mtime_ns for f in tmp_path.glob("ganesh_*.npz")
        }
        assert survivors  # the kill landed after work was checkpointed
        assert len(survivors) < config.n_ganesh_runs  # ... but mid-flight

        # The restarted (sequential) run replays only the lost chains and
        # reproduces the uninterrupted ensemble bit for bit.
        resumed = LemonTreeLearner(config).sample_clusterings(
            matrix, seed=5, checkpoint_dir=tmp_path
        )
        assert len(resumed) == config.n_ganesh_runs
        for got, want in zip(resumed, reference):
            np.testing.assert_array_equal(got, want)
        for f in tmp_path.glob("ganesh_*.npz"):
            if f.name in survivors:
                assert f.stat().st_mtime_ns == survivors[f.name]


@pytest.fixture
def readable_syscall():
    """Skip where :func:`_kill_busy_worker` cannot make its decision: a
    stopped descendant's ``/proc/<pid>/syscall`` is refused (it needs
    ptrace-read access: Yama ``ptrace_scope`` >= 2, hardened containers) or
    the kernel does not expose the file."""
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        os.kill(child.pid, signal.SIGSTOP)
        Path(f"/proc/{child.pid}/syscall").read_text()
    except OSError as exc:
        pytest.skip(f"cannot read a stopped descendant's /proc/<pid>/syscall: {exc!r}")
    finally:
        child.kill()
        child.wait()


def _kill_busy_worker(worker_pids, timeout: float = 120.0) -> int:
    """SIGKILL a pool worker *inside* a shard node while it provably holds
    a unit, however short units are: freeze a candidate with SIGSTOP, then
    read where it stopped.  An idle worker stops inside the ``read`` /
    ``futex`` it waits for its next task in; one stopped in user mode
    (``/proc/<pid>/syscall`` reads ``-1 ...``) was computing — it has taken
    a task and not yet delivered the result — and dies as it stands, so the
    task is lost whatever the unit's length.  Anything else is resumed and
    asked again a moment later.

    ``worker_pids()`` lists the pool workers the nodes have reported so
    far, which have all run their initializer.  The victim is picked from
    those, never from "any child of a node": a forked node's first child
    can be the resource tracker it starts for its shared matrix, which
    boots — busily — just then.  Callers take the ``readable_syscall``
    fixture, which skips where the read below is refused; a refusal here is
    raised (the candidate resumed), not waited out.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for pid in worker_pids():
            stopped_in = None
            try:
                os.kill(pid, signal.SIGSTOP)
                while _proc_stat(pid)[0] not in "TZ":
                    time.sleep(0.001)
                stopped_in = Path(f"/proc/{pid}/syscall").read_text().split()[0]
            except (ProcessLookupError, FileNotFoundError, IndexError):
                pass  # gone, or exited while we looked
            except PermissionError:
                os.kill(pid, signal.SIGCONT)
                raise
            try:
                os.kill(pid, signal.SIGKILL if stopped_in == "-1" else signal.SIGCONT)
            except OSError:
                continue
            if stopped_in == "-1":
                return pid
        time.sleep(0.005)
    raise AssertionError("no busy pool worker appeared under the shard nodes")


def _nested_crash_setup():
    """Two socket nodes x two pool workers each, on the default (native
    where it builds) kernel backend: units of tens of milliseconds."""
    from repro.data.synthetic import make_module_dataset

    matrix = make_module_dataset(120, 60, n_modules=8, seed=3).matrix
    config = LearnerConfig(
        n_ganesh_runs=4,
        n_update_steps=3,
        n_splits_per_node=3,
        parallel=ParallelConfig(n_workers=2, n_nodes=2),
    )
    return matrix, config


@pytest.mark.slow
@pytest.mark.usefixtures("readable_syscall")
class TestNestedWorkerDeath:
    """A pool worker dying *inside* a shard node keeps its type on the way
    to the driver: the error frame re-raises as ``WorkerCrashedError``,
    not as a ``RuntimeError`` the service's crash isolation cannot see."""

    #: how the nodes are launched (``open_executor``'s ``mp_context``)
    mp_context = None

    def test_grandchild_sigkill_raises_worker_crashed(self):
        matrix, config = _nested_crash_setup()
        learner = LemonTreeLearner(config)
        parents = np.asarray(
            config.resolve_candidate_parents(matrix.n_vars), dtype=np.int64
        )
        with ShardedExecutor(
            matrix.values, parents, config, 9, mp_context=self.mp_context
        ) as executor:
            # Task 1 on the same tier builds the nodes' pools, so every
            # pool worker is reported before Task 3 gives them long work.
            members = learner.consensus(
                executor.sample_ganesh_runs(config.n_ganesh_runs)
            )
            workers = executor.worker_pids()[2:]
            assert len(workers) == 4
            killer = threading.Thread(
                target=_kill_busy_worker, args=(lambda: workers,), daemon=True
            )
            killer.start()
            with pytest.raises(WorkerCrashedError, match="shard node"):
                executor.learn_modules(members)
            killer.join(timeout=120.0)
            assert not killer.is_alive()

    def test_service_isolates_nested_crash(self, tmp_path):
        from repro.service import InferenceService, JobFailed
        from repro.validation.metrics import network_fingerprint

        matrix, config = _nested_crash_setup()
        oracle = network_fingerprint(
            LemonTreeLearner(
                config.with_updates(parallel=ParallelConfig(n_workers=1))
            ).learn(matrix, seed=9).network
        )
        with InferenceService(tmp_path, max_inflight=4) as service:
            job = service.submit(matrix, config, 9, use_checkpoints=False)

            def reported_workers() -> list[int]:
                row = service.status(job)
                assert row["state"] in ("queued", "running"), row
                # A sharded lease lists its two node processes first,
                # then the pool workers they have reported.
                return row.get("worker_pids", [])[2:]

            _kill_busy_worker(reported_workers)

            with pytest.raises(JobFailed) as err:
                service.wait(job, timeout=300)
            assert err.value.error_type == "WorkerCrashedError"
            assert service.lease.invalidations == 1

            job2 = service.submit(matrix, config, 9, use_checkpoints=False)
            payload = service.wait(job2, timeout=600)
            assert payload["fingerprint"] == oracle
            assert payload["executor_reused"] is False


class TestShardNodeDeathSpawned(TestShardNodeDeath):
    """The same injections on nodes launched as fresh interpreters — the
    rule the service's lease passes, and every platform without fork."""

    mp_context = "spawn"


@pytest.mark.slow
class TestNestedWorkerDeathSpawned(TestNestedWorkerDeath):
    mp_context = "spawn"
    #: the service always launches by its own rule: nothing to vary
    test_service_isolates_nested_crash = None


def _exit_before_init_reply(spec, node_id):
    """A node that dies before it answers ``init`` (import error, OOM kill)."""
    os._exit(7)


def _second_node_exits_before_init_reply(spec, node_id):
    if node_id == 1:
        os._exit(7)
    return _NodeSession(spec, node_id)


def _node_silent_past_init_bound(spec, node_id):
    """A node that stays alive but never answers ``init`` (a hung import,
    a stuck mount)."""
    time.sleep(60.0)
    return _NodeSession(spec, node_id)


def _garbled_child(reply: bytes):
    """A node entry point that reads its ``init`` frame, answers with the
    raw bytes ``reply`` and exits with code 7."""

    def child_main(sock, index, open_session, nested):
        poolutil.SocketChannel(sock, peer="driver").recv_msg()
        sock.sendall(reply)
        os._exit(7)

    return child_main


_half_header_child = _garbled_child(b"\0\0\0")
_oversized_header_child = _garbled_child(
    (poolutil.MAX_FRAME_BYTES + 1).to_bytes(8, "big")
)
_wrong_reply_child = _garbled_child(
    poolutil.encode_frame(("hello", {"node_id": 0}))
)


def _failing_local_transport(*args, **kwargs):
    raise RuntimeError("injected init failure")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked nodes inherit the patched module; spawned ones re-import it",
)
class TestShardStartFailures:
    """``start()`` fails fast, typed and clean: a node that is already dead
    is EOF on its channel, and whatever it had launched by then is reaped
    before the error reaches the caller."""

    def _executor(self, tiny_matrix):
        config = LearnerConfig(
            max_sampling_steps=3,
            parallel=ParallelConfig(n_nodes=2),
        )
        parents = np.asarray(range(tiny_matrix.n_vars), dtype=np.int64)
        return ShardedExecutor(tiny_matrix.values, parents, config, 1)

    def _assert_start_fails(self, executor, match):
        t0 = time.monotonic()
        with pytest.raises(NodeCrashedError, match=match) as failure:
            executor.start()
        assert time.monotonic() - t0 < 2.0
        # Reaped inside start(): close() has nothing left to wait for.
        assert executor.transport._children.procs == []
        assert not any(_alive(pid) for pid in executor.node_pids)
        t0 = time.monotonic()
        executor.close()
        assert time.monotonic() - t0 < 1.0
        return failure.value

    @pytest.mark.parametrize(
        "open_node", [_exit_before_init_reply, _second_node_exits_before_init_reply]
    )
    def test_node_dead_before_init_reply(self, tiny_matrix, monkeypatch, open_node):
        monkeypatch.setattr(sharding, "_NodeSession", open_node)
        self._assert_start_fails(
            self._executor(tiny_matrix), r"died before its init reply \(exit code 7\)"
        )

    def test_silent_node_fails_the_start_at_the_init_bound(self, tiny_matrix, monkeypatch):
        """A live node that never answers ``init`` fails ``start()`` once
        :data:`poolutil.INIT_SECONDS` has passed, saying so, and is reaped
        with its sibling."""
        monkeypatch.setattr(poolutil, "INIT_SECONDS", 0.5)
        monkeypatch.setattr(sharding, "_NodeSession", _node_silent_past_init_bound)
        t0 = time.monotonic()
        self._assert_start_fails(
            self._executor(tiny_matrix),
            r"node 0 \(pid \d+\) did not answer its init within 0.5 s",
        )
        assert time.monotonic() - t0 >= 0.5

    def test_started_nodes_wait_without_the_init_bound(self, tiny_matrix, monkeypatch):
        """The bound covers the ``init`` reply alone: once started, every
        channel waits for its replies without a deadline again, so a long
        task is never cut at :data:`poolutil.INIT_SECONDS`."""
        monkeypatch.setattr(poolutil, "INIT_SECONDS", 0.5)
        executor = self._executor(tiny_matrix)
        try:
            executor.start()
            channels = executor.transport._children.channels
            assert len(channels) == 2
            assert all(channel.recv_timeout is None for channel in channels)
        finally:
            executor.close()

    def test_failed_init_reaps_every_node(self, tiny_matrix, monkeypatch):
        monkeypatch.setattr(sharding, "local_transport", _failing_local_transport)
        self._assert_start_fails(self._executor(tiny_matrix), "node")

    @pytest.mark.parametrize(
        "child_main, match, cause",
        [
            (
                _half_header_child,
                r"died before its init reply \(exit code 7\)",
                "closed the connection mid-protocol",
            ),
            (
                _oversized_header_child,
                r"died before its init reply \(exit code 7\)",
                "frame header announces",
            ),
            (_wrong_reply_child, "node 0 failed to initialize", None),
        ],
        ids=["half-header", "oversized-header", "wrong-reply"],
    )
    def test_garbled_init_reply_fails_the_start(
        self, tiny_matrix, monkeypatch, child_main, match, cause
    ):
        """A node whose channel carries anything but a well-formed ``ok``
        in answer to ``init`` fails ``start()`` typed and clean: a frame
        cut off by the node's death, a header announcing more than
        :data:`poolutil.MAX_FRAME_BYTES` (refused before any payload is
        awaited), or a reply of the wrong kind."""
        monkeypatch.setattr(poolutil, "_child_main", child_main)
        error = self._assert_start_fails(self._executor(tiny_matrix), match)
        if cause is None:
            assert error.__cause__ is None
        else:
            assert cause in str(error.__cause__)

    def test_no_listening_socket(self, tiny_matrix, monkeypatch):
        """Nodes hang off socketpairs: with ``listen`` refusing to run,
        a two-node ``learn()`` still equals the sequential network."""

        def refused(sock, *args):
            raise OSError("listen() is refused in this test")

        monkeypatch.setattr(socket.socket, "listen", refused)
        config = LearnerConfig(max_sampling_steps=3)
        sequential = LemonTreeLearner(config).learn(tiny_matrix, seed=1).network
        sharded = LemonTreeLearner(
            config.with_updates(parallel=ParallelConfig(n_nodes=2))
        ).learn(tiny_matrix, seed=1).network
        assert sharded == sequential


_TWO_TIERS_SCRIPT = """
import json, sys, time
import numpy as np
from repro.core.config import LearnerConfig, ParallelConfig
from repro.data.synthetic import make_module_dataset
from repro.parallel.executor import open_executor

if __name__ == "__main__":
    matrix = make_module_dataset(24, 12, n_modules=3, seed=42).matrix
    config = LearnerConfig(
        max_sampling_steps=3,
        parallel=ParallelConfig(n_nodes=2),
    )
    tiers = [
        open_executor(matrix.values, config, 1, mp_context=sys.argv[1] or None)
        for _ in range(2)
    ]
    for tier in tiers:
        tier.start()
    print(json.dumps([tier.node_pids for tier in tiers]), flush=True)
    time.sleep(600)
"""


def _socket_fds(pid: int) -> list[str]:
    """The sockets ``pid`` holds open, as ``socket:[inode]`` links."""
    links = []
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            link = os.readlink(fd)
        except OSError:  # closed while we looked
            continue
        if link.startswith("socket:"):
            links.append(link)
    return links


class TestShardDriverDeath:
    """A node's only tie to the world is its own channel.  A forked node
    must not keep a sibling's socketpair end or another live tier's
    channels open: each of those would hide the driver's death from some
    node, which then never exits."""

    @pytest.mark.parametrize("mp_context", ["", "spawn"], ids=["default", "spawn"])
    def test_sigkilled_driver_takes_every_node_of_both_tiers(
        self, tmp_path, mp_context
    ):
        script = tmp_path / "two_tiers.py"
        script.write_text(_TWO_TIERS_SCRIPT)
        driver = subprocess.Popen(
            [sys.executable, str(script), mp_context], stdout=subprocess.PIPE
        )
        try:
            first, second = json.loads(driver.stdout.readline())
            nodes = first + second
            assert len(set(nodes)) == 4
            for pid in nodes:
                assert len(_socket_fds(pid)) == 1, (pid, _socket_fds(pid))
            driver.send_signal(signal.SIGKILL)
            driver.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while any(map(_alive, nodes)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(_alive, nodes))
        finally:
            if driver.poll() is None:  # pragma: no cover - cleanup on failure
                driver.kill()
                driver.wait()


class TestMissingDataRejection:
    """NaN matrices must be rejected loudly at the pipeline boundary."""

    def _nan_matrix(self):
        from repro.data.synthetic import make_module_dataset

        return make_module_dataset(12, 8, missing_rate=0.2, seed=0).matrix

    def test_learn_rejects_nan(self, fast_config):
        with pytest.raises(ValueError, match="impute_missing"):
            LemonTreeLearner(fast_config).learn(self._nan_matrix(), seed=1)

    def test_sample_clusterings_rejects_nan(self, fast_config):
        with pytest.raises(ValueError, match="missing"):
            LemonTreeLearner(fast_config).sample_clusterings(
                self._nan_matrix(), seed=1
            )

    def test_learn_from_modules_rejects_nan(self, fast_config):
        with pytest.raises(ValueError, match="missing"):
            LemonTreeLearner(fast_config).learn_from_modules(
                self._nan_matrix(), [[0, 1, 2]], seed=1
            )

    def test_imputed_matrix_learns(self, fast_config):
        matrix = self._nan_matrix().impute_missing()
        result = LemonTreeLearner(fast_config).learn(matrix, seed=1)
        assert sum(m.size for m in result.network.modules) == matrix.n_vars

    def test_suffstats_reject_nan(self):
        from repro.scoring.suffstats import StatsArrays, SuffStats

        with pytest.raises(ValueError, match="NaN"):
            SuffStats.of(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="NaN"):
            StatsArrays.grouped(
                np.array([1.0, np.nan, 2.0]),
                np.array([0, 0, 1], dtype=np.int64),
                2,
            )


class TestDegenerateData:
    def test_constant_matrix(self, fast_config):
        """All-equal values: scores degenerate but nothing crashes and the
        output is a complete partition."""
        matrix = ExpressionMatrix(np.ones((10, 8)))
        result = LemonTreeLearner(fast_config).learn(matrix, seed=1)
        assert sum(m.size for m in result.network.modules) == 10

    def test_constant_matrix_parallel_consistent(self, fast_config):
        matrix = ExpressionMatrix(np.full((8, 6), 3.14))
        sequential = LemonTreeLearner(fast_config).learn(matrix, seed=2)
        parallel = ParallelLearner(fast_config).learn(matrix, seed=2, p=2)
        assert parallel.network == sequential.network

    def test_single_variable_rows_duplicated(self, fast_config):
        """Identical rows must all land in modules (ties everywhere)."""
        row = np.linspace(-1, 1, 9)
        matrix = ExpressionMatrix(np.tile(row, (6, 1)))
        result = LemonTreeLearner(fast_config).learn(matrix, seed=3)
        assert result.network.n_modules >= 1

    def test_tiny_matrix(self, fast_config):
        matrix = ExpressionMatrix(np.random.default_rng(0).normal(size=(4, 4)))
        result = LemonTreeLearner(fast_config).learn(matrix, seed=4)
        assert result.network.n_vars == 4

    def test_extreme_magnitudes(self, fast_config):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(8, 8)) * 1e6 + 1e8
        matrix = ExpressionMatrix(values)
        result = LemonTreeLearner(fast_config).learn(matrix, seed=5)
        for module in result.network.modules:
            for score in module.weighted_parents.values():
                assert np.isfinite(score)

    def test_mixed_scales(self, fast_config):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(10, 8))
        values[0] *= 1e-8
        values[1] *= 1e8
        result = LemonTreeLearner(fast_config).learn(
            ExpressionMatrix(values), seed=6
        )
        assert result.network.n_modules >= 1

    def test_single_ganesh_cluster_config(self):
        """K0 = 1: everything starts in one cluster; reassignment can still
        split it via the fresh-cluster option."""
        config = LearnerConfig(init_var_clusters=1, max_sampling_steps=3)
        matrix = ExpressionMatrix(
            np.vstack([np.zeros((5, 10)), np.ones((5, 10)) * 9])
            + np.random.default_rng(3).normal(0, 0.1, size=(10, 10))
        )
        result = LemonTreeLearner(config).learn(matrix, seed=7)
        assert result.network.n_modules >= 1


class TestInitClusterResolution:
    def test_fraction(self):
        assert LearnerConfig(init_var_clusters=0.25).resolve_init_clusters(100) == 25

    def test_absolute(self):
        assert LearnerConfig(init_var_clusters=7).resolve_init_clusters(100) == 7

    def test_default_half(self):
        assert LearnerConfig().resolve_init_clusters(100) == 50

    def test_clamped_to_n(self):
        assert LearnerConfig(init_var_clusters=500).resolve_init_clusters(10) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LearnerConfig(init_var_clusters=0).resolve_init_clusters(10)
        with pytest.raises(ValueError):
            LearnerConfig(init_var_clusters=-0.5).resolve_init_clusters(10)

    def test_fraction_floor_is_one(self):
        assert LearnerConfig(init_var_clusters=0.001).resolve_init_clusters(10) == 1


# -- daemon crash isolation ---------------------------------------------------
#
# The always-on service must contain worker death to the job it struck:
# the job fails with the executor's typed error, the lease discards the
# poisoned pool, and the next queued job completes bit-identically on a
# fresh one.


def _daemon_job_config(workers: int = 2) -> LearnerConfig:
    """A job of a dozen units per worker (tens of milliseconds each on the
    native kernels), so one can be killed mid-flight."""
    return LearnerConfig(
        n_ganesh_runs=4,
        n_update_steps=3,
        n_splits_per_node=3,
        parallel=ParallelConfig(n_workers=workers),
    )


class TestDaemonCrashIsolation:
    @pytest.mark.slow
    def test_sigkilled_worker_fails_job_next_job_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """Kill a pool worker that provably holds a unit of a served job.

        The job is held twice at known points: once when Task 1 is done
        and every worker is idle (the test stops them all there, so none
        can read a frame), and once right after the driver has handed the
        first Task 3 unit to one of them.  That worker now holds a unit it
        never read; the test kills it, lets the others go on and releases
        the job, which must fail typed however fast the units are."""
        from repro.data.synthetic import make_module_dataset
        from repro.parallel.executor import TaskScheduler
        from repro.parallel.poolutil import SocketChannel
        from repro.service import InferenceService, JobFailed
        from repro.validation.metrics import network_fingerprint

        matrix = make_module_dataset(120, 60, n_modules=8, seed=3).matrix
        config = _daemon_job_config()
        oracle = network_fingerprint(
            LemonTreeLearner(
                config.with_updates(parallel=ParallelConfig(n_workers=1))
            ).learn(matrix, seed=9).network
        )
        at_task3, resume, release = (threading.Event() for _ in range(3))
        handed: list[int] = []  # the worker index that got the first unit
        handed_out = threading.Event()
        learn_modules = TaskScheduler.learn_modules
        send_msg = SocketChannel.send_msg

        def held_learn_modules(executor, *args, **kwargs):
            if not resume.is_set():
                at_task3.set()
                resume.wait(60)
            return learn_modules(executor, *args, **kwargs)

        def observed_send(channel, message):
            send_msg(channel, message)
            if (
                message[0] == "run" and resume.is_set() and not handed_out.is_set()
                and channel.peer.startswith("worker ")
            ):
                handed.append(int(channel.peer.split()[1]))
                handed_out.set()
                release.wait(60)

        monkeypatch.setattr(TaskScheduler, "learn_modules", held_learn_modules)
        monkeypatch.setattr(SocketChannel, "send_msg", observed_send)
        with InferenceService(tmp_path, max_inflight=4) as service:
            job = service.submit(matrix, config, 9, use_checkpoints=False)
            assert at_task3.wait(120), "the job never reached Task 3"
            pids = service.status(job)["worker_pids"]
            assert len(pids) == 2
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            resume.set()
            assert handed_out.wait(60), "no Task 3 unit was handed out"
            os.kill(pids[handed[0]], signal.SIGKILL)
            for pid in pids:
                if pid != pids[handed[0]]:
                    os.kill(pid, signal.SIGCONT)
            release.set()

            with pytest.raises(JobFailed) as err:
                service.wait(job, timeout=120)
            assert err.value.error_type == "WorkerCrashedError"
            assert service.status(job)["state"] == "failed"
            # The poisoned pool was discarded.
            assert service.stats()["executor"]["invalidations"] == 1

            # The NEXT job gets a fresh pool and the exact oracle network.
            job2 = service.submit(matrix, config, 9, use_checkpoints=False)
            payload = service.wait(job2, timeout=300)
            assert payload["fingerprint"] == oracle
            assert payload["executor_reused"] is False

    def test_admission_rejection_is_typed_and_recoverable(self, tiny_matrix, tmp_path):
        from repro.service import AdmissionRejected, InferenceService

        config = LearnerConfig(
            max_sampling_steps=5, parallel=ParallelConfig(n_workers=1)
        )
        service = InferenceService(tmp_path, max_inflight=2, autostart=False)
        try:
            kept = service.submit(tiny_matrix, config, 1)
            service.submit(tiny_matrix, config, 2)
            with pytest.raises(AdmissionRejected):
                service.submit(tiny_matrix, config, 3)
            # Rejection leaves the queue intact: both admitted jobs run.
            service.start()
            assert service.wait(kept, timeout=300)["fingerprint"]
        finally:
            service.close()

    def test_cancel_mid_queue_skips_only_the_cancelled_job(self, tiny_matrix, tmp_path):
        from repro.service import InferenceService, JobCancelled

        config = LearnerConfig(
            max_sampling_steps=5, parallel=ParallelConfig(n_workers=1)
        )
        service = InferenceService(tmp_path, max_inflight=8, autostart=False)
        try:
            first = service.submit(tiny_matrix, config, 1)
            doomed = service.submit(tiny_matrix, config, 2)
            last = service.submit(tiny_matrix, config, 3)
            assert service.cancel(doomed) is True
            service.start()
            assert service.wait(first, timeout=300)["fingerprint"]
            assert service.wait(last, timeout=300)["fingerprint"]
            with pytest.raises(JobCancelled):
                service.result(doomed)
            assert service.status(doomed)["state"] == "cancelled"
        finally:
            service.close()
