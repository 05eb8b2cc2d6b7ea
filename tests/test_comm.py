"""Tests for the thread-based message-passing communicator."""

import numpy as np
import pytest

from repro.parallel.comm import SerialComm, SpmdFailure, run_spmd


class TestRunSpmd:
    def test_returns_rank_order(self):
        results = run_spmd(4, lambda comm: comm.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_single_rank_uses_serial_comm(self):
        results = run_spmd(1, lambda comm: type(comm).__name__)
        assert results == ["SerialComm"]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 2:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(SpmdFailure) as err:
            run_spmd(4, fn)
        assert any(rank == 2 for rank, _ in err.value.errors)

    def test_passes_args(self):
        results = run_spmd(2, lambda comm, x, y=0: x + y + comm.rank, 5, y=7)
        assert results == [12, 13]


class TestCollectives:
    def test_allgather(self):
        results = run_spmd(4, lambda comm: comm.allgather(comm.rank**2))
        assert all(r == [0, 1, 4, 9] for r in results)

    def test_allreduce_sum(self):
        results = run_spmd(4, lambda comm: comm.allreduce(comm.rank + 1))
        assert all(r == 10 for r in results)

    def test_allreduce_custom_op(self):
        results = run_spmd(4, lambda comm: comm.allreduce(comm.rank, op=max))
        assert all(r == 3 for r in results)

    def test_allreduce_arrays(self):
        def fn(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=float))

        for result in run_spmd(3, fn):
            np.testing.assert_array_equal(result, [3.0, 3.0, 3.0])

    def test_exscan(self):
        results = run_spmd(4, lambda comm: comm.exscan(comm.rank + 1))
        assert results == [0, 1, 3, 6]

    def test_maxloc_lowest_rank_wins_ties(self):
        def fn(comm):
            value = 5.0 if comm.rank in (1, 3) else 0.0
            return comm.allreduce_max_with_index(value, payload=f"p{comm.rank}")

        for value, rank, payload in run_spmd(4, fn):
            assert (value, rank, payload) == (5.0, 1, "p1")

    def test_allgather_concat(self):
        def fn(comm):
            return comm.allgather_concat(np.arange(comm.rank + 1, dtype=float))

        for result in run_spmd(3, fn):
            np.testing.assert_array_equal(result, [0, 0, 1, 0, 1, 2])

    def test_repeated_collectives_do_not_interfere(self):
        def fn(comm):
            out = []
            for i in range(10):
                out.append(comm.allreduce(comm.rank + i))
            return out

        results = run_spmd(3, fn)
        expected = [sum(r + i for r in range(3)) for i in range(10)]
        assert all(r == expected for r in results)


class TestSplit:
    def test_split_groups(self):
        def fn(comm):
            color = comm.rank // 2
            sub = comm.split(color)
            return (color, sub.rank, sub.size, sub.allreduce(comm.rank))

        results = run_spmd(4, fn)
        assert results[0] == (0, 0, 2, 1)
        assert results[1] == (0, 1, 2, 1)
        assert results[2] == (1, 0, 2, 5)
        assert results[3] == (1, 1, 2, 5)

    def test_split_twice(self):
        def fn(comm):
            a = comm.split(comm.rank % 2)
            b = comm.split(comm.rank // 2)
            return (a.size, b.size)

        assert run_spmd(4, fn) == [(2, 2)] * 4


class TestSerialComm:
    def test_identities(self):
        comm = SerialComm()
        assert comm.allgather("x") == ["x"]
        assert comm.allreduce(5) == 5
        assert comm.exscan(3) == 0
        assert comm.exscan(3.5) == 0.0
        np.testing.assert_array_equal(comm.exscan(np.ones(2)), [0, 0])
        assert comm.allreduce_max_with_index(1.0, "pl") == (1.0, 0, "pl")
        np.testing.assert_array_equal(comm.allgather_concat(np.arange(3)), [0, 1, 2])
        assert comm.split("any").size == 1
