"""Micro-benchmarks of the computational kernels.

Not a paper table — these pin the per-kernel costs that the work-trace
cost model abstracts (score evaluations, split-chain steps, scans,
collectives) so regressions in the hot paths are visible in CI-style runs.
"""

from __future__ import annotations

import numpy as np

from repro.ganesh.state import CoClusterState, _compact
from repro.parallel.comm import run_spmd
from repro.parallel.costmodel import max_block_sum
from repro.parallel.primitives import segmented_scan
from repro.rng.streams import make_stream
from repro.scoring.kernel import LazySplitKernel
from repro.scoring.normal_gamma import log_marginal
from repro.scoring.split_score import SplitScorer
from repro.scoring.suffstats import StatsArrays


def test_kernel_log_marginal_vectorized(benchmark):
    rng = np.random.default_rng(0)
    count = rng.integers(1, 100, size=10000).astype(float)
    total = rng.normal(size=10000) * count
    sumsq = np.abs(rng.normal(size=10000)) * count + total**2 / count
    result = benchmark(lambda: log_marginal(count, total, sumsq))
    assert np.isfinite(result).all()


def test_kernel_grouped_stats(benchmark):
    rng = np.random.default_rng(1)
    values = rng.normal(size=(50, 2000))
    labels = rng.integers(0, 40, size=2000)
    stats = benchmark(lambda: StatsArrays.grouped(values, labels, 40))
    assert len(stats) == 40


def test_kernel_move_var_scores(benchmark):
    rng = np.random.default_rng(2)
    data = rng.normal(size=(200, 100))
    labels = _compact(rng.integers(0, 40, size=200))
    obs = [rng.integers(0, 8, size=100) for _ in range(int(labels.max()) + 1)]
    state = CoClusterState(data, labels, obs)
    scores = benchmark(lambda: state.move_var_scores(7))
    assert scores.shape == (state.n_clusters + 1,)


def test_kernel_split_chain_batch(benchmark):
    """The NumPy chain over one node's lazy kernel: 32 parents x 64
    observations, 2,048 candidates, a fresh memo every round."""
    rng = np.random.default_rng(3)
    scorer = SplitScorer(max_steps=25, stop_repeats=2, kernel_backend="numpy")
    values = rng.normal(size=(32, 64))
    sign = np.where(rng.random(64) < 0.5, 1.0, -1.0)
    uniforms = make_stream(4, "k").block(0, 2048 * scorer.draws_per_item)
    uniforms = uniforms.reshape(2048, scorer.draws_per_item)
    out = benchmark(
        lambda: scorer.score_batch_kernel(
            LazySplitKernel(values, sign, scorer.beta_grid), uniforms
        )
    )
    assert out[0].shape == (2048,)


def test_kernel_segmented_scan(benchmark):
    rng = np.random.default_rng(4)
    values = rng.random(1_000_000)
    segments = np.sort(rng.integers(0, 5000, size=1_000_000))
    out = benchmark(lambda: segmented_scan(values, segments))
    assert out.shape == values.shape


def test_kernel_block_partition(benchmark):
    rng = np.random.default_rng(5)
    costs = rng.pareto(1.5, size=2_000_000) + 1
    result = benchmark(lambda: max_block_sum(costs, 4096))
    assert result > 0


def test_kernel_thread_allreduce(benchmark):
    def round_trip():
        return run_spmd(4, lambda comm: comm.allreduce(np.ones(1000)))

    results = benchmark(round_trip)
    assert float(results[0].sum()) == 4000.0


def test_kernel_philox_block_seek(benchmark):
    stream = make_stream(6, "seek")
    out = benchmark(lambda: stream.block(10_000_000_000, 1000))
    assert out.shape == (1000,)
