"""Extension — parallel GENOMICA (the paper's Section 6 future work).

Not a paper table: the paper proposes extending its parallel components to
"develop a parallel solution for GENOMICA that scales to thousands of
cores", noting the prior state of the art (Liu et al.: 29.3x on 32 cores;
Jiang et al.: 3.5x on 4 threads).  The extension is
:class:`repro.genomica.GenomicaLearner` on the executor seam (M-step
clusterings, E-step blocks and final builds on the workers): a traced
one-worker GENOMICA run is projected over the same processor sweep as the
Lemon-Tree figures, and the crossing of the prior-art speedup marks is
asserted.
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED
from repro.bench import render_table, save_results
from repro.data.synthetic import make_module_dataset
from repro.core.config import ParallelConfig
from repro.genomica import GenomicaConfig, GenomicaLearner
from repro.parallel.trace import WorkTrace, project_time

PROCESSOR_COUNTS = (4, 16, 32, 64, 256, 1024, 4096)

#: prior-art marks the paper cites (Section 1.1)
LIU_2005 = (32, 29.3)
JIANG_2006 = (4, 3.5)


def test_extension_parallel_genomica(benchmark, capsys):
    matrix = make_module_dataset(120, 80, n_modules=8, seed=21).matrix
    config = GenomicaConfig(n_modules=10, max_iterations=5)

    # Consistency of the extension at small p (three real workers).
    sequential = GenomicaLearner(config).learn(matrix, seed=BENCH_SEED)
    pooled = GenomicaLearner(
        GenomicaConfig(n_modules=10, max_iterations=5, parallel=ParallelConfig(n_workers=3))
    ).learn(matrix, seed=BENCH_SEED)
    assert pooled.network == sequential.network
    assert pooled.score_history == sequential.score_history

    # Traced run + projection over the paper-style sweep.
    trace = WorkTrace()
    t0 = time.perf_counter()
    GenomicaLearner(config).learn(matrix, seed=BENCH_SEED, trace=trace)
    t1 = time.perf_counter() - t0

    # Genome-scale projection (the Section 6 context): compute scaled to
    # the yeast shape by the fitted growth laws, as in the other benches.
    scale = (5716 / matrix.n_vars) ** 1.8 * (2577 / matrix.n_obs) ** 2.0
    speedups = {}
    native = {}
    rows = []
    for p in PROCESSOR_COUNTS:
        tp_native = project_time(trace, p).total
        tp = project_time(trace, p, compute_scale=scale).total
        native[p] = t1 / tp_native
        speedups[p] = t1 * scale / tp
        rows.append(
            [p, f"{tp_native:.3f}", f"{native[p]:.1f}",
             f"{tp / 3600:.2f}", f"{speedups[p]:.1f}", f"{speedups[p] / p:.0%}"]
        )
    table = render_table(
        "Extension — parallel GENOMICA strong scaling (native and genome-scale)",
        ["p", "native T_p (s)", "native speedup",
         "genome-scale T_p (h)", "genome speedup", "efficiency"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)
        print(f"prior art the paper cites: Liu et al. {LIU_2005[1]}x on "
              f"{LIU_2005[0]} cores; Jiang et al. {JIANG_2006[1]}x on "
              f"{JIANG_2006[0]} threads")
        print(f"this extension at genome scale: {speedups[4]:.1f}x at p=4, "
              f"{speedups[32]:.1f}x at p=32, {speedups[1024]:.1f}x at p=1024")

    # The Section 6 claim: the paper's components carry GENOMICA past the
    # prior art's scaling at genome scale.
    assert speedups[4] > JIANG_2006[1]
    assert speedups[32] > LIU_2005[1] * 0.8  # in the prior art's ballpark...
    assert speedups[1024] > 2 * LIU_2005[1], (
        "the extension must scale well beyond the 32-core prior art"
    )
    assert speedups[1024] > speedups[64] > speedups[4]

    save_results(
        "extension_genomica",
        {
            "t1": t1,
            # the traced T_1's split-kernel work, the fit input of the
            # extension's compute rate
            "kernel_counters_t1": trace.kernel_counters,
            "speedups_genome_scale": {str(p): s for p, s in speedups.items()},
            "speedups_native": {str(p): s for p, s in native.items()},
            "prior_art": {"liu2005": LIU_2005, "jiang2006": JIANG_2006},
        },
    )
    benchmark.pedantic(
        lambda: [project_time(trace, p) for p in PROCESSOR_COUNTS],
        rounds=3,
        iterations=1,
    )
