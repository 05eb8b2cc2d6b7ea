"""Checks of the benchmark itself, on the smoke size (run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Tier-1 ``testpaths`` stays ``tests``; this file is not collected by it.
"""

from __future__ import annotations

import copy
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import probes  # noqa: E402
import spec  # noqa: E402

#: the names ISSUE 11 lists, kept literally so a rename in spec.py shows
ISSUE_END_TO_END = "wall_s cpu_s peak_rss_mb setup_s".split()
ISSUE_PER_LAYER = """
data.generate_s data.tsv_write_s data.tsv_read_s data.tsv_bytes
native.available native.load_s
core.task1_s core.task2_s core.task3_s core.to_json_s core.output_bytes
core.n_modules core.n_internal_nodes
ganesh.chains_s ganesh.chain_units ganesh.units_per_s ganesh.obs_only_s
ganesh.obs_only_calls ganesh.obs_only_units
consensus.cluster_s
trees.build_s trees.build_calls trees.score_splits_s trees.score_splits_calls
trees.candidate_splits trees.splits_per_s trees.select_splits_s trees.parents_s
scoring.kernel_evaluations scoring.kernel_hits scoring.kernel_hit_ratio
scoring.peak_chunk_elements scoring.kernel_evals_per_s
scoring.suffstats_grouped_s scoring.suffstats_grouped_bytes
executor.construct_s executor.learn_modules_s executor.close_s
executor.worker_busy_s executor.worker_busy_max_s executor.worker_imbalance
executor.task3_overhead_s executor.idle_frac executor.steals
executor.pools_constructed executor.matrix_transfers executor.worker_inits
sharding.start_s sharding.learn_modules_s sharding.close_s
sharding.node_busy_s sharding.node_busy_max_s sharding.transfer_bytes
sharding.channel_s sharding.node_steals sharding.tau_s sharding.mu_s_per_word
sharding.task3_overhead_s
model.projected_wall_s model.error_frac
scaling.speedup_vs_seq scaling.efficiency
service.cold_job_s service.queue_wait_s service.overhead_s
service.warm_resubmit_s service.lease_builds service.lease_reuses
quality.module_ari quality.regulator_precision quality.regulator_recall
trace.overhead_frac trace.replay_unattributed_s
""".split()


def run_bench(out: Path, *extra: str) -> dict:
    """All four workloads on the smoke size; returns (report, last line)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--size", "smoke",
         "--iterations", "2", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), last


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("e2e") / "untraced.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("e2e") / "traced.json", "--trace", "1")


def test_end_to_end_metrics_have_name_unit_and_bound(untraced):
    report, last = untraced
    assert last["correct"] is True and last["failed"] == 0
    assert set(report["workloads"]) == set(spec.WORKLOADS)
    for name, workload in report["workloads"].items():
        assert workload["failed_frac"] == 0 and workload["attempted"] == 2
        for metric in ISSUE_END_TO_END:
            entry = workload["end_to_end"][metric]
            assert entry["value"] > 0 and entry["unit"] and 0 < entry["bound"] <= 0.25
            assert {"median", "min", "max", "iqr", "n"} <= set(entry)
            assert last["metrics"][f"{name}.{metric}"]["value"] == entry["value"]
    block = report["machine"]
    assert {"nproc", "affinity", "numa_domains", "python", "numpy", "scipy",
            "kernel_backend", "native_provider", "loadavg_start", "loadavg_end"} <= set(block)


def test_yeast_workloads_learn_one_network(untraced, traced):
    yeast = ("yeast_seq", "yeast_pool2", "yeast_shard2")
    prints = {
        report["workloads"][name]["fingerprint"]
        for report, _last in (untraced, traced)
        for name in yeast
    }
    prints |= {traced[0]["workloads"][name]["replay_fingerprint"] for name in yeast}
    assert len(prints) == 1 and None not in prints


def test_work_factor_is_one_at_the_reference_seed(untraced):
    # spec.SIZES[...].yeast_ref_splits is the split count at DEFAULT_SEED.
    for name in ("yeast_seq", "yeast_pool2", "yeast_shard2"):
        assert untraced[0]["workloads"][name]["work_factor"] == 1.0


def test_per_layer_metrics_are_all_there(traced):
    report, last = traced
    assert last["correct"] is True
    assert sorted(m.name for m in spec.PER_LAYER) == sorted(ISSUE_PER_LAYER)
    for name, workload in report["workloads"].items():
        assert list(workload["per_layer"]) == [m.name for m in spec.PER_LAYER]
        assert workload["replay_fingerprint"] == workload["fingerprint"]
        assert workload["attributed_frac"] >= 0.95
        for metric in spec.PER_LAYER:
            entry = workload["per_layer"][metric.name]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric.name)
            assert entry["unit"] == metric.unit
            if entry["value"] is None:
                # null is either "this workload does not carry the layer"
                # or a listed gap, never silence
                assert entry["error"]
                if name in metric.on:
                    assert any(metric.name in gap for gap in report["gaps"])
            assert f"{name}.{metric.name}" in last["metrics"]
        assert workload["spans"] and {"name", "start", "end", "parent", "workload"} <= set(
            workload["spans"][0]
        )
    carried = report["workloads"]
    for prefix, name in (("executor.", "yeast_pool2"), ("service.", "yeast_pool2"),
                         ("model.", "yeast_pool2"), ("sharding.", "yeast_shard2"),
                         ("quality.", "yeast_seq"), ("scaling.", "yeast_shard2")):
        for metric, entry in carried[name]["per_layer"].items():
            if metric.startswith(prefix):
                assert entry["value"] is not None, (metric, entry)
    # the shard path ships no kernel counters: a listed gap, not a crash
    assert carried["yeast_shard2"]["per_layer"]["scoring.kernel_evaluations"]["value"] is None


def test_compare_passes_itself_and_fails_a_slower_copy(untraced, tmp_path):
    report = copy.deepcopy(untraced[0])
    # Two iterations on a shared box can spread wider than the bound, which
    # compare rightly calls unresolved; this test is about a steady metric.
    report["workloads"]["yeast_seq"]["end_to_end"]["wall_s"]["iqr"] = 0.0
    assert compare.refusal(report, report) is None
    assert compare.compare(report, report, out=io.StringIO())

    slower = copy.deepcopy(report)
    wall = slower["workloads"]["yeast_seq"]["end_to_end"]["wall_s"]
    bound = wall["bound"]
    for key in ("value", "median", "min", "max"):
        wall[key] *= 1.2 + bound
    text = io.StringIO()
    assert not compare.compare(report, slower, out=text)
    assert "regression wall_s" in text.getvalue()

    drifted = copy.deepcopy(report)
    drifted["workloads"]["yeast_seq"]["fingerprint"] = "0" * 64
    assert not compare.compare(report, drifted, out=io.StringIO())

    other_box = copy.deepcopy(report)
    other_box["machine"]["kernel_backend"] = "numpy"
    assert "kernel_backend" in compare.refusal(report, other_box)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    b.write_text(json.dumps(other_box))
    assert compare.main([str(a), str(b)]) == 2


def test_compare_reports_noisy_metrics_as_unresolved():
    metric = spec.END_TO_END[0]
    steady = {"value": 1.0, "iqr": 0.01, "min": 0.98, "max": 1.02}
    noisy = {"value": 1.0, "iqr": 2 * metric.bound, "min": 0.5, "max": 1.5}
    assert compare.judge(metric, steady, noisy)[0] == "unresolved"
    faster = {"value": 0.4, "iqr": 0.3, "min": 0.2, "max": 0.45}
    assert compare.judge(metric, noisy, faster)[0] == "ok"  # every sample better


def test_compare_demands_exact_counts(traced):
    report, _last = traced
    assert compare.compare(report, report, out=io.StringIO())
    changed = copy.deepcopy(report)
    changed["workloads"]["yeast_seq"]["per_layer"]["trees.candidate_splits"]["value"] += 1
    text = io.StringIO()
    assert not compare.compare(report, changed, out=text)
    assert "trees.candidate_splits" in text.getvalue()


def test_a_probe_that_raises_yields_null_and_an_error():
    values, errors = {}, {}

    def moved_api():
        raise ImportError("cannot import name 'TaskPoolExecutor'")

    probes.run_probe(values, errors, ("executor.",), moved_api)
    carried = [m.name for m in spec.PER_LAYER if m.name.startswith("executor.")]
    assert carried and all(values[name] is None for name in carried)
    assert all("ImportError" in errors[name] for name in carried)


def test_benchmark_json_matches_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/bench_e2e.py"]
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert contract["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS.values()
    ]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
