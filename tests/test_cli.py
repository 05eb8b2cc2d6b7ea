"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.output import network_from_json
from repro.data.io import read_expression_tsv


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "expr.tsv"
    code = main(["generate", "--n", "24", "--m", "14", "--seed", "3",
                 "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_learn_requires_data_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["learn"])

    def test_input_and_preset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["learn", "--input", "x.tsv", "--preset", "yeast"]
            )

    @pytest.mark.parametrize(
        "command", ["learn", "modules", "submit", "validate", "serve"]
    )
    def test_parallel_mode_flag_is_gone(self, command):
        """The module/split decomposition is chosen from the input, every
        worker pulls from one shared queue on one probed machine, each
        kernel keeps its own memo and every shard node is a process; the
        flags that selected otherwise are rejected, the remaining knobs
        still parse."""
        if command == "serve":
            args = [command, "--dir", "run", "--max-inflight", "2"]
        elif command == "validate":
            args = [command, "--smoke", "--workers", "1", "2", "--nodes", "1", "2"]
        else:
            args = [command, "--input", "x.tsv", "--workers", "2",
                    "--schedule", "static", "--nodes", "2"]
        if command == "modules":
            args += ["--modules-file", "m.json"]
        if command == "submit":
            args += ["--service", "run"]
        build_parser().parse_args(args)
        for gone in (
            ["--parallel-mode", "split"], ["--no-steal"], ["--topology", "flat"],
            ["--score-cache-mb", "8"], ["--node-backend", "thread"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(args + gone)


class TestGenerate:
    def test_writes_readable_matrix(self, matrix_file):
        matrix = read_expression_tsv(matrix_file)
        assert matrix.shape == (24, 14)


class TestLearn:
    def test_learn_from_file(self, matrix_file, tmp_path, capsys):
        out_json = tmp_path / "net.json"
        out_xml = tmp_path / "net.xml"
        code = main([
            "learn", "--input", str(matrix_file), "--seed", "1",
            "--sampling-steps", "4",
            "--out-json", str(out_json), "--out-xml", str(out_xml),
        ])
        assert code == 0
        network = network_from_json(out_json.read_text())
        assert network.n_vars == 24
        assert out_xml.read_text().startswith("<ModuleNetwork")
        assert "learned" in capsys.readouterr().out

    def test_learn_from_preset(self, capsys):
        code = main([
            "learn", "--preset", "yeast", "--scale", "0.004",
            "--sampling-steps", "3", "--seed", "2",
        ])
        assert code == 0
        assert "modules" in capsys.readouterr().out

    def test_learn_parallel_matches_sequential(self, matrix_file, tmp_path):
        seq_path = tmp_path / "seq.json"
        par_path = tmp_path / "par.json"
        common = ["--input", str(matrix_file), "--seed", "5",
                  "--sampling-steps", "4"]
        main(["learn", *common, "--out-json", str(seq_path)])
        main(["learn", *common, "--workers", "3", "--out-json", str(par_path)])
        assert network_from_json(seq_path.read_text()) == network_from_json(
            par_path.read_text()
        )

    def test_learn_acyclic(self, matrix_file, tmp_path):
        out_json = tmp_path / "dag.json"
        code = main([
            "learn", "--input", str(matrix_file), "--seed", "1",
            "--sampling-steps", "4", "--acyclic", "--out-json", str(out_json),
        ])
        assert code == 0
        network = network_from_json(out_json.read_text())
        assert network.feedback_edges() == []

    def test_init_clusters_fraction(self, matrix_file, capsys):
        code = main([
            "learn", "--input", str(matrix_file), "--seed", "1",
            "--sampling-steps", "3", "--init-clusters", "0.25",
        ])
        assert code == 0


class TestScale:
    def test_scale_table(self, matrix_file, capsys):
        code = main([
            "scale", "--input", str(matrix_file), "--seed", "1",
            "--sampling-steps", "3", "--procs", "1", "8", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_1" in out and "speedup" in out

    def test_scale_custom_machine(self, matrix_file, capsys):
        code = main([
            "scale", "--input", str(matrix_file), "--seed", "1",
            "--sampling-steps", "3", "--procs", "4",
            "--tau", "1e-4", "--mu", "1e-8",
        ])
        assert code == 0


class TestCompare:
    def test_compare_runs(self, matrix_file, capsys):
        code = main([
            "compare", "--input", str(matrix_file), "--seed", "1",
            "--modules", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GENOMICA" in out and "agreement" in out


class TestTaskWorkflow:
    """The Lemon-Tree multi-invocation workflow: ganesh -> consensus ->
    modules with intermediate files, equivalent to one-shot learn."""

    def test_task_pipeline_matches_learn(self, matrix_file, tmp_path):
        clusters = tmp_path / "clusters.json"
        modules = tmp_path / "modules.json"
        net_tasks = tmp_path / "net_tasks.json"
        net_learn = tmp_path / "net_learn.json"

        assert main(["ganesh", "--input", str(matrix_file), "--seed", "4",
                     "--out", str(clusters)]) == 0
        assert main(["consensus", "--inputs", str(clusters),
                     "--out", str(modules)]) == 0
        assert main(["modules", "--input", str(matrix_file), "--seed", "4",
                     "--modules-file", str(modules), "--sampling-steps", "4",
                     "--out-json", str(net_tasks)]) == 0
        assert main(["learn", "--input", str(matrix_file), "--seed", "4",
                     "--sampling-steps", "4", "--out-json", str(net_learn)]) == 0

        assert network_from_json(net_tasks.read_text()) == network_from_json(
            net_learn.read_text()
        )

    def test_ganesh_multiple_runs(self, matrix_file, tmp_path):
        out = tmp_path / "c.json"
        assert main(["ganesh", "--input", str(matrix_file), "--seed", "1",
                     "--runs", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["samples"]) == 3
        assert all(len(s) == 24 for s in payload["samples"])

    def test_consensus_combines_files(self, matrix_file, tmp_path):
        """G runs as separate invocations (separate cluster jobs) combine."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["ganesh", "--input", str(matrix_file), "--seed", "1", "--out", str(a)])
        main(["ganesh", "--input", str(matrix_file), "--seed", "2", "--out", str(b)])
        out = tmp_path / "mods.json"
        assert main(["consensus", "--inputs", str(a), str(b),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        flat = sorted(v for mod in payload["modules"] for v in mod)
        assert flat == list(range(24))

    def test_modules_rejects_mismatched_matrix(self, matrix_file, tmp_path):
        other = tmp_path / "other.tsv"
        main(["generate", "--n", "10", "--m", "8", "--out", str(other)])
        clusters = tmp_path / "c.json"
        modules = tmp_path / "m.json"
        main(["ganesh", "--input", str(matrix_file), "--seed", "1",
              "--out", str(clusters)])
        main(["consensus", "--inputs", str(clusters), "--out", str(modules)])
        with pytest.raises(SystemExit):
            main(["modules", "--input", str(other), "--seed", "1",
                  "--modules-file", str(modules)])


class TestReport:
    def test_report_from_network_json(self, matrix_file, tmp_path, capsys):
        net = tmp_path / "net.json"
        main(["learn", "--input", str(matrix_file), "--seed", "1",
              "--sampling-steps", "4", "--out-json", str(net)])
        capsys.readouterr()
        assert main(["report", "--network", str(net)]) == 0
        out = capsys.readouterr().out
        assert "module network:" in out
        assert "module graph:" in out
        assert "tree:" in out


class TestModulesCheckpoint:
    def test_checkpoint_dir_flag(self, matrix_file, tmp_path):
        clusters = tmp_path / "c.json"
        modules = tmp_path / "m.json"
        ckpt = tmp_path / "ckpt"
        main(["ganesh", "--input", str(matrix_file), "--seed", "1",
              "--out", str(clusters)])
        main(["consensus", "--inputs", str(clusters), "--out", str(modules)])
        assert main(["modules", "--input", str(matrix_file), "--seed", "1",
                     "--modules-file", str(modules), "--sampling-steps", "4",
                     "--checkpoint-dir", str(ckpt)]) == 0
        assert list(ckpt.glob("module_*.json"))


class TestValidate:
    def test_list_scenarios(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "clean-baseline" in out and "tie-grid" in out

    def test_unknown_scenario_fails_loudly(self):
        with pytest.raises(KeyError, match="no-such"):
            main(["validate", "--scenarios", "no-such"])

    def test_single_scenario_smoke_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["validate", "--smoke", "--scenarios", "tie-grid",
                     "--workers", "1", "--out", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "tie-grid" in out and "ok" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["scenarios"][0]["name"] == "tie-grid"
        assert all(
            combo["identical"]
            for combo in payload["scenarios"][0]["combos"]
        )

    @pytest.mark.slow
    def test_smoke_matrix_via_cli(self, tmp_path):
        """The exact invocation CI's scenario-smoke job runs."""
        report_path = tmp_path / "report.json"
        assert main(["validate", "--smoke", "--out", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["n_scenarios"] >= 5
