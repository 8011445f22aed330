"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("bbara", "tbk", "shiftreg"):
            assert name in out


class TestInfo:
    def test_suite_name(self, capsys):
        code, out, _ = run_cli(capsys, "info", "shiftreg")
        assert code == 0
        assert "states:      8" in out
        assert "reduced:     True" in out

    def test_paper_example_with_table(self, capsys):
        code, out, _ = run_cli(capsys, "info", "paper_example", "--table")
        assert code == 0
        assert "3/1" in out

    def test_kiss_file(self, capsys, tmp_path):
        from repro.fsm import kiss
        from repro.suite import shift_register

        path = tmp_path / "sr.kiss"
        kiss.dump(shift_register(3), path)
        code, out, _ = run_cli(capsys, "info", str(path))
        assert code == 0
        assert "states:      8" in out

    def test_missing_file_errors(self, capsys):
        with pytest.raises(OSError):
            run_cli(capsys, "info", "/nonexistent/machine.kiss")


class TestSynth:
    def test_paper_example(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "paper_example")
        assert code == 0
        assert "|S1|=2, |S2|=2" in out
        assert "delta1" in out

    def test_write_kiss(self, capsys, tmp_path):
        target = tmp_path / "out.kiss"
        code, out, _ = run_cli(capsys, "synth", "tav", "-o", str(target))
        assert code == 0
        assert target.exists()
        from repro.fsm import kiss

        realized = kiss.load(target)
        assert realized.n_states == 4  # 2 x 2

    def test_policy_and_limits(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth", "shiftreg", "--policy", "extended",
            "--node-limit", "50",
        )
        assert code == 0


class TestTables:
    def test_table1_subset(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "tav", "shiftreg")
        assert code == 0
        assert "Table 1" in out
        assert "shiftreg" in out and "tav" in out
        assert "bbara" not in out

    def test_table2_subset(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "tav")
        assert code == 0
        assert "2^" in out


class TestArchAndCoverage:
    def test_arch(self, capsys):
        code, out, _ = run_cli(capsys, "arch", "paper_example")
        assert code == 0
        assert "Fig.4" in out

    def test_coverage(self, capsys):
        code, out, _ = run_cli(capsys, "coverage", "paper_example")
        assert code == 0
        assert "coverage" in out


class TestExample:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "example")
        assert code == 0
        assert "Figure 6" in out
        assert "True" in out  # found the published pair


class TestExport:
    def test_verilog_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "export", "shiftreg")
        assert code == 0
        assert "module" in out and "endmodule" in out
        assert "posedge clk" in out

    def test_blif_to_file(self, capsys, tmp_path):
        target = tmp_path / "tav.blif"
        code, out, _ = run_cli(
            capsys, "export", "tav", "--format", "blif", "-o", str(target)
        )
        assert code == 0
        content = target.read_text()
        assert content.count(".model") == 3  # c1, c2, lambda
        assert "written to" in out


class TestSplit:
    def test_no_improvement_case(self, capsys):
        code, out, _ = run_cli(capsys, "split", "paper_example")
        assert code == 0
        assert "no helpful split" in out

    def test_improvement_case(self, capsys, tmp_path):
        from repro.fsm import kiss
        from repro.suite.generators import merged_roles_machine

        path = tmp_path / "merged.kiss"
        kiss.dump(merged_roles_machine(seed=0), path)
        code, out, _ = run_cli(capsys, "split", str(path))
        assert code == 0
        assert "after splitting" in out
        assert "-> 3 flip-flops" in out


class TestScoap:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "scoap", "tav", "--top", "2")
        assert code == 0
        assert "SCOAP score" in out
        assert "C1" in out and "lambda" in out


class TestSweepShardParsing:
    """Regression: bad --shard values must die at parse time with the
    user's 1-based numbers, not deep in the corpus with 0-based ones."""

    def test_shard_zero_rejected_at_parse_time(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--shard", "0/4", "-o", str(tmp_path / "out")
        )
        assert code == 2
        assert "1 <= I <= N" in err
        assert "shards are numbered 1..N" in err
        # the old failure leaked the 0-based internal convention
        assert "-1/4" not in err
        assert not (tmp_path / "out").exists()

    def test_shard_past_count_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--shard", "5/4", "-o", str(tmp_path / "out")
        )
        assert code == 2
        assert "out of range" in err

    def test_shard_zero_count_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--shard", "1/0", "-o", str(tmp_path / "out")
        )
        assert code == 2
        assert "out of range" in err

    def test_shard_malformed_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--shard", "first/four", "-o", str(tmp_path / "out")
        )
        assert code == 2
        assert "wants I/N" in err

    def test_full_range_shard_accepted(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--shard", "1/1",
            "--families", "sequential",
            "--limit", "1",
            "--no-timings",
            "--quiet",
            "-o", str(tmp_path / "out"),
        )
        assert code == 0
        assert "machines: 1" in out
        assert (tmp_path / "out" / "manifest.json").exists()


class TestLint:
    def test_json_shape_and_clean_exit(self, capsys):
        import json

        code, out, _ = run_cli(capsys, "lint", "shiftreg")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"targets", "summary"}
        summary = payload["summary"]
        assert set(summary) == {
            "targets", "counts", "proved_untestable", "strict", "status"
        }
        assert summary["status"] == "ok"
        assert summary["targets"] == 1
        assert set(summary["counts"]) == {"error", "warning", "info"}
        target = payload["targets"][0]
        assert target["name"] == "shiftreg"
        assert target["architecture"] == "pipeline"
        assert target["blocks"]  # per-block structure reports
        untestable = target["untestable"]
        assert untestable["proved"] >= 1  # shiftreg's C2 has unused inputs
        for fault in untestable["faults"]:
            assert set(fault) == {"fault", "verdict", "reason"}

    def test_strict_escalates_warnings_to_failure(self, capsys):
        import json

        code, out, _ = run_cli(capsys, "lint", "shiftreg", "--strict")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["status"] == "fail"
        assert payload["summary"]["counts"]["warning"] >= 1
        assert payload["summary"]["counts"]["error"] == 0

    def test_unknown_observed_net_is_an_error_exit(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "lint", "shiftreg", "--observe", "bogus_net"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["counts"]["error"] >= 1
        codes = {
            entry["code"]
            for target in payload["targets"]
            for report in target["blocks"].values()
            for entry in report["diagnostics"]
        }
        assert "SV003" in codes

    def test_corpus_slice_is_clean(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "lint", "--corpus", "--families", "mcnc", "--limit", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["targets"] >= 1
        assert payload["summary"]["status"] == "ok"

    def test_conventional_architecture(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "lint", "paper_example", "--architecture", "conventional"
        )
        assert code == 0
        payload = json.loads(out)
        target = payload["targets"][0]
        assert target["architecture"] == "conventional"

    def test_machine_or_corpus_required(self, capsys):
        code, _, err = run_cli(capsys, "lint")
        assert code == 2
        assert "needs a machine" in err


class TestCoveragePrescreen:
    def test_static_prescreen_prints_proof_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "coverage", "shiftreg", "--prescreen", "static"
        )
        assert code == 0
        assert "prescreen" in out
        assert "proved untestable" in out
        assert "skipped before simulation" in out

    def test_validate_prescreen_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "coverage", "paper_example", "--prescreen", "validate"
        )
        assert code == 0
        assert "coverage" in out

    def test_sweep_accepts_prescreen(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--families", "sequential",
            "--limit", "1",
            "--prescreen", "validate",
            "--no-timings",
            "--quiet",
            "-o", str(tmp_path / "out"),
        )
        assert code == 0
        assert (tmp_path / "out" / "metrics.jsonl").exists()


class TestCheckpointGc:
    def test_sweeps_stale_and_orphaned_snapshots(self, capsys, tmp_path):
        import os
        import time

        from repro.faults.checkpoint import CampaignCheckpoint

        directory = tmp_path / "checkpoints"
        directory.mkdir()
        key = "ab" * 32
        keep = directory / f"{key}.ckpt"
        CampaignCheckpoint(str(keep), key, total=2).save([1, -1])
        stale = directory / ("cd" * 32 + ".ckpt")
        stale.write_text(keep.read_text())
        old = time.time() - 10 * 86400
        os.utime(stale, (old, old))
        orphan = directory / "dead.ckpt.tmp.999"
        orphan.write_text("half")
        code, out, _ = run_cli(
            capsys, "checkpoint-gc", str(directory), "--verbose"
        )
        assert code == 0
        assert "2 removed, 1 kept" in out
        assert orphan.name in out and stale.name in out
        assert keep.exists()
        assert not stale.exists() and not orphan.exists()

    def test_missing_directory_reports_nothing_swept(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "checkpoint-gc", str(tmp_path / "nope")
        )
        assert code == 0
        assert "0 removed, 0 kept" in out
