"""Unit tests for the command-line interface."""

import json

import pytest

from repro import observe
from repro.cli import main
from repro.core.project import save_project
from repro.observe import TRACE_SCHEMA
from repro.sarb import build_sarb_program


@pytest.fixture(scope="module")
def project_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sarb.json"
    save_project(build_sarb_program(), path)
    return str(path)


class TestCli:
    def test_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "GLAF-parallel v3" in out
        assert "simple double loops" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "T2"]) == 0
        out = capsys.readouterr().out
        assert "Synoptic SARB implementations" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "ZZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiments_sentinels_flag(self, capsys):
        from repro.numeric import sentinel_config

        assert main(["experiments", "T2", "--sentinels"]) == 0
        assert sentinel_config() is None     # restored after the run
        capsys.readouterr()

    def test_experiments_resume_from_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        # Seed the store as a crashed sweep would have left it.
        from repro.bench import EXPERIMENTS, run_and_format
        from repro.numeric import CheckpointStore

        result, _ = run_and_format(EXPERIMENTS["T2"])
        CheckpointStore(ck).save("exp-T2", {"result": result.to_json()})
        assert main(["experiments", "T2", "--resume",
                     "--checkpoint", str(ck)]) == 0
        captured = capsys.readouterr()
        assert "resumed 1 experiment(s) from checkpoint" in captured.err
        assert "Synoptic SARB implementations" in captured.out
        assert not ck.exists()               # spent checkpoints cleared

    def test_experiments_fresh_run_clears_stale_checkpoints(self, tmp_path,
                                                            capsys):
        ck = tmp_path / "ck"
        from repro.numeric import CheckpointStore

        CheckpointStore(ck).save("exp-T2", {"result": {
            "experiment_id": "T2", "title": "stale", "headers": [],
            "rows": [], "notes": ""}})
        assert main(["experiments", "T2", "--checkpoint", str(ck)]) == 0
        captured = capsys.readouterr()
        assert "resumed" not in captured.err
        assert "stale" not in captured.out

    def test_generate_fortran(self, project_file, capsys):
        assert main(["generate", project_file]) == 0
        out = capsys.readouterr().out
        assert "MODULE glaf_sarb_mod" in out
        assert "!$OMP PARALLEL DO" in out

    def test_generate_variant_flag(self, project_file, capsys):
        assert main(["generate", project_file, "--variant", "GLAF serial"]) == 0
        assert "!$OMP" not in capsys.readouterr().out

    def test_generate_c(self, project_file, capsys):
        assert main(["generate", project_file, "--target", "c"]) == 0
        assert "#pragma omp" in capsys.readouterr().out

    def test_generate_python(self, project_file, capsys):
        assert main(["generate", project_file, "--target", "python"]) == 0
        assert "def entropy_interface(" in capsys.readouterr().out

    def test_generate_opencl(self, project_file, capsys):
        assert main(["generate", project_file, "--target", "opencl"]) == 0
        out = capsys.readouterr().out
        assert "__kernel" in out and "launch plan" in out

    def test_analyze(self, project_file, capsys):
        assert main(["analyze", project_file]) == 0
        out = capsys.readouterr().out
        assert "class=zero-init" in out
        assert "parallel=yes" in out
        assert "reason:" in out          # adjust2's carried loop

    def test_analyze_liftability(self, project_file, capsys):
        assert main(["analyze", project_file, "--liftability"]) == 0
        out = capsys.readouterr().out
        # SARB has both lifted steps and the loop-carried smooth step
        assert "lift: vectorized" in out
        assert "lift: interpreter fallback" in out

    def test_analyze_ranges(self, project_file, capsys):
        assert main(["analyze", project_file, "--ranges"]) == 0
        out = capsys.readouterr().out
        assert "ranges (generated FORTRAN, interval analysis):" in out
        assert "possible-oob=0" in out
        assert "proven=" in out

    def test_fuzz_clean_campaign_human_summary(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seed", "7", "--count", "3",
                     "--profile", "small"]) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: seed 7, 3 codebase(s), profile small" in out
        assert "clean 3  failed 0" in out

    def test_sloc(self, project_file, capsys):
        assert main(["sloc", project_file]) == 0
        out = capsys.readouterr().out
        assert "longwave_entropy_model" in out


class TestProfileCommand:
    def test_profile_prints_tree_and_decisions(self, project_file, capsys):
        assert main(["profile", project_file]) == 0
        out = capsys.readouterr().out
        assert "-- span tree --" in out
        assert "optimize.plan" in out
        assert "analysis.parallelize" in out
        assert "codegen.fortran" in out
        # Generated FORTRAN is round-tripped through the front end, so the
        # lexer/parser stages appear in the same tree.
        assert "fortran.parse" in out
        assert "-- per-stage summary --" in out
        assert "-- parallelization decisions --" in out
        assert "[parallelize:parallel]" in out
        assert "[pruning:" in out

    def test_profile_variant_shows_pruning_reasons(self, project_file, capsys):
        assert main(["profile", project_file,
                     "--variant", "GLAF-parallel v2"]) == 0
        out = capsys.readouterr().out
        assert "prunes class simple-single" in out

    def test_profile_all_targets(self, project_file, capsys):
        assert main(["profile", project_file, "--target", "all"]) == 0
        out = capsys.readouterr().out
        for span in ("codegen.fortran", "codegen.c", "codegen.opencl",
                     "codegen.python"):
            assert span in out

    def test_profile_json_export(self, project_file, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["profile", project_file, "--json", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["meta"]["project"] == project_file
        assert doc["spans"][0]["name"] == "pipeline"
        assert doc["metrics"]["counters"]["analysis.steps"] == 26
        assert any(d["stage"] == "parallelize" for d in doc["decisions"])

    def test_profile_leaves_noop_installed(self, project_file, capsys):
        assert main(["profile", project_file]) == 0
        assert not observe.is_observing()
        capsys.readouterr()

    def test_missing_project_is_a_friendly_error(self, capsys):
        assert main(["profile", "/nonexistent/project.json"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_variant_is_a_friendly_error(self, project_file, capsys):
        assert main(["profile", project_file, "--variant", "bogus"]) == 2
        assert "unknown variant" in capsys.readouterr().err


class TestRobustnessCli:
    def test_faultcheck_sweeps_all_sites_and_exits_zero(self, capsys):
        from repro.robust import SITES

        assert main(["faultcheck"]) == 0
        out = capsys.readouterr().out
        for site in SITES:
            assert site in out
        assert "result: OK" in out

    def test_faultcheck_json_export(self, capsys, tmp_path):
        report = tmp_path / "faults.json"
        assert main(["faultcheck", "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.robust.faultcheck/v1"
        assert doc["ok"] is True
        capsys.readouterr()

    def test_profile_guarded_fault_shows_injection_and_fallback(
            self, project_file, capsys):
        assert main([
            "profile", project_file, "--executor", "guarded",
            "--fault", "analysis.parallelize.verdict:misparallelize:adjust2",
        ]) == 0
        out = capsys.readouterr().out
        assert "[fault:injected]" in out
        assert "[guard:serial-fallback]" in out
        assert "guard.serial_fallbacks" in out

    def test_bad_fault_spec_is_a_friendly_error(self, project_file, capsys):
        assert main(["profile", project_file, "--fault", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad fault spec" in err

    def test_unknown_fault_site_is_a_friendly_error(self, project_file, capsys):
        assert main(["profile", project_file,
                     "--fault", "no.such.site:raise"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown injection site" in err

    def test_glaf_error_exits_2_without_traceback(self, tmp_path, capsys):
        # A structurally invalid project surfaces as a one-line error.
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_guard_mode_resets_after_experiments(self, capsys):
        from repro.glafexec import executor_mode

        before = executor_mode()
        assert main(["experiments", "C1", "--executor", "guarded"]) == 0
        assert executor_mode() == before
        capsys.readouterr()


class TestProfileFlag:
    def test_generate_profile_reports_to_stderr(self, project_file, capsys):
        assert main(["generate", project_file, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "MODULE glaf_sarb_mod" in captured.out       # normal output intact
        assert "-- span tree --" in captured.err
        assert "codegen.fortran" in captured.err

    def test_generate_profile_json(self, project_file, capsys, tmp_path):
        trace = tmp_path / "gen.json"
        assert main(["generate", project_file, "--profile", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["meta"] == {"command": "generate"}
        names = {s["name"] for s in doc["spans"]}
        assert "codegen.fortran" in names and "optimize.plan" in names

    def test_experiments_profile_json(self, capsys, tmp_path):
        trace = tmp_path / "exp.json"
        assert main(["experiments", "T2", "--profile", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["schema"] == TRACE_SCHEMA
        names = {s["name"] for s in doc["spans"]}
        assert "bench.experiment" in names

    def test_no_profile_records_nothing(self, project_file, capsys):
        assert main(["generate", project_file]) == 0
        assert not observe.is_observing()
        assert observe.get_metrics().snapshot()["counters"] == {}
        capsys.readouterr()


class TestBenchCli:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_1.json"
        assert main(["bench", "record", "T2", "--repeats", "2",
                     "--out", str(path)]) == 0
        return path

    def test_record_writes_schema_versioned_artifact(self, artifact, capsys):
        doc = json.loads(artifact.read_text())
        assert doc["schema"] == "repro.bench/v1"
        assert doc["meta"]["repeats"] == 2
        assert "T2" in doc["experiments"]
        assert doc["experiments"]["T2"]["wall_s"]["n"] == 2
        assert "python" in doc["environment"]
        capsys.readouterr()

    def test_record_defaults_to_next_bench_path(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "record", "T2", "--repeats", "1"]) == 0
        assert (tmp_path / "BENCH_1.json").exists()
        assert main(["bench", "record", "T2", "--repeats", "1"]) == 0
        assert (tmp_path / "BENCH_2.json").exists()
        capsys.readouterr()

    def test_record_unknown_id_is_a_friendly_error(self, capsys):
        assert main(["bench", "record", "ZZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_record_with_retries_and_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "BENCH_r.json"
        ck = tmp_path / "ck"
        assert main(["bench", "record", "T2", "--repeats", "2",
                     "--out", str(out), "--checkpoint", str(ck),
                     "--retries", "1"]) == 0
        assert out.exists()
        assert not ck.exists()               # spent checkpoints cleared
        doc = json.loads(out.read_text())
        assert doc["meta"]["resumed"] == 0
        capsys.readouterr()

    def test_compare_identical_exits_zero(self, artifact, capsys):
        assert main(["bench", "compare", str(artifact), str(artifact),
                     "--fail-on-regress", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "bench compare" in out
        assert "gate: fail-on-regress 0.5% -> OK" in out

    def test_compare_regression_exits_nonzero(self, artifact, tmp_path,
                                              capsys):
        from repro.bench import stamp_digest

        doc = json.loads(artifact.read_text())
        doc["experiments"]["T2"]["wall_s"]["median"] *= 10.0
        slower = tmp_path / "BENCH_2.json"
        slower.write_text(json.dumps(stamp_digest(doc)))
        assert main(["bench", "compare", str(artifact), str(slower),
                     "--fail-on-regress", "50"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_without_threshold_reports_only(self, artifact, tmp_path,
                                                    capsys):
        from repro.bench import stamp_digest

        doc = json.loads(artifact.read_text())
        doc["experiments"]["T2"]["wall_s"]["median"] *= 10.0
        slower = tmp_path / "BENCH_3.json"
        slower.write_text(json.dumps(stamp_digest(doc)))
        assert main(["bench", "compare", str(artifact), str(slower)]) == 0
        capsys.readouterr()

    def test_compare_tampered_artifact_is_rejected(self, artifact, tmp_path,
                                                   capsys):
        # Edit a stat WITHOUT re-stamping: the digest check must catch it.
        doc = json.loads(artifact.read_text())
        doc["experiments"]["T2"]["wall_s"]["median"] *= 10.0
        tampered = tmp_path / "BENCH_9.json"
        tampered.write_text(json.dumps(doc))
        assert main(["bench", "compare", str(artifact), str(tampered)]) == 2
        err = capsys.readouterr().err
        assert "digest mismatch" in err

    def test_compare_bad_artifact_is_a_friendly_error(self, artifact,
                                                      tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong/v9"}')
        assert main(["bench", "compare", str(artifact), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "wrong/v9" in err

    def test_trend_renders_trajectory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "record", "T2", "--repeats", "1"]) == 0
        assert main(["bench", "record", "T2", "--repeats", "1"]) == 0
        capsys.readouterr()
        assert main(["bench", "trend", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bench trend" in out
        assert "BENCH_1.json" in out and "BENCH_2.json" in out

    def test_trend_empty_dir(self, tmp_path, capsys):
        assert main(["bench", "trend", "--dir", str(tmp_path)]) == 0
        assert "no BENCH_" in capsys.readouterr().out

    def test_experiments_json_export(self, capsys, tmp_path):
        out_file = tmp_path / "tables.json"
        assert main(["experiments", "T1", "T2", "--json", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro.bench.experiments/v1"
        assert [e["experiment_id"] for e in doc["experiments"]] == ["T1", "T2"]
        assert doc["experiments"][0]["headers"][0] == "subroutine"
        capsys.readouterr()

    def test_profile_chrome_export(self, project_file, capsys, tmp_path):
        chrome = tmp_path / "chrome.json"
        assert main(["profile", project_file, "--chrome", str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "pipeline" in names and "codegen.fortran" in names
        assert doc["otherData"]["project"] == project_file
        capsys.readouterr()


class TestLintCommand:
    def test_lint_single_level_clean(self, capsys):
        assert main(["lint", "--level", "v3", "--case", "sarb"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "sarb @ v3" in out

    def test_lint_json_stdout(self, capsys):
        assert main(["lint", "--level", "v3", "--case", "fun3d", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint/v1"
        assert doc["ok"] and doc["findings"] == []

    def test_lint_json_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint.json"
        assert main(["lint", "--level", "v3", "--case", "sarb",
                     "--json", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["ok"]
        assert "report written to" in capsys.readouterr().err

    def test_lint_selftest(self, capsys):
        assert main(["lint", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "mutant(s) caught" in out
        assert "MISSED" not in out

    def test_lint_dataflow_clean(self, capsys):
        assert main(["lint", "--level", "v0", "--case", "sarb",
                     "--dataflow"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_fuzz_crosscheck_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seed", "7", "--count", "2",
                     "--profile", "small", "--crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "crosscheck:" in out
        assert "refuted by the runtime" in out


class TestBatchCli:
    def _run(self, tmp_path, monkeypatch, *extra):
        monkeypatch.chdir(tmp_path)
        return main(["batch", *extra, "--retries", "0", "--no-ledger"])

    def test_healthy_corpus_exits_zero(self, tmp_path, monkeypatch, capsys):
        rc = self._run(tmp_path, monkeypatch, "fuzz:3:2",
                       "--manifest", "m.json")
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok 2  failed 0  quarantined 0" in out
        assert "manifest sha256" in out
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["schema"] == "repro.batch.manifest/v1"
        assert len(doc["items"]) == 2

    def test_poison_quarantine_exits_one(self, tmp_path, monkeypatch,
                                         capsys):
        rc = self._run(tmp_path, monkeypatch, "fuzz:3:1", "poison:crash")
        assert rc == 1
        out = capsys.readouterr().out
        assert "quarantined 1" in out
        assert "batch_quarantine/batch-" in out
        assert list((tmp_path / "batch_quarantine").glob("batch-*.json"))

    def test_json_summary(self, tmp_path, monkeypatch, capsys):
        rc = self._run(tmp_path, monkeypatch, "fuzz:3:1", "--json")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["ok"] == 1
        assert doc["items"][0]["status"] == "ok"
        assert doc["manifest_sha256"]

    def test_warm_cache_via_cli(self, tmp_path, monkeypatch, capsys):
        assert self._run(tmp_path, monkeypatch, "fuzz:3:2") == 0
        assert self._run(tmp_path, monkeypatch, "fuzz:3:2") == 0
        out = capsys.readouterr().out
        assert "cache: 2 hit(s), 0 miss(es)" in out

    def test_bad_input_is_usage_error(self, tmp_path, monkeypatch, capsys):
        rc = self._run(tmp_path, monkeypatch, "fuzz:banana")
        assert rc == 2
        assert "bad fuzz corpus spec" in capsys.readouterr().err

    def test_ledgered_by_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["batch", "fuzz:3:1", "--retries", "0",
                     "--ledger", str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        record = observe.RunLedger(tmp_path / "runs").resolve("latest")
        assert record["command"] == "batch"
        assert record["checkpoint"] == {"dir": None, "resume": False}


class TestRunLedgerCli:
    """Every pipeline entry point appends a repro.run/v1 record, and the
    `repro runs` family reads it back (docs/RUN_LEDGER.md)."""

    def _entries(self, ledger_dir):
        return observe.RunLedger(ledger_dir).entries()

    @pytest.mark.parametrize("argv, command", [
        (["experiments", "T2"], "experiments"),
        (["faultcheck"], "faultcheck"),
        (["lint", "--level", "v3", "--case", "sarb"], "lint"),
    ])
    def test_entry_points_append_a_record(self, tmp_path, capsys,
                                          argv, command):
        ledger = tmp_path / "runs"
        assert main(argv + ["--ledger", str(ledger)]) == 0
        err = capsys.readouterr().err
        assert "run ledger: appended run-000001" in err
        entries = self._entries(ledger)
        assert [e["command"] for e in entries] == [command]
        record = observe.RunLedger(ledger).load("run-000001")
        assert record["schema"] == "repro.run/v1"
        assert record["outcome"] == {"status": "ok", "exit_code": 0}
        assert record["wall_s"] > 0
        assert record["stages"], "entry point recorded no stage timings"
        assert "python" in record["environment"]

    def test_generate_and_profile_append_records(self, project_file,
                                                 tmp_path, capsys):
        ledger = tmp_path / "runs"
        assert main(["generate", project_file,
                     "--ledger", str(ledger)]) == 0
        assert main(["profile", project_file,
                     "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert [e["command"] for e in self._entries(ledger)] == [
            "generate", "profile"]
        # profile joins the ledger's observation instead of nesting its
        # own, so its pipeline spans land in the persisted record.
        record = observe.RunLedger(ledger).load("run-000002")
        assert any(s["stage"] == "pipeline" for s in record["stages"])

    def test_fuzz_and_bench_record_append_records(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger = tmp_path / "runs"
        assert main(["fuzz", "--count", "2",
                     "--ledger", str(ledger)]) == 0
        assert main(["bench", "record", "X1", "--repeats", "1",
                     "--out", str(tmp_path / "BENCH_1.json"),
                     "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        entries = self._entries(ledger)
        assert [e["command"] for e in entries] == ["fuzz", "bench record"]
        fuzz_rec = observe.RunLedger(ledger).load("run-000001")
        assert any(s["stage"] == "fuzz" for s in fuzz_rec["stages"])
        assert fuzz_rec["checkpoint"] == {"dir": None, "resume": False}

    def test_failed_run_is_recorded_as_failed(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        assert main(["generate", str(tmp_path / "missing.json"),
                     "--ledger", str(ledger)]) == 2
        capsys.readouterr()
        record = observe.RunLedger(ledger).resolve("latest")
        assert record["outcome"] == {"status": "failed", "exit_code": 2}

    def test_no_ledger_flag_and_env_kill_switch(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["experiments", "T2", "--no-ledger"]) == 0
        monkeypatch.setenv(observe.LEDGER_ENV, "0")
        assert main(["experiments", "T2"]) == 0
        capsys.readouterr()
        assert not (tmp_path / ".repro").exists()

    def test_env_var_redirects_the_ledger(self, tmp_path, capsys,
                                          monkeypatch):
        target = tmp_path / "envledger"
        monkeypatch.setenv(observe.LEDGER_ENV, str(target))
        assert main(["experiments", "T2"]) == 0
        capsys.readouterr()
        assert len(self._entries(target)) == 1

    def test_sample_flag_records_a_resource_series(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        assert main(["experiments", "T2", "--ledger", str(ledger),
                     "--sample", "0.01"]) == 0
        capsys.readouterr()
        record = observe.RunLedger(ledger).resolve("latest")
        assert len(record["samples"]) >= 1
        assert record["samples"][-1]["rss_mb"] > 0
        stages = [d["stage"] for d in record["decisions"]]
        assert "sample:resource" in stages

    def test_runs_list_show_diff_trend(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        for _ in range(2):
            assert main(["experiments", "T2",
                         "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--dir", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "run-000001" in out and "run-000002" in out
        assert main(["runs", "show", "--dir", str(ledger)]) == 0
        assert "run-000002" in capsys.readouterr().out   # latest
        assert main(["runs", "diff", "run-000001", "latest",
                     "--dir", str(ledger)]) == 0
        assert "wall:" in capsys.readouterr().out
        assert main(["runs", "trend", "--dir", str(ledger)]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_runs_gc(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        for _ in range(3):
            assert main(["experiments", "T2",
                         "--ledger", str(ledger)]) == 0
        assert main(["runs", "gc", "--keep", "1",
                     "--dir", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "removed 2 run record(s)" in out
        assert [e["id"] for e in self._entries(ledger)] == ["run-000003"]

    def test_runs_export_prometheus_parses(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        assert main(["experiments", "T2", "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "export", "--prometheus",
                     "--dir", str(ledger)]) == 0
        page = capsys.readouterr().out
        families = observe.parse_prometheus(page)
        assert any(name.startswith("repro_") for name in families)

    def test_runs_export_chrome_file(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        assert main(["experiments", "T2", "--ledger", str(ledger)]) == 0
        out_file = tmp_path / "trace.json"
        assert main(["runs", "export", "--chrome", "--out", str(out_file),
                     "--dir", str(ledger)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C"} <= phases

    def test_runs_html_renders_three_run_trajectory(self, tmp_path, capsys):
        ledger = tmp_path / "runs"
        for _ in range(3):
            assert main(["experiments", "T2",
                         "--ledger", str(ledger)]) == 0
        out_file = tmp_path / "dash.html"
        assert main(["runs", "html", "--out", str(out_file),
                     "--dir", str(ledger)]) == 0
        capsys.readouterr()
        html = out_file.read_text()
        assert "<svg" in html and "polyline" in html
        for rid in ("run-000001", "run-000002", "run-000003"):
            assert rid in html

    def test_runs_on_empty_ledger(self, tmp_path, capsys):
        assert main(["runs", "list", "--dir", str(tmp_path / "none")]) == 0
        assert "empty" in capsys.readouterr().out
        assert main(["runs", "show", "--dir", str(tmp_path / "none")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_runs_selftest(self, capsys):
        assert main(["runs", "selftest"]) == 0
        out = capsys.readouterr().out
        assert "runs selftest: ok" in out
        assert "FAIL" not in out
