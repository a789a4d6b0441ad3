"""The run-ledger renderers over run records (repro.observe.export).

The Chrome export of a record must carry spans + counter tracks +
decision instants, and its non-span events must match the live
``repro profile --chrome`` trace of the same observation, because both
come from one writer; the ``repro runs`` text views must name stages,
counters and every family of decision event (docs/RUN_LEDGER.md).
"""

from __future__ import annotations

import json
import re

import pytest

from repro import observe


def _run_record(i: int = 0, command: str = "experiments"):
    with observe.observed() as obs:
        with obs.tracer.span("analysis.plan"):
            with obs.tracer.span("codegen.fortran"):
                pass
            obs.metrics.counter("exec.interp.calls").inc(10 + i)
            obs.metrics.gauge("sample.rss_mb").set(40.0 + i)
            h = obs.metrics.histogram("exec.step_ms")
            for v in (1.0, 2.0, 3.0):
                h.observe(v + i)
        obs.decisions.record("guard", "adjust2", 1, "sweep", "fallback",
                             reasons=["diverged"])
    return observe.build_record(
        command=command, argv=["x"], wall_s=0.1 * (i + 1),
        observation=obs, started=1700000000.0 + i,
        samples=[{"t": 0.0, "rss_mb": 40.0, "cpu_s": 0.1, "gc_gen0": 2},
                 {"t": 0.05, "rss_mb": 41.0, "cpu_s": 0.2, "gc_gen0": 4}],
        environment={"python": "3.11", "numpy": "2.0", "git_sha": "abc123",
                     "platform": "linux", "executor": "interpreter"})


class TestRecordToChrome:
    def test_spans_counters_and_instants(self):
        doc = observe.record_to_chrome(_run_record())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"analysis.plan",
                                             "codegen.fortran"}
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "exec.interp.calls" for e in counters)
        assert any(e["name"] == "sample.rss_mb" and e["cat"] == "sample"
                   for e in counters)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "guard:fallback"
        json.dumps(doc)

    def test_nesting_survives_the_flame_roundtrip(self):
        doc = observe.record_to_chrome(_run_record())
        spans = {e["name"]: e for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        parent, child = spans["analysis.plan"], spans["codegen.fortran"]
        assert parent["ts"] <= child["ts"]
        assert (child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6)

    def test_track_events_match_the_live_trace(self):
        with observe.observed() as obs:
            with obs.tracer.span("exec.run"):
                obs.metrics.counter("exec.interp.calls").inc(7)
                obs.metrics.gauge("sample.rss_mb").set(42.5)
                obs.decisions.record("guard", "adjust2", 1, "sweep",
                                     "fallback", reasons=["diverged"])
        live = obs.to_chrome_trace()
        end_us = max(e["ts"] + e["dur"] for e in live["traceEvents"]
                     if e["ph"] == "X")
        samples = [{"t": 0.0, "rss_mb": 10.0, "cpu_s": 0.1, "gc_gen0": 3}]
        stored = observe.record_to_chrome(observe.build_record(
            command="profile", wall_s=end_us / 1e6, observation=obs,
            samples=samples, environment={}))

        def tracks(doc):
            return sorted((e for e in doc["traceEvents"]
                           if e["ph"] in ("C", "i")
                           and e.get("cat") != "sample"),
                          key=lambda e: (e["ph"], e["name"], e["ts"]))

        live_tracks, stored_tracks = tracks(live), tracks(stored)
        assert {e["ph"] for e in live_tracks} == {"C", "i"}
        assert len(live_tracks) == len(stored_tracks)
        for a, b in zip(live_tracks, stored_tracks):
            assert ((a["name"], a["cat"], a["ph"], a["args"])
                    == (b["name"], b["cat"], b["ph"], b["args"]))
            assert a["ts"] == pytest.approx(b["ts"], abs=1.0)
        # Sample tracks come only from the persisted record.
        assert not [e for e in live["traceEvents"] if e.get("cat") == "sample"]
        assert [e["name"] for e in stored["traceEvents"]
                if e.get("cat") == "sample"] == [
            "sample.rss_mb", "sample.cpu_s", "sample.gc_gen0"]


class TestTextRenderers:
    def test_table_lists_every_entry(self):
        ledger_entries = [
            {"id": "run-000001", "command": "experiments", "status": "ok",
             "exit_code": 0, "wall_s": 0.5, "started": 1700000000.0,
             "git_sha": "abc123def456"},
        ]
        text = observe.render_runs_table(ledger_entries)
        assert "run-000001" in text and "experiments" in text
        assert "500.0ms" in text

    def test_show_names_stages_counters_events(self):
        rec = dict(_run_record())
        rec["id"] = "run-000007"
        text = observe.render_run(rec)
        assert "run-000007" in text
        assert "analysis" in text
        assert "exec.interp.calls" in text
        assert "guard" in text
        assert "resource samples: 2 tick(s)" in text

    def test_show_counts_every_decision_stage_family(self):
        rec = dict(_run_record())
        rec["decisions"] = [
            {"stage": "batch:quarantine", "verdict": "quarantined"},
            {"stage": "cache:corrupt-entry", "verdict": "evicted"},
            {"stage": "guard", "verdict": "fallback"},
        ]
        events = observe.render_run(rec).split("-- events --")[1]
        counts = dict(line.split() for line in events.splitlines()
                      if line.strip() and not line.startswith("--"))
        assert counts == {"batch:*": "1", "cache:*": "1", "guard": "1"}

    def test_diff_reports_wall_stage_counter_env_changes(self):
        a, b = _run_record(0), _run_record(4)
        b["environment"] = dict(b["environment"], git_sha="fff999")
        text = observe.diff_runs(a, b)
        assert re.search(r"wall: .*->.*\(\+", text)
        assert "exec.interp.calls" in text
        assert "git_sha: abc123 -> fff999" in text

    def test_trend_tracks_delta_per_command(self):
        recs = []
        for i, cmd in enumerate(["experiments", "lint", "experiments"]):
            rec = dict(_run_record(i, command=cmd))
            rec["id"] = f"run-{i + 1:06d}"
            recs.append(rec)
        lines = observe.render_runs_trend(recs).splitlines()
        assert lines[-1].split()[-1].startswith(("+", "-"))  # vs prev exp
        assert any(line.split()[-1] == "-" for line in lines
                   if "lint" in line)                        # first lint
