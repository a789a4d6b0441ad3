"""Unit tests for the :mod:`repro.observe` subsystem."""

import json
import threading
import time

import pytest

from repro import observe
from repro.observe import (
    NULL_DECISIONS,
    NULL_METRICS,
    NULL_TRACER,
    DecisionLog,
    MetricsRegistry,
    Tracer,
    trace_to_json,
)


class TestSpans:
    def test_nesting_builds_a_tree(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b", k=1):
                pass
            with t.span("b"):
                with t.span("c"):
                    pass
        assert len(t.roots) == 1
        root = t.roots[0]
        assert root.name == "a"
        assert [c.name for c in root.children] == ["b", "b"]
        assert [c.name for c in root.children[1].children] == ["c"]
        assert root.children[0].attrs == {"k": 1}

    def test_durations_are_monotone(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                time.sleep(0.002)
        outer, = t.roots
        inner, = outer.children
        assert inner.duration > 0
        assert outer.duration >= inner.duration

    def test_set_and_annotate_attach_attrs(self):
        t = Tracer()
        with t.span("s") as sp:
            sp.set(x=1)
            t.annotate(y=2)
        assert t.roots[0].attrs == {"x": 1, "y": 2}

    def test_exception_still_closes_span(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError()
        assert t.roots[0].end is not None
        assert t.current() is None

    def test_sibling_spans_in_threads_become_separate_roots(self):
        t = Tracer()

        def work(i):
            with t.span("worker", i=i):
                pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t.roots) == 8
        assert {s.name for s in t.roots} == {"worker"}


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(4)
        m.gauge("g").set(2.5)
        h = m.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = m.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0
        assert abs(snap["histograms"]["h"]["mean"] - 2.0) < 1e-12

    def test_registry_is_thread_safe(self):
        m = MetricsRegistry()
        n, per = 16, 500

        def work():
            for _ in range(per):
                m.counter("hits").inc()
                m.histogram("obs").observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert m.counter("hits").value == n * per
        assert m.histogram("obs").count == n * per

    def test_histogram_sample_cap(self):
        h = MetricsRegistry().histogram("h")
        for i in range(10_000):
            h.observe(float(i))
        assert h.count == 10_000
        assert len(h._samples) <= 4096
        assert h.percentile(50) > 0

    def test_histogram_reservoir_percentiles_stay_stable(self):
        # Regression: the old decimation (`samples[::2]` + append) kept
        # every other early value and *all* recent ones, so a uniform
        # stream read back with badly skewed percentiles.  Reservoir
        # sampling keeps every observation equally likely to survive:
        # the median of 0..99999 must stay near 50k even though only
        # 4096 samples are retained.
        h = MetricsRegistry().histogram("h")
        n = 100_000
        for i in range(n):
            h.observe(float(i))
        assert len(h._samples) == 4096
        for q, expected in ((25, n * 0.25), (50, n * 0.50), (75, n * 0.75)):
            got = h.percentile(q)
            assert abs(got - expected) < n * 0.05, (
                f"p{q} drifted: got {got}, expected ~{expected}")

    def test_histogram_reservoir_is_deterministic_per_name(self):
        def fill(name):
            h = MetricsRegistry().histogram(name)
            for i in range(20_000):
                h.observe(float(i))
            return list(h._samples)

        assert fill("same") == fill("same")      # seeded by name: stable

    def test_histogram_summary_is_not_torn_under_writes(self):
        # Regression: summary() used to read count/total/min/max without
        # the lock, so a concurrent writer could yield a snapshot whose
        # mean != sum/count.  With a constant stream every consistent
        # snapshot has sum == count * 1.0 exactly.
        h = MetricsRegistry().histogram("torn")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                h.observe(1.0)

        th = threading.Thread(target=writer)
        th.start()
        try:
            for _ in range(2_000):
                s = h.summary()
                assert s["sum"] == s["count"] * 1.0
                if s["count"]:
                    assert s["min"] == s["max"] == 1.0
                    assert s["mean"] == 1.0
        finally:
            stop.set()
            th.join()


class TestDecisionLog:
    def test_record_and_group(self):
        d = DecisionLog()
        d.record("parallelize", "f", 0, "init", "parallel",
                 loop_class="zero-init", reasons=["ok"])
        d.record("pruning", "f", 0, "init", "pruned",
                 loop_class="zero-init", variant="v1")
        d.record("parallelize", "g", 1, "sweep", "serial")
        grouped = d.by_function()
        assert list(grouped) == ["f", "g"]
        assert [e.verdict for e in grouped["f"]] == ["parallel", "pruned"]
        assert d.for_stage("pruning")[0].attrs == (("variant", "v1"),)


class TestNoopDefaults:
    def test_defaults_are_the_null_singletons(self):
        assert observe.get_tracer() is NULL_TRACER
        assert observe.get_metrics() is NULL_METRICS
        assert observe.get_decisions() is NULL_DECISIONS
        assert not observe.is_observing()

    def test_null_tracer_reuses_one_span_object(self):
        a = NULL_TRACER.span("x", k=1)
        b = NULL_TRACER.span("y")
        assert a is b
        with a as sp:
            sp.set(ignored=True)
        assert list(NULL_TRACER.all_spans()) == []

    def test_null_instruments_record_nothing(self):
        NULL_METRICS.counter("c").inc(100)
        NULL_METRICS.histogram("h").observe(1.0)
        NULL_DECISIONS.record("parallelize", "f", 0, "s", "parallel")
        assert NULL_METRICS.snapshot()["counters"] == {}
        assert NULL_DECISIONS.by_function() == {}

    def test_noop_overhead_is_negligible(self):
        # The disabled path must stay within the same order of magnitude as
        # a bare function call: 50k no-op spans in well under a second even
        # on a loaded CI box (a real tracer costs ~50x more).
        tracer = observe.get_tracer()
        assert not tracer.enabled
        t0 = time.perf_counter()
        for _ in range(50_000):
            with tracer.span("hot.loop"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert list(tracer.all_spans()) == []

    def test_instrumented_pipeline_records_nothing_by_default(self):
        from repro.optimize import make_plan
        from repro.sarb import build_sarb_program

        make_plan(build_sarb_program(), "GLAF-parallel v1")
        assert observe.get_metrics().snapshot()["counters"] == {}
        assert list(observe.get_tracer().all_spans()) == []


class TestObservedSession:
    def test_observed_installs_and_restores(self):
        before = observe.get_tracer()
        with observe.observed() as obs:
            assert observe.get_tracer() is obs.tracer
            assert observe.get_metrics() is obs.metrics
            assert observe.get_decisions() is obs.decisions
            assert observe.is_observing()
        assert observe.get_tracer() is before
        assert not observe.is_observing()

    def test_observed_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with observe.observed():
                raise RuntimeError()
        assert not observe.is_observing()

    def test_observed_nests(self):
        with observe.observed() as outer:
            with observe.observed() as inner:
                assert observe.get_tracer() is inner.tracer
            assert observe.get_tracer() is outer.tracer

    def test_interpreter_mode_sarb_run_records_its_span(self):
        """The default (interpreter) IR path goes through the executor
        registry, so it is traced like ``--executor vectorized`` is."""
        from repro.glafexec import using_executor
        from repro.sarb import SarbDimensions, make_inputs
        from repro.sarb.validation import run_ir_interpreter

        inp = make_inputs(SarbDimensions(nv=8, nblw=2, nbsw=2))
        with using_executor("interpreter"), observe.observed() as obs:
            run_ir_interpreter(inp, guarded=False)
        runs = [s for s in obs.tracer.all_spans()
                if s.name.startswith("exec.run.")]
        assert [s.name for s in runs] == ["exec.run.interp"]
        assert runs[0].attrs["entry"] == "entropy_interface"

    def test_pipeline_under_observation(self):
        from repro.codegen import generate_fortran_module
        from repro.optimize import make_plan
        from repro.sarb import build_sarb_program

        with observe.observed() as obs:
            plan = make_plan(build_sarb_program(), "GLAF-parallel v2")
            generate_fortran_module(plan)
        names = {s.name for s in obs.tracer.all_spans()}
        assert {"optimize.plan", "analysis.parallelize", "analysis.step",
                "optimize.pruning", "codegen.fortran"} <= names
        snap = obs.metrics.snapshot()
        assert snap["counters"]["analysis.steps"] == 26
        assert snap["counters"]["codegen.fortran.lines"] > 100
        stages = {d.stage for d in obs.decisions.events}
        assert stages == {"parallelize", "pruning"}
        # Table-2 explainability: v2 prunes simple single loops.
        pruned = [d for d in obs.decisions.for_stage("pruning")
                  if d.verdict == "pruned"]
        assert any(d.loop_class == "simple-single" for d in pruned)


class TestAdvisorDecisions:
    def test_advisor_emits_structured_choices(self):
        from repro.optimize import advise
        from repro.perf import i5_2400
        from repro.sarb import build_sarb_program, sarb_workload

        with observe.observed() as obs:
            _, report = advise(build_sarb_program(), i5_2400, sarb_workload(),
                               threads=4)
        events = obs.decisions.for_stage("advisor")
        assert len(events) == len(report.decisions)
        assert {e.verdict for e in events} <= {"omp", "simd", "none"}
        assert all("model cycles" in e.reasons[0] for e in events)
        assert any(s.name == "optimize.advisor"
                   for s in obs.tracer.all_spans())


class TestReporting:
    @pytest.fixture(scope="class")
    def obs(self):
        from repro.codegen import generate_fortran_module
        from repro.optimize import make_plan
        from repro.sarb import build_sarb_program

        with observe.observed() as obs:
            with obs.tracer.span("pipeline"):
                plan = make_plan(build_sarb_program(), "GLAF-parallel v1")
                generate_fortran_module(plan)
        return obs

    def test_render_tree(self, obs):
        text = observe.render_tree(obs.tracer)
        assert "pipeline" in text
        assert "optimize.plan" in text
        assert "analysis.step x26" in text       # siblings aggregate
        assert "ms" in text

    def test_stage_summary(self, obs):
        text = observe.render_stage_summary(obs.tracer)
        for stage in ("analysis", "optimize", "codegen"):
            assert stage in text
        rows = observe.stage_totals(obs.tracer)
        by = {r["stage"]: r for r in rows}
        assert by["analysis"]["calls"] >= 26
        # Self time never exceeds cumulative time for a top-level stage.
        assert by["optimize"]["self_s"] <= by["optimize"]["cumulative_s"] + 1e-9

    def test_render_decisions_groups_by_function(self, obs):
        text = observe.render_decisions(obs.decisions)
        assert "longwave_entropy_model" in text
        assert "[parallelize:parallel]" in text
        assert "[pruning:" in text

    def test_json_roundtrip(self, obs):
        doc = obs.to_json(project="test")
        blob = json.dumps(doc)
        back = json.loads(blob)
        assert back["schema"] == observe.TRACE_SCHEMA
        assert back["meta"] == {"project": "test"}
        assert back["spans"][0]["name"] == "pipeline"
        assert back["spans"][0]["duration_s"] > 0
        child_names = {c["name"] for c in back["spans"][0]["children"]}
        assert "optimize.plan" in child_names
        assert back["metrics"]["counters"]["analysis.steps"] == 26
        assert any(d["stage"] == "pruning" for d in back["decisions"])
        assert {r["stage"] for r in back["stages"]} >= {"analysis", "codegen"}

    def test_trace_to_json_without_extras(self):
        t = Tracer()
        with t.span("only"):
            pass
        doc = trace_to_json(t)
        assert "metrics" not in doc and "decisions" not in doc
        assert doc["spans"][0]["name"] == "only"

    def test_full_report(self, obs):
        text = obs.report(title="unit test")
        assert "== unit test ==" in text
        assert "-- span tree --" in text
        assert "-- per-stage summary --" in text
        assert "-- metrics --" in text
        assert "-- parallelization decisions --" in text


class TestReportingEdgeCases:
    def test_empty_trace_renders_placeholders(self):
        t = Tracer()
        assert observe.render_tree(t) == "(no spans recorded)"
        assert observe.render_stage_summary(t) == "(no stages recorded)"
        assert observe.stage_totals(t) == []

    def test_empty_trace_to_json(self):
        doc = trace_to_json(Tracer())
        assert doc["spans"] == [] and doc["stages"] == []
        json.dumps(doc)

    def test_null_tracer_reports_empty(self):
        assert observe.render_tree(NULL_TRACER) == "(no spans recorded)"
        assert observe.to_chrome_trace(NULL_TRACER)["traceEvents"] == []

    def test_deeply_nested_spans_respect_max_depth(self):
        t = Tracer()
        from contextlib import ExitStack

        with ExitStack() as stack:
            for i in range(20):
                stack.enter_context(t.span(f"deep.level{i}"))
        text = observe.render_tree(t, max_depth=5)
        assert "deep.level4" in text
        assert "deep.level5" not in text
        # But the full walk still sees every span.
        assert sum(1 for _ in t.all_spans()) == 20

    def test_zero_duration_spans(self):
        clock = lambda: 42.0                    # frozen: every span lasts 0s
        t = Tracer(clock=clock)
        with t.span("fast.outer"):
            with t.span("fast.inner"):
                pass
        assert all(s.duration == 0.0 for s in t.all_spans())
        assert "0.000ms" in observe.render_tree(t)
        rows = observe.stage_totals(t)
        assert rows[0]["cumulative_s"] == 0.0 and rows[0]["self_s"] == 0.0
        events = [e for e in observe.to_chrome_trace(t)["traceEvents"]
                  if e["ph"] == "X"]
        assert all(e["dur"] == 0.0 for e in events)


class TestChromeTrace:
    @pytest.fixture()
    def tracer(self):
        steps = iter(range(100))
        t = Tracer(clock=lambda: next(steps) * 0.001)
        with t.span("pipeline", variant="v2"):
            with t.span("analysis.step", arrays=["a", "b"]):
                pass
            with t.span("codegen.fortran"):
                pass
        return t

    def test_events_mirror_spans(self, tracer):
        doc = observe.to_chrome_trace(tracer, project="x")
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == [
            "pipeline", "analysis.step", "codegen.fortran"]
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"project": "x"}

    def test_categories_are_pipeline_stages(self, tracer):
        doc = observe.to_chrome_trace(tracer)
        cats = {e["name"]: e["cat"] for e in doc["traceEvents"]
                if e["ph"] == "X"}
        assert cats["analysis.step"] == "analysis"
        assert cats["pipeline"] == "pipeline"

    def test_children_are_contained_in_parents(self, tracer):
        events = {e["name"]: e
                  for e in observe.to_chrome_trace(tracer)["traceEvents"]
                  if e["ph"] == "X"}
        parent, child = events["pipeline"], events["analysis.step"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_thread_metadata_events(self, tracer):
        doc = observe.to_chrome_trace(tracer)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 1
        assert meta[0]["name"] == "thread_name"
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {meta[0]["tid"]}

    def test_non_primitive_attrs_are_stringified(self, tracer):
        doc = observe.to_chrome_trace(tracer)
        step = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "analysis.step"][0]
        assert step["args"]["arrays"] == "['a', 'b']"
        json.dumps(doc)                          # fully serializable

    def test_roundtrip_preserves_span_count_and_time(self, tracer):
        blob = json.dumps(observe.to_chrome_trace(tracer))
        back = json.loads(blob)
        events = [e for e in back["traceEvents"] if e["ph"] == "X"]
        assert len(events) == sum(1 for _ in tracer.all_spans())
        for span in tracer.all_spans():
            match = [e for e in events if e["name"] == span.name]
            assert len(match) == 1
            assert match[0]["dur"] == pytest.approx(span.duration * 1e6)

    def test_observation_exports_chrome(self):
        with observe.observed() as obs:
            with obs.tracer.span("exec.run"):
                pass
        doc = obs.to_chrome_trace(label="demo")
        assert doc["otherData"] == {"label": "demo"}
        assert any(e["name"] == "exec.run" for e in doc["traceEvents"])

    def test_counters_become_counter_events(self):
        # Regression: counters used to be dropped from the Chrome export
        # entirely — the trace showed spans but no metric tracks.
        with observe.observed() as obs:
            with obs.tracer.span("exec.run"):
                obs.metrics.counter("exec.interp.calls").inc(7)
                obs.metrics.gauge("sample.rss_mb").set(42.5)
        doc = obs.to_chrome_trace()
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        by_name = {}
        for e in counters:
            by_name.setdefault(e["name"], []).append(e)
        # Two points per counter (zero at the epoch, final at the end)
        # so the UI draws a track, not an isolated dot.
        assert [e["args"]["value"] for e in by_name["exec.interp.calls"]] \
            == [0, 7]
        assert all(e["cat"] == "metric" for e in counters)
        assert by_name["sample.rss_mb"][-1]["args"]["value"] == 42.5
        json.dumps(doc)

    def test_decisions_become_instant_events(self):
        with observe.observed() as obs:
            with obs.tracer.span("exec.run"):
                obs.decisions.record("guard", "adjust2", 1, "sweep",
                                     "fallback", reasons=["diverged"])
        doc = obs.to_chrome_trace()
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        inst = instants[0]
        assert inst["name"] == "guard:fallback"
        assert inst["cat"] == "guard"
        assert inst["s"] == "g"
        assert inst["ts"] >= 0
        assert inst["args"]["function"] == "adjust2"

    def test_sample_series_becomes_counter_tracks(self):
        with observe.observed() as obs:
            with obs.tracer.span("exec.run"):
                pass
        doc = obs.to_chrome_trace(samples=[
            {"t": 0.0, "rss_mb": 10.0, "cpu_s": 0.1, "gc_gen0": 3},
            {"t": 0.05, "rss_mb": 12.0, "cpu_s": 0.2, "gc_gen0": 5},
        ])
        rss = [e for e in doc["traceEvents"]
               if e["ph"] == "C" and e["name"] == "sample.rss_mb"]
        assert [e["args"]["value"] for e in rss] == [10.0, 12.0]
        assert rss[0]["cat"] == "sample"
        assert rss[1]["ts"] == pytest.approx(0.05 * 1e6)
