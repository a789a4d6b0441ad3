"""Unit tests for the crash-isolated batch compiler (repro.batch).

Everything here runs the *serial* driver path (no worker processes), so
the suite stays fast and deterministic; the process-isolation envelope
itself — real crashes, hangs, OOM kills, SIGKILL-resume — is exercised
end to end by tests/integration/test_batch_chaos.py and
scripts/resume_smoke.py.
"""

import json
import pickle

import pytest

from repro import errors as E
from repro.batch import (
    ArtifactCache,
    BatchOptions,
    CorpusItem,
    ItemOutcome,
    WorkerConfig,
    build_manifest,
    ingest_corpus,
    load_manifest,
    quarantine_bundle_name,
    run_batch,
    run_item,
    write_manifest,
)
from repro.batch.driver import _simulate_poison
from repro.batch.worker import POISON_CRASH_EXIT, POISON_OOM_EXIT
from repro.errors import BatchError, WorkerCrashError
from repro.numeric.retry import RetryPolicy

FSRC = """\
subroutine addv(a, b, c, n)
  integer, intent(in) :: n
  real(kind=8), intent(in) :: a(n), b(n)
  real(kind=8), intent(inout) :: c(n)
  integer :: i
  do i = 1, n
    c(i) = a(i) + b(i)
  end do
end subroutine addv
"""


def fast_options(tmp_path, **kw):
    base = dict(jobs=1, retries=1, retry_base_delay=0.0,
                timeout=5.0, max_wall_seconds=20.0,
                cache_dir=str(tmp_path / "cache"),
                checkpoint_dir=str(tmp_path / "ckpt"),
                quarantine_dir=str(tmp_path / "quar"))
    base.update(kw)
    return BatchOptions(**base)


class TestOptions:
    def test_plain_batch_options_carry_no_checks_key(self):
        """No checks ⇒ the same option documents as before checks
        existed, so plain cache keys and manifest digests are unchanged."""
        opts = BatchOptions()
        assert opts.pipeline_options() == {
            "variant": "GLAF-parallel v0", "target": "fortran",
            "fuzz_profile": "small"}
        assert opts.manifest_options() == {
            "variant": "GLAF-parallel v0", "target": "fortran",
            "fuzz_profile": "small", "retries": 1, "timeout": 60.0,
            "seed": 0, "max_loop_iterations": 2_000_000,
            "max_wall_seconds": 30.0, "max_memory_mb": 2048}
        assert opts.worker_config().checks is None

    def test_checks_join_the_pipeline_options(self):
        from repro.fuzz import FuzzChecks, get_profile

        checks = FuzzChecks(get_profile("small"), crosscheck=True)
        opts = BatchOptions(checks=checks)
        assert opts.pipeline_options()["checks"] == checks.to_json()
        assert opts.worker_config().checks is checks
        assert pickle.loads(pickle.dumps(opts.worker_config())) == \
            opts.worker_config()


# ---------------------------------------------------------------------------
# corpus ingestion


class TestCorpus:
    def test_fuzz_spec_is_deterministic(self):
        a = ingest_corpus(["fuzz:3:4"])
        b = ingest_corpus(["fuzz:3:4"])
        assert [i.id for i in a] == [f"fuzz-3-{n:04d}" for n in range(4)]
        assert [(i.id, i.content_sha) for i in a] == \
               [(i.id, i.content_sha) for i in b]
        assert all(i.kind == "fuzz" for i in a)

    def test_poison_spec(self):
        items = ingest_corpus(["poison:crash:2", "poison:hang"])
        assert [(i.id, i.content) for i in items] == [
            ("poison-crash-0", "crash"), ("poison-crash-1", "crash"),
            ("poison-hang-0", "hang")]

    def test_files_and_dirs(self, tmp_path):
        (tmp_path / "a.f90").write_text(FSRC)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.f").write_text(FSRC)
        items = ingest_corpus([str(tmp_path)])
        assert [i.kind for i in items] == ["source", "source"]
        assert items[0].origin.endswith("a.f90")

    def test_duplicate_names_get_unique_ids(self, tmp_path):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for d in (d1, d2):
            d.mkdir()
            (d / "same.f90").write_text(FSRC)
        items = ingest_corpus([str(d1), str(d2)])
        assert len({i.id for i in items}) == 2

    @pytest.mark.parametrize("bad", [
        [], ["fuzz:oops:3"], ["fuzz:1:0"], ["poison:nope"],
        ["poison:crash:0"], ["/no/such/thing"],
    ])
    def test_bad_inputs_are_typed_errors(self, bad):
        with pytest.raises(BatchError):
            ingest_corpus(bad)

    def test_unsupported_suffix(self, tmp_path):
        p = tmp_path / "x.c"
        p.write_text("int main(){}")
        with pytest.raises(BatchError, match="unsupported corpus file"):
            ingest_corpus([str(p)])

    def test_empty_dir_is_error(self, tmp_path):
        with pytest.raises(BatchError, match="no corpus files"):
            ingest_corpus([str(tmp_path)])


# ---------------------------------------------------------------------------
# the worker compile path (in-process)


class TestRunItem:
    def test_source_item_artifacts(self):
        item = CorpusItem(id="s", kind="source", content=FSRC)
        arts = run_item(item, WorkerConfig())
        assert arts["schema"] == "repro.batch.artifact/v1"
        assert arts["target"] == "source" and arts["code"] == ""
        assert arts["sloc"] > 0 and arts["lint"]["ok"]
        assert any("addv" in unit.lower() for unit in arts["ranges"])

    def test_fuzz_item_generates_fortran(self):
        item = ingest_corpus(["fuzz:3:1"])[0]
        arts = run_item(item, WorkerConfig())
        assert arts["target"] == "fortran"
        assert "SUBROUTINE" in arts["code"] or "FUNCTION" in arts["code"]
        assert arts["lint"]["schema"] == "repro.lint/v1"

    def test_artifacts_are_item_id_free(self):
        # Two ids, same content: identical artifacts, so the cache can
        # legitimately share one entry between them.
        from repro.numeric.integrity import content_digest

        spec = ingest_corpus(["fuzz:3:1"])[0]
        a = CorpusItem(id="first", kind="fuzz", content=spec.content)
        b = CorpusItem(id="second", kind="fuzz", content=spec.content)
        assert content_digest(run_item(a, WorkerConfig())) == \
               content_digest(run_item(b, WorkerConfig()))

    def test_bad_project_json_is_typed(self):
        item = CorpusItem(id="p", kind="project", content="{nope")
        with pytest.raises(BatchError, match="invalid project JSON"):
            run_item(item, WorkerConfig())

    def test_bad_fuzz_payload_is_typed(self):
        item = CorpusItem(id="f", kind="fuzz", content='{"a": 1}')
        with pytest.raises(BatchError, match="invalid fuzz spec"):
            run_item(item, WorkerConfig())

    def test_parse_failure_carries_stage(self):
        item = CorpusItem(id="s", kind="source",
                          content="      GARBAGE ((((\n")
        with pytest.raises(E.GlafError) as ei:
            run_item(item, WorkerConfig())
        assert getattr(ei.value, "batch_stage", "") in ("parse", "lint")

    def test_unknown_target_is_typed(self):
        item = ingest_corpus(["fuzz:3:1"])[0]
        with pytest.raises(BatchError, match="unknown codegen target"):
            run_item(item, WorkerConfig(target="cuda"))


# ---------------------------------------------------------------------------
# content-addressed cache


class TestArtifactCache:
    def entry(self, tmp_path, **kw):
        cache = ArtifactCache(tmp_path / "cache", **kw)
        key = cache.key_for("c" * 64, "fuzz", {"variant": "v0"})
        cache.put(key, content_sha="c" * 64, kind="fuzz",
                  options={"variant": "v0"}, artifacts={"code": "X"})
        return cache, key

    def test_round_trip(self, tmp_path):
        cache, key = self.entry(tmp_path)
        assert cache.get(key) == {"code": "X"}
        assert cache.get("0" * 64) is None

    def test_key_covers_options_and_content(self):
        k = ArtifactCache.key_for
        base = k("a" * 64, "fuzz", {"variant": "v0"})
        assert k("b" * 64, "fuzz", {"variant": "v0"}) != base
        assert k("a" * 64, "source", {"variant": "v0"}) != base
        assert k("a" * 64, "fuzz", {"variant": "v3"}) != base
        assert k("a" * 64, "fuzz", {"variant": "v0"}) == base

    @pytest.mark.parametrize("tamper", [
        lambda p: p.write_text("{truncated"),
        lambda p: p.write_text(json.dumps({"schema": "wrong/v1"})),
        lambda p: p.write_text(json.dumps(json.loads(
            p.read_text()) | {"artifacts": {"code": "EVIL"}})),
    ])
    def test_corrupt_entry_discarded(self, tmp_path, tamper):
        cache, key = self.entry(tmp_path)
        tamper(cache.path_for(key))
        assert cache.get(key) is None              # reported as a miss
        assert cache.corrupt_discarded == 1
        assert not cache.path_for(key).exists()    # and unlinked
        # A recompile repopulates it cleanly.
        cache.put(key, content_sha="c" * 64, kind="fuzz",
                  options={"variant": "v0"}, artifacts={"code": "X"})
        assert cache.get(key) == {"code": "X"}

    def test_corrupt_entry_emits_decision(self, tmp_path):
        from repro import observe

        cache, key = self.entry(tmp_path)
        cache.path_for(key).write_text("{")
        with observe.observed() as obs:
            assert cache.get(key) is None
        events = obs.decisions.for_stage("cache:corrupt-entry")
        assert len(events) == 1 and events[0].verdict == "discarded"

    def test_eviction_keeps_newest(self, tmp_path):
        import os

        cache = ArtifactCache(tmp_path / "cache", max_entries=2)
        keys = []
        for i in range(4):
            key = cache.key_for(f"{i}" * 64, "fuzz", {})
            path = cache.put(key, content_sha=f"{i}" * 64, kind="fuzz",
                             options={}, artifacts={"i": i})
            os.utime(path, (i + 1, i + 1))   # deterministic age order
            keys.append(key)
        assert cache.evicted == 2
        assert len(cache.entry_paths()) == 2
        assert cache.get(keys[0]) is None and cache.get(keys[3]) == {"i": 3}


# ---------------------------------------------------------------------------
# manifest digest semantics


class TestManifest:
    def outcome(self, **kw):
        base = dict(id="a", kind="fuzz", status="ok", content_sha="c" * 64,
                    artifact_sha="d" * 64)
        base.update(kw)
        return ItemOutcome(**base)

    def test_digest_ignores_run_only_fields(self):
        a = build_manifest([self.outcome()], {"variant": "v0"},
                           run={"wall_s": 1.0})
        b = build_manifest(
            [self.outcome(attempts=3, cached=True, resumed=True)],
            {"variant": "v0"}, run={"wall_s": 99.0})
        assert a["content_sha256"] == b["content_sha256"]

    def test_digest_covers_outcome_core(self):
        a = build_manifest([self.outcome()], {})
        b = build_manifest([self.outcome(status="failed")], {})
        c = build_manifest([self.outcome()], {"variant": "v3"})
        assert len({a["content_sha256"], b["content_sha256"],
                    c["content_sha256"]}) == 3

    def test_item_order_does_not_matter(self):
        x, y = self.outcome(id="x"), self.outcome(id="y")
        assert build_manifest([x, y], {})["content_sha256"] == \
               build_manifest([y, x], {})["content_sha256"]

    def test_write_load_round_trip(self, tmp_path):
        doc = build_manifest([self.outcome()], {"variant": "v0"})
        path = tmp_path / "m.json"
        write_manifest(path, doc)
        assert load_manifest(path)["content_sha256"] == doc["content_sha256"]

    def test_load_rejects_tampered_manifest(self, tmp_path):
        doc = build_manifest([self.outcome()], {"variant": "v0"})
        path = tmp_path / "m.json"
        write_manifest(path, doc)
        raw = json.loads(path.read_text())
        raw["items"][0]["status"] = "failed"
        path.write_text(json.dumps(raw))
        with pytest.raises(BatchError, match="digest mismatch"):
            load_manifest(path)

    def test_outcome_round_trip(self):
        o = self.outcome(status="quarantined", deaths=[{"kind": "hang"}],
                         bundle="b.json", attempts=2, cached=True)
        assert ItemOutcome.from_json(o.to_json()) == o

    def test_bad_status_rejected(self):
        with pytest.raises(BatchError, match="bad item outcome status"):
            ItemOutcome.from_json(self.outcome().to_json() |
                                  {"status": "exploded"})


# ---------------------------------------------------------------------------
# the serial driver: quarantine, stickiness, resume, caching


class TestDriverSerial:
    def test_healthy_corpus_compiles(self, tmp_path):
        items = ingest_corpus(["fuzz:3:3"])
        res = run_batch(items, fast_options(tmp_path))
        assert [o.status for o in res.outcomes] == ["ok"] * 3
        assert res.ok and res.stats["mode"] == "serial"

    def test_poison_is_quarantined_and_sticky(self, tmp_path):
        options = fast_options(tmp_path)
        items = ingest_corpus(["fuzz:3:1", "poison:crash"])
        res = run_batch(items, options)
        poison = [o for o in res.outcomes if o.kind == "poison"][0]
        assert poison.status == "quarantined"
        assert poison.attempts == 2 and len(poison.deaths) == 2
        bundle = tmp_path / "quar" / poison.bundle
        assert bundle.exists()
        doc = json.loads(bundle.read_text())
        assert doc["schema"] == "repro.batch.poison/v1"
        assert doc["item"]["id"] == "poison-crash-0"

        # Second run: the bundle makes the quarantine sticky (no new
        # attempts) and the healthy item is served from the cache.
        res2 = run_batch(items, options)
        poison2 = [o for o in res2.outcomes if o.kind == "poison"][0]
        assert poison2.status == "quarantined" and poison2.attempts == 0
        assert res2.stats["sticky"] == 1
        assert res2.stats["cache"]["hits"] == 1
        # Digest-stable across the cold and warm runs.
        assert res.manifest["content_sha256"] == \
               res2.manifest["content_sha256"]

    def test_simulated_deaths_match_worker_exit_codes(self, tmp_path):
        options = fast_options(tmp_path)
        for kind, wanted in [("crash", f"exit code {POISON_CRASH_EXIT}"),
                             ("oom", f"exit code {POISON_OOM_EXIT}")]:
            item = CorpusItem(id=f"p-{kind}", kind="poison", content=kind)
            with pytest.raises(WorkerCrashError, match=wanted):
                _simulate_poison(item, options)
        item = CorpusItem(id="p-hang", kind="poison", content="hang")
        with pytest.raises(WorkerCrashError, match="SIGKILLed") as ei:
            _simulate_poison(item, options)
        assert ei.value.kind == "hang"

    def test_typed_failure_is_not_quarantined(self, tmp_path):
        items = [CorpusItem(id="bad", kind="project", content="{nope")]
        res = run_batch(items, fast_options(tmp_path))
        (o,) = res.outcomes
        assert o.status == "failed" and o.attempts == 1
        assert o.failures[0]["error"] == "BatchError"
        assert o.failures[0]["stage"] == "build"
        assert not list((tmp_path / "quar").glob("*")) \
            if (tmp_path / "quar").exists() else True

    def test_lint_findings_mark_item_failed(self, tmp_path):
        # A race the linter catches: a reduction-free accumulation into
        # a shared scalar inside a parallel region.
        src = ("subroutine race(a, n)\n"
               "  integer, intent(in) :: n\n"
               "  real(kind=8), intent(inout) :: a(n)\n"
               "  real(kind=8) :: s\n"
               "  integer :: i\n"
               "  !$OMP PARALLEL DO\n"
               "  do i = 1, n\n"
               "    s = s + a(i)\n"
               "  end do\n"
               "end subroutine race\n")
        items = [CorpusItem(id="race", kind="source", content=src)]
        res = run_batch(items, fast_options(tmp_path))
        (o,) = res.outcomes
        assert o.status == "failed"
        assert all(f["stage"] == "lint" for f in o.failures)
        assert o.artifact_sha       # artifacts still produced + digested

    def test_resume_short_circuits_completed_items(self, tmp_path):
        from repro.numeric.checkpoint import CheckpointStore

        options = fast_options(tmp_path, cache_dir=None)
        items = ingest_corpus(["fuzz:3:2"])
        res = run_batch(items, options)

        # Replant the checkpoints a SIGKILL would have left behind
        # (run_batch clears them on clean completion).
        store = CheckpointStore(tmp_path / "ckpt")
        for o in res.outcomes:
            store.save(f"item-{o.id}", {"outcome": o.to_json()})

        resumed = run_batch(items, fast_options(
            tmp_path, cache_dir=None, resume=True))
        assert all(o.resumed for o in resumed.outcomes)
        assert resumed.stats["resumed"] == 2
        assert resumed.manifest["content_sha256"] == \
               res.manifest["content_sha256"]
        # Clean completion spends the checkpoints.
        assert store.keys() == []

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        from repro.numeric.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path / "ckpt")
        stale = ItemOutcome(id="fuzz-3-0000", kind="fuzz", status="failed",
                            content_sha="0" * 64)
        store.save("item-fuzz-3-0000", {"outcome": stale.to_json()})
        res = run_batch(ingest_corpus(["fuzz:3:1"]),
                        fast_options(tmp_path, cache_dir=None))
        assert res.outcomes[0].status == "ok"      # stale verdict ignored
        assert not res.outcomes[0].resumed

    def test_corrupt_checkpoint_is_recompiled(self, tmp_path):
        options = fast_options(tmp_path, cache_dir=None, resume=True)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "item-fuzz-3-0000.ckpt.json").write_text("{torn")
        res = run_batch(ingest_corpus(["fuzz:3:1"]), options)
        assert res.outcomes[0].status == "ok"
        assert not res.outcomes[0].resumed

    def test_duplicate_ids_rejected(self, tmp_path):
        item = CorpusItem(id="dup", kind="poison", content="crash")
        with pytest.raises(BatchError, match="duplicate item id"):
            run_batch([item, item], fast_options(tmp_path))

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(BatchError, match="empty corpus"):
            run_batch([], fast_options(tmp_path))

    @pytest.mark.parametrize("kw", [
        {"jobs": 0}, {"timeout": 0.0}, {"retries": -1},
        {"cache_max_entries": -1},
    ])
    def test_bad_options_rejected(self, kw):
        with pytest.raises(BatchError):
            BatchOptions(**kw)

    def test_decisions_and_metrics_recorded(self, tmp_path):
        from repro import observe

        items = ingest_corpus(["fuzz:3:1", "poison:crash"])
        with observe.observed() as obs:
            run_batch(items, fast_options(tmp_path))
        stages = {d.stage for d in obs.decisions.events}
        assert {"batch:item", "batch:quarantine",
                "batch:campaign"} <= stages
        names = {c.name for c in obs.metrics.counters()}
        assert {"batch.items", "batch.quarantined",
                "batch.cache.misses", "batch.deaths"} <= names

    def test_quarantine_bundle_name_ignores_jobs(self, tmp_path):
        item = CorpusItem(id="p", kind="poison", content="crash")
        a = quarantine_bundle_name(item, fast_options(tmp_path, jobs=1))
        b = quarantine_bundle_name(item, fast_options(tmp_path, jobs=8))
        c = quarantine_bundle_name(item, fast_options(tmp_path, jobs=1,
                                                      retries=3))
        assert a == b           # stickiness survives a jobs change
        assert a != c           # but not a different retry envelope


# ---------------------------------------------------------------------------
# retry semantics (satellite: determinism + never-retry classes)


class TestBatchRetrySemantics:
    def test_backoff_schedule_deterministic_for_fixed_seed(self):
        p1 = RetryPolicy(retries=4, base_delay=0.05, seed=1234)
        p2 = RetryPolicy(retries=4, base_delay=0.05, seed=1234)
        assert p1.delays() == p2.delays()
        assert p1.delays() != RetryPolicy(retries=4, base_delay=0.05,
                                          seed=1235).delays()

    def test_driver_seed_varies_per_item_but_reproduces(self, tmp_path):
        # The driver derives one policy seed per (campaign seed, item
        # index); same campaign seed → same schedules, different items →
        # different jitter streams.
        def schedule(seed, index):
            return RetryPolicy(retries=2, base_delay=0.05,
                               seed=(seed * 1_000_003 + index)
                               % 2**32).delays()

        assert schedule(7, 0) == schedule(7, 0)
        assert schedule(7, 0) != schedule(7, 1)
        assert schedule(7, 0) != schedule(8, 0)

    def test_resource_limit_error_never_respawns(self, tmp_path):
        # A typed budget trip from inside the worker must propagate as a
        # *failed* outcome on the first attempt — never retried into
        # quarantine, never given a second worker.
        src = ("subroutine spin(a, n)\n"
               "  integer, intent(in) :: n\n"
               "  real(kind=8), intent(inout) :: a(n)\n"
               "  integer :: i, j\n"
               "  do j = 1, 100000\n"
               "    do i = 1, n\n"
               "      a(i) = a(i) + 1.0\n"
               "    end do\n"
               "  end do\n"
               "end subroutine spin\n")
        items = [CorpusItem(id="spin", kind="source", content=src)]
        res = run_batch(items, fast_options(
            tmp_path, retries=3, max_wall_seconds=0.0000001))
        (o,) = res.outcomes
        assert o.status == "failed"
        assert o.attempts == 1 and o.deaths == []
        assert o.failures[0]["error"] == "ResourceLimitError"

    def test_numeric_integrity_error_never_retried(self, tmp_path):
        import repro.batch.driver as drv

        calls = []

        def boom(item, config):
            calls.append(item.id)
            raise E.NumericIntegrityError("nan detected", kind="nan")

        real = drv.run_item
        drv.run_item = boom
        try:
            items = [CorpusItem(id="n", kind="fuzz", content="{}")]
            res = run_batch(items, fast_options(
                tmp_path, retries=5, cache_dir=None))
        finally:
            drv.run_item = real
        assert calls == ["n"]                      # exactly one attempt
        assert res.outcomes[0].status == "failed"
        assert res.outcomes[0].failures[0]["error"] == \
            "NumericIntegrityError"


# ---------------------------------------------------------------------------
# typed-error pickle fidelity (satellite: process-boundary transport)


def _bundle():
    diags = [E.FortranSyntaxError("unexpected token", line=3, col=7),
             E.FortranSyntaxError("missing END", line=9)]
    b = E.DiagnosticBundle(diags, partial=None)
    b.batch_stage = "parse"
    return b


def _syntax():
    e = E.FortranSyntaxError("bad literal", line=12, col=4)
    e.batch_stage = "parse"
    return e


_ERROR_CASES = [
    E.GlafError("plain"),
    E.ValidationError("scope"),
    E.BuilderError("builder"),
    E.AnalysisError("analysis"),
    E.CodegenError("codegen"),
    _syntax(),
    _bundle(),
    E.FortranRuntimeError("bounds"),
    E.IntegrationError("integration"),
    E.InterfaceMismatchError("iface"),
    E.ExecutionError("exec"),
    E.ResourceLimitError("budget"),
    E.NumericIntegrityError("nan", kind="nan", function="F",
                            step_index=2, grid="g", cell=(1, 2)),
    E.PerfModelError("perf"),
    E.WorkloadError("workload"),
    E.BenchArtifactError("bench"),
    E.RunLedgerError("ledger"),
    E.BatchError("batch"),
    E.WorkerCrashError("died", item="x", kind="hang", exit_code=-9),
]


class TestErrorPickleFidelity:
    @staticmethod
    def _comparable(value):
        # Exceptions compare by identity, so nested diagnostics need a
        # structural projection before dict equality.
        if isinstance(value, BaseException):
            return (type(value).__name__, str(value),
                    TestErrorPickleFidelity._comparable(value.__dict__))
        if isinstance(value, dict):
            return {k: TestErrorPickleFidelity._comparable(v)
                    for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [TestErrorPickleFidelity._comparable(v) for v in value]
        return value

    @pytest.mark.parametrize(
        "exc", _ERROR_CASES, ids=[type(e).__name__ for e in _ERROR_CASES])
    def test_round_trip_preserves_message_and_state(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        assert self._comparable(clone.__dict__) == \
            self._comparable(exc.__dict__)

    def test_bundle_diagnostics_survive(self):
        # The historical failure mode: default BaseException pickling
        # replayed __init__ with the summary *string*, exploding it into
        # one single-character diagnostic per letter.
        clone = pickle.loads(pickle.dumps(_bundle()))
        assert len(clone.diagnostics) == 2
        assert all(isinstance(d, E.FortranSyntaxError)
                   for d in clone.diagnostics)
        assert clone.diagnostics[0].line == 3
        assert clone.batch_stage == "parse"

    def test_syntax_error_location_not_doubled(self):
        clone = pickle.loads(pickle.dumps(_syntax()))
        assert str(clone).count("line 12") == 1
        assert clone.message == "bad literal"
