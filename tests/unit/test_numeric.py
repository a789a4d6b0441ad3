"""Unit tests for repro.numeric: sentinels, tolerance policies, atomic
writes, content digests, checkpoints, retry, and crash-resume."""

import json
import math

import numpy as np
import pytest

from repro.errors import (
    BenchArtifactError,
    ExecutionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from repro.numeric import (
    CHECKPOINT_SCHEMA,
    POLICIES,
    AbsolutePolicy,
    CheckpointStore,
    RelativePolicy,
    RetryPolicy,
    RmsPolicy,
    SentinelConfig,
    UlpPolicy,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    check_value,
    content_digest,
    get_policy,
    max_abs_error,
    retry_call,
    sentinel_config,
    sentinels,
    set_sentinel_config,
    snapshot_max_abs_error,
    ulp_distance,
)

NAN = float("nan")
INF = float("inf")


# ----------------------------------------------------------------------
# sentinels
# ----------------------------------------------------------------------
class TestSentinelConfig:
    def test_classify_each_kind(self):
        cfg = SentinelConfig(denormal=True)
        assert cfg.classify(NAN) == "nan"
        assert cfg.classify(-INF) == "inf"
        assert cfg.classify(1e301) == "overflow"
        assert cfg.classify(1e-320) == "denormal"
        assert cfg.classify(1.5) is None
        assert cfg.classify(0.0) is None

    def test_denormal_off_by_default(self):
        assert SentinelConfig().classify(1e-320) is None

    def test_kinds_disable_individually(self):
        assert SentinelConfig(nan=False).classify(NAN) is None
        assert SentinelConfig(inf=False).classify(INF) is None
        assert SentinelConfig(overflow_threshold=None).classify(1e305) is None

    def test_overflow_threshold_is_exclusive(self):
        cfg = SentinelConfig(overflow_threshold=100.0)
        assert cfg.classify(100.0) is None
        assert cfg.classify(-100.1) == "overflow"


class TestCheckValue:
    def test_noop_without_active_config(self):
        assert sentinel_config() is None
        check_value(NAN)                     # no raise: sentinels are off

    def test_scalar_trip_carries_location(self):
        with pytest.raises(NumericIntegrityError) as ei:
            check_value(NAN, function="f", step_index=2, step_name="s2",
                        grid="g", cell=(4,), config=SentinelConfig())
        e = ei.value
        assert e.kind == "nan" and e.function == "f"
        assert e.step_index == 2 and e.grid == "g" and e.cell == (4,)
        assert "step 2 (s2)" in str(e) and "cell (4,)" in str(e)

    def test_array_trip_reports_one_based_cell(self):
        arr = np.zeros((2, 3))
        arr[1, 2] = INF
        with pytest.raises(NumericIntegrityError) as ei:
            check_value(arr, grid="g", config=SentinelConfig())
        assert ei.value.kind == "inf"
        assert ei.value.cell == (2, 3)       # FORTRAN-style 1-based

    def test_priority_nan_before_inf(self):
        arr = np.array([INF, NAN])
        with pytest.raises(NumericIntegrityError) as ei:
            check_value(arr, config=SentinelConfig())
        assert ei.value.kind == "nan"

    def test_non_floating_values_pass(self):
        check_value(np.array([1, 2, 3]), config=SentinelConfig())
        check_value("text", config=SentinelConfig())

    def test_clean_array_passes(self):
        check_value(np.linspace(0.0, 1.0, 7), config=SentinelConfig())

    def test_overflow_kind(self):
        with pytest.raises(NumericIntegrityError) as ei:
            check_value(1e305, config=SentinelConfig())
        assert ei.value.kind == "overflow"


class TestSentinelsContext:
    def test_install_and_restore(self):
        assert sentinel_config() is None
        with sentinels() as cfg:
            assert sentinel_config() is cfg
            with pytest.raises(NumericIntegrityError):
                check_value(NAN)
        assert sentinel_config() is None

    def test_nesting_inner_wins(self):
        outer = SentinelConfig(nan=False)
        inner = SentinelConfig()
        with sentinels(outer):
            check_value(NAN)                 # outer config ignores NaN
            with sentinels(inner):
                with pytest.raises(NumericIntegrityError):
                    check_value(NAN)
            assert sentinel_config() is outer

    def test_set_returns_previous(self):
        cfg = SentinelConfig()
        assert set_sentinel_config(cfg) is None
        assert set_sentinel_config(None) is cfg

    def test_trip_records_decision_and_metric(self):
        from repro.observe import observed

        with observed() as obs, sentinels():
            with pytest.raises(NumericIntegrityError):
                check_value(NAN, function="f", step_index=1, grid="g")
        events = obs.decisions.for_stage("numeric:nan")
        assert len(events) == 1
        assert events[0].verdict == "detected"
        counters = obs.metrics.snapshot()["counters"]
        assert counters["numeric.sentinel.nan"] == 1


class TestInterpreterSentinels:
    """The hooks inside both interpreters actually fire."""

    @staticmethod
    def _program():
        from repro import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref

        b = GlafBuilder("sent")
        m = b.module("Module1")
        f = m.function("scale", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("a", T_REAL8, dims=("n",), intent="inout")
        s = f.step()
        s.foreach(i=(1, "n"))
        s.formula(ref("a", I("i")), ref("a", I("i")) * 2.0)
        return b.build()

    def test_glafexec_assignment_trips(self):
        from repro.glafexec import get_executor

        a = np.ones(5)
        a[3] = NAN
        with sentinels():
            with pytest.raises(NumericIntegrityError) as ei:
                get_executor("interpreter").run(self._program(), "scale",
                                                [5, a])
        e = ei.value
        assert e.kind == "nan" and e.function == "scale"
        assert e.grid == "a" and e.cell == (4,)   # 1-based

    def test_glafexec_clean_run_unaffected(self):
        from repro.glafexec import get_executor

        a = np.ones(5)
        with sentinels():
            get_executor("interpreter").run(self._program(), "scale", [5, a])
        assert np.all(a == 2.0)

    def test_fortranlib_assignment_trips(self):
        from repro.fortranlib import FortranRuntime

        src = (
            "SUBROUTINE copyvec(n, a, b)\n"
            "INTEGER :: n, i\n"
            "REAL(KIND=8) :: a(n), b(n)\n"
            "DO i = 1, n\n"
            "  b(i) = a(i)\n"
            "END DO\n"
            "END SUBROUTINE copyvec\n"
        )
        rt = FortranRuntime()
        rt.load(src)
        a = np.ones(4)
        a[2] = NAN
        b = np.zeros(4)
        with sentinels():
            with pytest.raises(NumericIntegrityError) as ei:
                rt.call("copyvec", [4, a, b])
        e = ei.value
        assert e.kind == "nan"
        assert e.function.startswith("copyvec")   # unit[:line]
        assert e.grid == "b" and e.cell == (3,)


# ----------------------------------------------------------------------
# tolerance policies
# ----------------------------------------------------------------------
class TestPolicyRegistry:
    def test_registry_names(self):
        assert set(POLICIES) == {"abs", "rel", "ulp", "rms"}
        for name, cls in POLICIES.items():
            assert cls.name == name

    def test_get_policy(self):
        p = get_policy("rel", 1e-6)
        assert isinstance(p, RelativePolicy) and p.tolerance == 1e-6

    def test_unknown_policy_raises(self):
        with pytest.raises(NumericIntegrityError, match="unknown tolerance"):
            get_policy("approx", 1.0)


class TestAbsolutePolicy:
    def test_boundary_exact_tolerance_passes(self):
        # 0.0 vs 1e-9 differs by exactly the tolerance (<= passes); one
        # representable float further fails.
        p = AbsolutePolicy(1e-9)
        assert p.compare([0.0], [1e-9])
        res = p.compare([0.0], [math.nextafter(1e-9, 1.0)])
        assert not res and res.max_error > 1e-9
        assert res.first_bad == (0,)

    def test_result_is_truthy_on_agreement(self):
        res = AbsolutePolicy(0.1).compare([1.0, 2.0], [1.05, 2.0])
        assert bool(res) and res.policy == "abs"
        assert res.max_error == pytest.approx(0.05)

    def test_signed_zeros_agree(self):
        assert AbsolutePolicy(0.0).compare([-0.0], [0.0])


class TestRelativePolicy:
    def test_scale_free(self):
        p = RelativePolicy(1e-6)
        assert p.compare([1e12], [1e12 * (1 + 5e-7)])
        assert not p.compare([1e12], [1e12 * (1 + 5e-6)])

    def test_both_zero_agree(self):
        assert RelativePolicy(0.0).compare([0.0, -0.0], [-0.0, 0.0])

    def test_zero_vs_nonzero_is_full_error(self):
        res = RelativePolicy(0.5).compare([0.0], [1.0])
        assert not res and res.max_error == pytest.approx(1.0)


class TestUlpPolicy:
    def test_adjacent_floats_are_one_ulp(self):
        x = 1.0
        y = math.nextafter(x, 2.0)
        assert ulp_distance([x], [y])[0] == 1.0
        assert UlpPolicy(1).compare([x], [y])
        assert not UlpPolicy(0).compare([x], [y])

    def test_signed_zeros_are_zero_ulps(self):
        assert ulp_distance([0.0], [-0.0])[0] == 0.0

    def test_sign_crossing_does_not_overflow(self):
        d = ulp_distance([-1.0], [1.0])[0]
        assert d > 2 ** 52 and math.isfinite(d) or d == 2 ** 63

    def test_identical_is_zero(self):
        assert UlpPolicy(0).compare([3.14, -2.5], [3.14, -2.5])


class TestRmsPolicy:
    def test_paper_gate_semantics(self):
        ref = np.linspace(1.0, 2.0, 50)
        assert RmsPolicy(1e-7).compare(ref, ref.copy())
        res = RmsPolicy(1e-7).compare(ref * (1 + 1e-3), ref)
        assert not res and "rms" in res.detail

    def test_inf_poisons_the_rms_even_when_matching(self):
        a = np.array([1.0, INF])
        res = RmsPolicy(1.0).compare(a, a.copy())
        assert not res and res.max_error == INF
        assert "undefined" in res.detail


class TestSpecialValueMatrix:
    """NaN/Inf semantics shared by every policy."""

    @pytest.mark.parametrize("policy", [
        AbsolutePolicy(1e30), RelativePolicy(0.9), UlpPolicy(2 ** 60),
        RmsPolicy(1e30),
    ])
    def test_nan_fails_even_against_nan(self, policy):
        res = policy.compare([1.0, NAN], [1.0, NAN])
        assert not res
        assert res.max_error == INF
        assert "NaN" in res.detail

    def test_matching_infinities_agree_elementwise(self):
        a = [1.0, INF, -INF]
        assert AbsolutePolicy(0.0).compare(a, list(a))

    @pytest.mark.parametrize("got,ref", [
        ([INF], [1.0]), ([1.0], [INF]), ([INF], [-INF]),
    ])
    def test_infinity_mismatch_fails(self, got, ref):
        res = AbsolutePolicy(1e300).compare(got, ref)
        assert not res and res.max_error == INF
        assert "infinity mismatch" in res.detail

    @pytest.mark.parametrize("policy", list(POLICIES.values()))
    def test_empty_arrays_raise(self, policy):
        with pytest.raises(NumericIntegrityError, match="empty"):
            policy(1.0).compare([], [])

    def test_shape_mismatch_raises(self):
        with pytest.raises(NumericIntegrityError, match="shapes"):
            AbsolutePolicy(1.0).compare([1.0, 2.0], [1.0])


class TestMaxAbsError:
    def test_plain_worst_error(self):
        assert max_abs_error([1.0, 2.0], [1.0, 2.5]) == pytest.approx(0.5)

    def test_special_mismatch_is_inf_not_nan(self):
        # The silent-pass bug this exists to fix: naive max(|a-b|) is NaN
        # here, and `nan > tol` is False.
        assert max_abs_error([NAN], [NAN]) == INF
        assert max_abs_error([INF], [1.0]) == INF

    def test_all_matching_infinities_is_zero(self):
        assert max_abs_error([INF, -INF], [INF, -INF]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(NumericIntegrityError):
            max_abs_error([], [])


class TestSnapshotMaxAbsError:
    def test_worst_across_grids(self):
        got = {"a": np.array([1.0]), "b": np.array([2.0])}
        ref = {"a": np.array([1.1]), "b": np.array([2.0])}
        assert snapshot_max_abs_error(got, ref) == pytest.approx(0.1)

    def test_missing_grid_is_infinite(self):
        assert snapshot_max_abs_error({}, {"a": np.ones(2)}) == INF

    def test_zero_size_grids_skipped(self):
        ref = {"empty": np.zeros(0), "a": np.ones(1)}
        got = {"a": np.ones(1)}
        assert snapshot_max_abs_error(got, ref) == 0.0

    def test_nan_in_snapshot_is_infinite(self):
        got = {"a": np.array([NAN])}
        ref = {"a": np.array([NAN])}
        assert snapshot_max_abs_error(got, ref) == INF


# ----------------------------------------------------------------------
# atomic writes + digests
# ----------------------------------------------------------------------
class TestIntegrityPrimitives:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            dict([("a", 2), ("b", 1)]))
        assert content_digest({"x": 1}) != content_digest({"x": 2})

    def test_atomic_write_text_replaces(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("old")
        atomic_write_text(p, "new")
        assert p.read_text() == "new"
        assert not list(tmp_path.glob(".*.tmp.*"))

    def test_atomic_write_json_roundtrip(self, tmp_path):
        doc = {"k": [1, 2, {"n": None}]}
        path = atomic_write_json(tmp_path / "d.json", doc)
        assert json.loads(path.read_text()) == doc


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("T1-rep0", {"wall": 1.5})
        assert store.load("T1-rep0") == {"wall": 1.5}
        assert store.keys() == ["T1-rep0"]

    def test_absent_key_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope") is None

    def test_unsafe_key_rejected(self, tmp_path):
        with pytest.raises(BenchArtifactError, match="filename-safe"):
            CheckpointStore(tmp_path).save("../evil", {})

    def test_truncated_checkpoint_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"v": 1})
        store.path_for("k").write_text('{"schema": "repro.checkpoint/v1"')
        with pytest.raises(BenchArtifactError, match="corrupt/truncated"):
            store.load("k")

    def test_digest_tamper_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"v": 1})
        doc = json.loads(store.path_for("k").read_text())
        doc["payload"]["v"] = 999
        store.path_for("k").write_text(json.dumps(doc))
        with pytest.raises(BenchArtifactError, match="digest mismatch"):
            store.load("k")

    def test_discard_corrupt_deletes_and_counts(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"v": 1})
        store.path_for("k").write_text("garbage")
        assert store.load("k", discard_corrupt=True) is None
        assert store.corrupt_discarded == 1
        assert not store.path_for("k").exists()

    def test_schema_constant_matches(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {})
        assert json.loads(
            store.path_for("k").read_text())["schema"] == CHECKPOINT_SCHEMA

    def test_clear_empties_the_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save("a", {})
        store.save("b", {})
        store.clear()
        assert store.keys() == []
        assert not (tmp_path / "ck").exists()


# ----------------------------------------------------------------------
# retry
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        p = RetryPolicy(retries=3, seed=7)
        assert p.delays() == p.delays()
        assert p.delays() != RetryPolicy(retries=3, seed=8).delays()

    def test_exponential_envelope(self):
        p = RetryPolicy(retries=3, base_delay=1.0, multiplier=2.0,
                        jitter=0.25, seed=0)
        for k, d in enumerate(p.delays()):
            assert 0.75 * 2 ** k <= d <= 1.25 * 2 ** k

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRetryCall:
    def _flaky(self, fail_times, exc=ExecutionError):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= fail_times:
                raise exc("transient")
            return "ok"

        return fn, calls

    def test_succeeds_after_transient_failures(self):
        fn, calls = self._flaky(2)
        slept = []
        assert retry_call(fn, policy=RetryPolicy(retries=2),
                          sleep=slept.append) == "ok"
        assert len(calls) == 3 and len(slept) == 2

    def test_gives_up_after_budgeted_retries(self):
        fn, calls = self._flaky(10)
        with pytest.raises(ExecutionError):
            retry_call(fn, policy=RetryPolicy(retries=2),
                       sleep=lambda s: None)
        assert len(calls) == 3

    @pytest.mark.parametrize("exc", [ResourceLimitError,
                                     NumericIntegrityError])
    def test_never_retries_deterministic_failures(self, exc):
        fn, calls = self._flaky(10, exc=exc)
        with pytest.raises(exc):
            retry_call(fn, policy=RetryPolicy(retries=5),
                       sleep=lambda s: None)
        assert len(calls) == 1

    def test_non_retryable_exception_propagates(self):
        def fn():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            retry_call(fn, policy=RetryPolicy(retries=3),
                       sleep=lambda s: None)

    def test_wall_clock_budget_stops_backoff(self):
        from repro.robust import ResourceLimits

        fn, calls = self._flaky(10)
        now = [0.0]
        with pytest.raises(ExecutionError):
            retry_call(fn, policy=RetryPolicy(retries=5, base_delay=10.0),
                       limits=ResourceLimits(max_wall_seconds=5.0),
                       sleep=lambda s: None, clock=lambda: now[0])
        assert len(calls) == 1        # first backoff would blow the budget

    def test_retry_decisions_recorded(self):
        from repro.observe import observed

        fn, _ = self._flaky(1)
        with observed() as obs:
            retry_call(fn, policy=RetryPolicy(retries=1),
                       sleep=lambda s: None, what="bench:T1-rep0")
        events = obs.decisions.for_stage("retry")
        assert len(events) == 1 and events[0].verdict == "retried"


# ----------------------------------------------------------------------
# crash + resume through the bench recorder
# ----------------------------------------------------------------------
class TestResumeAfterCrash:
    @staticmethod
    def _clock():
        # Integer steps are binary-exact, so elapsed differences are
        # identical no matter where the clock starts — which is what lets
        # the resumed run reproduce the fresh run digest-for-digest.
        state = [0.0]

        def clock():
            state[0] += 1.0
            return state[0]

        return clock

    @staticmethod
    def _crashing_registry(crash_on_call):
        from repro.bench import Experiment, ExperimentResult

        calls = []

        def run():
            calls.append(1)
            if len(calls) == crash_on_call:
                raise ExecutionError("simulated mid-sweep crash")
            return ExperimentResult("SYN", "synthetic", ["k"], [["v"]])

        return {"SYN": Experiment("SYN", "synthetic", "-", run)}, calls

    def test_resume_skips_completed_and_matches_fresh(self, tmp_path):
        from repro.bench import record_benchmark

        registry, _ = self._crashing_registry(crash_on_call=3)
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(ExecutionError, match="mid-sweep"):
            record_benchmark(ids=["SYN"], repeats=4, clock=self._clock(),
                             experiments=registry, checkpoints=store)
        assert store.keys() == ["SYN-rep0", "SYN-rep1"]

        registry2, calls2 = self._crashing_registry(crash_on_call=0)
        resumed = record_benchmark(ids=["SYN"], repeats=4,
                                   clock=self._clock(),
                                   experiments=registry2, checkpoints=store)
        assert resumed["meta"]["resumed"] == 2
        assert len(calls2) == 2              # only the missing repeats ran

        registry3, _ = self._crashing_registry(crash_on_call=0)
        fresh = record_benchmark(ids=["SYN"], repeats=4, clock=self._clock(),
                                 experiments=registry3)
        assert fresh["meta"]["resumed"] == 0
        assert content_digest(resumed["experiments"]) == \
            content_digest(fresh["experiments"])

    def test_corrupt_checkpoint_is_rerun(self, tmp_path):
        from repro.bench import record_benchmark

        registry, calls = self._crashing_registry(crash_on_call=0)
        store = CheckpointStore(tmp_path / "ck")
        record_benchmark(ids=["SYN"], repeats=2, clock=self._clock(),
                         experiments=registry, checkpoints=store)
        store.path_for("SYN-rep1").write_text("garbage")

        registry2, calls2 = self._crashing_registry(crash_on_call=0)
        doc = record_benchmark(ids=["SYN"], repeats=2, clock=self._clock(),
                               experiments=registry2, checkpoints=store)
        assert store.corrupt_discarded == 1
        assert doc["meta"]["resumed"] == 1   # rep0 restored, rep1 re-run
        assert len(calls2) == 1
