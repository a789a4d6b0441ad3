"""Unit tests for the fault-tolerance machinery (`repro.robust` +
`repro.glafexec.guard`): fault plans, the divergence guard with serial
fallback, watchdogs, parser error recovery, and the faultcheck sweep."""

import os

import numpy as np
import pytest

from repro import observe
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.errors import (
    CodegenError,
    DiagnosticBundle,
    ExecutionError,
    FortranSyntaxError,
    ResourceLimitError,
    ValidationError,
    WorkloadError,
)
from repro.fortranlib.lexer import Token
from repro.fortranlib.parser import parse_source
from repro.glafexec import (
    ExecutionContext,
    GuardedExecutor,
    executor_mode,
    get_executor,
    guarded_python_run,
)
from repro.glafexec.guard import GUARD_TOLERANCE, GUARD_VARIANT
from repro.optimize import make_plan
from repro.robust import (
    SITES,
    Budget,
    FaultPlan,
    FaultSpec,
    ResourceLimits,
    get_fault_plan,
    inject,
    wall_clock_guard,
)
from repro.runconfig import run_config


def _program():
    """Two steps: an independent (parallel) map and a carried (serial) scan."""
    b = GlafBuilder("tiny")
    b.global_grid("v", T_REAL8, dims=("n",), module_scope=True)
    m = b.module("M")
    f = m.function("work", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    s = f.step("fill")
    s.foreach(i=(1, "n"))
    s.formula(ref("v", I("i")), I("i") * 2.0)
    s = f.step("scan")
    s.foreach(i=(2, "n"))
    s.formula(ref("v", I("i")), ref("v", I("i") - 1) + ref("v", I("i")))
    return b.build()


N = 64


def _reference():
    program = _program()
    run = get_executor("interpreter").run(program, "work", [N],
                                          sizes={"n": N})
    return run.context.get("v").copy()


# ----------------------------------------------------------------------
# FaultPlan / FaultSpec / inject()
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValidationError, match="unknown injection site"):
            FaultSpec("no.such.site", "raise")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="does not support"):
            FaultSpec("exec.interp.step", "perturb")

    def test_parse_two_and_three_parts(self):
        spec = FaultSpec.parse("exec.interp.step:raise")
        assert (spec.site, spec.kind, spec.match) == \
            ("exec.interp.step", "raise", {})
        spec = FaultSpec.parse(
            "analysis.parallelize.verdict:misparallelize:adjust2")
        assert spec.match == {"function": "adjust2"}

    def test_parse_bad_spec_rejected(self):
        for bad in ("nocolons", "a:b:c:d", "exec.interp.step:", ":raise"):
            with pytest.raises(ValidationError, match="bad fault spec|unknown"):
                FaultSpec.parse(bad)

    def test_registry_is_complete(self):
        assert set(SITES) == {
            "fortran.lex.tokens", "analysis.parallelize.verdict",
            "codegen.python.assign", "codegen.fortran.omp",
            "codegen.fortran.body", "exec.interp.step", "exec.interp.iter",
            "numeric.sentinel",
        }
        for site in SITES.values():
            assert site.kinds and site.description and site.module


class TestFaultPlan:
    def test_inject_is_noop_without_plan(self):
        assert get_fault_plan() is None
        assert inject("exec.interp.step", function="f") is None

    def test_unregistered_site_caught_under_active_plan(self):
        with run_config(faults=FaultPlan()):
            with pytest.raises(ValidationError, match="unregistered site"):
                inject("typo.site")

    def test_plans_nest_and_uninstall(self):
        outer, inner = FaultPlan(), FaultPlan()
        with run_config(faults=outer):
            assert get_fault_plan() is outer
            with run_config(faults=inner):
                assert get_fault_plan() is inner
            assert get_fault_plan() is outer
        assert get_fault_plan() is None

    def test_raise_kind_fires_once_by_default(self):
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise")])
        with pytest.raises(ExecutionError, match="injected fault"):
            plan.visit("exec.interp.step", None, {"function": "f"})
        assert len(plan.fired) == 1
        # one-shot: the second visit passes through untouched
        assert plan.visit("exec.interp.step", None, {"function": "f"}) is None
        assert len(plan.fired) == 1

    def test_at_defers_firing(self):
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise", at=2)])
        assert plan.visit("exec.interp.step", None, {}) is None
        assert plan.visit("exec.interp.step", None, {}) is None
        with pytest.raises(ExecutionError):
            plan.visit("exec.interp.step", None, {})

    def test_match_filters_on_metadata(self):
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise",
                                    match={"function": "adjust2"})])
        assert plan.visit("exec.interp.step", None, {"function": "other"}) is None
        with pytest.raises(ExecutionError):
            plan.visit("exec.interp.step", None, {"function": "adjust2"})

    def test_declined_transform_stays_armed(self):
        # A token stream with nothing corruptible declines the fault...
        plan = FaultPlan([FaultSpec("fortran.lex.tokens", "corrupt-token")])
        empty = [Token(kind="eof", text="", line=1, col=1)]
        assert plan.visit("fortran.lex.tokens", empty, {}) is None
        assert not plan.fired
        # ...so it still fires on the next, corruptible stream.
        tokens = [Token(kind="name", text="x", line=1, col=1),
                  Token(kind="eof", text="", line=1, col=2)]
        out = plan.visit("fortran.lex.tokens", tokens, {})
        assert out is not None and out[0].text == "?"
        assert len(plan.fired) == 1

    def test_corruption_is_seed_deterministic(self):
        tokens = [Token(kind="name", text=t, line=1, col=i)
                  for i, t in enumerate("abcdefgh")]

        def corrupt(seed):
            plan = FaultPlan([FaultSpec("fortran.lex.tokens", "corrupt-token")],
                             seed=seed)
            out = plan.visit("fortran.lex.tokens", list(tokens), {})
            return [i for i, t in enumerate(out) if t.text == "?"]

        assert corrupt(7) == corrupt(7)

    def test_fired_fault_lands_in_decision_log(self):
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise")])
        with observe.observed() as obs, run_config(faults=plan):
            with pytest.raises(ExecutionError):
                inject("exec.interp.step", function="f", step=3)
        entries = obs.decisions.for_stage("fault")
        assert len(entries) == 1
        assert entries[0].verdict == "injected"
        assert entries[0].function == "f"


def _guarded(program, **kw):
    return get_executor("guarded", **kw).run(program, "work", [N],
                                             sizes={"n": N})


# ----------------------------------------------------------------------
# the divergence guard (the ``guarded`` executor)
# ----------------------------------------------------------------------
class TestGuardedRunner:
    def test_clean_run_is_bit_identical_and_quiet(self):
        run = _guarded(_program())
        assert run.executor == "guarded"
        assert not run.events and not run.demoted
        assert np.array_equal(run.context.get("v"), _reference())

    def test_misparallelized_step_is_demoted_and_result_correct(self):
        plan = FaultPlan([FaultSpec("analysis.parallelize.verdict",
                                    "misparallelize",
                                    match={"function": "work"})])
        with run_config(faults=plan):
            run = _guarded(_program())
        assert plan.fired, "fault must actually fire"
        assert run.events
        assert ("work", 1) in run.demoted           # the carried 'scan' step
        assert "divergence" in run.events[0].reason
        assert run.events[0].max_abs_error > GUARD_TOLERANCE
        assert np.array_equal(run.context.get("v"), _reference())

    def test_probe_execution_error_demotes_and_recovers(self):
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise",
                                    match={"parallel": True})])
        with run_config(faults=plan):
            run = _guarded(_program())
        assert run.events and ("work", 0) in run.demoted
        assert "ExecutionError" in run.events[0].reason
        assert np.array_equal(run.context.get("v"), _reference())

    def test_demotion_recorded_in_decision_log_and_metrics(self):
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise",
                                    match={"parallel": True})])
        with observe.observed() as obs, run_config(faults=plan):
            _guarded(_program())
        guard = obs.decisions.for_stage("guard")
        assert len(guard) == 1 and guard[0].verdict == "serial-fallback"
        assert obs.metrics.snapshot()["counters"]["guard.serial_fallbacks"] == 1

    def test_demoted_plan_forces_serial(self):
        program = _program()
        plan = FaultPlan([FaultSpec("exec.interp.step", "raise",
                                    match={"parallel": True})])
        with run_config(faults=plan):
            run = _guarded(program)
        assert run.demoted
        guarded_plan = make_plan(program, GUARD_VARIANT)
        demoted = guarded_plan.with_force_serial(run.demoted)
        for key in run.demoted:
            assert guarded_plan.step_is_parallel(*key)
            assert not demoted.step_is_parallel(*key)

    def test_resource_limit_error_is_never_recovered(self):
        with pytest.raises(ResourceLimitError, match="iteration budget"):
            _guarded(_program(),
                     limits=ResourceLimits(max_loop_iterations=10))

    def test_guard_mode_context_manager(self):
        # The run configuration is the one way to ask for a guarded run.
        before = executor_mode()
        with run_config(executor="guarded"):
            assert isinstance(get_executor(), GuardedExecutor)
            with run_config(executor="interpreter"):
                assert not isinstance(get_executor(), GuardedExecutor)
            assert executor_mode() == "guarded"
        assert executor_mode() == before


# ----------------------------------------------------------------------
# guarded generated-Python execution
# ----------------------------------------------------------------------
class TestGuardedPythonRun:
    def test_healthy_module_is_trusted(self):
        res = guarded_python_run(_program(), "work", [N], sizes={"n": N},
                                 compare=["v"])
        assert not res.fell_back
        assert np.array_equal(res.context.get("v"), _reference())

    def test_perturbed_module_falls_back_to_interpreter(self):
        plan = FaultPlan([FaultSpec("codegen.python.assign", "perturb")])
        with run_config(faults=plan):
            res = guarded_python_run(_program(), "work", [N], sizes={"n": N},
                                     compare=["v"])
        assert plan.fired
        assert res.fell_back and "divergence" in res.reason
        assert np.array_equal(res.context.get("v"), _reference())

    def test_fallback_recorded_in_decision_log(self):
        plan = FaultPlan([FaultSpec("codegen.python.assign", "perturb")])
        with observe.observed() as obs, run_config(faults=plan):
            guarded_python_run(_program(), "work", [N], sizes={"n": N},
                               compare=["v"])
        guard = obs.decisions.for_stage("guard")
        assert guard and guard[0].verdict == "serial-fallback"
        assert obs.metrics.snapshot()["counters"]["guard.serial_fallbacks"] == 1

    def test_uncompilable_module_surfaces_as_codegen_error(self, monkeypatch):
        from repro.glafexec import runner as runner_mod

        monkeypatch.setattr(runner_mod, "generate_python_source",
                            lambda plan: "def broken(:\n")
        program = _program()
        ctx = ExecutionContext(program, sizes={"n": N})
        with pytest.raises(CodegenError, match="does not compile") as ei:
            runner_mod.GeneratedModule(make_plan(program, "GLAF serial"), ctx)
        # names the module and quotes the offending line
        assert "<glaf:tiny>" in str(ei.value)
        assert "def broken(:" in str(ei.value)

    def test_uncompilable_module_falls_back_in_guarded_run(self, monkeypatch):
        from repro.glafexec import runner as runner_mod

        monkeypatch.setattr(runner_mod, "generate_python_source",
                            lambda plan: "import json(\n")
        res = guarded_python_run(_program(), "work", [N], sizes={"n": N},
                                 compare=["v"])
        assert res.fell_back and "CodegenError" in res.reason
        assert np.array_equal(res.context.get("v"), _reference())


# ----------------------------------------------------------------------
# watchdogs
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceLimits(max_loop_iterations=0)
        with pytest.raises(ValueError):
            ResourceLimits(max_wall_seconds=-1.0)

    def test_budget_tick_raises_past_cap(self):
        budget = Budget(ResourceLimits(max_loop_iterations=3), what="t")
        budget.start()
        budget.tick(3)
        with pytest.raises(ResourceLimitError, match=r"t: .*\(4 > 3\)"):
            budget.tick()

    def test_interpreter_iteration_budget(self):
        with pytest.raises(ResourceLimitError, match="iteration budget"):
            get_executor(
                "interpreter",
                limits=ResourceLimits(max_loop_iterations=N // 2),
            ).run(_program(), "work", [N], sizes={"n": N})

    def test_interpreter_budget_allows_run_within_cap(self):
        run = get_executor(
            "interpreter", limits=ResourceLimits(max_loop_iterations=10 * N),
        ).run(_program(), "work", [N], sizes={"n": N})
        assert np.array_equal(run.context.get("v"), _reference())

    def test_interpreter_wall_clock_with_injected_stall(self):
        plan = FaultPlan([FaultSpec("exec.interp.iter", "delay",
                                    param=0.2, max_fires=10)])
        with run_config(faults=plan):
            with pytest.raises(ResourceLimitError, match="wall-clock"):
                get_executor(
                    "interpreter",
                    limits=ResourceLimits(max_wall_seconds=0.02),
                ).run(_program(), "work", [N], sizes={"n": N})

    def test_wall_clock_guard_noop_without_limits(self):
        with wall_clock_guard(None, what="x"):
            pass
        with wall_clock_guard(ResourceLimits(max_loop_iterations=5), what="x"):
            pass

    def test_wall_clock_guard_only_traces_generated_frames(self):
        import time

        with wall_clock_guard(ResourceLimits(max_wall_seconds=0.01),
                              what="generated"):
            time.sleep(0.05)   # plain frames: never traced, never killed


class TestMemoryLimit:
    """The RLIMIT_AS budget batch workers arm at startup."""

    def test_memory_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceLimits(max_memory_mb=0)
        assert ResourceLimits(max_memory_mb=256).max_memory_mb == 256
        assert ResourceLimits().max_memory_mb is None

    def test_apply_memory_limit_in_subprocess(self):
        # Never lower RLIMIT_AS in the test process itself — a child
        # proves the limit arms and that breaching it is a MemoryError,
        # not a hard kill (the batch worker turns it into a typed
        # ResourceLimitError).
        import subprocess
        import sys

        code = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.robust import apply_memory_limit\n"
            "assert apply_memory_limit(128)\n"
            "try:\n"
            "    hoard = [bytearray(16 * 1024 * 1024) for _ in range(64)]\n"
            "except MemoryError:\n"
            "    print('tripped')\n"
        ) % os.path.abspath(os.path.join(
            os.path.dirname(__file__), "..", "..", "src"))
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "tripped"


# ----------------------------------------------------------------------
# parser error recovery
# ----------------------------------------------------------------------
_BROKEN = """\
subroutine good_one(x)
  real(kind=8), intent(inout) :: x
  x = x + 1.0
end subroutine good_one

subroutine bad_stmt(y)
  real(kind=8), intent(inout) :: y
  y = * 2.0
  y = y + 3.0
end subroutine bad_stmt

subroutine also_good(z)
  real(kind=8), intent(inout) :: z
  z = z * 4.0
end subroutine also_good
"""


class TestParserRecovery:
    def test_strict_mode_raises_at_first_error(self):
        with pytest.raises(FortranSyntaxError) as ei:
            parse_source(_BROKEN)
        assert not isinstance(ei.value, DiagnosticBundle)

    def test_recover_mode_collects_and_salvages(self):
        with pytest.raises(DiagnosticBundle) as ei:
            parse_source(_BROKEN, recover=True)
        bundle = ei.value
        assert len(bundle.diagnostics) >= 1
        assert all(isinstance(d, FortranSyntaxError)
                   for d in bundle.diagnostics)
        names = {sp.name for sp in bundle.partial.subprograms}
        assert {"good_one", "also_good"} <= names

    def test_recover_mode_reports_multiple_errors(self):
        two_bad = _BROKEN.replace("z = z * 4.0", "z = ) 4.0")
        with pytest.raises(DiagnosticBundle) as ei:
            parse_source(two_bad, recover=True)
        assert len(ei.value.diagnostics) >= 2

    def test_clean_source_unaffected_by_recover_flag(self):
        clean = _BROKEN.replace("y = * 2.0", "y = y * 2.0")
        strict = parse_source(clean)
        recovered = parse_source(clean, recover=True)
        assert ({sp.name for sp in strict.subprograms}
                == {sp.name for sp in recovered.subprograms})

    def test_bundle_carries_first_location(self):
        with pytest.raises(DiagnosticBundle) as ei:
            parse_source(_BROKEN, recover=True)
        first = ei.value.diagnostics[0]
        assert ei.value.line == first.line

    def test_legacy_codebase_add_file_recover(self):
        from repro.integration import LegacyCodebase

        legacy = LegacyCodebase("damaged")
        legacy.add_file("broken.f90", _BROKEN, recover=True)
        assert "broken.f90" in legacy.diagnostics
        assert legacy.diagnostics["broken.f90"]

    def test_legacy_codebase_strict_by_default(self):
        from repro.integration import LegacyCodebase

        with pytest.raises(FortranSyntaxError):
            LegacyCodebase("damaged").add_file("broken.f90", _BROKEN)


# ----------------------------------------------------------------------
# the faultcheck sweep
# ----------------------------------------------------------------------
class TestFaultCheck:
    def test_sweep_covers_every_site_and_passes(self):
        from repro.robust.faultcheck import run_faultcheck

        report = run_faultcheck(seed=0)
        assert {r.site for r in report.results} == set(SITES)
        assert report.ok, report.render()
        outcomes = {r.site: r.outcome for r in report.results}
        assert outcomes["analysis.parallelize.verdict"] == "recovered"
        assert outcomes["exec.interp.iter"] == "surfaced"
        assert outcomes["numeric.sentinel"] == "recovered"

    def test_report_json_schema(self):
        from repro.robust.faultcheck import FaultCheckReport, SiteResult

        report = FaultCheckReport(seed=3, results=[
            SiteResult("exec.interp.step", "raise", "surfaced", "d", 1, 0)])
        doc = report.to_json()
        assert doc["schema"] == "repro.robust.faultcheck/v1"
        assert doc["ok"] and doc["seed"] == 3
        assert doc["sites"][0]["site"] == "exec.interp.step"

    def test_unknown_scenario_is_a_workload_error(self):
        from repro.robust.scenarios import scenario_for

        with pytest.raises(WorkloadError, match="no robustness scenario"):
            scenario_for("nope")
