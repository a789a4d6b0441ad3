"""Cross-executor equivalence: every path must produce the same answer.

The contract of ``docs/EXECUTORS.md`` is that the executor choice is a
pure speed/assurance knob — never a semantics knob.  This suite pins that
down three ways:

* both case studies (SARB, FUN3D) under ``interpreter`` / ``vectorized`` /
  ``guarded`` agree with the legacy reference implementations;
* every example project's ``main()`` still passes its own internal
  assertions with the vectorized executor serving all interpreter runs;
* synthetic kernels exercising each *unliftable* construct fall back to
  the interpreter with the demotion logged — and still produce the
  interpreter's exact answer — while liftable shapes (strides, masks,
  MIN/MAX and multi-accumulator reductions) match bitwise or within the
  documented tolerance.

Sentinel trips must also be executor-independent: a NaN produced under a
lifted step raises the same :class:`NumericIntegrityError` the scalar
interpreter raises.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import observe
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.errors import NumericIntegrityError
from repro.fun3d import make_mesh
from repro.fun3d import validation as f3v
from repro.glafexec import get_executor
from repro.runconfig import run_config
from repro.sarb import make_inputs
from repro.sarb import validation as sv
from repro.sarb.validation import SARB_COMPARE_TOLERANCE, compare_outputs

EXECUTORS = ["interpreter", "vectorized", "guarded"]
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


# ----------------------------------------------------------------------
# case studies
# ----------------------------------------------------------------------
class TestSarbEquivalence:
    @pytest.fixture(scope="class")
    def inputs(self):
        return make_inputs()

    @pytest.fixture(scope="class")
    def reference(self, inputs):
        return sv.run_reference(inputs)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_matches_reference(self, inputs, reference, executor):
        got = sv.run_ir_interpreter(inputs, executor=executor)
        cmp = compare_outputs(got, reference)
        assert cmp.ok, cmp.detail

    def test_vectorized_matches_interpreter_and_logs_fallback(self, inputs):
        ref = sv.run_ir_interpreter(inputs, executor="interpreter")
        with observe.observed() as obs:
            got = sv.run_ir_interpreter(inputs, executor="vectorized")
        cmp = compare_outputs(got, ref, tolerance=SARB_COMPARE_TOLERANCE)
        assert cmp.ok, cmp.detail
        # The one loop-carried SARB step (adjust2 / smooth) must be
        # demoted — visibly, through the decision log.
        fb = obs.decisions.for_stage("executor:fallback")
        assert {(d.function, d.step_name) for d in fb} == {
            ("adjust2", "smooth")}
        assert all(d.verdict == "interpreter" for d in fb)

    def test_mode_selection_equals_explicit_executor(self, inputs):
        explicit = sv.run_ir_interpreter(inputs, executor="vectorized")
        with run_config(executor="vectorized"):
            via_mode = sv.run_ir_interpreter(inputs)
        for name in explicit:
            assert np.array_equal(explicit[name], via_mode[name])


class TestFun3dEquivalence:
    @pytest.fixture(scope="class")
    def mesh(self):
        return make_mesh(27)

    @pytest.fixture(scope="class")
    def reference(self, mesh):
        return f3v.run_reference(mesh)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_matches_reference(self, mesh, reference, executor):
        jac = f3v.run_ir_interpreter(mesh, executor=executor)
        assert f3v.rms_check(jac, reference)

    def test_vectorized_is_bitwise_equal(self, mesh):
        # Every lifted FUN3D step is pointwise, so the array programs
        # evaluate the same FP operations in the same order per element:
        # the results are bit-identical, not merely close.
        ref = f3v.run_ir_interpreter(mesh, executor="interpreter")
        vec = f3v.run_ir_interpreter(mesh, executor="vectorized")
        assert np.array_equal(ref, vec)


# ----------------------------------------------------------------------
# example projects
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [
    "quickstart",
    "codegen_tour",
    "sarb_integration",
    "fun3d_jacobian",
    "graph_kernel",
])
def test_example_passes_under_vectorized_executor(name, capsys):
    # The examples assert their own numerics internally; running them with
    # the vectorized executor serving every interpreter-mode run proves
    # the executor swap is invisible to them.
    spec = importlib.util.spec_from_file_location(
        name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with run_config(executor="vectorized"):
        mod.main()
    assert len(capsys.readouterr().out) > 200


# ----------------------------------------------------------------------
# synthetic kernels: liftable shapes and every fallback construct
# ----------------------------------------------------------------------
def _run_both(program, entry, make_args, sizes):
    """Run under interpreter and vectorized; return (ref, vec, run)."""
    args_ref = make_args()
    get_executor("interpreter").run(program, entry, args_ref, sizes=sizes)
    args_vec = make_args()
    run = get_executor("vectorized").run(program, entry, args_vec,
                                         sizes=sizes)
    return args_ref, args_vec, run


def _kernel(build_steps, extra_params=()):
    b = GlafBuilder("k")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("x", T_REAL8, dims=("n",), intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    for name, typ, dims, intent in extra_params:
        f.param(name, typ, dims=dims, intent=intent)
    build_steps(f)
    return b.build()


N = 31


def _x():
    rng = np.random.default_rng(7)
    return rng.standard_normal(N)


def _liftable_cases():
    def strided(f):
        s = f.step("odd")
        s.foreach(i=(1, "n", 2))
        s.formula(ref("y", I("i")), ref("x", I("i")) * 3.0)

    def masked(f):
        s = f.step("clip")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(0.0),
              [SB.assign(ref("y", I("i")), ref("x", I("i")))],
              [SB.assign(ref("y", I("i")), 0.0 - ref("x", I("i")))])

    def guard_cond(f):
        s = f.step("cond")
        s.foreach(i=(1, "n"))
        s.condition(ref("x", I("i")).gt(0.5))
        s.formula(ref("y", I("i")), ref("x", I("i")) + 1.0)

    def max_reduce(f):
        s = f.step("mx")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", 1), lib("MAX", ref("y", 1), ref("x", I("i"))))

    def masked_sum(f):
        # Both branches accumulate the same cell with the same op — the
        # SARB thick_thin/cloud_adjust shape, lifted as two masked sums.
        s = f.step("split")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(0.0),
              [SB.assign(ref("y", 1), ref("y", 1) + ref("x", I("i")))],
              [SB.assign(ref("y", 1), ref("y", 1) + 1.0)])

    return [
        pytest.param(strided, id="strided-loop"),
        pytest.param(masked, id="if-else-mask"),
        pytest.param(guard_cond, id="step-condition"),
        pytest.param(max_reduce, id="max-reduction"),
        pytest.param(masked_sum, id="masked-same-op-reduction"),
    ]


def _fallback_cases():
    def loop_carried(f):
        s = f.step("carry")
        s.foreach(i=(2, "n"))
        s.formula(ref("y", I("i")),
                  ref("y", I("i") - 1) + ref("x", I("i")))

    def early_exit(f):
        s = f.step("find")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(1.0), [SB.exit_stmt()])
        s.formula(ref("y", I("i")), ref("x", I("i")))

    def early_return(f):
        s = f.step("bail")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(1.0), [SB.ret()])
        s.formula(ref("y", I("i")), ref("x", I("i")))

    return [
        pytest.param(loop_carried, id="loop-carried"),
        pytest.param(early_exit, id="exit-loop"),
        pytest.param(early_return, id="early-return"),
    ]


class TestSyntheticKernels:
    @pytest.mark.parametrize("build", _liftable_cases())
    def test_liftable_bitwise_equal_no_fallback(self, build):
        p = _kernel(build)
        x = _x()
        (_, _, y_ref), (_, _, y_vec), run = [
            *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                       {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert run.fallbacks == ()
        assert run.executor == "vectorized"

    @pytest.mark.parametrize("build", _fallback_cases())
    def test_fallback_equal_and_logged(self, build):
        p = _kernel(build)
        x = _x()
        with observe.observed() as obs:
            (_, _, y_ref), (_, _, y_vec), run = [
                *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                           {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert len(run.fallbacks) == 1
        assert obs.decisions.for_stage("executor:fallback")
        assert obs.metrics.counter("exec.vectorized.fallbacks").value >= 1

    def test_indirect_write_falls_back_and_matches(self):
        # Scatter through an index grid — a lift refusal at compile time.
        b = GlafBuilder("k")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("idx", T_INT, dims=("n",), intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        s = f.step("scatter")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", ref("idx", I("i"))), ref("x", I("i")))
        p = b.build()

        rng = np.random.default_rng(3)
        idx = rng.permutation(N).astype(np.int64) + 1
        x = _x()
        (_, _, _, y_ref), (_, _, _, y_vec), run = [
            *_run_both(p, "f",
                       lambda: [N, idx.copy(), x.copy(), np.zeros(N)],
                       {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert len(run.fallbacks) == 1

    def test_function_call_in_loop_falls_back_and_matches(self):
        b = GlafBuilder("k")
        m = b.module("M")
        g = m.function("twice", return_type=T_REAL8)
        g.param("v", T_REAL8, intent="in")
        g.returns(ref("v") * 2.0)
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        from repro.core.expr import FuncCall
        s = f.step("apply")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", I("i")), FuncCall("twice", (ref("x", I("i")),)))
        p = b.build()

        x = _x()
        (_, _, y_ref), (_, _, y_vec), run = [
            *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                       {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert len(run.fallbacks) == 1
        assert "call" in run.fallbacks[0].reason.lower()


# ----------------------------------------------------------------------
# resource exhaustion mid-lift
# ----------------------------------------------------------------------
class TestResourceExhaustion:
    """A budget trip inside a lifted step must not corrupt state.

    ``ResourceLimitError`` is terminal for the run, but the arrays the
    caller handed in are authoritative storage: the tripping step's
    partial writes are rolled back, the step is sticky-demoted, and a
    guarded probe's writes never reach the caller's arrays at all.
    """

    def _two_step(self):
        def body(f):
            s = f.step("double")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
            s = f.step("shift")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("y", I("i")) + 1.0)
        return _kernel(body)

    def test_vectorized_trip_keeps_completed_steps_only(self):
        # Budget covers step 1 exactly; step 2's up-front charge trips.
        # y must hold step 1's result — no torn step-2 writes — and the
        # demotion must be visible in the decision log.
        from repro.errors import ResourceLimitError
        from repro.robust import ResourceLimits

        p = self._two_step()
        x = _x()
        y = np.zeros(N)
        ex = get_executor("vectorized",
                          limits=ResourceLimits(max_loop_iterations=N))
        with observe.observed() as obs:
            with pytest.raises(ResourceLimitError):
                ex.run(p, "f", [N, x, y], sizes={"n": N})
        assert np.array_equal(y, x * 2.0)
        fb = obs.decisions.for_stage("executor:fallback")
        assert [(d.step_name, d.reasons) for d in fb] == [
            ("shift", ("resource budget exhausted mid-lift",))]

    def test_guarded_probe_trip_leaves_callers_arrays_untouched(self):
        # The budget trips halfway through the shuffled probe of the first
        # step: the probe is rolled back before the error propagates, so
        # none of its writes may leak into the arrays the caller owns.
        from repro.errors import ResourceLimitError
        from repro.robust import ResourceLimits

        p = self._two_step()
        x = _x()
        y = np.zeros(N)
        ex = get_executor("guarded",
                          limits=ResourceLimits(max_loop_iterations=N // 2))
        with pytest.raises(ResourceLimitError):
            ex.run(p, "f", [N, x, y], sizes={"n": N})
        assert np.array_equal(y, np.zeros(N))

    def test_mid_write_trip_rolls_back_and_sticky_demotes(self, monkeypatch):
        # Simulate the wall-clock case: the budget trips after the lift
        # has already written part of the grid.  The grid is *live* on
        # step entry (read-modify-write), so its pre-step storage must be
        # restored, and a later call on the same interpreter (fresh
        # budget) must serve the step through the scalar interpreter.
        from repro.errors import ResourceLimitError
        from repro.glafexec.context import ExecutionContext
        from repro.glafexec.vectorize import VectorizedInterpreter

        def body(f):
            s = f.step("double")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")),
                      ref("y", I("i")) + ref("x", I("i")) * 2.0)
        p = _kernel(body)

        def torn(self, frame, idx, step, plan):
            self._storage(frame, "y")[...] = 123.0  # partial garbage
            raise ResourceLimitError("simulated mid-write budget trip")

        monkeypatch.setattr(VectorizedInterpreter, "_exec_lifted", torn)
        ctx = ExecutionContext(p, sizes={"n": N})
        vec = VectorizedInterpreter(p, ctx)
        x = _x()
        y = np.zeros(N)
        with pytest.raises(ResourceLimitError, match="mid-write"):
            vec.call("f", [N, x, y])
        assert np.array_equal(y, np.zeros(N))  # rolled back, not torn
        assert ("f", 0) in vec._demoted
        assert [e.reason for e in vec.fallbacks] == [
            "resource budget exhausted mid-lift"]

        # Demotion is sticky: the re-run never touches the (still
        # patched, still poisonous) lift path and produces the
        # interpreter's answer.
        vec.call("f", [N, x, y])
        assert np.array_equal(y, x * 2.0)

    def test_mid_write_trip_on_dead_grid_skips_rollback(self, monkeypatch):
        # A grid the liveness proof marks dead on step entry
        # (unconditional pointwise overwrite, never read in the step)
        # carries no rollback snapshot, so a terminal mid-write trip may
        # leave it torn — same contract as a sentinel trip — and the
        # sticky-demoted re-run fully overwrites it before any read, so
        # the next call is still exactly right (docs/EXECUTORS.md).
        from repro.errors import ResourceLimitError
        from repro.glafexec.context import ExecutionContext
        from repro.glafexec.vectorize import VectorizedInterpreter, compile_step

        def body(f):
            s = f.step("double")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
        p = _kernel(body)
        assert compile_step(
            p.find_function("f").steps[0]).snapshot_free == ("y",)

        def torn(self, frame, idx, step, plan):
            self._storage(frame, "y")[...] = 123.0  # partial garbage
            raise ResourceLimitError("simulated mid-write budget trip")

        monkeypatch.setattr(VectorizedInterpreter, "_exec_lifted", torn)
        ctx = ExecutionContext(p, sizes={"n": N})
        vec = VectorizedInterpreter(p, ctx)
        x = _x()
        y = np.zeros(N)
        with pytest.raises(ResourceLimitError, match="mid-write"):
            vec.call("f", [N, x, y])
        # No snapshot was taken — the torn values survive the raise (the
        # runtime proof that the copy was actually elided) ...
        assert np.array_equal(y, np.full(N, 123.0))
        assert ("f", 0) in vec._demoted
        # ... and the demoted re-run overwrites every element before any
        # read, so no later computation can observe them.
        vec.call("f", [N, x, y])
        assert np.array_equal(y, x * 2.0)

    def test_guarded_probe_writes_never_pollute_reference_inputs(self):
        # Accumulating kernel: if the probe's writes were not rolled back,
        # the authoritative serial run would start from the probe's
        # result and double-count.
        def body(f):
            s = f.step("acc")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", 1), ref("y", 1) + ref("x", I("i")))
        p = _kernel(body)
        x = _x()
        y = np.zeros(N)
        get_executor("guarded").run(p, "f", [N, x, y], sizes={"n": N})
        assert np.isclose(y[0], x.sum())


# ----------------------------------------------------------------------
# sentinel parity
# ----------------------------------------------------------------------
class TestSentinelParity:
    def _program(self):
        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
        b = GlafBuilder("s")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        body(f)
        return b.build()

    @pytest.mark.parametrize("executor", ["interpreter", "vectorized"])
    def test_nan_trips_identically(self, executor):
        from repro.numeric import SentinelConfig

        p = self._program()
        x = np.ones(5)
        x[3] = np.nan
        with run_config(sentinels=SentinelConfig()):
            with pytest.raises(NumericIntegrityError) as exc:
                get_executor(executor).run(p, "f", [5, x, np.zeros(5)],
                                           sizes={"n": 5})
        assert exc.value.kind == "nan"
