"""Guarded execution: divergence-checked parallel steps with serial fallback.

The paper validates auto-parallelized kernels offline, by side-by-side
comparison against the legacy output (§4, Table 1).  The
:class:`GuardedRunner` moves that check *into* the run: every step the
optimization plan marks parallel is first *probed* in a shuffled iteration
order (reusing :class:`ShuffledInterpreter` semantics) on a snapshot of the
affected state, then executed serially; if the probe diverges from the
serial result beyond tolerance — or raises an :class:`ExecutionError` —
the step is demoted to serial for the rest of the run and a structured
``guard:serial-fallback`` event is recorded in the PR-1 DecisionLog.

The serial result is **always** the one kept, so a guarded run is
bit-identical to a plain interpreted run; the probe only decides whether
the parallel annotation deserves trust.  :class:`ResourceLimitError` is
deliberately re-raised rather than recovered: a step that exhausted its
budget will not do better when re-executed.

:func:`guarded_python_run` applies the same policy to the generated-Python
path: run it against the interpreter reference and fall back to the
interpreter's result on divergence, :class:`CodegenError`, or
:class:`ExecutionError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..core.function import GlafProgram
from ..core.step import Step
from ..errors import CodegenError, ExecutionError, ResourceLimitError
from ..numeric import snapshot_max_abs_error
from ..optimize.plan import OptimizationPlan, make_plan
from ..robust import ResourceLimits, inject
from .context import ExecutionContext
from .interp import Interpreter
from .shuffle import ShuffledInterpreter

__all__ = [
    "GuardEvent", "GuardedInterpreter", "GuardedRun", "GuardedRunner",
    "PythonGuardResult", "VectorizedGuardResult", "guarded_python_run",
    "guarded_vectorized_run", "guard_mode", "guarded", "set_guard_mode",
]

DEFAULT_GUARD_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GuardEvent:
    """One serial-fallback demotion decided by the divergence guard."""

    function: str
    step_index: int
    step_name: str
    reason: str
    max_abs_error: float | None = None
    tolerance: float = DEFAULT_GUARD_TOLERANCE


class GuardedInterpreter(ShuffledInterpreter):
    """Interpreter that probes each plan-parallel step before trusting it.

    For every plan-parallel loop step (without early exits): snapshot the
    reachable state, execute the step once in a shuffled order (the probe),
    snapshot again, roll back, execute serially, and compare.  Divergence
    or an :class:`ExecutionError` inside the probe demotes the step —
    stickily, so later executions of the same step skip the probe.

    ``ExecStats`` iteration counts include the probe, so guarded runs
    roughly double-count loop iterations; the *results* are those of the
    serial execution, always.
    """

    def __init__(self, program: GlafProgram, context: ExecutionContext,
                 plan: OptimizationPlan, *, seed: int = 1,
                 tolerance: float = DEFAULT_GUARD_TOLERANCE, **kw: Any):
        super().__init__(program, context, plan, seed=seed, **kw)
        self.tolerance = tolerance
        self.events: list[GuardEvent] = []
        self.demoted: set[tuple[str, int]] = set()
        self._suspended = 0

    # ------------------------------------------------------------------
    def _exec_step(self, frame, idx: int, step: Step) -> None:
        key = (frame.fn.name, idx)
        if (
            self._suspended
            or key in self.demoted
            or not (self.plan.step_is_parallel(*key) and step.is_loop)
            or self._has_exit(step)
        ):
            Interpreter._exec_step(self, frame, idx, step)
            return

        before = self._snapshot(frame)
        probe_error: ExecutionError | None = None
        after_probe: dict | None = None
        self._suspended += 1
        try:
            inject("exec.interp.step", function=frame.fn.name, step=idx,
                   parallel=True)
            super()._exec_step(frame, idx, step)   # shuffled probe
            after_probe = self._snapshot(frame)
        except ResourceLimitError:
            raise                        # budget exhausted: never retry
        except ExecutionError as e:
            probe_error = e
        finally:
            self._suspended -= 1

        # Roll back and execute serially; the serial result is authoritative.
        self._restore(frame, before)
        self._suspended += 1
        try:
            Interpreter._exec_step(self, frame, idx, step)
        finally:
            self._suspended -= 1

        if probe_error is not None:
            self._demote(key, step,
                         f"ExecutionError in parallel step: {probe_error}",
                         None)
            return
        err = self._compare(after_probe, self._snapshot(frame))
        if err > self.tolerance:
            self._demote(
                key, step,
                f"shuffled-order divergence (max abs error {err:.3e} "
                f"> tolerance {self.tolerance:.1e})", err)

    @staticmethod
    def _has_exit(step: Step) -> bool:
        from ..core.step import ExitLoop, Return, walk_stmts
        return any(isinstance(s, (Return, ExitLoop))
                   for s in walk_stmts(step.stmts))

    # ------------------------------------------------------------------
    # snapshot / restore of everything a step can reach
    # ------------------------------------------------------------------
    def _snapshot(self, frame) -> dict[tuple, np.ndarray]:
        snap: dict[tuple, np.ndarray] = {}
        for name, arr in frame.storage.items():
            snap[("frame", name)] = arr.copy()
        for name, arr in self.context.globals.items():
            snap[("global", name)] = arr.copy()
        for key, arr in self._save_store.items():
            snap[("save",) + key] = arr.copy()
        return snap

    def _restore(self, frame, snap: dict[tuple, np.ndarray]) -> None:
        # In-place so aliases (by-reference arguments, SAVE'd storage held
        # elsewhere) stay associated.
        for name, arr in frame.storage.items():
            arr[...] = snap[("frame", name)]
        for name, arr in self.context.globals.items():
            arr[...] = snap[("global", name)]
        for key in list(self._save_store):
            skey = ("save",) + key
            if skey in snap:
                self._save_store[key][...] = snap[skey]
            else:
                # SAVE'd local first allocated inside the probe: discard it
                # so the serial execution allocates afresh.
                del self._save_store[key]

    def _compare(self, probe: dict, serial: dict) -> float:
        # NaN/Inf-aware: a NaN in either snapshot reports an infinite
        # error (and demotes) where the naive max-abs yielded a NaN that
        # compared False against the tolerance and passed silently.
        return snapshot_max_abs_error(probe, serial)

    # ------------------------------------------------------------------
    def _demote(self, key: tuple[str, int], step: Step, reason: str,
                err: float | None) -> None:
        self.demoted.add(key)
        self.events.append(GuardEvent(
            function=key[0], step_index=key[1], step_name=step.name,
            reason=reason, max_abs_error=err, tolerance=self.tolerance,
        ))
        from ..observe import get_decisions, get_metrics

        m = get_metrics()
        if m.enabled:
            m.counter("guard.serial_fallbacks").inc()
        dl = get_decisions()
        if dl.enabled:
            dl.record(
                "guard", key[0], key[1], step.name, "serial-fallback",
                reasons=(reason,),
                max_abs_error=err, tolerance=self.tolerance,
            )


@dataclass
class GuardedRun:
    """Result of one :class:`GuardedRunner.run` invocation."""

    result: Any
    context: ExecutionContext
    events: list[GuardEvent]
    demoted: frozenset[tuple[str, int]]
    interpreter: GuardedInterpreter
    plan: OptimizationPlan

    @property
    def fell_back(self) -> bool:
        return bool(self.events)

    def demoted_plan(self) -> OptimizationPlan:
        """The plan with every demoted step force-serialized — hand this to
        codegen to emit a variant that drops the untrusted directives."""
        return self.plan.with_force_serial(self.demoted)


class GuardedRunner:
    """Front door for guarded execution of a program's entry point."""

    def __init__(self, program: GlafProgram, plan: OptimizationPlan | None = None,
                 *, variant: str = "GLAF-parallel v0", seed: int = 1,
                 tolerance: float = DEFAULT_GUARD_TOLERANCE,
                 limits: ResourceLimits | None = None):
        self.program = program
        self.plan = plan if plan is not None else make_plan(program, variant)
        self.seed = seed
        self.tolerance = tolerance
        self.limits = limits

    def run(self, entry: str, args: list[Any] | tuple = (), *,
            sizes: dict[str, int] | None = None,
            values: dict[str, Any] | None = None,
            context: ExecutionContext | None = None) -> GuardedRun:
        from ..observe import get_tracer

        ctx = context if context is not None else ExecutionContext(
            self.program, sizes=sizes, values=values)
        interp = GuardedInterpreter(
            self.program, ctx, self.plan, seed=self.seed,
            tolerance=self.tolerance, limits=self.limits)
        with get_tracer().span("exec.run.guarded", entry=entry,
                               program=self.program.name):
            result = interp.call(entry, list(args))
        return GuardedRun(
            result=result, context=ctx, events=list(interp.events),
            demoted=frozenset(interp.demoted), interpreter=interp,
            plan=self.plan,
        )


# ----------------------------------------------------------------------
# guarded generated-Python execution
# ----------------------------------------------------------------------
@dataclass
class PythonGuardResult:
    """Outcome of :func:`guarded_python_run`."""

    result: Any
    context: ExecutionContext          # authoritative (interpreter on fallback)
    fell_back: bool
    reason: str = ""
    max_abs_error: float | None = None
    tolerance: float = DEFAULT_GUARD_TOLERANCE


def guarded_python_run(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    variant: str = "GLAF serial",
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    compare: list[str] | None = None,
    tolerance: float = DEFAULT_GUARD_TOLERANCE,
) -> PythonGuardResult:
    """Run the generated-Python path against the interpreter reference.

    On divergence beyond ``tolerance`` over the ``compare`` grids (all
    globals by default), or a :class:`CodegenError` / non-budget
    :class:`ExecutionError` in the generated path, falls back to the
    interpreter's result and records a ``guard:serial-fallback`` decision.
    """
    from ..observe import get_decisions
    from .executor import get_executor
    from .runner import run_generated_python

    ref_run = get_executor("interpreter").run(
        program, entry, args, sizes=sizes, values=values)
    ref_result, ref_ctx = ref_run.result, ref_run.context
    ref = ref_ctx.snapshot(compare)

    def fallback(reason: str, err: float | None = None) -> PythonGuardResult:
        dl = get_decisions()
        if dl.enabled:
            dl.record("guard", entry, -1, "generated-python",
                      "serial-fallback", reasons=(reason,),
                      max_abs_error=err, tolerance=tolerance)
        return PythonGuardResult(
            result=ref_result, context=ref_ctx, fell_back=True,
            reason=reason, max_abs_error=err, tolerance=tolerance)

    try:
        py_result, py_ctx = run_generated_python(
            program, entry, args, variant=variant, sizes=sizes, values=values)
    except ResourceLimitError:
        raise
    except (CodegenError, ExecutionError) as e:
        return fallback(f"{type(e).__name__} in generated Python: {e}")

    # NaN/Inf-aware comparison: a NaN on both sides is divergence (inf
    # error), never silent agreement.
    worst = snapshot_max_abs_error(py_ctx.snapshot(compare), ref)
    if worst > tolerance:
        return fallback(
            f"generated-Python divergence (max abs error {worst:.3e} "
            f"> tolerance {tolerance:.1e})", worst)
    return PythonGuardResult(
        result=py_result, context=py_ctx, fell_back=False,
        max_abs_error=worst, tolerance=tolerance)


# ----------------------------------------------------------------------
# guarded vectorized execution (the "guarded" executor)
# ----------------------------------------------------------------------
@dataclass
class VectorizedGuardResult:
    """Outcome of :func:`guarded_vectorized_run`."""

    result: Any
    context: ExecutionContext          # authoritative (always the interpreter's)
    fell_back: bool
    reason: str = ""
    max_error: float | None = None
    tolerance: float = DEFAULT_GUARD_TOLERANCE
    policy: str = "abs"
    #: per-step lift demotions recorded by the vectorized probe
    fallbacks: tuple = ()


def guarded_vectorized_run(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    context: ExecutionContext | None = None,
    compare: list[str] | None = None,
    tolerance: float = DEFAULT_GUARD_TOLERANCE,
    policy: str = "abs",
    limits: ResourceLimits | None = None,
) -> VectorizedGuardResult:
    """Run the vectorized executor against the interpreter reference.

    The vectorized path executes on a **clone** of the context; the
    interpreter then executes on the real one, so the kept state is always
    the reference result (same contract as :class:`GuardedRunner`).  The
    two final global states are compared grid by grid under a named
    tolerance policy (:func:`repro.numeric.get_policy`); divergence — or an
    :class:`ExecutionError` in the vectorized probe — records a
    ``guard:serial-fallback`` decision naming the vectorized executor.
    """
    from ..numeric import get_policy
    from ..observe import get_decisions, get_metrics, get_tracer
    from .vectorize import VectorizedInterpreter

    ctx = context if context is not None else ExecutionContext(
        program, sizes=sizes, values=values)
    probe_ctx = ctx.clone()
    vec_error: str | None = None
    vec_snap: dict[str, np.ndarray] | None = None
    fallbacks: tuple = ()
    with get_tracer().span("exec.run.guarded-vectorized", entry=entry,
                           program=program.name):
        vec = VectorizedInterpreter(program, probe_ctx, limits=limits)
        # Array arguments are storage, exactly like context grids: the
        # probe gets copies, so neither its writes nor a mid-probe budget
        # trip can leak into the arrays the authoritative interpreter run
        # below reads and the caller keeps.
        probe_args = [a.copy() if isinstance(a, np.ndarray) else a
                      for a in args]
        try:
            vec.call(entry, probe_args)
            vec_snap = probe_ctx.snapshot(compare)
        except ResourceLimitError:
            raise                        # budget exhausted: never retry
        except ExecutionError as e:
            vec_error = f"{type(e).__name__} in vectorized execution: {e}"
        fallbacks = tuple(vec.fallbacks)
        ref_result = Interpreter(program, ctx, limits=limits).call(
            entry, list(args))

    def fell_back(reason: str, err: float | None = None) -> VectorizedGuardResult:
        m = get_metrics()
        if m.enabled:
            m.counter("guard.serial_fallbacks").inc()
        dl = get_decisions()
        if dl.enabled:
            dl.record("guard", entry, -1, "vectorized-executor",
                      "serial-fallback", reasons=(reason,),
                      max_abs_error=err, tolerance=tolerance)
        return VectorizedGuardResult(
            result=ref_result, context=ctx, fell_back=True, reason=reason,
            max_error=err, tolerance=tolerance, policy=policy,
            fallbacks=fallbacks)

    if vec_error is not None:
        return fell_back(vec_error)
    pol = get_policy(policy, tolerance)
    ref_snap = ctx.snapshot(compare)
    worst = 0.0
    for name in ref_snap:
        if ref_snap[name].size == 0:
            continue
        res = pol.compare(vec_snap[name], ref_snap[name])
        if not res.ok:
            return fell_back(
                f"vectorized divergence on grid {name!r}: {res.detail}",
                res.max_error)
        worst = max(worst, res.max_error)
    return VectorizedGuardResult(
        result=ref_result, context=ctx, fell_back=False, max_error=worst,
        tolerance=tolerance, policy=policy, fallbacks=fallbacks)


# ----------------------------------------------------------------------
# process-wide guard mode (the CLI's --guarded flag)
# ----------------------------------------------------------------------
_GUARD_MODE = False


def guard_mode() -> bool:
    """True while guarded execution is requested (``--guarded``)."""
    return _GUARD_MODE


def set_guard_mode(enabled: bool) -> bool:
    """Set the process-wide guard flag; returns the previous value."""
    global _GUARD_MODE
    prev = _GUARD_MODE
    _GUARD_MODE = bool(enabled)
    return prev


@contextmanager
def guarded(enabled: bool = True) -> Iterator[None]:
    """Enable guard mode for the block (validation paths that support it
    route execution through :class:`GuardedRunner`)."""
    prev = set_guard_mode(enabled)
    try:
        yield
    finally:
        set_guard_mode(prev)
