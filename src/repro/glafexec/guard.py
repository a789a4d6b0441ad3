"""Guarded execution: divergence-checked parallel steps with serial fallback.

The paper validates auto-parallelized kernels offline, by side-by-side
comparison against the legacy output and by checking the OpenMP
directives by hand (§4.1.1, §4.2.1).  The :class:`GuardedInterpreter` —
the ``guarded`` executor (:class:`repro.glafexec.GuardedExecutor`) —
moves the directive check *into* the run: every step the
``GLAF-parallel v0`` plan marks parallel is first *probed* in a shuffled
iteration order (reusing :class:`ShuffledInterpreter` semantics) on a
snapshot of the affected state, then executed serially; if the probe
diverges from the serial result beyond tolerance — or raises an
:class:`ExecutionError` — the step is demoted to serial for the rest of
the run and a structured ``guard:serial-fallback`` event is recorded in
the DecisionLog.

The serial result is **always** the one kept, so a guarded run is
bit-identical to a plain interpreted run; the probe only decides whether
the parallel annotation deserves trust.  :class:`ResourceLimitError` is
deliberately re-raised rather than recovered: a step that exhausted its
budget will not do better when re-executed.

:func:`guarded_python_run` applies the same policy to the generated-Python
path: run it against the interpreter reference and fall back to the
interpreter's result on divergence, :class:`CodegenError`, or
:class:`ExecutionError`.  It is the one guard that substitutes a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.function import GlafProgram
from ..core.step import Step
from ..errors import CodegenError, ExecutionError, ResourceLimitError
from ..numeric import snapshot_max_abs_error
from ..optimize.plan import OptimizationPlan
from ..robust import inject
from .context import ExecutionContext
from .interp import Interpreter
from .shuffle import ShuffledInterpreter

__all__ = [
    "GUARD_TOLERANCE", "GUARD_VARIANT", "GuardEvent", "GuardedInterpreter",
    "PythonGuardResult", "guarded_python_run",
]

#: The plan whose parallel steps the guard probes.
GUARD_VARIANT = "GLAF-parallel v0"
#: Seed of the probes' shuffled iteration order.
GUARD_SEED = 1
#: Largest max-abs difference a probe (or generated Python) may show.
GUARD_TOLERANCE = 1e-9
#: The generated-Python variant :func:`guarded_python_run` checks.
PYTHON_VARIANT = "GLAF serial"


@dataclass(frozen=True)
class GuardEvent:
    """One serial-fallback demotion decided by the divergence guard."""

    function: str
    step_index: int
    step_name: str
    reason: str
    max_abs_error: float | None = None


def _record_fallback(function: str, step_index: int, step_name: str,
                     reason: str, err: float | None) -> GuardEvent:
    """Count and log one ``guard:serial-fallback`` decision."""
    from ..observe import get_decisions, get_metrics

    m = get_metrics()
    if m.enabled:
        m.counter("guard.serial_fallbacks").inc()
    dl = get_decisions()
    if dl.enabled:
        dl.record("guard", function, step_index, step_name,
                  "serial-fallback", reasons=(reason,),
                  max_abs_error=err, tolerance=GUARD_TOLERANCE)
    return GuardEvent(function, step_index, step_name, reason, err)


class GuardedInterpreter(ShuffledInterpreter):
    """Interpreter that probes each plan-parallel step before trusting it.

    For every step :class:`ShuffledInterpreter` would reorder: snapshot
    the reachable state, execute the step once in a shuffled order (the
    probe), snapshot again, roll back, execute serially, and compare.
    Divergence or an :class:`ExecutionError` inside the probe demotes the
    step — stickily, so later executions of the same step skip the probe.

    ``ExecStats`` iteration counts include the probe, so guarded runs
    roughly double-count loop iterations; the *results* are those of the
    serial execution, always.
    """

    def __init__(self, program: GlafProgram, context: ExecutionContext,
                 plan: OptimizationPlan, **kw: Any):
        super().__init__(program, context, plan, seed=GUARD_SEED, **kw)
        self.events: list[GuardEvent] = []
        self.demoted: set[tuple[str, int]] = set()
        self._suspended = 0

    # ------------------------------------------------------------------
    def _exec_step(self, frame, idx: int, step: Step) -> None:
        key = (frame.fn.name, idx)
        if (self._suspended or key in self.demoted
                or not self._reorders(*key, step)):
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
            # Budget exhausted: never retry, and leave no probe writes.
            self._restore(frame, before)
            raise
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
        # NaN/Inf-aware: a NaN in either snapshot is an infinite error (and
        # demotes) rather than a NaN that compares False and passes.
        err = snapshot_max_abs_error(after_probe, self._snapshot(frame))
        if err > GUARD_TOLERANCE:
            self._demote(
                key, step,
                f"shuffled-order divergence (max abs error {err:.3e} "
                f"> tolerance {GUARD_TOLERANCE:.1e})", err)

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

    def _demote(self, key: tuple[str, int], step: Step, reason: str,
                err: float | None) -> None:
        self.demoted.add(key)
        self.events.append(
            _record_fallback(key[0], key[1], step.name, reason, err))


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


def guarded_python_run(
    program: GlafProgram,
    entry: str,
    args: list[Any] | tuple = (),
    *,
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
    compare: list[str] | None = None,
) -> PythonGuardResult:
    """Run the generated ``GLAF serial`` Python against the interpreter.

    On divergence beyond :data:`GUARD_TOLERANCE` over the ``compare``
    grids (all globals by default), or a :class:`CodegenError` /
    non-budget :class:`ExecutionError` in the generated path, falls back
    to the interpreter's result and records a ``guard:serial-fallback``
    decision.
    """
    from .executor import get_executor
    from .runner import run_generated_python

    ref_run = get_executor("interpreter").run(
        program, entry, args, sizes=sizes, values=values)
    ref_result, ref_ctx = ref_run.result, ref_run.context
    ref = ref_ctx.snapshot(compare)

    def fallback(reason: str, err: float | None = None) -> PythonGuardResult:
        _record_fallback(entry, -1, "generated-python", reason, err)
        return PythonGuardResult(
            result=ref_result, context=ref_ctx, fell_back=True,
            reason=reason, max_abs_error=err)

    try:
        py_result, py_ctx = run_generated_python(
            program, entry, args, variant=PYTHON_VARIANT, sizes=sizes,
            values=values)
    except ResourceLimitError:
        raise
    except (CodegenError, ExecutionError) as e:
        return fallback(f"{type(e).__name__} in generated Python: {e}")

    # NaN/Inf-aware comparison: a NaN on both sides is divergence (inf
    # error), never silent agreement.
    worst = snapshot_max_abs_error(py_ctx.snapshot(compare), ref)
    if worst > GUARD_TOLERANCE:
        return fallback(
            f"generated-Python divergence (max abs error {worst:.3e} "
            f"> tolerance {GUARD_TOLERANCE:.1e})", worst)
    return PythonGuardResult(
        result=py_result, context=py_ctx, fell_back=False,
        max_abs_error=worst)
