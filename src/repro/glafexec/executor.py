"""Pluggable executors for GLAF programs.

Three interchangeable back ends run a program's entry point against an
:class:`~repro.glafexec.context.ExecutionContext`:

``interpreter``
    The reference tree-walking :class:`~repro.glafexec.interp.Interpreter`
    — authoritative FORTRAN semantics, one Python dispatch per cell.
``vectorized``
    :class:`~repro.glafexec.vectorize.VectorizedInterpreter` — liftable loop
    steps run as whole-grid NumPy array programs; everything else falls back
    to the interpreter per step (recorded as ``executor:fallback`` events).
``guarded``
    :class:`~repro.glafexec.guard.GuardedInterpreter` — the divergence
    guard: the interpreter, with every step the ``GLAF-parallel v0`` plan
    marks parallel first probed in a shuffled iteration order; a probe
    that diverges demotes its step to serial (``guard:serial-fallback``).
    The serial result is always the one kept.

Selection is either explicit (:func:`get_executor`) or through the run
configuration's ``executor`` (``run_config(executor=...)``, set by the
CLI's ``--executor`` flag; its default comes from the ``REPRO_EXECUTOR``
environment variable for whole-process runs such as the CI vectorized
leg; see :mod:`repro.runconfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.function import GlafProgram
from ..errors import ExecutionError
from ..optimize.plan import make_plan
from ..robust import ResourceLimits
from ..runconfig import EXECUTOR_NAMES, current
from .context import ExecutionContext
from .guard import GUARD_VARIANT, GuardedInterpreter, GuardEvent
from .interp import Interpreter
from .vectorize import FallbackEvent, VectorizedInterpreter

__all__ = [
    "EXECUTOR_NAMES", "Executor", "ExecutorRun",
    "GuardedExecutor", "InterpreterExecutor", "VectorizedExecutor",
    "executor_mode", "get_executor",
]


@dataclass
class ExecutorRun:
    """Outcome of one :meth:`Executor.run` invocation."""

    result: Any
    context: ExecutionContext
    executor: str
    fallbacks: tuple[FallbackEvent, ...] = ()
    #: the ``guarded`` executor's serial-fallback demotions, and the
    #: ``(function, step index)`` keys they demoted
    events: tuple[GuardEvent, ...] = ()
    demoted: frozenset[tuple[str, int]] = frozenset()


class Executor:
    """Common construction + entry point for the pluggable back ends."""

    name = ""

    def __init__(self, *, save_inner_arrays: bool = False,
                 limits: ResourceLimits | None = None):
        self.save_inner_arrays = save_inner_arrays
        self.limits = limits

    def _context(self, program: GlafProgram,
                 sizes: dict[str, int] | None,
                 values: dict[str, Any] | None,
                 context: ExecutionContext | None) -> ExecutionContext:
        if context is not None:
            return context
        return ExecutionContext(program, sizes=sizes, values=values)

    def run(self, program: GlafProgram, entry: str,
            args: list[Any] | tuple = (), *,
            sizes: dict[str, int] | None = None,
            values: dict[str, Any] | None = None,
            context: ExecutionContext | None = None) -> ExecutorRun:
        raise NotImplementedError


class InterpreterExecutor(Executor):
    """Reference semantics: the tree-walking interpreter."""

    name = "interpreter"

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        from ..observe import get_tracer

        ctx = self._context(program, sizes, values, context)
        interp = Interpreter(program, ctx,
                             save_inner_arrays=self.save_inner_arrays,
                             limits=self.limits)
        with get_tracer().span("exec.run.interp", entry=entry,
                               program=program.name):
            result = interp.call(entry, list(args))
        return ExecutorRun(result=result, context=ctx, executor=self.name)


class VectorizedExecutor(Executor):
    """Whole-grid array execution with per-step interpreter fallback."""

    name = "vectorized"

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        from ..observe import get_tracer

        ctx = self._context(program, sizes, values, context)
        interp = VectorizedInterpreter(
            program, ctx, save_inner_arrays=self.save_inner_arrays,
            limits=self.limits)
        with get_tracer().span("exec.run.vectorized", entry=entry,
                               program=program.name):
            result = interp.call(entry, list(args))
        return ExecutorRun(result=result, context=ctx, executor=self.name,
                           fallbacks=tuple(interp.fallbacks))


class GuardedExecutor(Executor):
    """The divergence guard (:class:`GuardedInterpreter`) on the caller's
    context: plan-parallel steps are probed in shuffled order, and a probe
    that diverges demotes its step to serial for the rest of the run."""

    name = "guarded"

    def run(self, program, entry, args=(), *, sizes=None, values=None,
            context=None) -> ExecutorRun:
        from ..observe import get_tracer

        ctx = self._context(program, sizes, values, context)
        interp = GuardedInterpreter(
            program, ctx, make_plan(program, GUARD_VARIANT),
            save_inner_arrays=self.save_inner_arrays, limits=self.limits)
        with get_tracer().span("exec.run.guarded", entry=entry,
                               program=program.name):
            result = interp.call(entry, list(args))
        return ExecutorRun(result=result, context=ctx, executor=self.name,
                           events=tuple(interp.events),
                           demoted=frozenset(interp.demoted))


_EXECUTORS: dict[str, type[Executor]] = {
    "interpreter": InterpreterExecutor,
    "vectorized": VectorizedExecutor,
    "guarded": GuardedExecutor,
}


def get_executor(name: str | None = None, **kw: Any) -> Executor:
    """Instantiate an executor by name (current mode when ``None``)."""
    if name is None:
        name = executor_mode()
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
        ) from None
    return cls(**kw)


def executor_mode() -> str:
    """The run's executor name (default ``interpreter``)."""
    return current().executor
