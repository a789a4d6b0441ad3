"""One immutable run configuration, carried in a context variable.

Everything that changes *how* the pipeline runs — which observers record
it, which executor runs the IR, whether the divergence guard is on, the
fault plan, the numeric sentinels — is one frozen :class:`RunConfig`.
:func:`current` reads it; ``with run_config(**changes)`` installs a copy
with ``changes`` applied for the block and restores the previous one on
exit, so blocks nest and the innermost setting wins::

    with run_config(executor="vectorized", sentinels=SentinelConfig()):
        run_ir_interpreter(inputs)

Because the configuration lives in a :class:`contextvars.ContextVar`, two
differently configured pipelines can run side by side in one process: a
new thread starts from the default configuration, and code that hands
work to a thread runs it under ``contextvars.copy_context().run`` to keep
its caller's.

Only the standard library and :mod:`repro.errors` are imported, so every
layer — the interpreters' hot loops included — can depend on this module.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

from .errors import ExecutionError

__all__ = ["EXECUTOR_NAMES", "RunConfig", "current", "run_config"]

#: The IR execution engines (``--executor``; see docs/EXECUTORS.md).
EXECUTOR_NAMES = ("interpreter", "vectorized", "guarded")


def _initial_executor() -> str:
    """``$REPRO_EXECUTOR`` if it names an executor, else the interpreter."""
    env = os.environ.get("REPRO_EXECUTOR", "interpreter")
    return env if env in EXECUTOR_NAMES else "interpreter"


@dataclass(frozen=True)
class RunConfig:
    """How the pipeline runs.

    ``tracer`` / ``metrics`` / ``decisions`` are the observers (``None``:
    the shared no-ops of :mod:`repro.observe`); ``executor`` names the IR
    engine; ``guard`` routes the case-study interpreter runs through the
    divergence guard; ``faults`` is the active
    :class:`repro.robust.FaultPlan` and ``sentinels`` the active
    :class:`repro.numeric.SentinelConfig` (``None``: off).
    """

    tracer: Any = None
    metrics: Any = None
    decisions: Any = None
    executor: str = "interpreter"
    guard: bool = False
    faults: Any = None
    sentinels: Any = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_NAMES:
            raise ExecutionError(f"unknown executor {self.executor!r}; "
                                 f"choose from {EXECUTOR_NAMES}")


_RUN: contextvars.ContextVar[RunConfig] = contextvars.ContextVar(
    "repro_run_config", default=RunConfig(executor=_initial_executor()))


def current() -> RunConfig:
    """The configuration in force for the calling context."""
    return _RUN.get()


@contextmanager
def run_config(**changes: Any) -> Iterator[RunConfig]:
    """Run the block under :func:`current` with ``changes`` applied."""
    token = _RUN.set(replace(_RUN.get(), **changes))
    try:
        yield _RUN.get()
    finally:
        _RUN.reset(token)
