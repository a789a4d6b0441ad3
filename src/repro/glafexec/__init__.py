"""Functional execution of GLAF IR (reference semantics + generated Python
+ the pluggable executor back ends)."""

from .context import ExecutionContext, as_storage
from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorRun,
    GuardedExecutor,
    InterpreterExecutor,
    VectorizedExecutor,
    executor_mode,
    get_executor,
)
from .guard import (
    GuardedInterpreter,
    GuardEvent,
    PythonGuardResult,
    guarded_python_run,
)
from .interp import ExecStats, Interpreter
from .runner import GeneratedModule, run_generated_python
from .shuffle import (
    ParallelValidation,
    ShuffledInterpreter,
    validate_parallel_semantics,
)
from .vectorize import (
    FallbackEvent,
    LiftedStep,
    LiftFailure,
    VectorizedInterpreter,
    compile_step,
    liftability_report,
)

__all__ = [
    "ExecutionContext", "as_storage",
    "ExecStats", "Interpreter",
    "GeneratedModule", "run_generated_python",
    "ParallelValidation", "ShuffledInterpreter", "validate_parallel_semantics",
    "GuardEvent", "GuardedInterpreter", "PythonGuardResult",
    "guarded_python_run",
    "EXECUTOR_NAMES", "Executor", "ExecutorRun", "GuardedExecutor",
    "InterpreterExecutor", "VectorizedExecutor", "executor_mode",
    "get_executor",
    "FallbackEvent", "LiftFailure", "LiftedStep", "VectorizedInterpreter",
    "compile_step", "liftability_report",
]
