"""The GLAF IR interpreter: reference execution semantics.

Every kernel in the case studies runs through this tree-walking interpreter
(with NumPy storage) and through the generated Python / generated FORTRAN
paths; the outputs must agree.  Semantics follow FORTRAN:

* 1-based inclusive loop ranges (``DO i = start, end, step``);
* integer ``/`` truncates toward zero; ``MOD`` takes the dividend's sign;
* ``EXIT`` (:class:`ExitLoop`) leaves the innermost loop of the step's nest;
* arguments are passed by reference — array arguments alias caller storage,
  and scalar ``intent(out/inout)`` arguments must be 0-d arrays;
* SAVE'd locals persist across calls in the interpreter's save store, which
  is also how the FUN3D "no reallocation" option is executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.expr import (
    BinOp,
    Const,
    Expr,
    FuncCall,
    GridRef,
    IndexVar,
    LibCall,
    UnOp,
)
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.libfuncs import get as get_libfunc
from ..core.step import (
    Assign,
    CallStmt,
    ExitLoop,
    IfStmt,
    Range,
    Return,
    Step,
    Stmt,
)
from ..core.types import GlafType, numpy_dtype
from ..errors import ExecutionError
from ..numeric import sentinel as _sentinel
from ..robust import Budget, ResourceLimits
from ..robust import faults as _faults
from ..runconfig import current
from .context import ExecutionContext, as_storage

__all__ = ["Interpreter", "ExecStats"]


class _ReturnSignal(Exception):
    def __init__(self, value: Any = None):
        self.value = value


class _ExitSignal(Exception):
    pass


@dataclass
class ExecStats:
    """Dynamic counts gathered while interpreting (used to sanity-check the
    performance model's trip-count estimates)."""

    loop_iterations: dict[tuple[str, int], int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    allocations: int = 0

    def note_iter(self, fn: str, step_idx: int, n: int = 1) -> None:
        key = (fn, step_idx)
        self.loop_iterations[key] = self.loop_iterations.get(key, 0) + n

    def note_call(self, fn: str) -> None:
        self.calls[fn] = self.calls.get(fn, 0) + 1


@dataclass
class _Frame:
    fn: GlafFunction
    storage: dict[str, np.ndarray]
    indices: dict[str, int] = field(default_factory=dict)
    # Set by _exec_step so assignment-time sentinels can name the step.
    current_step: int = -1
    current_step_name: str = ""


class Interpreter:
    """Executes GLAF functions against an :class:`ExecutionContext`."""

    def __init__(
        self,
        program: GlafProgram,
        context: ExecutionContext,
        *,
        save_inner_arrays: bool = False,
        max_call_depth: int = 200,
        limits: ResourceLimits | None = None,
    ):
        self.program = program
        self.context = context
        self.save_inner_arrays = save_inner_arrays
        self.max_call_depth = max_call_depth
        self.limits = limits
        self._budget = (
            Budget(limits, what=f"interp({program.name})")
            if limits is not None else None
        )
        self.stats = ExecStats()
        self._save_store: dict[tuple[str, str], np.ndarray] = {}
        self._depth = 0
        # The run's fault plan and sentinels, captured by _enter() so the
        # per-element hooks test a plain attribute.
        self._faults = None
        self._sentinels = None

    def reset_save_store(self) -> None:
        self._save_store.clear()

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        """Call a GLAF function; returns its value (None for subroutines)."""
        from ..observe import get_metrics, get_tracer

        _m = get_metrics()
        if _m.enabled:
            _m.counter("exec.interp.calls").inc()
        if self._depth == 0:
            self._enter()
            # Only the outermost call gets a span; nested calls would swamp
            # the trace and are already counted by ExecStats / the counter.
            with get_tracer().span("exec.interp", entry=name):
                return self._call(name, args)
        return self._call(name, args)

    def _enter(self) -> None:
        """Start the outermost call: capture the run configuration's fault
        plan and sentinels and start the budget clock."""
        cfg = current()
        self._faults = cfg.faults
        self._sentinels = cfg.sentinels
        if self._budget is not None:
            self._budget.start()

    def _call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        fn = self.program.find_function(name)
        if len(args) != len(fn.params):
            raise ExecutionError(
                f"{name}: expected {len(fn.params)} argument(s), got {len(args)}"
            )
        if self._depth >= self.max_call_depth:
            raise ExecutionError(f"call depth exceeded at {name}")
        self.stats.note_call(name)

        frame = _Frame(fn=fn, storage={})
        # Bind dummies by reference where possible.
        for pname, value in zip(fn.params, args):
            g = fn.grids[pname]
            frame.storage[pname] = self._bind_argument(g, value)
        # Resolve symbolic local dims from already-bound scalars.
        sizes = self._frame_sizes(frame)
        for lname, g in fn.local_grids().items():
            frame.storage[lname] = self._allocate_local(fn, g, sizes)

        self._depth += 1
        try:
            for idx, step in enumerate(fn.steps):
                self._exec_step(frame, idx, step)
        except _ReturnSignal as r:
            return r.value
        finally:
            self._depth -= 1
        if not fn.is_subroutine:
            # Fell off the end without an explicit return: FORTRAN would
            # return the (zero-initialized) result variable.
            return numpy_dtype(fn.return_type).type(0)
        return None

    def _bind_argument(self, g: Grid, value: Any) -> np.ndarray:
        dtype = numpy_dtype(g.ty)
        if g.rank == 0:
            if isinstance(value, np.ndarray) and value.ndim == 0:
                return value  # by reference
            if g.intent in ("out", "inout"):
                raise ExecutionError(
                    f"argument {g.name!r} has intent({g.intent}); pass a 0-d array"
                )
            cell = np.zeros((), dtype=dtype)
            cell[()] = value
            return cell
        if not isinstance(value, np.ndarray):
            raise ExecutionError(f"argument {g.name!r}: expected an array")
        if value.dtype != dtype:
            raise ExecutionError(
                f"argument {g.name!r}: dtype {value.dtype} != expected {dtype}"
            )
        if value.ndim != g.rank:
            raise ExecutionError(
                f"argument {g.name!r}: rank {value.ndim} != declared {g.rank}"
            )
        return value  # by reference

    def _frame_sizes(self, frame: _Frame) -> dict[str, int]:
        sizes = dict(self.context.sizes)
        for name, store in frame.storage.items():
            if store.ndim == 0 and np.issubdtype(store.dtype, np.integer):
                sizes[name] = int(store[()])
        return sizes

    def _allocate_local(self, fn: GlafFunction, g: Grid, sizes: dict[str, int]) -> np.ndarray:
        saved = g.save or (self.save_inner_arrays and g.allocatable)
        key = (fn.name, g.name)
        if saved and key in self._save_store:
            return self._save_store[key]
        self.stats.allocations += 1
        store = as_storage(g, sizes=sizes)
        if saved:
            self._save_store[key] = store
        return store

    # ------------------------------------------------------------------
    # steps and statements
    # ------------------------------------------------------------------
    def _exec_step(self, frame: _Frame, idx: int, step: Step) -> None:
        frame.current_step = idx
        frame.current_step_name = step.name
        if self._faults is not None:
            _faults.inject("exec.interp.step", function=frame.fn.name,
                           step=idx, parallel=False)
        if not step.is_loop:
            if step.condition is not None and not self._truth(frame, step.condition):
                return
            self._exec_stmts(frame, step.stmts)
            return
        self._exec_nest(frame, idx, step, 0)

    def _exec_nest(self, frame: _Frame, idx: int, step: Step, level: int) -> None:
        if level == len(step.ranges):
            self.stats.note_iter(frame.fn.name, idx)
            if self._budget is not None:
                self._budget.tick()
            if self._faults is not None:
                _faults.inject("exec.interp.iter", function=frame.fn.name,
                               step=idx)
            if step.condition is not None and not self._truth(frame, step.condition):
                return
            self._exec_stmts(frame, step.stmts)
            return
        r = step.ranges[level]
        start = int(self._eval(frame, r.start))
        end = int(self._eval(frame, r.end))
        stride = int(self._eval(frame, r.step))
        if stride <= 0:
            raise ExecutionError(f"{frame.fn.name}/{step.name}: non-positive stride")
        var = r.var
        try:
            for i in range(start, end + 1, stride):
                frame.indices[var] = i
                self._exec_nest(frame, idx, step, level + 1)
        except _ExitSignal:
            # FORTRAN EXIT leaves the innermost enclosing DO.  Statements
            # live in the innermost body, so the innermost level catches.
            if level != len(step.ranges) - 1:
                raise
        finally:
            frame.indices.pop(var, None)

    def _exec_stmts(self, frame: _Frame, stmts) -> None:
        for s in stmts:
            self._exec_stmt(frame, s)

    def _exec_stmt(self, frame: _Frame, s: Stmt) -> None:
        if isinstance(s, Assign):
            self._assign(frame, s)
        elif isinstance(s, CallStmt):
            args = [self._eval_arg(frame, a) for a in s.args]
            self.call(s.name, args)
        elif isinstance(s, IfStmt):
            if self._truth(frame, s.cond):
                self._exec_stmts(frame, s.then)
            else:
                self._exec_stmts(frame, s.orelse)
        elif isinstance(s, Return):
            if s.value is not None:
                dtype = numpy_dtype(frame.fn.return_type)
                raise _ReturnSignal(dtype.type(self._eval(frame, s.value)))
            raise _ReturnSignal(None)
        elif isinstance(s, ExitLoop):
            raise _ExitSignal()
        else:
            raise ExecutionError(f"cannot execute statement {type(s).__name__}")

    def _assign(self, frame: _Frame, s: Assign) -> None:
        store = self._storage(frame, s.target.grid)
        value = self._eval(frame, s.expr)
        idx: tuple[int, ...] | None = None
        if s.target.indices:
            idx = tuple(int(self._eval(frame, i)) - 1 for i in s.target.indices)
            self._bounds_check(frame, s.target.grid, store, idx)
        elif store.ndim != 0:
            raise ExecutionError(
                f"cannot assign scalar to whole array {s.target.grid!r}"
            )
        if (self._faults is not None
                and np.issubdtype(store.dtype, np.floating)):
            poisoned = _faults.inject(
                "numeric.sentinel", value, function=frame.fn.name,
                step=frame.current_step, grid=s.target.grid)
            if poisoned is not None:
                value = poisoned
        if self._sentinels is not None:
            _sentinel.check_value(
                value, function=frame.fn.name,
                step_index=frame.current_step,
                step_name=frame.current_step_name, grid=s.target.grid,
                cell=None if idx is None else tuple(i + 1 for i in idx),
                config=self._sentinels)
        if idx is not None:
            store[idx] = value
        else:
            store[()] = value

    def _bounds_check(self, frame, gname: str, store: np.ndarray, idx: tuple) -> None:
        for k, (i, n) in enumerate(zip(idx, store.shape)):
            if not (0 <= i < n):
                raise ExecutionError(
                    f"{frame.fn.name}: index {i + 1} out of bounds for dimension "
                    f"{k + 1} of grid {gname!r} (extent {n})"
                )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _storage(self, frame: _Frame, name: str) -> np.ndarray:
        if name in frame.storage:
            return frame.storage[name]
        return self.context.get(name)

    def _truth(self, frame: _Frame, e: Expr) -> bool:
        return bool(self._eval(frame, e))

    def _eval_arg(self, frame: _Frame, e: Expr) -> Any:
        """Arguments: whole-grid references pass storage by reference."""
        if isinstance(e, GridRef) and not e.indices:
            return self._storage(frame, e.grid)
        return self._eval(frame, e)

    def _eval(self, frame: _Frame, e: Expr) -> Any:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, IndexVar):
            try:
                return frame.indices[e.name]
            except KeyError:
                raise ExecutionError(f"unbound index variable {e.name!r}") from None
        if isinstance(e, GridRef):
            store = self._storage(frame, e.grid)
            if not e.indices:
                return store[()] if store.ndim == 0 else store
            idx = tuple(int(self._eval(frame, i)) - 1 for i in e.indices)
            self._bounds_check(frame, e.grid, store, idx)
            return store[idx]
        if isinstance(e, BinOp):
            return self._eval_binop(frame, e)
        if isinstance(e, UnOp):
            v = self._eval(frame, e.operand)
            return (not bool(v)) if e.op == "not" else -v
        if isinstance(e, LibCall):
            f = get_libfunc(e.name)
            f.check_arity(len(e.args))
            args = [self._eval_arg(frame, a) for a in e.args]
            return f.impl(*args)
        if isinstance(e, FuncCall):
            args = [self._eval_arg(frame, a) for a in e.args]
            return self.call(e.name, args)
        raise ExecutionError(f"cannot evaluate expression {type(e).__name__}")

    @staticmethod
    def _is_int(v: Any) -> bool:
        if isinstance(v, bool):
            return False
        return isinstance(v, int) or (
            isinstance(v, np.generic) and np.issubdtype(type(v), np.integer)
        )

    def _eval_binop(self, frame: _Frame, e: BinOp) -> Any:
        op = e.op
        if op == "and":
            return self._truth(frame, e.left) and self._truth(frame, e.right)
        if op == "or":
            return self._truth(frame, e.left) or self._truth(frame, e.right)
        lv = self._eval(frame, e.left)
        rv = self._eval(frame, e.right)
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            if self._is_int(lv) and self._is_int(rv):
                return np.int64(np.trunc(lv / rv))  # FORTRAN integer division
            return lv / rv
        if op == "//":
            return np.int64(np.trunc(lv / rv))
        if op == "%":
            r = np.abs(lv) % np.abs(rv)
            return -r if lv < 0 else r
        if op == "**":
            return lv ** rv
        if op == "==":
            return lv == rv
        if op == "!=":
            return lv != rv
        if op == "<":
            return lv < rv
        if op == "<=":
            return lv <= rv
        if op == ">":
            return lv > rv
        if op == ">=":
            return lv >= rv
        raise ExecutionError(f"unknown operator {op!r}")
