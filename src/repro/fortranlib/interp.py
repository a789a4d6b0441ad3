"""Tree-walking interpreter for the FORTRAN subset.

This is the reproduction's stand-in for compiling with gfortran/ifort and
running natively: generated GLAF FORTRAN and the hand-written "legacy"
sources both execute here, so the paper's side-by-side functional
comparisons (§4.1.1, §4.2.1) can be run for real.

Semantics notes:

* Scalars are stored as 0-d NumPy arrays; arrays are NumPy arrays with
  1-based index adjustment at access time.  Kind 4/8 map to
  float32/float64 and int64 (FORTRAN default integers are modelled as
  int64 throughout, which only widens).
* Arguments pass by reference whenever the actual argument is a variable,
  array, array element or derived-type component; other expressions pass as
  anonymous temporaries, matching FORTRAN's evaluation of expressions into
  temporaries.
* COMMON blocks are runtime-global, name-associated storage: every unit
  declaring ``COMMON /blk/ a, b`` sees the same cells (§3.2).  Shape/kind
  consistency across units is checked.
* SAVE (and ``ALLOCATABLE, SAVE``) locals persist across calls — the FUN3D
  no-reallocation behaviour (§4.2.1).
* ``!$OMP`` sentinels do not change results (execution is sequential) but
  every region entry is logged in :attr:`FortranRuntime.omp_log` so tests
  can verify which loops executed under which directives, and allocation
  events are counted for the performance model's calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..errors import FortranRuntimeError
from ..numeric import sentinel as _sentinel
from ..runconfig import current
from .ast import (
    FAllocate,
    FAssign,
    FBin,
    FCall,
    FCommon,
    FContinue,
    FCycle,
    FDeallocate,
    FDecl,
    FDeclEntity,
    FDo,
    FDoWhile,
    FExit,
    FExpr,
    FFieldRef,
    FIf,
    FImplicitNone,
    FIndexed,
    FLogical,
    FModule,
    FNum,
    FOmpDirective,
    FPrint,
    FProgramUnit,
    FReturn,
    FSourceFile,
    FStop,
    FStmt,
    FString,
    FSubprogram,
    FTypeDef,
    FTypeSpec,
    FUn,
    FUse,
    FVar,
)
from .intrinsics import INTRINSICS, SPECIAL_FORMS
from .parser import parse_source

__all__ = ["FortranRuntime", "Slot", "DerivedValue", "OmpEvent", "StopSignal"]


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

_DTYPES = {
    ("integer", 4): np.dtype(np.int64),
    ("integer", 8): np.dtype(np.int64),
    ("real", 4): np.dtype(np.float32),
    ("real", 8): np.dtype(np.float64),
    ("logical", 4): np.dtype(np.bool_),
    ("logical", 8): np.dtype(np.bool_),
}


def _dtype_of(spec: FTypeSpec) -> np.dtype:
    if spec.base == "character":
        return np.dtype("U256")
    try:
        return _DTYPES[(spec.base, spec.kind)]
    except KeyError:
        raise FortranRuntimeError(f"unsupported type {spec.base}*{spec.kind}") from None


@dataclass
class DerivedValue:
    """An instance of a derived TYPE: named fields holding storage."""

    type_name: str
    fields: dict[str, Any]


@dataclass
class Slot:
    """One variable's storage cell."""

    name: str
    spec: FTypeSpec
    dims: tuple[FExpr, ...] = ()
    deferred_rank: int = 0
    allocatable: bool = False
    save: bool = False
    parameter: bool = False
    intent: str | None = None
    store: Any = None            # ndarray | DerivedValue | None (unallocated)

    @property
    def is_array(self) -> bool:
        return bool(self.dims) or self.deferred_rank > 0

    @property
    def allocated(self) -> bool:
        return self.store is not None


@dataclass
class OmpEvent:
    kind: str                    # 'parallel_do' | 'atomic' | 'critical'
    unit: str
    line: int
    collapse: int = 1
    reductions: tuple = ()
    private: tuple = ()
    iterations: int = 0


class StopSignal(Exception):
    def __init__(self, message: str | None):
        self.message = message
        super().__init__(message or "STOP")


class _Return(Exception):
    pass


class _Exit(Exception):
    pass


class _Cycle(Exception):
    pass


@dataclass
class ModuleEnv:
    name: str
    variables: dict[str, Slot] = field(default_factory=dict)
    typedefs: dict[str, list[FDecl]] = field(default_factory=dict)
    subprograms: dict[str, FSubprogram] = field(default_factory=dict)
    uses: list[FUse] = field(default_factory=list)


@dataclass
class _Frame:
    unit: FSubprogram
    module: ModuleEnv | None
    locals: dict[str, Slot]
    uses: list[FUse]
    commons: dict[str, str] = field(default_factory=dict)  # local name -> block
    do_depth: int = 0


class FortranRuntime:
    """Loads FORTRAN sources and executes subprograms / programs."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleEnv] = {}
        self.programs: dict[str, FProgramUnit] = {}
        self.bare_subprograms: dict[str, FSubprogram] = {}
        self.commons: dict[str, dict[str, Slot]] = {}
        self.output: list[tuple] = []
        self.omp_log: list[OmpEvent] = []
        self.allocation_count = 0
        self._save_store: dict[tuple[str, str], Slot] = {}
        self._call_depth = 0
        self.max_call_depth = 100
        # The run's sentinels, captured on entry by call()/run_program().
        self._sentinels = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, source: str) -> None:
        """Parse and register a source file (modules become importable)."""
        f = parse_source(source)
        for mod in f.modules:
            self._load_module(mod)
        for prog in f.programs:
            self.programs[prog.name] = prog
        for sub in f.subprograms:
            self.bare_subprograms[sub.name] = sub

    def _load_module(self, mod: FModule) -> None:
        env = ModuleEnv(name=mod.name)
        self.modules[mod.name] = env
        for d in mod.decls:
            if isinstance(d, FUse):
                env.uses.append(d)
            elif isinstance(d, FTypeDef):
                env.typedefs[d.name] = d.decls
            elif isinstance(d, FDecl):
                for slot, ent in zip(self._decl_slots(d, env=env, frame=None),
                                     d.entities):
                    env.variables[slot.name] = slot
                    self._initialize_slot(slot, env=env, frame=None,
                                          init=ent.init)
            elif isinstance(d, FImplicitNone):
                pass
            elif isinstance(d, FOmpDirective):
                # Module-level THREADPRIVATE: recorded, no storage effect in
                # this sequential runtime.
                self.omp_log.append(OmpEvent(kind=d.kind, unit=mod.name,
                                             line=d.line, private=d.private))
            else:
                raise FortranRuntimeError(
                    f"module {mod.name}: unsupported declaration {type(d).__name__}"
                )
        for sub in mod.subprograms:
            env.subprograms[sub.name] = sub

    # ------------------------------------------------------------------
    # declaration -> slots
    # ------------------------------------------------------------------
    def _decl_slots(self, d: FDecl, env: ModuleEnv | None, frame: _Frame | None) -> Iterator[Slot]:
        for ent in d.entities:
            yield Slot(
                name=ent.name,
                spec=d.spec,
                dims=ent.dims if not ent.deferred_rank else (),
                deferred_rank=ent.deferred_rank,
                allocatable="allocatable" in d.attrs or "pointer" in d.attrs,
                save="save" in d.attrs,
                parameter="parameter" in d.attrs,
                intent=d.intent,
            )

    def _initialize_slot(self, slot: Slot, env: ModuleEnv | None, frame: _Frame | None,
                         init: FExpr | None = None) -> None:
        """Materialize storage for a non-allocatable slot."""
        if slot.allocatable or slot.deferred_rank:
            return
        if slot.spec.base == "type":
            slot.store = self._new_derived(slot.spec.type_name, env, frame)
            return
        dtype = _dtype_of(slot.spec)
        if slot.is_array:
            shape = tuple(
                int(self._eval(dim, frame)) if frame is not None else int(self._eval_const(dim, env))
                for dim in slot.dims
            )
            for n in shape:
                if n < 0:
                    raise FortranRuntimeError(f"{slot.name}: negative extent {n}")
            slot.store = np.zeros(shape, dtype=dtype)
            self.allocation_count += 1
        else:
            slot.store = np.zeros((), dtype=dtype)
        if init is not None:
            value = self._eval(init, frame) if frame is not None else self._eval_const(init, env)
            if slot.is_array:
                slot.store[...] = value
            else:
                slot.store[()] = value

    def _new_derived(self, type_name: str | None, env: ModuleEnv | None,
                     frame: _Frame | None) -> DerivedValue:
        decls = self._find_typedef(type_name, env, frame)
        fields: dict[str, Any] = {}
        for d in decls:
            for ent in d.entities:
                dtype = _dtype_of(d.spec)
                if ent.dims:
                    shape = tuple(int(self._eval_const(x, env)) for x in ent.dims)
                    fields[ent.name] = np.zeros(shape, dtype=dtype)
                else:
                    fields[ent.name] = np.zeros((), dtype=dtype)
        return DerivedValue(type_name=type_name or "?", fields=fields)

    def _find_typedef(self, type_name: str | None, env: ModuleEnv | None,
                      frame: _Frame | None) -> list[FDecl]:
        if type_name is None:
            raise FortranRuntimeError("TYPE declaration without a type name")
        envs: list[ModuleEnv] = []
        if env is not None:
            envs.append(env)
        if frame is not None and frame.module is not None:
            envs.append(frame.module)
        seen: set[str] = set()
        stack = list(envs)
        for e in envs:
            for u in e.uses:
                if u.module in self.modules:
                    stack.append(self.modules[u.module])
        if frame is not None:
            for u in frame.uses:
                if u.module in self.modules:
                    stack.append(self.modules[u.module])
        for e in stack:
            if e.name in seen:
                continue
            seen.add(e.name)
            if type_name in e.typedefs:
                return e.typedefs[type_name]
            for u in e.uses:
                m = self.modules.get(u.module)
                if m and type_name in m.typedefs:
                    return m.typedefs[type_name]
        raise FortranRuntimeError(f"unknown derived type {type_name!r}")

    def _eval_const(self, e: FExpr, env: ModuleEnv | None) -> Any:
        """Evaluate an expression using only module-level names."""
        if isinstance(e, FNum):
            return e.value
        if isinstance(e, FVar) and env is not None:
            slot = env.variables.get(e.name)
            if slot is None:
                for u in env.uses:
                    m = self.modules.get(u.module)
                    if m and e.name in m.variables:
                        slot = m.variables[e.name]
                        break
            if slot is not None and slot.store is not None and slot.store.ndim == 0:
                return slot.store[()]
        if isinstance(e, FUn) and e.op == "neg":
            return -self._eval_const(e.operand, env)
        if isinstance(e, FBin):
            l = self._eval_const(e.left, env)
            r = self._eval_const(e.right, env)
            return {"+": l + r, "-": l - r, "*": l * r}[e.op]
        raise FortranRuntimeError("unsupported constant expression at module scope")

    # ------------------------------------------------------------------
    # calling
    # ------------------------------------------------------------------
    def call(self, name: str, args: list[Any] | tuple = (), module: str | None = None) -> Any:
        """Call a subprogram by name with NumPy arguments.

        Arrays pass by reference; Python scalars are copied into
        temporaries (use 0-d arrays for intent(out) scalars).
        """
        sub, env = self._find_subprogram(name.lower(), module)
        self._sentinels = current().sentinels
        return self._invoke(sub, env, list(args))

    def run_program(self, name: str | None = None) -> None:
        if not self.programs:
            raise FortranRuntimeError("no PROGRAM unit loaded")
        prog = self.programs[name] if name else next(iter(self.programs.values()))
        pseudo = FSubprogram(kind="subroutine", name=prog.name, params=[],
                             result=None, decls=prog.decls, body=prog.body)
        env = None
        # A PROGRAM's CONTAINS'd subprograms are registered as bare units.
        for sub in prog.subprograms:
            self.bare_subprograms.setdefault(sub.name, sub)
        self._sentinels = current().sentinels
        try:
            self._invoke(pseudo, env, [])
        except StopSignal:
            pass

    def _find_subprogram(self, name: str, module: str | None) -> tuple[FSubprogram, ModuleEnv | None]:
        if module is not None:
            env = self.modules.get(module)
            if env and name in env.subprograms:
                return env.subprograms[name], env
            raise FortranRuntimeError(f"no subprogram {name!r} in module {module!r}")
        for env in self.modules.values():
            if name in env.subprograms:
                return env.subprograms[name], env
        if name in self.bare_subprograms:
            return self.bare_subprograms[name], None
        raise FortranRuntimeError(f"no subprogram named {name!r}")

    def _invoke(self, sub: FSubprogram, env: ModuleEnv | None, args: list[Any]) -> Any:
        if self._call_depth >= self.max_call_depth:
            raise FortranRuntimeError(f"call depth exceeded in {sub.name}")
        if len(args) != len(sub.params):
            raise FortranRuntimeError(
                f"{sub.name}: expected {len(sub.params)} argument(s), got {len(args)}"
            )
        frame = _Frame(unit=sub, module=env, locals={}, uses=[])
        # Pass 1: classify declarations.
        decl_by_name: dict[str, tuple[FDecl, FDeclEntity]] = {}
        commons: list[FCommon] = []
        for d in sub.decls:
            if isinstance(d, FUse):
                frame.uses.append(d)
            elif isinstance(d, FCommon):
                commons.append(d)
            elif isinstance(d, FDecl):
                for ent in d.entities:
                    decl_by_name[ent.name] = (d, ent)
            elif isinstance(d, (FImplicitNone, FTypeDef)):
                pass
        # Bind parameters by reference.
        for pname, actual in zip(sub.params, args):
            slot = self._make_slot(pname, decl_by_name.get(pname))
            slot.store = self._coerce_argument(pname, slot, actual)
            frame.locals[pname] = slot
        # Result variable.
        if sub.kind == "function" and sub.result:
            rslot = self._make_slot(sub.result, decl_by_name.get(sub.result))
            self._materialize_local(rslot, frame, decl_by_name.get(sub.result))
            frame.locals[sub.result] = rslot
        # COMMON associations.
        for c in commons:
            block = self.commons.setdefault(c.block, {})
            for vname in c.names:
                spec = decl_by_name.get(vname)
                if vname not in block:
                    slot = self._make_slot(vname, spec)
                    self._materialize_local(slot, frame, spec)
                    block[vname] = slot
                else:
                    self._check_common_compat(c.block, block[vname], spec, frame)
                frame.locals[vname] = block[vname]
                frame.commons[vname] = c.block
        # Remaining locals.
        for vname, (d, ent) in decl_by_name.items():
            if vname in frame.locals:
                continue
            slot = self._make_slot(vname, (d, ent))
            if slot.save:
                key = (sub.name, vname)
                prev = self._save_store.get(key)
                if prev is not None:
                    frame.locals[vname] = prev
                    continue
                self._materialize_local(slot, frame, (d, ent))
                self._save_store[key] = slot
            else:
                self._materialize_local(slot, frame, (d, ent))
            frame.locals[vname] = slot

        self._call_depth += 1
        try:
            self._exec_block(frame, sub.body)
        except _Return:
            pass
        finally:
            self._call_depth -= 1

        if sub.kind == "function":
            rslot = frame.locals[sub.result]
            if rslot.store is None:
                raise FortranRuntimeError(f"{sub.name}: result never set")
            return rslot.store[()] if getattr(rslot.store, "ndim", 1) == 0 else rslot.store
        return None

    def _make_slot(self, name: str, spec: tuple[FDecl, FDeclEntity] | None) -> Slot:
        if spec is None:
            raise FortranRuntimeError(
                f"variable {name!r} has no declaration (IMPLICIT NONE everywhere)"
            )
        d, ent = spec
        return Slot(
            name=name,
            spec=d.spec,
            dims=ent.dims if not ent.deferred_rank else (),
            deferred_rank=ent.deferred_rank,
            allocatable="allocatable" in d.attrs or "pointer" in d.attrs,
            save="save" in d.attrs,
            parameter="parameter" in d.attrs,
            intent=d.intent,
        )

    def _materialize_local(self, slot: Slot, frame: _Frame,
                           spec: tuple[FDecl, FDeclEntity] | None) -> None:
        if slot.allocatable or slot.deferred_rank:
            return
        if slot.spec.base == "type":
            slot.store = self._new_derived(slot.spec.type_name, frame.module, frame)
            return
        dtype = _dtype_of(slot.spec)
        if slot.is_array:
            shape = tuple(int(self._as_int(self._eval(x, frame))) for x in slot.dims)
            slot.store = np.zeros(shape, dtype=dtype)
            self.allocation_count += 1
        else:
            slot.store = np.zeros((), dtype=dtype)
        if spec is not None and spec[1].init is not None:
            value = self._eval(spec[1].init, frame)
            if slot.is_array:
                slot.store[...] = value
            else:
                slot.store[()] = value

    def _coerce_argument(self, pname: str, slot: Slot, actual: Any) -> Any:
        if isinstance(actual, DerivedValue):
            return actual
        if isinstance(actual, np.ndarray):
            if slot.spec.base != "type":
                want = _dtype_of(slot.spec)
                if actual.ndim > 0 and actual.dtype != want:
                    raise FortranRuntimeError(
                        f"argument {pname!r}: dtype {actual.dtype} != {want}"
                    )
            return actual
        if isinstance(actual, (int, float, bool, np.generic)):
            dtype = _dtype_of(slot.spec)
            cell = np.zeros((), dtype=dtype)
            cell[()] = actual
            return cell
        raise FortranRuntimeError(f"argument {pname!r}: unsupported value {type(actual)}")

    def _check_common_compat(self, block: str, existing: Slot,
                             spec: tuple[FDecl, FDeclEntity] | None, frame: _Frame) -> None:
        if spec is None:
            return
        d, ent = spec
        if _dtype_of(d.spec) != _dtype_of(existing.spec):
            raise FortranRuntimeError(
                f"COMMON /{block}/ {existing.name}: kind mismatch across units"
            )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec_block(self, frame: _Frame, stmts: list[FStmt]) -> None:
        pending_omp: FOmpDirective | None = None
        skip_next_atomic = False
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, FOmpDirective):
                if s.kind == "parallel_do":
                    pending_omp = s
                elif s.kind == "atomic":
                    self.omp_log.append(OmpEvent(kind="atomic", unit=frame.unit.name,
                                                 line=s.line))
                elif s.kind == "critical":
                    self.omp_log.append(OmpEvent(kind="critical", unit=frame.unit.name,
                                                 line=s.line))
                elif s.kind == "simd":
                    self.omp_log.append(OmpEvent(kind="simd", unit=frame.unit.name,
                                                 line=s.line,
                                                 reductions=s.reductions))
                # end_* markers need no action.
                i += 1
                continue
            if isinstance(s, FDo) and pending_omp is not None:
                s.omp = pending_omp
                pending_omp = None
            self._exec_stmt(frame, s)
            i += 1

    def _exec_stmt(self, frame: _Frame, s: FStmt) -> None:
        if isinstance(s, FAssign):
            self._exec_assign(frame, s)
        elif isinstance(s, FCall):
            self._exec_call(frame, s.name, s.args)
        elif isinstance(s, FIf):
            for cond, body in s.branches:
                if cond is None or bool(self._eval(cond, frame)):
                    self._exec_block(frame, body)
                    return
        elif isinstance(s, FDo):
            self._exec_do(frame, s)
        elif isinstance(s, FDoWhile):
            guard = 0
            while bool(self._eval(s.cond, frame)):
                guard += 1
                if guard > 100_000_000:
                    raise FortranRuntimeError("DO WHILE runaway")
                try:
                    self._exec_block(frame, s.body)
                except _Exit:
                    break
                except _Cycle:
                    continue
        elif isinstance(s, FReturn):
            raise _Return()
        elif isinstance(s, FExit):
            raise _Exit()
        elif isinstance(s, FCycle):
            raise _Cycle()
        elif isinstance(s, FContinue):
            pass
        elif isinstance(s, FAllocate):
            for target, dims in s.items:
                slot = self._resolve_slot(frame, target)
                shape = tuple(int(self._as_int(self._eval(d, frame))) for d in dims)
                dtype = _dtype_of(slot.spec)
                slot.store = np.zeros(shape, dtype=dtype)
                self.allocation_count += 1
        elif isinstance(s, FDeallocate):
            for item in s.items:
                slot = self._resolve_slot(frame, item)
                slot.store = None
        elif isinstance(s, FPrint):
            self.output.append(tuple(self._to_python(self._eval(a, frame)) for a in s.args))
        elif isinstance(s, FStop):
            raise StopSignal(s.message)
        else:
            raise FortranRuntimeError(f"cannot execute {type(s).__name__}")

    @staticmethod
    def _to_python(v: Any) -> Any:
        if isinstance(v, np.generic):
            return v.item()
        return v

    def _exec_do(self, frame: _Frame, s: FDo) -> None:
        start = self._as_int(self._eval(s.start, frame))
        end = self._as_int(self._eval(s.end, frame))
        step = self._as_int(self._eval(s.step, frame)) if s.step is not None else 1
        if step == 0:
            raise FortranRuntimeError("DO step of zero")
        var_slot = frame.locals.get(s.var)
        if var_slot is None or var_slot.store is None:
            raise FortranRuntimeError(f"undeclared DO variable {s.var!r}")
        if s.omp is not None:
            trip = max(0, (end - start) // step + 1) if (end - start) * step >= 0 else 0
            self.omp_log.append(OmpEvent(
                kind="parallel_do", unit=frame.unit.name, line=s.line,
                collapse=s.omp.collapse, reductions=s.omp.reductions,
                private=s.omp.private, iterations=trip,
            ))
        frame.do_depth += 1
        try:
            i = start
            while (i <= end) if step > 0 else (i >= end):
                var_slot.store[()] = i
                try:
                    self._exec_block(frame, s.body)
                except _Exit:
                    break
                except _Cycle:
                    pass
                i += step
        finally:
            frame.do_depth -= 1

    def _exec_assign(self, frame: _Frame, s: FAssign) -> None:
        target = s.target
        value = self._eval(s.value, frame)
        if isinstance(target, FVar):
            slot = frame.locals.get(target.name)
            if slot is None:
                slot = self._lookup_nonlocal_slot(frame, target.name)
            if slot is None:
                raise FortranRuntimeError(f"assignment to undeclared {target.name!r}")
            if slot.parameter:
                raise FortranRuntimeError(f"cannot assign to PARAMETER {target.name!r}")
            if slot.store is None:
                raise FortranRuntimeError(f"{target.name!r} used before ALLOCATE")
            if self._sentinels is not None:
                _sentinel.check_value(
                    value, function=self._assign_site(frame, s),
                    grid=target.name, config=self._sentinels)
            if slot.store.ndim == 0:
                slot.store[()] = value
            else:
                slot.store[...] = value   # whole-array assignment
            return
        store, idx = self._resolve_element(frame, target)
        if self._sentinels is not None:
            _sentinel.check_value(
                value, function=self._assign_site(frame, s),
                grid=self._target_name(target),
                cell=None if idx is None else tuple(i + 1 for i in idx),
                config=self._sentinels)
        if idx is None:
            store[...] = value
        else:
            store[idx] = value

    @staticmethod
    def _assign_site(frame: _Frame, s: FAssign) -> str:
        name = frame.unit.name
        return f"{name}:{s.line}" if s.line else name

    @classmethod
    def _target_name(cls, target: FExpr) -> str:
        if isinstance(target, FVar):
            return target.name
        if isinstance(target, FIndexed):
            return cls._target_name(target.base)
        if isinstance(target, FFieldRef):
            return f"{cls._target_name(target.base)}%{target.field}"
        return ""

    def _exec_call(self, frame: _Frame, name: str, argexprs: tuple[FExpr, ...]) -> Any:
        sub, env = self._find_callee(frame, name)
        args = [self._eval_actual(frame, a) for a in argexprs]
        return self._invoke(sub, env, args)

    def _find_callee(self, frame: _Frame, name: str) -> tuple[FSubprogram, ModuleEnv | None]:
        if frame.module is not None and name in frame.module.subprograms:
            return frame.module.subprograms[name], frame.module
        for u in frame.uses + (frame.module.uses if frame.module else []):
            m = self.modules.get(u.module)
            if m and (u.only is None or name in u.only) and name in m.subprograms:
                return m.subprograms[name], m
        for env in self.modules.values():
            if name in env.subprograms:
                return env.subprograms[name], env
        if name in self.bare_subprograms:
            return self.bare_subprograms[name], None
        raise FortranRuntimeError(f"no subprogram named {name!r}")

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _lookup_nonlocal_slot(self, frame: _Frame, name: str) -> Slot | None:
        if frame.module is not None and name in frame.module.variables:
            return frame.module.variables[name]
        search_uses = frame.uses + (frame.module.uses if frame.module else [])
        for u in search_uses:
            m = self.modules.get(u.module)
            if m is None:
                continue
            if u.only is not None and name not in u.only:
                continue
            if name in m.variables:
                return m.variables[name]
            # one level of re-export
            for u2 in m.uses:
                m2 = self.modules.get(u2.module)
                if m2 and name in m2.variables:
                    return m2.variables[name]
        return None

    def _resolve_slot(self, frame: _Frame, e: FExpr) -> Slot:
        if isinstance(e, FVar):
            slot = frame.locals.get(e.name) or self._lookup_nonlocal_slot(frame, e.name)
            if slot is None:
                raise FortranRuntimeError(f"unknown variable {e.name!r}")
            return slot
        if isinstance(e, FIndexed):
            return self._resolve_slot(frame, e.base)
        raise FortranRuntimeError(f"cannot resolve slot for {type(e).__name__}")

    def _resolve_element(self, frame: _Frame, target: FExpr) -> tuple[Any, tuple | None]:
        """Resolve an assignment target to (storage, index-or-None)."""
        if isinstance(target, FIndexed):
            base_store = self._eval_storage(frame, target.base)
            idx = tuple(self._as_int(self._eval(a, frame)) - 1 for a in target.args)
            self._check_bounds(base_store, idx, target)
            return base_store, idx
        if isinstance(target, FFieldRef):
            base = self._eval_storage(frame, target.base)
            if not isinstance(base, DerivedValue):
                raise FortranRuntimeError(f"%{target.field} on a non-TYPE value")
            store = base.fields.get(target.field)
            if store is None:
                raise FortranRuntimeError(
                    f"TYPE {base.type_name} has no component {target.field!r}"
                )
            if store.ndim == 0:
                return store, ()
            return store, None
        raise FortranRuntimeError(f"bad assignment target {type(target).__name__}")

    def _eval_storage(self, frame: _Frame, e: FExpr) -> Any:
        """Evaluate a designator to its *storage* (not a copied value)."""
        if isinstance(e, FVar):
            slot = frame.locals.get(e.name) or self._lookup_nonlocal_slot(frame, e.name)
            if slot is None:
                raise FortranRuntimeError(f"unknown variable {e.name!r}")
            if slot.store is None:
                raise FortranRuntimeError(f"{e.name!r} used before ALLOCATE")
            return slot.store
        if isinstance(e, FFieldRef):
            base = self._eval_storage(frame, e.base)
            if isinstance(base, DerivedValue):
                store = base.fields.get(e.field)
                if store is None:
                    raise FortranRuntimeError(
                        f"TYPE {base.type_name} has no component {e.field!r}"
                    )
                return store
            raise FortranRuntimeError(f"%{e.field} on a non-TYPE value")
        if isinstance(e, FIndexed):
            # Element of array-of-derived or sub-array: only element access
            # of numeric arrays is supported as storage.
            base = self._eval_storage(frame, e.base)
            idx = tuple(self._as_int(self._eval(a, frame)) - 1 for a in e.args)
            self._check_bounds(base, idx, e)
            if isinstance(base, np.ndarray):
                return base[idx]
            raise FortranRuntimeError("unsupported indexed storage")
        raise FortranRuntimeError(f"not a designator: {type(e).__name__}")

    @staticmethod
    def _check_bounds(store: Any, idx: tuple, node: FExpr) -> None:
        if not isinstance(store, np.ndarray):
            raise FortranRuntimeError("indexing a non-array")
        if len(idx) != store.ndim:
            raise FortranRuntimeError(
                f"rank mismatch: {len(idx)} subscript(s) for rank-{store.ndim} array"
            )
        for k, (i, n) in enumerate(zip(idx, store.shape)):
            if not (0 <= i < n):
                raise FortranRuntimeError(
                    f"subscript {i + 1} out of bounds for dimension {k + 1} (extent {n})"
                )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval_actual(self, frame: _Frame, e: FExpr) -> Any:
        """Evaluate an actual argument, passing storage by reference when
        the argument is a designator."""
        if isinstance(e, FVar):
            slot = frame.locals.get(e.name) or self._lookup_nonlocal_slot(frame, e.name)
            if slot is not None:
                if slot.store is None:
                    raise FortranRuntimeError(f"{e.name!r} used before ALLOCATE")
                return slot.store
        if isinstance(e, FFieldRef):
            return self._eval_storage(frame, e)
        if isinstance(e, FIndexed) and isinstance(e.base, (FVar, FFieldRef)):
            # Array element by reference (0-d view) if base is an array.
            try:
                base = self._eval_storage(frame, e.base)
            except FortranRuntimeError:
                base = None
            if isinstance(base, np.ndarray) and base.ndim == len(e.args) and base.ndim > 0:
                idx = tuple(self._as_int(self._eval(a, frame)) - 1 for a in e.args)
                self._check_bounds(base, idx, e)
                view = base[idx[:-1] + (slice(idx[-1], idx[-1] + 1),)]
                return view.reshape(())
        value = self._eval(e, frame)
        if isinstance(value, np.ndarray):
            return value
        cell = np.zeros((), dtype=np.asarray(value).dtype if not isinstance(value, bool) else np.bool_)
        cell[()] = value
        return cell

    def _as_int(self, v: Any) -> int:
        if isinstance(v, np.ndarray):
            if v.ndim != 0:
                raise FortranRuntimeError("array used where a scalar is required")
            v = v[()]
        return int(v)

    def _eval(self, e: FExpr, frame: _Frame) -> Any:
        if isinstance(e, FNum):
            if isinstance(e.value, int):
                return np.int64(e.value)
            return np.float64(e.value)
        if isinstance(e, FString):
            return e.value
        if isinstance(e, FLogical):
            return np.bool_(e.value)
        if isinstance(e, FVar):
            slot = frame.locals.get(e.name) or self._lookup_nonlocal_slot(frame, e.name)
            if slot is not None:
                if slot.store is None:
                    raise FortranRuntimeError(f"{e.name!r} used before ALLOCATE")
                store = slot.store
                if isinstance(store, np.ndarray) and store.ndim == 0:
                    return store[()]
                return store
            # Argument-less function call? Not supported; report clearly.
            raise FortranRuntimeError(f"unknown name {e.name!r}")
        if isinstance(e, FFieldRef):
            store = self._eval_storage(frame, e)
            if isinstance(store, np.ndarray) and store.ndim == 0:
                return store[()]
            return store
        if isinstance(e, FIndexed):
            return self._eval_indexed(e, frame)
        if isinstance(e, FUn):
            v = self._eval(e.operand, frame)
            if e.op == "neg":
                return -v
            if e.op == "not":
                return np.bool_(not bool(v))
            return v
        if isinstance(e, FBin):
            return self._eval_bin(e, frame)
        raise FortranRuntimeError(f"cannot evaluate {type(e).__name__}")

    def _eval_indexed(self, e: FIndexed, frame: _Frame) -> Any:
        # Resolution order: variable (array) -> user subprogram -> intrinsic.
        if isinstance(e.base, FVar):
            name = e.base.name
            slot = frame.locals.get(name) or self._lookup_nonlocal_slot(frame, name)
            if slot is not None:
                store = slot.store
                if store is None:
                    raise FortranRuntimeError(f"{name!r} used before ALLOCATE")
                if isinstance(store, np.ndarray):
                    idx = tuple(self._as_int(self._eval(a, frame)) - 1 for a in e.args)
                    self._check_bounds(store, idx, e)
                    return store[idx]
                raise FortranRuntimeError(f"{name!r} is not indexable")
            if name in SPECIAL_FORMS:
                return self._special_form(name, e.args, frame)
            try:
                sub, env = self._find_callee(frame, name)
            except FortranRuntimeError:
                sub = None
            if sub is not None:
                args = [self._eval_actual(frame, a) for a in e.args]
                return self._invoke(sub, env, args)
            fn = INTRINSICS.get(name)
            if fn is not None:
                args = [self._eval(a, frame) for a in e.args]
                return fn(*args)
            raise FortranRuntimeError(f"unknown array/function {name!r}")
        if isinstance(e.base, FFieldRef):
            store = self._eval_storage(frame, e.base)
            if isinstance(store, np.ndarray):
                idx = tuple(self._as_int(self._eval(a, frame)) - 1 for a in e.args)
                self._check_bounds(store, idx, e)
                return store[idx]
        raise FortranRuntimeError("unsupported indexed expression")

    def _special_form(self, name: str, args: tuple[FExpr, ...], frame: _Frame) -> Any:
        if name == "allocated":
            if len(args) != 1:
                raise FortranRuntimeError("ALLOCATED takes one argument")
            slot = self._resolve_slot(frame, args[0])
            return np.bool_(slot.allocated)
        raise FortranRuntimeError(f"unknown special form {name!r}")

    def _eval_bin(self, e: FBin, frame: _Frame) -> Any:
        op = e.op
        if op == "and":
            return np.bool_(bool(self._eval(e.left, frame)) and bool(self._eval(e.right, frame)))
        if op == "or":
            return np.bool_(bool(self._eval(e.left, frame)) or bool(self._eval(e.right, frame)))
        lv = self._eval(e.left, frame)
        rv = self._eval(e.right, frame)
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            if self._int_like(lv) and self._int_like(rv):
                return np.int64(np.trunc(lv / rv))
            return lv / rv
        if op == "**":
            return lv ** rv
        if op == "==":
            return np.bool_(lv == rv)
        if op == "/=":
            return np.bool_(lv != rv)
        if op == "<":
            return np.bool_(lv < rv)
        if op == "<=":
            return np.bool_(lv <= rv)
        if op == ">":
            return np.bool_(lv > rv)
        if op == ">=":
            return np.bool_(lv >= rv)
        raise FortranRuntimeError(f"unknown operator {op!r}")

    @staticmethod
    def _int_like(v: Any) -> bool:
        if isinstance(v, bool) or isinstance(v, np.bool_):
            return False
        if isinstance(v, (int, np.integer)):
            return True
        return isinstance(v, np.ndarray) and v.ndim == 0 and np.issubdtype(v.dtype, np.integer)
