"""Per-layer spans for the traced run, installed from outside ``src/``.

For the length of one pass, each layer's public entry point is replaced
by a timing wrapper on the module or class its caller looks it up on,
and the original is put back when the pass ends.  The untraced run
installs nothing, so its figures carry no tracing cost.

The batch worker imports its stages inside the compile function, so
wrapping the package attribute catches the serial (in-process) pass;
``run_item`` installs its own :func:`repro.observe.observed` around each
item, so a wrapper reads counter deltas from whichever registry
:func:`repro.observe.get_metrics` returns at the time of the call.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import ExitStack, contextmanager, nullcontext

from stats import Recorder

JOBS = 2


def _fortran_load(rec: Recorder) -> str:
    return f"fortranlib.{rec.path}.load_s"


def _fortran_exec(rec: Recorder) -> str:
    return f"fortranlib.{rec.path}.exec_s"


def _plan_directives(rec: Recorder, result, args) -> None:
    from repro.observe import get_metrics

    rec.add("optimize.plan.directives",
            get_metrics().gauge("optimize.plan.directives").value)


def _stash_code(rec: Recorder, result, args) -> None:
    rec.stash.append(("code", result))


def _stash_lift(rec: Recorder, result, args) -> None:
    rec.stash.append(("lift", (args[1], result.fallbacks)))


# (module, class or None, attribute, span name, counters, after-hook)
COMPILE_POINTS = (
    ("repro.fuzz", None, "build_program", "core.build_s", (), None),
    ("repro.core.project", None, "program_from_dict", "core.build_s", (),
     None),
    ("repro.core.validate", None, "validate_program", "core.build_s", (),
     None),
    ("repro.optimize", None, "make_plan", "optimize.plan_s", (),
     _plan_directives),
    ("repro.optimize.plan", None, "analyze_program",
     "analysis.parallelize_s",
     ("analysis.steps", "analysis.steps.parallel",
      "analysis.dependence.tests"), None),
    ("repro.codegen", None, "generate_fortran_module", "codegen.fortran_s",
     ("codegen.fortran.lines",), _stash_code),
    ("repro.fortranlib.parser", None, "parse_source", "fortranlib.parse_s",
     ("fortran.lex.tokens",), None),
    ("repro.lint.dataflow", None, "analyze_batch_ranges",
     "analysis.dataflow_s", ("lint.dataflow.subscripts_proven",), None),
    ("repro.lint.runner", None, "lint_text", "lint.lint_s", (), None),
)

CACHE_POINTS = (
    ("repro.batch.cache", "ArtifactCache", "put", "batch.cache.write_s", (),
     None),
)

VALIDATE_POINTS = (
    ("repro.fortranlib.interp", "FortranRuntime", "load", _fortran_load, (),
     None),
    ("repro.fortranlib.interp", "FortranRuntime", "call", _fortran_exec, (),
     None),
    ("repro.fortranlib.interp", "FortranRuntime", "run_program",
     _fortran_exec, (), None),
    ("repro.sarb.validation", None, "check_program", "integration.splice_s",
     (), None),
    ("repro.sarb.validation", None, "splice_into_codebase",
     "integration.splice_s", (), None),
    ("repro.fun3d.validation", None, "splice_into_codebase",
     "integration.splice_s", (), None),
    ("repro.glafexec.interp", "Interpreter", "call",
     "glafexec.interp.call_s", (), None),
    ("repro.glafexec.executor", "VectorizedExecutor", "run",
     "glafexec.vectorized.run_s", (), _stash_lift),
    ("repro.glafexec.runner", "GeneratedModule", "__init__",
     "glafexec.python.build_s", (), None),
    ("repro.glafexec.runner", "GeneratedModule", "call",
     "glafexec.python.call_s", (), None),
)

#: Counters the program keeps during execution, read once per traced
#: validation pass from the benchmark's own observation.
EXEC_COUNTERS = ("exec.interp.calls", "exec.vectorized.steps",
                 "exec.vectorized.fallbacks",
                 "exec.vectorized.snapshot_elided")


def _counter_values(names) -> list:
    from repro.observe import get_metrics

    metrics = get_metrics()
    return [metrics.counter(n).value for n in names]


def _timed(rec: Recorder, name, fn, counters, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = _counter_values(counters) if counters else ()
        with rec.span(name(rec) if callable(name) else name):
            result = fn(*args, **kwargs)
        if counters:
            for c, b, a in zip(counters, before, _counter_values(counters)):
                rec.add(c, a - b)
        if after is not None:
            after(rec, result, args)
        return result
    return wrapper


@contextmanager
def _patched(owner, attr: str, replacement):
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def spans(rec: Recorder | None, points):
    """Wrap every entry point in ``points`` for the block (no-op when
    ``rec`` is ``None``: the untraced run)."""
    if rec is None:
        yield
        return
    with ExitStack() as stack:
        for module, cls, attr, name, counters, after in points:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            stack.enter_context(_patched(
                owner, attr,
                _timed(rec, name, getattr(owner, attr), counters, after)))
        yield


def span(rec: Recorder | None, name: str):
    """The benchmark's own span around a call it makes itself."""
    return nullcontext() if rec is None else rec.span(name)


def compile_layers(rec: Recorder, *, serial_wall: float,
                   serial_attributed: float, parallel_wall: float,
                   parallel_mode: str, cache_bytes: int, warm_wall: float,
                   warm_hits: int, items: int) -> dict:
    """The compile-phase per-layer figures of one traced round."""
    from repro.codegen import count_sloc

    t, c = rec.inclusive, rec.counts
    return {
        "core.build_s": t["core.build_s"],
        "analysis.parallelize_s": t["analysis.parallelize_s"],
        "analysis.steps": c["analysis.steps"],
        "analysis.steps.parallel": c["analysis.steps.parallel"],
        "analysis.dependence.tests": c["analysis.dependence.tests"],
        "optimize.plan_s": t["optimize.plan_s"],
        "optimize.plan.self_s": rec.self_time["optimize.plan_s"],
        "optimize.plan.directives": c["optimize.plan.directives"],
        "codegen.fortran_s": t["codegen.fortran_s"],
        "codegen.fortran.lines": c["codegen.fortran.lines"],
        "codegen.sloc": sum(count_sloc(code)
                            for kind, code in rec.stash if kind == "code"),
        "fortranlib.parse_s": t["fortranlib.parse_s"],
        "fortran.lex.tokens": c["fortran.lex.tokens"],
        "fortranlib.tokens_per_s": (
            c["fortran.lex.tokens"] / t["fortranlib.parse_s"]
            if t["fortranlib.parse_s"] else 0.0),
        "analysis.dataflow_s": t["analysis.dataflow_s"],
        "lint.dataflow.subscripts_proven":
            c["lint.dataflow.subscripts_proven"],
        "lint.lint_s": t["lint.lint_s"],
        "batch.serial_overhead_s": serial_wall - serial_attributed,
        "batch.parallel_overhead_s": parallel_wall - serial_wall / JOBS,
        "batch.mode.parallel": 1.0 if parallel_mode == "parallel" else 0.0,
        "batch.cache.write_s": t["batch.cache.write_s"],
        "batch.cache.bytes": float(cache_bytes),
        "batch.cache.warm_s": warm_wall,
        "batch.cache.hit_frac": warm_hits / items,
    }


def validate_layers(rec: Recorder, *, pass_wall: float,
                    attributed: float, counters: dict,
                    cells: int) -> dict:
    """The validation-phase per-layer figures of one traced round."""
    t = rec.inclusive
    loop_steps = lifted = 0
    for kind, value in rec.stash:
        if kind != "lift":
            continue
        program, fallbacks = value
        n = sum(1 for fn in program.functions() for s in fn.steps
                if s.is_loop)
        loop_steps += n
        lifted += n - len({(f.function, f.step_index) for f in fallbacks})
    out = {}
    for label in ("legacy", "generated", "spliced"):
        out[f"fortranlib.{label}.load_s"] = t[f"fortranlib.{label}.load_s"]
        out[f"fortranlib.{label}.exec_s"] = t[f"fortranlib.{label}.exec_s"]
    out.update({
        "integration.splice_s": t["integration.splice_s"],
        "glafexec.interp.call_s": t["glafexec.interp.call_s"],
        "glafexec.vectorized.run_s": t["glafexec.vectorized.run_s"],
        "glafexec.vectorized.lift_frac": (lifted / loop_steps
                                          if loop_steps else 0.0),
        "glafexec.python.build_s": t["glafexec.python.build_s"],
        "glafexec.python.call_s": t["glafexec.python.call_s"],
        "numeric.compare_s": t["numeric.compare_s"],
        "reference_s": t["reference_s"],
        "cells.written": float(cells),
        "unattributed_s": pass_wall - attributed,
    })
    out.update({name: float(counters[name]) for name in EXEC_COUNTERS})
    return out


def stop_forkserver() -> None:
    """Stop and wait for the forkserver a parallel batch left running, so
    the next parallel pass starts as cold as a fresh ``repro batch``."""
    from multiprocessing import forkserver

    forkserver._forkserver._stop()


def stop_resource_tracker() -> None:
    """Stop and wait for the helper the forkserver started (end of run)."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
