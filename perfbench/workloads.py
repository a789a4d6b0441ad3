"""The two workloads: their set-up and one round of a run.

Every round has the same two phases, so every workload reports every
metric; the workloads differ in how the work splits between them.

* Compile phase: the workload's corpus goes through
  :func:`repro.batch.run_batch` in three kinds of pass — cold and serial
  (``jobs=1``, fresh cache), cold and parallel (``jobs=2``, another fresh
  cache), and warm (``jobs=1``, on the serial pass's filled cache).
* Validation phase: the workload's case study runs through every
  execution path, each checked against the NumPy reference.

A run repeats rounds, so each metric's samples are spread over the whole
run rather than bunched in one stretch of it: on a shared host the
processor's speed changes in spells of about a second.  Each serial pass
and each path call lies between two samples of
:func:`stats.calibration_loop`, and the driver scales it by their mean.  An
untraced round makes each sample twice (serial pass, validation pass,
warm pass, sometimes a parallel pass, serial pass, validation pass).

``compile-corpus`` compiles 25 items and validates the paper-sized SARB
column; ``validate-fun3d`` compiles only its own case study (project plus
legacy sources) and validates a seeded tet mesh.  See ``README.md``
beside this file.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import layers
from stats import Recorder, calibration_loop

WORKLOADS = ("compile-corpus", "validate-fun3d")

#: Loop steps of each fuzz draw (profile ``full``) in the compile-corpus
#: workload.  A draw has 2-21 steps, and its compile time grows with them,
#: so 16 plain draws of one seed took up to 1.6 times as long to compile
#: as those of another.  The benchmark takes the first of the seed's
#: draws with each of these sizes (spread like the draws' own sizes), so
#: the seed changes the programs but not how much there is to compile.
#: With the two case studies the corpus has 25 items.
FUZZ_STEPS = (5, 5, 6, 6, 7, 8, 8, 9, 10, 10, 11, 12, 13, 14, 14, 16)
#: Fuzz draws looked at per seed (each of these sizes is 4-9% of draws).
FUZZ_DRAWS = 200
#: Mesh of the FUN3D case study: a jittered lattice of 27 points.  The
#: seed picks the jitter, and with it how many cells and edges the mesh
#: has (79-108 cells over seeds 0-299); the benchmark takes the first of
#: the seed's meshes with the most common size, so the seed changes the
#: geometry but not the work.
FUN3D_POINTS = 27
FUN3D_CELLS = 96
FUN3D_EDGES = 138
#: Meshes drawn per seed before giving up (about 3% have the size).
MESH_DRAWS = 1000
#: Variant of the generated and spliced FORTRAN paths.
VARIANT = "GLAF-parallel v3"
#: An untraced round makes a cold parallel pass only while such passes
#: have taken at most this share of the run so far: on compile-corpus one
#: takes more than twice as long as the rest of a round.
PARALLEL_SHARE = 0.5

PATHS = ("legacy_fortran", "generated_fortran", "spliced", "ir_interp",
         "vectorized", "generated_python")
#: Label of each FORTRAN-runtime path in the ``fortranlib.*`` layer names.
FORTRAN_LABELS = {"legacy_fortran": "legacy",
                  "generated_fortran": "generated", "spliced": "spliced"}


@dataclass
class Case:
    """One case study, ready to run through every execution path."""

    reference: Callable[[], Any]
    paths: dict[str, Callable[[], Any]]
    check: Callable[[Any, Any], bool]
    cells: Callable[[Any], int]


@dataclass
class Setup:
    items: list
    case: Case


@dataclass
class Rep:
    """What one round measured and checked."""

    traced: bool
    wall: float = 0.0
    parallel_wall: float = 0.0
    digest: str = ""
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Per metric, the calibration_loop time each sample is scaled by: the
    #: mean of those just before and after it (None: the work ran in other
    #: processes, and is not scaled).
    loops: dict[str, list[float | None]] = field(default_factory=dict)
    #: Every calibration_loop time taken in the round.
    calibration: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    #: What a traced round's batch passes measured, for compile_layers.
    batch: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def sample(self, name: str, value: float, loop: float | None) -> None:
        self.samples.setdefault(name, []).append(value)
        self.loops.setdefault(name, []).append(loop)

    def calibrate(self) -> float:
        loop = calibration_loop()
        self.calibration.append(loop)
        return loop

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _sarb_case(inp) -> Case:
    from repro.sarb import validation as sv

    return Case(
        reference=lambda: sv.run_reference(inp),
        paths={
            "legacy_fortran": lambda: sv.run_legacy_fortran(inp)[0],
            "generated_fortran":
                lambda: sv.run_generated_fortran(inp, variant=VARIANT)[0],
            "spliced": lambda: sv.run_spliced(inp, variant=VARIANT)[0],
            "ir_interp": lambda: sv.run_ir_interpreter(
                inp, guarded=False, executor="interpreter"),
            "vectorized": lambda: sv.run_ir_interpreter(
                inp, guarded=False, executor="vectorized"),
            "generated_python": lambda: sv.run_generated_python(inp),
        },
        check=lambda out, ref: sv.compare_outputs(
            out, ref, tolerance=sv.SARB_COMPARE_TOLERANCE).ok,
        cells=lambda out: sum(a.size for a in out.values()),
    )


def _fun3d_case(mesh) -> Case:
    from repro.fun3d import validation as fv

    return Case(
        reference=lambda: fv.run_reference(mesh),
        paths={
            "legacy_fortran": lambda: fv.run_legacy_fortran(mesh)[0],
            "generated_fortran":
                lambda: fv.run_generated_fortran(mesh, variant=VARIANT)[0],
            "spliced": lambda: fv.run_spliced(mesh, variant=VARIANT)[0],
            "ir_interp": lambda: fv.run_ir_interpreter(
                mesh, guarded=False, executor="interpreter"),
            "vectorized": lambda: fv.run_ir_interpreter(
                mesh, guarded=False, executor="vectorized"),
            "generated_python": lambda: fv.run_generated_python(mesh),
        },
        check=fv.rms_check,
        cells=lambda out: out.size,
    )


def fixed_size_mesh(seed: int):
    """The first of ``seed``'s meshes with :data:`FUN3D_CELLS` cells and
    :data:`FUN3D_EDGES` edges."""
    from repro.fun3d import make_mesh

    for k in range(MESH_DRAWS):
        mesh = make_mesh(FUN3D_POINTS, seed=seed * MESH_DRAWS + k)
        if (len(mesh.cell_nodes), len(mesh.edge_nodes)) == (
                FUN3D_CELLS, FUN3D_EDGES):
            return mesh
    raise RuntimeError(f"seed {seed}: none of {MESH_DRAWS} meshes has "
                       f"{FUN3D_CELLS} cells and {FUN3D_EDGES} edges")


def fixed_size_fuzz(seed: int) -> list:
    """The first of ``seed``'s fuzz draws with each size in
    :data:`FUZZ_STEPS`, as corpus items."""
    from repro.batch import ingest_corpus

    wanted = Counter(FUZZ_STEPS)
    items = []
    for item in ingest_corpus([f"fuzz:{seed}:{FUZZ_DRAWS}"],
                              fuzz_profile="full"):
        steps = sum(len(u["steps"])
                    for u in json.loads(item.content)["units"])
        if wanted[steps] > 0:
            wanted[steps] -= 1
            items.append(item)
    if len(items) < len(FUZZ_STEPS):
        raise RuntimeError(f"seed {seed}: {FUZZ_DRAWS} fuzz draws lack "
                           f"sizes {sorted(wanted.elements())}")
    return items


def _write_case_study(corpus: Path, study: str, program, sources) -> None:
    from repro.core.project import save_project

    save_project(program, corpus / f"{study}.json")
    for name, text in sources.items():
        (corpus / name).write_text(text)


def setup(workload: str, seed: int, workdir: Path) -> Setup:
    """Imports, inputs or mesh, the corpus on disk, and its ingest."""
    # The layers' modules load here, not lazily inside the first pass.
    import repro.codegen  # noqa: F401
    import repro.fuzz  # noqa: F401
    import repro.lint.dataflow  # noqa: F401
    import repro.lint.runner  # noqa: F401
    from repro.batch import ingest_corpus
    from repro.fun3d import build_fun3d_program
    from repro.fun3d.legacy_src import full_legacy_source as fun3d_sources
    from repro.sarb import build_sarb_program, make_inputs
    from repro.sarb.legacy_src import full_legacy_source as sarb_sources

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    corpus = workdir / "corpus"
    corpus.mkdir(parents=True)
    mesh = fixed_size_mesh(seed)
    _write_case_study(corpus, "fun3d", build_fun3d_program(),
                      fun3d_sources(mesh))
    inputs = [str(corpus)]
    fuzz = []
    if workload == "validate-fun3d":
        case = _fun3d_case(mesh)
    else:
        inp = make_inputs(seed=seed)
        _write_case_study(corpus, "sarb", build_sarb_program(inp.dims),
                          sarb_sources(inp.dims))
        case = _sarb_case(inp)
        fuzz = fixed_size_fuzz(seed)
    items = fuzz + ingest_corpus(inputs, fuzz_profile="full")
    return Setup(items=items, case=case)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _check_batch(rep: Rep, label: str, result) -> None:
    for o in result.outcomes:
        rep.op(o.status == "ok", f"{label} pass: item {o.id} {o.status}")


def _options(workdir: Path, tag: str, jobs: int):
    """Batch options with this pass's own cache, checkpoint and
    quarantine directories, so no pass reads another's."""
    from repro.batch import BatchOptions

    base = workdir / tag
    return BatchOptions(
        jobs=jobs, fuzz_profile="full", cache_dir=str(base / "cache"),
        checkpoint_dir=str(base / "ckpt"),
        quarantine_dir=str(base / "quarantine"))


def _check_digest(rep: Rep, label: str, result, digest: str) -> None:
    _check_batch(rep, label, result)
    rep.op(result.manifest["content_sha256"] == digest,
           f"{label} manifest digest differs from serial")


def serial_pass(items: list, workdir: Path, rep: Rep,
                rec: Recorder | None) -> str:
    """The cold ``jobs=1`` pass; returns the manifest digest every other
    pass of the round must reproduce."""
    from repro.batch import run_batch

    before = rep.calibrate()
    opts = _options(workdir, "serial", 1)
    mark = rec.top_level if rec is not None else 0.0
    with layers.spans(rec, layers.CACHE_POINTS + layers.COMPILE_POINTS):
        t0 = time.perf_counter()
        result = run_batch(items, opts)
        wall = time.perf_counter() - t0
    rep.sample("serial_items_per_s", len(items) / wall,
               (before + rep.calibrate()) / 2)
    _check_batch(rep, "serial", result)
    if rec is not None:
        rep.batch.update(
            serial_wall=wall, serial_attributed=rec.top_level - mark,
            cache_bytes=_dir_bytes(Path(opts.cache_dir)))
    return result.manifest["content_sha256"]


def warm_pass(items: list, workdir: Path, digest: str, rep: Rep,
              rec: Recorder | None) -> None:
    """``jobs=1`` again, on the serial pass's filled cache."""
    from repro.batch import run_batch

    opts = replace(_options(workdir, "warm", 1),
                   cache_dir=_options(workdir, "serial", 1).cache_dir)
    t0 = time.perf_counter()
    result = run_batch(items, opts)
    wall = time.perf_counter() - t0
    _check_digest(rep, "warm", result, digest)
    if rec is not None:
        rep.batch.update(warm_wall=wall,
                         warm_hits=result.stats["cache"]["hits"])


def parallel_pass(items: list, workdir: Path, digest: str, rep: Rep,
                  rec: Recorder | None) -> None:
    """The cold ``jobs=2`` pass, on a cache of its own."""
    from repro.batch import run_batch

    try:
        with layers.spans(rec, layers.CACHE_POINTS):
            t0 = time.perf_counter()
            result = run_batch(items, _options(workdir, "parallel",
                                               layers.JOBS))
            wall = time.perf_counter() - t0
    finally:
        layers.stop_forkserver()
    rep.parallel_wall = wall
    rep.sample("parallel_items_per_s", len(items) / wall, None)
    _check_digest(rep, "parallel", result, digest)
    mode = result.stats["mode"]
    rep.op(mode == "parallel", f"jobs={layers.JOBS} pass ran {mode}")
    if rec is not None:
        rep.batch.update(parallel_wall=wall, parallel_mode=mode)


def _run_path(case: Case, name: str, ref, rep: Rep,
              rec: Recorder | None) -> tuple[float, int]:
    """One timed call of one path, then its check; (seconds, cells)."""
    t0 = time.perf_counter()
    try:
        out = case.paths[name]()
    except Exception:  # a path that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        rep.op(False, f"{name} raised")
        return time.perf_counter() - t0, 0
    elapsed = time.perf_counter() - t0
    with layers.span(rec, "numeric.compare_s"):
        ok = case.check(out, ref)
    rep.op(ok, f"{name} missed its tolerance")
    return elapsed, case.cells(out)


def validate_phase(case: Case, rep: Rep, rec: Recorder | None):
    """The reference, then each path between two calibration samples, which
    it is scaled by the mean of; ``validate_s`` is the pass's wall time
    less the samples inside it, scaled by their median."""
    from repro import observe

    cells = 0
    loops = []
    times = []
    mark = rec.top_level if rec is not None else 0.0
    with observe.observed() if rec is not None else nullcontext() as obs:
        with layers.spans(rec, layers.VALIDATE_POINTS):
            t0 = time.perf_counter()
            with layers.span(rec, "reference_s"):
                ref = case.reference()
            for name in PATHS:
                loops.append(rep.calibrate())
                if rec is not None:
                    rec.path = FORTRAN_LABELS.get(name, name)
                elapsed, written = _run_path(case, name, ref, rep, rec)
                times.append(elapsed)
                cells += written
            pass_wall = time.perf_counter() - t0 - sum(loops)
    loops.append(rep.calibrate())
    for name, elapsed, before, after in zip(PATHS, times, loops, loops[1:]):
        rep.sample(f"{name}_s", elapsed, (before + after) / 2)
    rep.sample("validate_s", pass_wall, statistics.median(loops))
    if rec is not None:
        counters = {name: obs.metrics.counter(name).value
                    for name in layers.EXEC_COUNTERS}
        rep.layers.update(layers.validate_layers(
            rec, pass_wall=pass_wall, attributed=rec.top_level - mark,
            counters=counters, cells=cells))
    return ref


def run_rep(setup_: Setup, workdir: Path, *, traced: bool,
            parallel: bool, twice: bool, digest: str | None = None) -> Rep:
    """One round.  A traced one times the serial, parallel and warm passes
    and the validation pass under the layer spans.  An untraced one puts
    the validation pass between the serial and warm passes, makes the
    parallel pass only if ``parallel``, and with ``twice`` ends with a
    second serial pass and a second validation pass.  Every manifest
    digest must equal the first serial pass's, and that one ``digest``
    when it is given."""
    rep = Rep(traced=traced)
    rec = Recorder() if traced else None
    items = setup_.items
    t0 = time.perf_counter()
    rep.digest = serial_pass(items, workdir, rep, rec)
    if digest is not None:
        rep.op(rep.digest == digest,
               "serial manifest digest differs from the first round's")
    digest = rep.digest
    if traced:
        parallel_pass(items, workdir, digest, rep, rec)
        warm_pass(items, workdir, digest, rep, rec)
        validate_phase(setup_.case, rep, rec)
    else:
        validate_phase(setup_.case, rep, None)
        warm_pass(items, workdir, digest, rep, None)
        if parallel:
            parallel_pass(items, workdir, digest, rep, None)
        if twice:
            shutil.rmtree(workdir / "serial", ignore_errors=True)
            rep.op(serial_pass(items, workdir, rep, None) == digest,
                   "second serial manifest digest differs from the first")
            validate_phase(setup_.case, rep, None)
    rep.wall = time.perf_counter() - t0
    for tag in ("serial", "parallel", "warm"):
        shutil.rmtree(workdir / tag, ignore_errors=True)
    if traced:
        rep.layers.update(layers.compile_layers(rec, items=len(items),
                                                **rep.batch))
    return rep
