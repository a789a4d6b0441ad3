"""FUN3D functional correctness (paper §4.2.1).

"The produced code is integrated with the rest of the program's code, and
output at various stages is compared to that produced by the original on a
representative data set ... the dataset includes a reference root mean
square of the output arrays that is automatically checked at a 1e-7
(absolute) tolerance after all cells have been processed."
"""

from __future__ import annotations

import numpy as np

from ..codegen.fortran import FortranGenerator
from ..fortranlib import FortranRuntime
from ..glafexec import ExecutionContext, GeneratedModule, get_executor
from ..integration import LegacyCodebase, splice_into_codebase
from ..numeric import RmsPolicy
from ..optimize.plan import Tweaks, make_plan
from .jacobian import RMS_TOLERANCE, ref_jacobian_recon
from .kernels import FUN3D_FUNCTIONS, build_fun3d_program, context_values
from .legacy_src import full_legacy_source
from .mesh import TetMesh, make_mesh

__all__ = ["mesh_sizes", "run_reference", "run_ir_interpreter",
           "run_generated_python", "run_legacy_fortran",
           "run_generated_fortran", "run_spliced", "rms_check",
           "build_legacy_codebase", "set_fun3d_inputs"]


def mesh_sizes(mesh: TetMesh) -> dict[str, int]:
    return {"nnode": mesh.nnode, "ncell": mesh.ncell, "nedge": mesh.nedge,
            "nnodep1": mesh.nnode + 1, "nnz": mesh.nnz}


def rms_check(jac: np.ndarray, reference: np.ndarray) -> bool:
    """The paper's automatic gate: RMS agreement at 1e-7 absolute.

    Routed through the ``rms`` tolerance policy, so a NaN or infinity in
    either Jacobian fails the gate loudly (``nan <= tol`` is ``False``
    only by accident of direction; the policy makes the semantics
    explicit) and empty arrays raise instead of passing vacuously.
    """
    return bool(RmsPolicy(RMS_TOLERANCE).compare(jac, reference))


def run_reference(mesh: TetMesh) -> np.ndarray:
    return ref_jacobian_recon(mesh)


def run_ir_interpreter(mesh: TetMesh, *, save_inner_arrays: bool = False,
                       guarded: bool = False,
                       executor: str | None = None) -> np.ndarray:
    """Run through the IR execution pipeline under the selected executor
    (``executor=None`` honors the run configuration's ``executor``, the
    CLI's ``--executor`` flag; ``guarded=True`` means ``executor="guarded"``,
    per-step divergence probes with serial fallback)."""
    program = build_fun3d_program()
    ctx = ExecutionContext(program, sizes=mesh_sizes(mesh),
                           values=context_values(mesh))
    get_executor("guarded" if guarded else executor,
                 save_inner_arrays=save_inner_arrays).run(
        program, "edgejp", [mesh.ncell, mesh.nnz], context=ctx)
    return ctx.get("jac").copy()


def run_generated_python(mesh: TetMesh, *, save_inner_arrays: bool = False) -> np.ndarray:
    program = build_fun3d_program()
    ctx = ExecutionContext(program, sizes=mesh_sizes(mesh),
                           values=context_values(mesh))
    plan = make_plan(program, "GLAF serial",
                     tweaks=Tweaks(save_inner_arrays=save_inner_arrays))
    mod = GeneratedModule(plan, ctx)
    mod.call("edgejp", [mesh.ncell, mesh.nnz])
    return ctx.get("jac").copy()


def build_legacy_codebase(mesh: TetMesh) -> LegacyCodebase:
    legacy = LegacyCodebase("fun3d-mini")
    for fname, src in full_legacy_source(mesh).items():
        legacy.add_file(fname, src)
    return legacy


def set_fun3d_inputs(rt: FortranRuntime, mesh: TetMesh) -> None:
    gm = rt.modules["fun3d_grids_mod"]
    gm.variables["q"].store[...] = mesh.q
    gm.variables["cell_nodes"].store[...] = mesh.cell_nodes
    gm.variables["cell_edges"].store[...] = mesh.cell_edges
    gm.variables["edge_nodes"].store[...] = mesh.edge_nodes
    gm.variables["face_norm"].store[...] = mesh.face_norm
    gm.variables["face_angle"].store[...] = mesh.face_angle
    gm.variables["row_ptr"].store[...] = mesh.row_ptr
    gm.variables["col_idx"].store[...] = mesh.col_idx


def run_legacy_fortran(mesh: TetMesh) -> tuple[np.ndarray, FortranRuntime]:
    rt = FortranRuntime()
    for fname, src in sorted(full_legacy_source(mesh).items()):
        rt.load(src)
    set_fun3d_inputs(rt, mesh)
    rt.call("edgejp", [mesh.ncell, mesh.nnz])
    return rt.modules["fun3d_jac_mod"].variables["jac"].store.copy(), rt


def run_generated_fortran(
    mesh: TetMesh, *, variant: str = "GLAF serial",
    save_inner_arrays: bool = False,
) -> tuple[np.ndarray, FortranRuntime, str]:
    program = build_fun3d_program()
    plan = make_plan(program, variant,
                     tweaks=Tweaks(save_inner_arrays=save_inner_arrays))
    source = FortranGenerator(plan).generate_module()
    rt = FortranRuntime()
    rt.load(full_legacy_source(mesh)["fun3d_modules.f90"])
    rt.load(source)
    set_fun3d_inputs(rt, mesh)
    rt.call("edgejp", [mesh.ncell, mesh.nnz])
    return rt.modules["fun3d_jac_mod"].variables["jac"].store.copy(), rt, source


def run_spliced(
    mesh: TetMesh, *, variant: str = "GLAF serial",
) -> tuple[np.ndarray, FortranRuntime, list]:
    """Replace the legacy monolithic edgejp with the GLAF decomposition
    (the four factored-out functions are appended as new units), then run
    the legacy driver program."""
    program = build_fun3d_program()
    plan = make_plan(program, variant)
    legacy = build_legacy_codebase(mesh)
    result = splice_into_codebase(plan, legacy, list(FUN3D_FUNCTIONS),
                                  add_missing=True)
    rt = FortranRuntime()
    if result.support_source:
        rt.load(result.support_source)
    for fname in sorted(result.files):
        rt.load(result.files[fname])
    set_fun3d_inputs(rt, mesh)
    rt.run_program("fun3d_test")
    return rt.modules["fun3d_jac_mod"].variables["jac"].store.copy(), rt, rt.output
