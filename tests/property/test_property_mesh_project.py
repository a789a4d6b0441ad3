"""Property tests: mesh invariants across sizes/seeds and whole-program
project round trips."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.project import program_from_dict, program_to_dict
from repro.fun3d.mesh import make_mesh


class TestMeshInvariants:
    @given(st.integers(27, 200), st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_invariants_hold_for_any_mesh(self, n_points, seed):
        mesh = make_mesh(n_points, seed=seed)
        # Connectivity counts in plausible ranges for tet meshes.
        assert mesh.ncell > 0 and mesh.nedge > mesh.nnode // 2
        assert mesh.nnz == mesh.nnode + 2 * mesh.nedge
        # 1-based ranges.
        assert mesh.cell_nodes.min() >= 1 and mesh.cell_nodes.max() <= mesh.nnode
        assert mesh.cell_edges.min() >= 1 and mesh.cell_edges.max() <= mesh.nedge
        # Every cell's 4 nodes are distinct.
        sorted_nodes = np.sort(mesh.cell_nodes, axis=1)
        assert np.all(np.diff(sorted_nodes, axis=1) > 0)
        # Edge endpoints distinct and ordered.
        assert np.all(mesh.edge_nodes[:, 0] < mesh.edge_nodes[:, 1])
        # CSR is consistent: row_ptr monotone, cols within range.
        assert np.all(np.diff(mesh.row_ptr) >= 1)  # diagonal always present
        assert mesh.col_idx.min() >= 1 and mesh.col_idx.max() <= mesh.nnode
        # Angle metric in range.
        assert np.all((mesh.face_angle >= 0) & (mesh.face_angle <= 1))

    @given(st.integers(27, 120))
    @settings(max_examples=8, deadline=None)
    def test_every_cell_edge_findable_in_csr(self, n_points):
        mesh = make_mesh(n_points, seed=3)
        rng = np.random.default_rng(0)
        cells = rng.integers(0, mesh.ncell, size=min(20, mesh.ncell))
        for c in cells:
            for e in mesh.cell_edges[c]:
                n1, n2 = mesh.edge_nodes[e - 1]
                p = mesh.csr_offset(int(n1), int(n2))
                assert mesh.col_idx[p - 1] == n2


@st.composite
def small_programs(draw):
    """Random small-but-valid GLAF programs."""
    b = GlafBuilder("rand")
    n_globals = draw(st.integers(0, 2))
    for gi in range(n_globals):
        kind = draw(st.sampled_from(["module_scope", "common", "imported"]))
        name = f"g{gi}"
        if kind == "module_scope":
            b.global_grid(name, T_REAL8, dims=(4,), module_scope=True)
        elif kind == "common":
            b.global_grid(name, T_REAL8, dims=(4,), common_block="blk")
        else:
            b.global_grid(name, T_REAL8, dims=(4,), exists_in_module="ext_mod")
    m = b.module("M")
    n_funcs = draw(st.integers(1, 2))
    for fi in range(n_funcs):
        f = m.function(f"f{fi}", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("a", T_REAL8, dims=("n",), intent="inout")
        n_steps = draw(st.integers(1, 3))
        for si in range(n_steps):
            s = f.step(f"s{si}")
            shape = draw(st.sampled_from(
                ["zero", "scale", "accum", "libfn", "cond", "branch", "nest"]))
            if shape == "nest":
                s.foreach(i=(1, "n"), j=(1, 3))
                s.formula(ref("a", I("i")),
                          ref("a", I("i")) + 0.25 * I("j"))
                continue
            s.foreach(i=(1, "n"))
            if shape == "zero":
                s.formula(ref("a", I("i")), 0.0)
            elif shape == "scale":
                s.formula(ref("a", I("i")), ref("a", I("i")) * 2.0)
            elif shape == "accum":
                s.formula(ref("a", I("i")), ref("a", I("i")) + 1.5)
            elif shape == "libfn":
                s.formula(ref("a", I("i")), lib("ABS", ref("a", I("i"))))
            elif shape == "cond":
                s.condition(ref("n").gt(2))
                s.formula(ref("a", I("i")), ref("a", I("i")) - 0.5)
            else:  # branch
                from repro.core.builder import StepBuilder as SB

                s.if_(ref("a", I("i")).gt(0.0),
                      [SB.assign(ref("a", I("i")), ref("a", I("i")) * 0.5)],
                      [SB.assign(ref("a", I("i")), ref("a", I("i")) + 1.0)])
            if n_globals and draw(st.booleans()):
                s.formula(ref("a", I("i")), ref("a", I("i")) + ref("g0", 1))
    return b.build()


class TestProgramProperties:
    @given(small_programs())
    @settings(max_examples=25, deadline=None)
    def test_project_round_trip(self, program):
        d = program_to_dict(program)
        assert program_to_dict(program_from_dict(d)) == d

    @given(small_programs())
    @settings(max_examples=15, deadline=None)
    def test_generated_fortran_reparses(self, program):
        from repro.codegen import generate_fortran_module
        from repro.fortranlib.parser import parse_source
        from repro.optimize import make_plan

        src = generate_fortran_module(make_plan(program, "GLAF-parallel v0"))
        tree = parse_source(src)
        generated_names = {s.name for mod in tree.modules
                           for s in mod.subprograms}
        expected = {fn.name for fn in program.functions()}
        assert generated_names == expected

    @given(small_programs())
    @settings(max_examples=6, deadline=None)
    def test_generated_fortran_executes_identically(self, program):
        """Random programs: generated FORTRAN (run by fortranlib) matches
        the IR interpreter elementwise."""
        import numpy as np

        from repro.codegen import generate_fortran_module
        from repro.fortranlib import FortranRuntime
        from repro.glafexec import ExecutionContext, Interpreter
        from repro.optimize import make_plan

        values = {
            name: np.linspace(0.5, 2.0, 4)
            for name, g in program.global_grids.items()
        }
        entry = next(iter(program.functions())).name
        a_ir = np.linspace(-2.0, 2.0, 6)
        ctx = ExecutionContext(program, sizes={"n": 6}, values=values)
        Interpreter(program, ctx).call(entry, [6, a_ir])

        rt = FortranRuntime()
        ext_names = [name for name, g in program.global_grids.items()
                     if g.exists_in_module]
        if ext_names:
            decls = "\n".join(f"  REAL(KIND=8) :: {n}(4)" for n in ext_names)
            rt.load(f"MODULE ext_mod\n  IMPLICIT NONE\n{decls}\nEND MODULE ext_mod\n")
        rt.load(generate_fortran_module(make_plan(program, "GLAF serial")))
        for name, g in program.global_grids.items():
            if g.exists_in_module:
                rt.modules["ext_mod"].variables[name].store[...] = values[name]
            elif g.common_block:
                # Materialize the COMMON block through a setter unit.
                rt.load(f"""
SUBROUTINE set_{name}(v)
  REAL(KIND=8), INTENT(IN) :: v(4)
  REAL(KIND=8) :: {name}(4)
  COMMON /blk/ {name}
  INTEGER :: i
  DO i = 1, 4
    {name}(i) = v(i)
  END DO
END SUBROUTINE set_{name}
""")
                rt.call(f"set_{name}", [values[name].copy()])
        # Module-scope grids of the generated module:
        gen_mod = f"glaf_{program.name.lower()}_mod"
        for name, g in program.global_grids.items():
            if not g.is_external:
                rt.modules[gen_mod].variables[name].store[...] = values[name]
        a_ft = np.linspace(-2.0, 2.0, 6)
        rt.call(entry, [6, a_ft])
        assert np.allclose(a_ir, a_ft, rtol=1e-14, atol=1e-300)

    @given(small_programs())
    @settings(max_examples=10, deadline=None)
    def test_interpreter_and_generated_python_agree(self, program):
        import numpy as np

        from repro.glafexec import get_executor, run_generated_python

        entry = next(iter(program.functions())).name
        a1 = np.linspace(-2.0, 2.0, 6)
        a2 = a1.copy()
        get_executor("interpreter").run(program, entry, [6, a1],
                                        sizes={"n": 6})
        run_generated_python(program, entry, [6, a2], sizes={"n": 6})
        assert np.array_equal(a1, a2)
