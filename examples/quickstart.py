"""Quickstart: build a kernel with the programmatic GPI, auto-parallelize it,
generate FORTRAN/C/Python, and execute it three ways.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.analysis import analyze_program, classify_step
from repro.codegen import (
    generate_c_source,
    generate_fortran_module,
    generate_python_source,
)
from repro.fortranlib import FortranRuntime
from repro.glafexec import get_executor, run_generated_python
from repro.optimize import make_plan


def build_program():
    """A small smoothing kernel: zero-init, stencil work, and a reduction —
    three different loop classes for the auto-parallelizer to reason about."""
    b = GlafBuilder("quickstart")
    b.global_grid("total", T_REAL8, module_scope=True,
                  comment="running sum of smoothed values")
    m = b.module("Module1")

    f = m.function("smooth", return_type=T_VOID,
                   comment="3-point smoothing with edge clamping")
    f.param("n", T_INT, intent="in")
    f.param("src", T_REAL8, dims=("n",), intent="in")
    f.param("dst", T_REAL8, dims=("n",), intent="inout")

    s = f.step("init", comment="zero the destination")
    s.foreach(i=(1, "n"))
    s.formula(ref("dst", I("i")), 0.0)

    s = f.step("stencil", comment="interior 3-point average")
    s.foreach(i=(2, ref("n") - 1))
    s.formula(
        ref("dst", I("i")),
        (ref("src", I("i") - 1) + ref("src", I("i")) + ref("src", I("i") + 1)) / 3.0,
    )

    s = f.step("accumulate", comment="reduce into the module-scope total")
    s.foreach(i=(1, "n"))
    s.formula(ref("total"), ref("total") + lib("ABS", ref("dst", I("i"))))
    return b.build()


def main():
    program = build_program()

    print("=== auto-parallelization verdicts ===")
    plan_analysis = analyze_program(program)
    fn = program.find_function("smooth")
    for i, step in enumerate(fn.steps):
        sp = plan_analysis.get("smooth", i)
        print(f"  {step.name:12s} class={classify_step(step).value:15s} "
              f"parallel={sp.parallel} reductions={sp.reductions}")

    plan = make_plan(program, "GLAF-parallel v0", threads=4)

    print("\n=== generated FORTRAN ===")
    print(generate_fortran_module(plan))

    print("=== generated C (excerpt) ===")
    print("\n".join(generate_c_source(plan).splitlines()[:28]))

    # Execute three ways and compare.
    src = np.sin(np.linspace(0, 3, 12))
    expected_mid = (src[:-2] + src[1:-1] + src[2:]) / 3.0

    dst1 = np.zeros(12)
    ctx = get_executor("interpreter").run(program, "smooth",
                                          [12, src, dst1]).context
    dst2 = np.zeros(12)
    run_generated_python(program, "smooth", [12, src, dst2])

    rt = FortranRuntime()
    rt.load(generate_fortran_module(plan))
    dst3 = np.zeros(12)
    rt.call("smooth", [12, src.copy(), dst3])

    assert np.allclose(dst1[1:-1], expected_mid)
    assert np.array_equal(dst1, dst2)
    assert np.allclose(dst1, dst3, rtol=1e-14)
    print("\n=== execution ===")
    print("  IR interpreter, generated Python and generated FORTRAN agree.")
    print(f"  total (module-scope reduction) = {ctx.value('total'):.6f}")


if __name__ == "__main__":
    main()
