"""Final coverage batch: firstprivate emission, early-exit trip modelling,
whole-array call arguments, and generated-code determinism."""

import numpy as np
import pytest

from repro.codegen import generate_fortran_module
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.optimize import make_plan
from repro.perf import SimOptions, Workload, i5_2400, simulate


class TestFirstprivateEmission:
    def test_read_before_write_temp_gets_firstprivate(self):
        b = GlafBuilder("fp")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("a", T_REAL8, dims=("n",), intent="inout")
        f.local("seed", T_REAL8, init_data=2.0)
        s = f.step()
        s.foreach(i=(1, "n"))
        s.formula(ref("a", I("i")), ref("seed") * I("i"))   # read first...
        s.formula(ref("seed"), ref("a", I("i")))            # ...then written
        program = b.build()
        src = generate_fortran_module(make_plan(program, "GLAF-parallel v0"))
        assert "FIRSTPRIVATE(seed)" in src


class TestEarlyExitModelling:
    def _search_program(self):
        b = GlafBuilder("se")
        m = b.module("M")
        f = m.function("find", return_type=T_INT)
        f.param("n", T_INT, intent="in")
        f.param("v", T_REAL8, dims=("n",), intent="in")
        s = f.step("scan")
        s.foreach(i=(1, "n"))
        s.if_(ref("v", I("i")).gt(0.0), [SB.ret(I("i"))])
        f.returns(-1)
        return b.build()

    def test_early_exit_fraction_scales_cost(self):
        program = self._search_program()
        plan = make_plan(program, "GLAF serial")
        full = simulate(plan, i5_2400,
                        Workload(name="w", entry="find", sizes={"n": 10000},
                                 early_exit_fractions={("find", 0): 1.0}),
                        SimOptions(threads=1))
        early = simulate(plan, i5_2400,
                         Workload(name="w", entry="find", sizes={"n": 10000},
                                  early_exit_fractions={("find", 0): 0.1}),
                         SimOptions(threads=1))
        assert early.total_cycles < full.total_cycles * 0.2

    def test_default_early_exit_is_half(self):
        program = self._search_program()
        plan = make_plan(program, "GLAF serial")
        default = simulate(plan, i5_2400,
                           Workload(name="w", entry="find", sizes={"n": 10000}),
                           SimOptions(threads=1))
        half = simulate(plan, i5_2400,
                        Workload(name="w", entry="find", sizes={"n": 10000},
                                 early_exit_fractions={("find", 0): 0.5}),
                        SimOptions(threads=1))
        assert default.total_cycles == pytest.approx(half.total_cycles)


class TestWholeArrayCallArguments:
    def test_array_passed_through_two_levels(self):
        from repro.glafexec import get_executor

        b = GlafBuilder("wa")
        m = b.module("M")
        inner = m.function("fill", return_type=T_VOID)
        inner.param("n", T_INT, intent="in")
        inner.param("buf", T_REAL8, dims=("n",), intent="inout")
        s = inner.step()
        s.foreach(i=(1, "n"))
        s.formula(ref("buf", I("i")), I("i") * 1.0)
        outer = m.function("driver", return_type=T_VOID)
        outer.param("n", T_INT, intent="in")
        outer.param("out", T_REAL8, dims=("n",), intent="inout")
        outer.step().call("fill", [ref("n"), ref("out")])
        program = b.build()
        out = np.zeros(5)
        get_executor("interpreter").run(program, "driver", [5, out],
                                        sizes={"n": 5})
        assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_sum_of_passed_array_in_callee(self):
        from repro.glafexec import get_executor

        b = GlafBuilder("wa2")
        m = b.module("M")
        g = m.function("total", return_type=T_REAL8)
        g.param("n", T_INT, intent="in")
        g.param("v", T_REAL8, dims=("n",), intent="in")
        g.returns(lib("SUM", ref("v")))
        h = m.function("doubled_total", return_type=T_REAL8)
        h.param("n", T_INT, intent="in")
        h.param("v", T_REAL8, dims=("n",), intent="in")
        from repro.core.expr import FuncCall

        h.returns(FuncCall("total", (ref("n"), ref("v"))) * 2.0)
        program = b.build()
        run = get_executor("interpreter").run(
            program, "doubled_total", [3, np.array([1.0, 2.0, 3.0])],
            sizes={"n": 3})
        assert run.result == 12.0


class TestDeterminism:
    def test_fortran_generation_is_deterministic(self):
        from repro.sarb import build_sarb_program

        p1 = build_sarb_program()
        p2 = build_sarb_program()
        s1 = generate_fortran_module(make_plan(p1, "GLAF-parallel v3"))
        s2 = generate_fortran_module(make_plan(p2, "GLAF-parallel v3"))
        assert s1 == s2

    def test_figure7_is_deterministic(self):
        from repro.fun3d.perffig import simulate_option
        from repro.fun3d import Fun3DOptions

        o = Fun3DOptions(parallel_edgejp=True, no_reallocation=True)
        a = simulate_option(o, ncell=50_000)
        b = simulate_option(o, ncell=50_000)
        assert a.total_cycles == b.total_cycles
