"""Unit tests for the GLAF IR interpreter and execution context."""

import numpy as np
import pytest

from repro.core import GlafBuilder, I, T_INT, T_LOGICAL, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.errors import ExecutionError
from repro.glafexec import ExecutionContext, Interpreter, get_executor


def _program():
    b = GlafBuilder("x")
    b.global_grid("gv", T_REAL8, dims=("n",), module_scope=True)
    b.global_grid("gs", T_REAL8, module_scope=True)
    b.global_grid("w", T_REAL8, dims=(3,), common_block="blk")
    m = b.module("M")

    f = m.function("axpy", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("a", T_REAL8, intent="in")
    f.param("x", T_REAL8, dims=("n",), intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    s = f.step()
    s.foreach(i=(1, "n"))
    s.formula(ref("y", I("i")), ref("a") * ref("x", I("i")) + ref("y", I("i")))

    g = m.function("total", return_type=T_REAL8)
    g.param("n", T_INT, intent="in")
    g.param("x", T_REAL8, dims=("n",), intent="in")
    g.returns(lib("SUM", ref("x")))

    h = m.function("search", return_type=T_INT)
    h.param("n", T_INT, intent="in")
    h.param("x", T_REAL8, dims=("n",), intent="in")
    h.param("thr", T_REAL8, intent="in")
    s = h.step()
    s.foreach(i=(1, "n"))
    s.if_(ref("x", I("i")).gt(ref("thr")), [SB.ret(I("i"))])
    h.returns(-1)

    k = m.function("use_globals", return_type=T_VOID)
    k.param("n", T_INT, intent="in")
    s = k.step()
    s.foreach(i=(1, "n"))
    s.formula(ref("gv", I("i")), ref("w", 1) * I("i"))
    s = k.step()
    s.formula(ref("gs"), lib("SUM", ref("gv")))
    return b.build()


class TestContext:
    def test_symbolic_dims_resolved_from_sizes(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 5})
        assert ctx.get("gv").shape == (5,)

    def test_missing_size_raises(self):
        p = _program()
        with pytest.raises(ExecutionError, match="dimension"):
            ExecutionContext(p)

    def test_values_initialize_globals(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3}, values={"w": np.ones(3)})
        assert np.all(ctx.get("w") == 1.0)

    def test_unknown_value_name_rejected(self):
        p = _program()
        with pytest.raises(ExecutionError, match="unknown global"):
            ExecutionContext(p, sizes={"n": 3}, values={"zzz": 1})

    def test_scalar_set_get(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        ctx.set("gs", 2.5)
        assert ctx.value("gs") == 2.5

    def test_snapshot_is_deep(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        snap = ctx.snapshot(["gv"])
        ctx.get("gv")[0] = 9.0
        assert snap["gv"][0] == 0.0

    def test_common_block_view(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        view = ctx.common_block_view("blk")
        assert list(view) == ["w"]
        with pytest.raises(ExecutionError):
            ctx.common_block_view("nope")


class TestInterpreter:
    def test_axpy(self):
        p = _program()
        y = np.ones(4)
        get_executor("interpreter").run(
            p, "axpy", [4, 2.0, np.arange(4.0), y], sizes={"n": 4})
        assert np.array_equal(y, 2.0 * np.arange(4.0) + 1.0)

    def test_value_function(self):
        p = _program()
        run = get_executor("interpreter").run(
            p, "total", [3, np.array([1.0, 2.0, 3.0])], sizes={"n": 3})
        assert run.result == 6.0

    def test_early_return(self):
        p = _program()
        x = np.array([0.0, 5.0, 9.0])
        interp = get_executor("interpreter")
        assert interp.run(p, "search", [3, x, 4.0], sizes={"n": 3}).result == 2
        assert interp.run(p, "search", [3, x, 99.0],
                          sizes={"n": 3}).result == -1

    def test_globals_and_commons(self):
        p = _program()
        ctx = get_executor("interpreter").run(
            p, "use_globals", [3], sizes={"n": 3},
            values={"w": np.array([2.0, 0.0, 0.0])}).context
        assert np.array_equal(ctx.get("gv"), [2.0, 4.0, 6.0])
        assert ctx.value("gs") == 12.0

    def test_argument_count_checked(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        with pytest.raises(ExecutionError, match="argument"):
            Interpreter(p, ctx).call("axpy", [3])

    def test_dtype_checked(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        with pytest.raises(ExecutionError, match="dtype"):
            Interpreter(p, ctx).call("axpy", [3, 1.0, np.zeros(3, np.float32),
                                              np.zeros(3)])

    def test_scalar_out_requires_cell(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("setx", return_type=T_VOID)
        f.param("x", T_REAL8, intent="out")
        f.step().formula(ref("x"), 1.0)
        p = b.build()
        ctx = ExecutionContext(p)
        interp = Interpreter(p, ctx)
        with pytest.raises(ExecutionError, match="0-d"):
            interp.call("setx", [1.0])
        cell = np.zeros(())
        interp.call("setx", [cell])
        assert cell[()] == 1.0

    def test_bounds_checked(self):
        # gv has extent 3 in the context but the loop runs to 5.
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        with pytest.raises(ExecutionError, match="bounds"):
            Interpreter(p, ctx).call("use_globals", [5])

    def test_stats_recorded(self):
        p = _program()
        interp = Interpreter(p, ExecutionContext(p, sizes={"n": 3}))
        interp.call("use_globals", [3])
        assert interp.stats.loop_iterations[("use_globals", 0)] == 3
        assert interp.stats.calls["use_globals"] == 1

    def test_save_store(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("bump", return_type=T_REAL8)
        f.local("state", T_REAL8, dims=(1,), save=True)
        s = f.step()
        s.foreach(i=(1, 1))
        s.formula(ref("state", 1), ref("state", 1) + 1.0)
        f.returns(ref("state", 1))
        p = b.build()
        ctx = ExecutionContext(p)
        interp = Interpreter(p, ctx)
        assert interp.call("bump", []) == 1.0
        assert interp.call("bump", []) == 2.0
        interp.reset_save_store()
        assert interp.call("bump", []) == 1.0

    def test_fortran_integer_division(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_INT)
        f.param("x", T_INT, intent="in")
        f.param("y", T_INT, intent="in")
        f.returns(ref("x") / ref("y"))
        p = b.build()
        ctx = ExecutionContext(p)
        interp = Interpreter(p, ctx)
        assert interp.call("f", [-7, 2]) == -3

    def test_step_condition_gates_body(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("flag", T_INT, intent="in")
        f.param("out", T_REAL8, dims=(2,), intent="inout")
        s = f.step()
        s.condition(ref("flag").eq(1))
        s.formula(ref("out", 1), 5.0)
        p = b.build()
        out = np.zeros(2)
        get_executor("interpreter").run(p, "f", [0, out])
        assert out[0] == 0.0
        get_executor("interpreter").run(p, "f", [1, out])
        assert out[0] == 5.0
