"""Property-based tests (hypothesis) on the core IR: expression evaluation,
affine analysis and project serialization."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.accesses import AffineForm, affine_form
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.core.expr import BinOp, Const, Expr, IndexVar, UnOp
from repro.core.project import expr_from_dict, expr_to_dict

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_index_vars = st.sampled_from(["i", "j", "k"])


@st.composite
def affine_exprs(draw, depth=0):
    """Expressions that must stay affine in {i, j, k}."""
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Const(draw(st.integers(-20, 20)))
        return IndexVar(draw(_index_vars))
    op = draw(st.sampled_from(["+", "-", "mul_const", "neg"]))
    if op == "neg":
        return UnOp("neg", draw(affine_exprs(depth + 1)))
    if op == "mul_const":
        return BinOp("*", Const(draw(st.integers(-5, 5))),
                     draw(affine_exprs(depth + 1)))
    return BinOp(op, draw(affine_exprs(depth + 1)), draw(affine_exprs(depth + 1)))


@st.composite
def numeric_exprs(draw, depth=0):
    """General numeric expressions over index variables and constants."""
    if depth > 3 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return Const(draw(st.integers(-9, 9)))
        return IndexVar(draw(_index_vars))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return BinOp(op, draw(numeric_exprs(depth + 1)), draw(numeric_exprs(depth + 1)))


def _eval_py(e: Expr, env: dict[str, int]) -> int:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, IndexVar):
        return env[e.name]
    if isinstance(e, UnOp):
        return -_eval_py(e.operand, env)
    assert isinstance(e, BinOp)
    l, r = _eval_py(e.left, env), _eval_py(e.right, env)
    return {"+": l + r, "-": l - r, "*": l * r}[e.op]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestAffineProperties:
    @given(affine_exprs(), st.integers(-10, 10), st.integers(-10, 10),
           st.integers(-10, 10))
    @settings(max_examples=150, deadline=None)
    def test_affine_form_evaluates_correctly(self, e, i, j, k):
        """The affine decomposition must agree with direct evaluation."""
        form = affine_form(e, {"i", "j", "k"})
        assert form is not None, e
        env = {"i": i, "j": j, "k": k}
        direct = _eval_py(e, env)
        via_form = form.const + sum(c * env[v] for v, c in form.coeffs.items())
        assert direct == via_form

    @given(affine_exprs(), affine_exprs())
    @settings(max_examples=80, deadline=None)
    def test_affine_minus_is_difference(self, a, b):
        fa = affine_form(a, {"i", "j", "k"})
        fb = affine_form(b, {"i", "j", "k"})
        diff = fa.minus(fb)
        env = {"i": 3, "j": -2, "k": 5}
        da = _eval_py(a, env) - _eval_py(b, env)
        dv = diff.const + sum(c * env[v] for v, c in diff.coeffs.items())
        assert da == dv

    @given(numeric_exprs())
    @settings(max_examples=150, deadline=None)
    def test_nonaffine_never_misclassified(self, e):
        """If affine_form returns a form, it must be exact everywhere."""
        form = affine_form(e, {"i", "j", "k"})
        if form is None:
            return
        for env in ({"i": 0, "j": 0, "k": 0}, {"i": 2, "j": 3, "k": 5},
                    {"i": -1, "j": 7, "k": -4}):
            direct = _eval_py(e, env)
            via = form.const + sum(c * env[v] for v, c in form.coeffs.items())
            assert direct == via


class TestExprSerializationProperties:
    @given(numeric_exprs())
    @settings(max_examples=150, deadline=None)
    def test_expr_round_trip(self, e):
        assert expr_from_dict(expr_to_dict(e)) == e


class TestInterpreterAgainstPython:
    @given(numeric_exprs(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_ir_interpreter_matches_python_eval(self, e, i, j, k):
        """Build a 1-iteration triple nest evaluating `e` into a scalar and
        compare the IR interpreter's result with direct evaluation."""
        from repro.glafexec import get_executor

        b = GlafBuilder("prop")
        m = b.module("M")
        f = m.function("f", return_type=T_INT)
        s = f.step()
        s.foreach(i=(i, i), j=(j, j), k=(k, k))
        f.local("out", T_INT)
        s.formula(ref("out"), e)
        f.returns(ref("out"))
        program = b.build()
        result = get_executor("interpreter").run(program, "f", []).result
        assert int(result) == _eval_py(e, {"i": i, "j": j, "k": k})
