"""Unit tests for the arithmetic expression DSL and linear normalization."""

import pytest

from repro.core.expressions import BinOp, Const, S, SharedExpr, SharedVar, linear_key
from repro.runtime.errors import PredicateError


class Obj:
    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestSharedVar:
    def test_evaluate_reads_attribute(self):
        assert SharedVar("x").evaluate(Obj(x=42)) == 42

    def test_namespace_sugar(self):
        var = S.count
        assert isinstance(var, SharedVar)
        assert var.name == "count"

    def test_namespace_rejects_private(self):
        with pytest.raises(AttributeError):
            S._private

    def test_namespace_interns_each_name(self):
        assert S.x is S.x
        assert S.x is not S.y

    def test_shared_var_is_immutable(self):
        with pytest.raises(AttributeError):
            S.x.name = "y"
        with pytest.raises(AttributeError):
            del S.x.name
        assert S.x.name == "x"

    def test_key_is_stable(self):
        assert S.count.key() == S.count.key() == ("var", "count")

    def test_linear_form(self):
        terms, const = S.x.linear()
        assert terms == {("var", "x"): 1.0}
        assert const == 0.0


class TestSharedExpr:
    def test_evaluate_calls_function(self):
        expr = SharedExpr(lambda m: len(m.items), name="len_items")
        assert expr.evaluate(Obj(items=[1, 2, 3])) == 3

    def test_named_exprs_share_keys(self):
        a = SharedExpr(lambda m: m.x, name="same")
        b = SharedExpr(lambda m: m.x, name="same")
        assert a.key() == b.key()

    def test_callable_namespace(self):
        expr = S(lambda m: m.x * 2, "double_x")
        assert expr.evaluate(Obj(x=5)) == 10


class TestArithmetic:
    def test_addition(self):
        assert (S.x + 3).evaluate(Obj(x=4)) == 7

    def test_right_addition(self):
        assert (3 + S.x).evaluate(Obj(x=4)) == 7

    def test_subtraction(self):
        assert (S.x - S.y).evaluate(Obj(x=9, y=4)) == 5

    def test_right_subtraction(self):
        assert (10 - S.x).evaluate(Obj(x=4)) == 6

    def test_multiplication(self):
        assert (S.x * 3).evaluate(Obj(x=4)) == 12

    def test_modulo(self):
        assert (S.x % 3).evaluate(Obj(x=10)) == 1

    def test_negation(self):
        assert (-S.x).evaluate(Obj(x=4)) == -4

    def test_nested_expression(self):
        expr = (S.a + S.b) * 2 - 1
        assert expr.evaluate(Obj(a=1, b=2)) == 5

    def test_unsupported_operator_rejected(self):
        with pytest.raises(PredicateError):
            BinOp("/", Const(1), Const(2))


class TestLinearNormalization:
    def test_sum_is_linear(self):
        terms, const = (S.x + S.y + 5).linear()
        assert terms == {("var", "x"): 1.0, ("var", "y"): 1.0}
        assert const == 5.0

    def test_difference_cancels(self):
        terms, const = (S.x - S.x).linear()
        assert terms == {}

    def test_scalar_multiple(self):
        terms, const = (3 * S.x + 1).linear()
        assert terms == {("var", "x"): 3.0}
        assert const == 1.0

    def test_product_of_vars_not_linear(self):
        assert (S.x * S.y).linear() is None

    def test_modulo_not_linear(self):
        assert (S.x % 2).linear() is None

    def test_linear_key_scale_invariant(self):
        k1 = linear_key((S.x - S.y).linear()[0])
        k2 = linear_key((2 * S.x - 2 * S.y).linear()[0])
        assert k1 == k2

    def test_linear_key_empty(self):
        assert linear_key({}) == ()


class TestConst:
    def test_const_evaluates_to_value(self):
        assert Const("abc").evaluate(None) == "abc"

    def test_numeric_const_linear(self):
        assert Const(5).linear() == ({}, 5.0)

    def test_object_const_not_linear(self):
        assert Const("abc").linear() is None

    def test_bool_const_not_linear(self):
        # booleans must not silently join arithmetic normalization
        assert Const(True).linear() is None
