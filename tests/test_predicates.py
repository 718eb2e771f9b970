"""Unit + property tests for boolean predicates, DNF conversion, closure."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor
from repro.core.expressions import Const, S
from repro.core.predicates import (
    And,
    Comparison,
    FalseAtom,
    FuncAtom,
    Or,
    Predicate,
    TrueAtom,
    conjunction_true,
)
from repro.runtime.errors import PredicateError


class Obj:
    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestComparison:
    def test_basic_operators(self):
        m = Obj(x=5)
        assert (S.x == 5).evaluate(m)
        assert (S.x != 4).evaluate(m)
        assert (S.x < 6).evaluate(m)
        assert (S.x <= 5).evaluate(m)
        assert (S.x > 4).evaluate(m)
        assert (S.x >= 5).evaluate(m)

    def test_negation_flips_operator(self):
        m = Obj(x=5)
        assert not (S.x == 5).negate().evaluate(m)
        assert (S.x < 5).negate().evaluate(m)      # x >= 5

    def test_truthiness_is_an_error(self):
        with pytest.raises(PredicateError):
            bool(S.x == 3)

    def test_normalized_shape_equivalence(self):
        shape = (S.x == 7).tag_shape
        assert shape is not None
        _, op, const = shape
        assert op == "==" and const == 7

    def test_normalized_shape_moves_terms_left(self):
        # count + 5 <= capacity normalizes to a pure shared-vs-constant shape
        # (canonical orientation may flip the operator with the scale)
        shape = (S.count + 5 <= S.capacity).tag_shape
        key, op, const = shape
        assert op in ("<=", ">=")
        assert const in (-5.0, 5.0)
        assert ("var", "count") in dict(key)
        assert ("var", "capacity") in dict(key)

    def test_shared_shapes_share_keys(self):
        a = (S.count + 3 <= S.capacity).tag_shape
        b = (S.count + 48 <= S.capacity).tag_shape
        assert a[0] == b[0]
        assert a[2] != b[2]

    def test_negative_scale_flips_comparison(self):
        # capacity - count > 0  ≡  count - capacity < 0 after canonicalizing
        m = Obj(count=3, capacity=8)
        atom = (S.capacity - S.count > 0)
        assert atom.evaluate(m)
        key, op, const = atom.tag_shape
        # whatever the canonical orientation, evaluation must agree
        assert atom.evaluate(Obj(count=9, capacity=8)) is False

    def test_object_equality_fallback_shape(self):
        shape = (S.owner == "alice").tag_shape
        assert shape is not None
        assert shape[1] == "=="
        assert shape[2] == "alice"

    def test_both_sides_nonlinear_untaggable(self):
        assert ((S.x % 2) == (S.y % 3)).tag_shape is None


class TestBooleanStructure:
    def test_and_evaluation(self):
        m = Obj(x=5, y=2)
        assert ((S.x == 5) & (S.y == 2)).evaluate(m)
        assert not ((S.x == 5) & (S.y == 3)).evaluate(m)

    def test_or_evaluation(self):
        m = Obj(x=5, y=2)
        assert ((S.x == 9) | (S.y == 2)).evaluate(m)

    def test_de_morgan_negation(self):
        m = Obj(x=5, y=2)
        node = ~((S.x == 5) & (S.y == 2))
        assert not node.evaluate(m)
        assert node.evaluate(Obj(x=5, y=3))

    def test_nested_flattening(self):
        node = (S.a > 0) & (S.b > 0) & (S.c > 0)
        assert isinstance(node, And)
        assert len(node.children) == 3

    def test_plain_callable_becomes_funcatom(self):
        pred = Predicate(lambda: True)
        assert pred.evaluate(None) is True

    def test_one_arg_callable_gets_monitor(self):
        pred = Predicate(lambda m: m.x == 1)
        assert pred.evaluate(Obj(x=1))

    def test_bool_literal(self):
        assert Predicate(True).evaluate(None)
        assert not Predicate(False).evaluate(None)

    def test_funcatom_negation(self):
        atom = FuncAtom(lambda: True)
        assert not atom.negate().evaluate(None)

    def test_invalid_condition_rejected(self):
        with pytest.raises(PredicateError):
            Predicate(42)


class TestDNF:
    def test_single_atom(self):
        assert len(Predicate(S.x == 1).conjunctions) == 1

    def test_or_of_ands(self):
        pred = Predicate(((S.x == 1) & (S.y == 2)) | (S.z == 3))
        assert len(pred.conjunctions) == 2

    def test_distribution(self):
        # (a | b) & (c | d) → 4 conjunctions
        node = ((S.a > 0) | (S.b > 0)) & ((S.c > 0) | (S.d > 0))
        pred = Predicate(node)
        assert len(pred.conjunctions) == 4

    def test_conjunction_true_helper(self):
        pred = Predicate((S.x == 1) & (S.y == 2))
        assert conjunction_true(pred.conjunctions[0], Obj(x=1, y=2))
        assert not conjunction_true(pred.conjunctions[0], Obj(x=1, y=3))

    def test_true_false_atoms(self):
        assert TrueAtom().evaluate(None)
        assert not FalseAtom().evaluate(None)
        assert isinstance(TrueAtom().negate(), FalseAtom)


# ---------------------------------------------------------------- properties
_vars = ["a", "b", "c"]


def _atoms():
    return st.builds(
        lambda name, op, const: Comparison(S.__getattr__(name), op, _wrap_const(const)),
        st.sampled_from(_vars),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.integers(min_value=-3, max_value=3),
    )


def _wrap_const(value):
    from repro.core.expressions import Const

    return Const(value)


def _trees(depth=3):
    return st.recursive(
        _atoms(),
        lambda children: st.one_of(
            st.builds(lambda a, b: And([a, b]), children, children),
            st.builds(lambda a, b: Or([a, b]), children, children),
            st.builds(lambda a: a.negate(), children),
        ),
        max_leaves=8,
    )


@settings(max_examples=120, deadline=None)
@given(
    tree=_trees(),
    values=st.fixed_dictionaries({v: st.integers(-4, 4) for v in _vars}),
)
def test_dnf_preserves_semantics(tree, values):
    """The DNF of any boolean tree evaluates identically to the tree."""
    m = Obj(**values)
    pred = Predicate(tree)
    dnf_value = any(conjunction_true(c, m) for c in pred.conjunctions)
    assert dnf_value == tree.evaluate(m)


@settings(max_examples=120, deadline=None)
@given(
    tree=_trees(),
    values=st.fixed_dictionaries({v: st.integers(-4, 4) for v in _vars}),
)
def test_negation_complements(tree, values):
    m = Obj(**values)
    assert tree.negate().evaluate(m) == (not tree.evaluate(m))


@settings(max_examples=80, deadline=None)
@given(
    values=st.fixed_dictionaries({v: st.integers(-4, 4) for v in _vars}),
    coeffs=st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
def test_linear_normalization_preserves_comparisons(values, coeffs):
    """scale*(a) + k1 <= b + k2 evaluates the same as its normalized shape."""
    scale, k1, k2 = coeffs
    m = Obj(**values)
    atom = scale * S.a + k1 <= S.b + k2
    expected = scale * values["a"] + k1 <= values["b"] + k2
    assert atom.evaluate(m) == expected


@st.composite
def _linear_sides(draw):
    expr = Const(draw(st.integers(-5, 5)))
    for name in _vars:
        coeff = draw(st.integers(-3, 3))
        if coeff:
            expr = expr + coeff * getattr(S, name)
    return expr


@settings(max_examples=150, deadline=None)
@given(lhs=_linear_sides(),
       op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
       rhs=_linear_sides())
def test_lazy_tag_shape_matches_eager_normalization(lhs, op, rhs):
    """Normalizing on the first tag_shape read gives what normalizing at
    construction gave, and the result is computed once."""
    atom = Comparison(lhs, op, rhs)
    eager = Comparison(lhs, op, rhs)._normalize()
    assert atom.tag_shape == eager
    assert atom.tag_shape is atom.tag_shape


class Counter(Monitor):
    def __init__(self):
        super().__init__()
        self.count = 0

    def wait_for(self, condition):
        self.wait_until(condition)

    def set(self, value):
        self.count = value


def _park(counter, condition):
    t = threading.Thread(target=counter.wait_for, args=(condition,), daemon=True)
    t.start()
    t.join(0.2)
    assert t.is_alive(), "the wait must park"
    return t


class TestLazyNormalization:
    def test_true_wait_never_normalizes(self, monkeypatch):
        calls = []
        original = Comparison._normalize

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Comparison, "_normalize", counting)
        c = Counter()
        c.set(1)
        c.wait_for(S.count > 0)
        assert calls == []
        # a waiter that parks normalizes when it registers
        t = _park(c, S.count > 5)
        assert len(calls) == 1
        c.set(6)
        t.join(10)
        assert not t.is_alive()


class TestHugeConstants:
    def test_huge_constant_is_untaggable(self):
        assert (S.count < 10**400).tag_shape is None
        assert ((S.count % 3) < 10**400).tag_shape is None

    def test_true_wait_with_huge_constant_returns(self):
        c = Counter()
        c.wait_for(S.count < 10**400)

    def test_parked_waiter_on_huge_constant_wakes(self):
        c = Counter()
        t = _park(c, S.count >= 10**400)
        assert c.waiting_count() == 1
        c.set(10**400)
        t.join(10)
        assert not t.is_alive()
        assert c.waiting_count() == 0

    def test_shapes_the_tag_index_cannot_hold_are_untaggable(self):
        # threshold heaps scale keys by a float, and every key is hashed;
        # equality on a hashable object stays tagged
        assert (S.count < "m").tag_shape is None
        assert (S.count == [1]).tag_shape is None
        assert (S.count == "m").tag_shape is not None

    @pytest.mark.parametrize("before, condition, after", [
        ("z", S.count < "m", "a"),
        ([0], S.count == [1], [1]),
    ])
    def test_parked_waiter_on_an_unindexable_shape_wakes(
            self, before, condition, after):
        c = Counter()
        c.set(before)
        t = _park(c, condition)
        assert c.waiting_count() == 1
        c.set(after)
        t.join(10)
        assert not t.is_alive()
        assert c.waiting_count() == 0
