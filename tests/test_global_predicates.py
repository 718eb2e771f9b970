"""Unit + property tests for global predicates and the critical clause."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor, S
from repro.multi.global_predicates import (
    ComplexPredicate,
    GAnd,
    GOr,
    LocalPredicate,
    complex_pred,
    compute_critical,
    group_by_monitor,
    local,
)
from repro.runtime.errors import PredicateError


class Cell(Monitor):
    def __init__(self, value=0):
        super().__init__()
        self.value = value

    def set(self, v):
        self.value = v


class TestAtoms:
    def test_local_predicate_evaluation(self):
        c = Cell(5)
        assert local(c, S.value == 5).evaluate()
        assert not local(c, S.value > 9).evaluate()

    def test_single_shot_atom_is_interpreted(self):
        # built, checked once and dropped: no source synthesis
        atom = local(Cell(5), S.value == 5)
        assert atom.evaluate()
        assert atom.predicate._evaluator is None
        # reused: compiled, like a parked waiter's predicate
        assert atom.evaluate()
        assert atom.predicate._evaluator is not None

    def test_local_negation(self):
        c = Cell(5)
        atom = local(c, S.value > 9)
        assert atom.negate().evaluate()

    def test_local_monitors(self):
        c = Cell()
        assert local(c, S.value == 0).monitors() == frozenset((c,))

    def test_complex_requires_two_monitors(self):
        c = Cell()
        with pytest.raises(PredicateError):
            complex_pred([c], lambda: True)

    def test_complex_evaluation_and_negation(self):
        a, b = Cell(1), Cell(2)
        atom = complex_pred([a, b], lambda: a.value < b.value)
        assert atom.evaluate()
        assert not atom.negate().evaluate()
        assert atom.monitors() == frozenset((a, b))


class TestConnectives:
    def test_and_or_evaluation(self):
        a, b = Cell(1), Cell(0)
        node = local(a, S.value == 1) & local(b, S.value == 1)
        assert not node.evaluate()
        node2 = local(a, S.value == 1) | local(b, S.value == 1)
        assert node2.evaluate()

    def test_monitors_union(self):
        a, b, c = Cell(), Cell(), Cell()
        node = (local(a, S.value == 0) & local(b, S.value == 0)) | local(c, S.value == 0)
        assert node.monitors() == frozenset((a, b, c))

    def test_de_morgan(self):
        a, b = Cell(1), Cell(1)
        node = ~(local(a, S.value == 1) & local(b, S.value == 1))
        assert isinstance(node, GOr)
        assert not node.evaluate()

    def test_flattening(self):
        a, b, c = Cell(), Cell(), Cell()
        node = local(a, S.value == 0) & local(b, S.value == 0) & local(c, S.value == 0)
        assert len(node.children) == 3


class TestCriticalClause:
    """Algorithm 3's three defining properties (Def. 12)."""

    def test_atom_is_its_own_clause(self):
        c = Cell(0)
        atom = local(c, S.value > 0)
        assert compute_critical(atom) == [atom]

    def test_conjunction_picks_false_conjunct(self):
        a, b = Cell(1), Cell(0)
        node = local(a, S.value == 1) & local(b, S.value == 1)   # b is false
        clause = compute_critical(node)
        assert len(clause) == 1
        assert clause[0].monitors() == frozenset((b,))

    def test_disjunction_unions_clauses(self):
        a, b = Cell(0), Cell(0)
        node = local(a, S.value > 0) | local(b, S.value > 0)
        clause = compute_critical(node)
        assert {next(iter(atom.monitors())) for atom in clause} == {a, b}

    def test_true_conjunction_rejected(self):
        a, b = Cell(1), Cell(1)
        node = local(a, S.value == 1) & local(b, S.value == 1)
        with pytest.raises(PredicateError):
            compute_critical(node)

    def test_prefers_local_over_complex_conjunct(self):
        a, b = Cell(0), Cell(0)
        cx = complex_pred([a, b], lambda: False)
        node = GAnd([cx, local(a, S.value > 0)])
        clause = compute_critical(node)
        assert all(not atom.is_complex for atom in clause)

    def test_group_by_monitor_spreads_complex(self):
        a, b = Cell(0), Cell(0)
        cx = complex_pred([a, b], lambda: False)
        buckets = group_by_monitor([cx, local(a, S.value > 0)])
        assert cx in buckets[a] and cx in buckets[b]
        assert len(buckets[a]) == 2


# --------------------------------------------------------------- properties
@st.composite
def _global_trees(draw, cells):
    def atoms():
        return st.builds(
            lambda idx, thresh: local(cells[idx], S.value >= thresh),
            st.integers(0, len(cells) - 1),
            st.integers(-2, 4),
        )

    tree = draw(
        st.recursive(
            atoms(),
            lambda kids: st.one_of(
                st.builds(lambda x, y: GAnd([x, y]), kids, kids),
                st.builds(lambda x, y: GOr([x, y]), kids, kids),
            ),
            max_leaves=6,
        )
    )
    return tree


@settings(max_examples=80, deadline=None)
@given(data=st.data(), values=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_critical_clause_properties(data, values):
    """Properties 1 & 2 of Def. 12 hold for arbitrary trees and states."""
    cells = [Cell(v) for v in values]
    tree = data.draw(_global_trees(cells))
    if tree.evaluate():
        return  # Algorithm 3 only applies to false predicates
    clause = compute_critical(tree)
    # property 1: the clause is false in the current state
    assert not any(atom.evaluate() for atom in clause)
    # property 2 (P ⇒ C): whenever C stays false, P stays false — test on
    # random next states
    for _ in range(5):
        new_values = data.draw(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3)
        )
        for cell, v in zip(cells, new_values):
            cell.set(v)
        if tree.evaluate():
            assert any(atom.evaluate() for atom in clause)
    # property 3: every clause atom is local (no GAnd/GOr inside)
    assert all(isinstance(a, (LocalPredicate, ComplexPredicate)) for a in clause)
