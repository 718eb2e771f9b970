"""Unit + property tests for the tag indexes (hash tables and heaps)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import S
from repro.core.predicates import Predicate
from repro.core.tag_index import TagIndex, ThresholdHeap, TagRecord
from repro.core.tags import Tag, TagKind, tag_predicate
from repro.core.waiter import Waiter

import threading


def _waiter(condition):
    return Waiter(Predicate(condition), threading.RLock())


def _index_with(*conditions):
    index = TagIndex()
    waiters = []
    for condition in conditions:
        w = _waiter(condition)
        for tag in tag_predicate(w.predicate.conjunctions):
            w.records.append(index.add(tag, w))
        waiters.append(w)
    return index, waiters


class FakeMonitor:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def _search(index, monitor):
    return index.search(
        lambda key: _eval_key(key, monitor),
        lambda w: w.predicate.evaluate(monitor),
    )


def _eval_key(expr_key, monitor):
    total = 0.0
    for term_key, coeff in expr_key:
        kind, name = term_key
        total += coeff * getattr(monitor, name)
    if len(expr_key) == 1 and expr_key[0][1] == 1.0:
        return getattr(monitor, expr_key[0][0][1])
    return total


class TestEquivalenceTable:
    def test_hash_probe_finds_waiter(self):
        index, (w1, w2) = _index_with(S.x == 3, S.x == 7)
        found = _search(index, FakeMonitor(x=7))
        assert found is w2

    def test_no_match_returns_none(self):
        index, _ = _index_with(S.x == 3, S.x == 7)
        assert _search(index, FakeMonitor(x=5)) is None

    def test_remove_clears_table(self):
        index, (w1,) = _index_with(S.x == 3)
        index.remove(w1.records[0], w1)
        assert _search(index, FakeMonitor(x=3)) is None
        assert not index.eq_tables

    def test_shared_tag_record(self):
        index, (w1, w2) = _index_with((S.x == 5) & (S.y > 0), (S.x == 5) & (S.y < 0))
        rec1, rec2 = w1.records[0], w2.records[0]
        assert rec1 is rec2
        assert len(rec1.waiters) == 2


class TestThresholdHeap:
    def test_root_first_order(self):
        heap = ThresholdHeap(ascending=True)
        recs = [heap.record_for(Tag(TagKind.THRESHOLD, "k", v, ">")) for v in (5, 2, 9)]
        for rec in recs:
            rec.waiters.append(object())
        got = [r.tag.key for r in heap.candidates(10)]
        assert got == [2, 5, 9]

    def test_candidates_stop_at_false_root(self):
        heap = ThresholdHeap(ascending=True)
        for v in (2, 5, 9):
            heap.record_for(Tag(TagKind.THRESHOLD, "k", v, ">")).waiters.append(object())
        got = [r.tag.key for r in heap.candidates(6)]
        assert got == [2, 5]

    def test_backup_reinserted(self):
        heap = ThresholdHeap(ascending=True)
        for v in (2, 5):
            heap.record_for(Tag(TagKind.THRESHOLD, "k", v, ">")).waiters.append(object())
        list(heap.candidates(10))
        # a second walk sees the same roots
        assert [r.tag.key for r in heap.candidates(10)] == [2, 5]

    def test_inclusive_ranks_before_strict(self):
        heap = ThresholdHeap(ascending=True)
        heap.record_for(Tag(TagKind.THRESHOLD, "k", 3, ">")).waiters.append(object())
        heap.record_for(Tag(TagKind.THRESHOLD, "k", 3, ">=")).waiters.append(object())
        got = [(r.tag.key, r.tag.op) for r in heap.candidates(3)]
        assert got == [(3, ">=")]        # value 3 satisfies >= 3 but not > 3

    def test_descending_family(self):
        heap = ThresholdHeap(ascending=False)
        for v in (2, 5, 9):
            heap.record_for(Tag(TagKind.THRESHOLD, "k", v, "<")).waiters.append(object())
        got = [r.tag.key for r in heap.candidates(4)]
        assert got == [9, 5]


class TestSearchOrdering:
    def test_equivalence_checked_before_threshold(self):
        index, (weq, wth) = _index_with(S.x == 4, S.x >= 0)
        found = _search(index, FakeMonitor(x=4))
        assert found is weq

    def test_threshold_search_finds_satisfiable(self):
        index, (w1, w2, w3) = _index_with(S.x >= 10, S.x >= 3, S.x >= 7)
        found = _search(index, FakeMonitor(x=5))
        assert found is w2


@settings(max_examples=60, deadline=None)
@given(
    consts=st.lists(st.integers(-10, 10), min_size=1, max_size=12),
    value=st.integers(-12, 12),
    op=st.sampled_from([">", ">=", "<", "<="]),
)
def test_heap_candidates_equal_bruteforce(consts, value, op):
    """The heap walk yields exactly the satisfied tags, best-first."""
    ascending = op in (">", ">=")
    heap = ThresholdHeap(ascending=ascending)
    for c in consts:
        heap.record_for(Tag(TagKind.THRESHOLD, "k", c, op)).waiters.append(object())
    sat = {
        ">": lambda v, k: v > k,
        ">=": lambda v, k: v >= k,
        "<": lambda v, k: v < k,
        "<=": lambda v, k: v <= k,
    }[op]
    got = sorted(r.tag.key for r in heap.candidates(value))
    want = sorted(set(c for c in consts if sat(value, c)))
    assert got == want
