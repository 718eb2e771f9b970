"""Tag indexes: equivalence hash tables and threshold heaps (§2.4.2, Alg. 2).

Per monitor, the condition manager keeps:

* for each shared-expression key carrying Equivalence tags, a hash table
  from constant value → tag record (O(1) lookup after one evaluation of the
  shared expression);
* for each shared-expression key carrying Threshold tags, a min-heap for
  ``>``/``>=`` tags and a max-heap for ``<``/``<=`` tags, exploiting
  monotonicity: if the root's condition fails, every descendant's fails too.
  Ties between ``>=`` and ``>`` on the same constant rank the inclusive
  operator first, exactly as §2.4.2 specifies.  Heap keys are the tag
  constants themselves (negated for the max-heap, never rescaled), so the
  heap order is the exact order of the constants and a false root rules
  out the whole heap.

Untagged (None-tag) conjunctions never reach the index: the condition
manager files them in its dependency buckets.  Each record holds the
waiters whose predicate owns a conjunction with that tag; multiple
predicates sharing a conjunct share one record.
"""

from __future__ import annotations

import heapq
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.tags import Tag, TagKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.waiter import Waiter

#: threshold operator → its C comparison, called as ``holds(value, key)``
_HOLDS = {"<": operator.lt, "<=": operator.le,
          ">": operator.gt, ">=": operator.ge}


class TagRecord:
    """All waiters sharing one tag identity."""

    __slots__ = ("tag", "key", "holds", "waiters")

    def __init__(self, tag: Tag):
        self.tag = tag
        #: the tag's constant and, for a threshold tag, its comparison —
        #: copied here so a heap probe reads two slots, not the dataclass
        self.key = tag.key
        self.holds = _HOLDS.get(tag.op)
        self.waiters: list["Waiter"] = []

    def __repr__(self):
        return f"TagRecord({self.tag}, {len(self.waiters)} waiters)"


# Heap entries are plain tuples ``(key or -key, strictness, seq, record)`` so
# heapq's sift comparisons stay in C (a class with a Python ``__lt__`` costs
# one interpreted call per comparison — thousands per walk of a big heap).
# Inclusive operators get strictness 0 so ``>=`` sorts before ``>`` on equal
# keys (§2.4.2); ``seq`` is a unique tiebreaker so comparison never reaches
# the record.
_ENTRY_RECORD = 3


class ThresholdHeap:
    """One heap of threshold tag records for a single shared expression."""

    __slots__ = ("ascending", "_heap", "_records", "_live", "_seq")

    def __init__(self, ascending: bool):
        #: ascending=True → `>`/`>=` family (check smallest key first)
        self.ascending = ascending
        self._heap: list[tuple] = []
        self._records: dict[tuple, TagRecord] = {}
        #: count of records that currently hold waiters, maintained
        #: incrementally by TagIndex.add/remove; the search skips a heap
        #: on this count alone
        self._live = 0
        self._seq = 0

    def record_for(self, tag: Tag) -> TagRecord:
        rec = self._records.get(tag.identity())
        if rec is None:
            rec = TagRecord(tag)
            self._records[tag.identity()] = rec
            strictness = 0 if tag.op in ("<=", ">=") else 1
            self._seq += 1
            # negation is exact for ints and floats alike; scaling by -1.0
            # would round integer keys beyond 2**53 and break heap order
            key = tag.key if self.ascending else -tag.key
            heapq.heappush(self._heap, (key, strictness, self._seq, rec))
        return rec

    def note_occupied(self) -> None:
        """A record of this heap went empty → non-empty."""
        self._live += 1

    def note_vacated(self) -> None:
        """A record of this heap went non-empty → empty."""
        self._live -= 1

    def prune_empty(self) -> None:
        """Drop records whose last waiter left (lazy: rebuild when stale)."""
        if len(self._records) > 2 * max(1, self._live):
            live = [e for e in self._heap if e[_ENTRY_RECORD].waiters]
            self._records = {
                e[_ENTRY_RECORD].tag.identity(): e[_ENTRY_RECORD] for e in live
            }
            self._heap = live
            heapq.heapify(self._heap)

    def candidates(self, value: Any) -> Iterator[TagRecord]:
        """Yield records whose tag is true for ``value``, root-first.

        Implements Algorithm 2's temporary-removal walk: check the root;
        while it is true, yield its record (the caller evaluates the full
        predicates), pop it to a backup list and look at the new root; when
        a false root or an exhausted heap is reached, reinsert the backup.
        The generator form lets the caller stop as soon as it has signaled.
        """
        backup: list[tuple] = []
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        try:
            while heap:
                rec = heap[0][_ENTRY_RECORD]
                if not rec.holds(value, rec.key):
                    break
                if rec.waiters:
                    yield rec
                backup.append(heappop(heap))
        finally:
            for entry in backup:
                heappush(heap, entry)


class TagIndex:
    """The complete per-monitor tag structure."""

    __slots__ = ("eq_tables", "heaps", "_eq_records")

    def __init__(self):
        #: expr_key → {constant → TagRecord}
        self.eq_tables: dict[Any, dict[Any, TagRecord]] = {}
        #: (expr_key, ascending) → ThresholdHeap
        self.heaps: dict[tuple[Any, bool], ThresholdHeap] = {}
        self._eq_records: dict[tuple, TagRecord] = {}

    # -- registration ---------------------------------------------------------
    def add(self, tag: Tag, waiter: "Waiter") -> TagRecord:
        """File ``waiter`` under an Equivalence or Threshold ``tag``."""
        if tag.kind is TagKind.EQUIVALENCE:
            rec = self._eq_records.get(tag.identity())
            if rec is None:
                rec = TagRecord(tag)
                self._eq_records[tag.identity()] = rec
                self.eq_tables.setdefault(tag.expr_key, {})[tag.key] = rec
            rec.waiters.append(waiter)
            return rec
        ascending = tag.op in (">", ">=")
        heap = self.heaps.get((tag.expr_key, ascending))
        if heap is None:
            heap = ThresholdHeap(ascending)
            self.heaps[(tag.expr_key, ascending)] = heap
        rec = heap.record_for(tag)
        if not rec.waiters:
            heap.note_occupied()
        rec.waiters.append(waiter)
        return rec

    def remove(self, record: TagRecord, waiter: "Waiter") -> None:
        try:
            record.waiters.remove(waiter)
            removed = True
        except ValueError:
            removed = False
        if not record.waiters:
            tag = record.tag
            if tag.kind is TagKind.EQUIVALENCE:
                self._eq_records.pop(tag.identity(), None)
                table = self.eq_tables.get(tag.expr_key)
                if table is not None:
                    table.pop(tag.key, None)
                    if not table:
                        del self.eq_tables[tag.expr_key]
            elif removed:
                # ``removed`` guards the live counter: only the removal that
                # actually emptied the record vacates it
                heap = self.heaps.get((tag.expr_key, tag.op in (">", ">=")))
                if heap is not None:
                    heap.note_vacated()
                    heap.prune_empty()

    # -- search ---------------------------------------------------------------
    def search(
        self,
        evaluate_expr: Callable[[Any], Any],
        predicate_true: Callable[["Waiter"], bool],
    ) -> "Waiter | None":
        """Find one waiter whose predicate is true, cheapest tags first.

        ``evaluate_expr(expr_key)`` evaluates the canonical shared
        expression against the monitor state; ``predicate_true(waiter)``
        evaluates the waiter's full closure predicate.  Returns the first
        satisfied waiter, or None.
        """
        # 1. Equivalence tables: one expression evaluation + one hash probe
        # (equal numbers hash equal, so a float value finds an int key).
        for expr_key, table in self.eq_tables.items():
            rec = table.get(evaluate_expr(expr_key))
            if rec is not None:
                for waiter in rec.waiters:
                    if predicate_true(waiter):
                        return waiter
        # 2. Threshold heaps.  The root holds the weakest tag of its heap, so
        # a false root ends the heap at one evaluation and one comparison;
        # only a true root starts Algorithm 2's walk.
        for (expr_key, _asc), heap in self.heaps.items():
            if not heap._live:
                continue
            value = evaluate_expr(expr_key)
            root = heap._heap[0][_ENTRY_RECORD]
            if not root.holds(value, root.key):
                continue
            for rec in heap.candidates(value):
                for waiter in rec.waiters:
                    if predicate_true(waiter):
                        return waiter
        return None
