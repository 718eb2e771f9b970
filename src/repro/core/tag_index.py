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

Each table and each heap holds the evaluator of its own shared expression
(``evaluate``, monitor → value), so a probe evaluates that expression once
per table or heap and calls nothing else.  A registration that files a tag
into a holder with no evaluator sets it; a table is deleted when its last
record empties, and a heap (kept, with its pruned records) drops its
evaluator then, so an evaluator lives exactly as long as some waiter
needs it.  Both are written only under the monitor lock.

Untagged (None-tag) conjunctions never reach the index: the condition
manager files them in its dependency buckets.  Each record holds the
waiters whose predicate owns a conjunction with that tag; multiple
predicates sharing a conjunct share one record.

A probe the index cannot trust rules nobody out.  When evaluating a key,
testing a root, probing a table or walking a heap raises (state of a type
the tag's constant does not compare or hash with), or a rearranged key
(``Tag.exact`` False: ``S.x + 1 >= k`` filed as ``x >= k - 1``) reads a
value that is not an ``int``, every waiter of that table or heap goes
through the full-predicate check instead, which poisons and signals a
waiter whose own predicate raises.
"""

from __future__ import annotations

import heapq
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.core.tags import Tag, TagKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.waiter import Waiter
    from repro.runtime.metrics import Metrics

#: threshold operator → its C comparison, called as ``holds(value, key)``
_HOLDS = {"<": operator.lt, "<=": operator.le,
          ">": operator.gt, ">=": operator.ge}


class TagRecord:
    """All waiters sharing one tag identity."""

    __slots__ = ("tag", "key", "holds", "waiters", "holder")

    def __init__(self, tag: Tag, holder: "EquivalenceTable | ThresholdHeap"):
        self.tag = tag
        #: the tag's constant and, for a threshold tag, its comparison —
        #: copied here so a heap probe reads two slots, not the dataclass
        self.key = tag.key
        self.holds = _HOLDS.get(tag.op)
        self.waiters: list["Waiter"] = []
        #: the table or heap this record is filed in
        self.holder = holder

    def __repr__(self):
        return f"TagRecord({self.tag}, {len(self.waiters)} waiters)"


# Heap entries are plain tuples ``(key or -key, strictness, seq, record)`` so
# heapq's sift comparisons stay in C (a class with a Python ``__lt__`` costs
# one interpreted call per comparison — thousands per walk of a big heap).
# Inclusive operators get strictness 0 so ``>=`` sorts before ``>`` on equal
# keys (§2.4.2); ``seq`` is a unique tiebreaker so comparison never reaches
# the record.
_ENTRY_RECORD = 3


class EquivalenceTable:
    """The equivalence tag records of one shared expression, by constant."""

    __slots__ = ("evaluate", "records")

    def __init__(self):
        #: the shared expression's evaluator, set by the first registration
        self.evaluate: Optional[Callable[[Any], Any]] = None
        self.records: dict[Any, TagRecord] = {}


class ThresholdHeap:
    """One heap of threshold tag records for a single shared expression."""

    __slots__ = ("ascending", "evaluate", "_heap", "_records", "_live",
                 "_seq")

    def __init__(self, ascending: bool):
        #: ascending=True → `>`/`>=` family (check smallest key first)
        self.ascending = ascending
        #: the shared expression's evaluator while a record holds a waiter
        self.evaluate: Optional[Callable[[Any], Any]] = None
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
            rec = TagRecord(tag, self)
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
        """A record of this heap went non-empty → empty; the last one takes
        the evaluator with it."""
        self._live -= 1
        if not self._live:
            self.evaluate = None

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


def _first_true(records, predicate_true) -> "Waiter | None":
    """The first waiter of ``records`` whose full predicate holds: the
    search's fallback when a probe rules nobody out."""
    for rec in records:
        for waiter in rec.waiters:
            if predicate_true(waiter):
                return waiter
    return None


class TagIndex:
    """The complete per-monitor tag structure."""

    __slots__ = ("eq_tables", "heaps")

    def __init__(self):
        #: (expr_key, exact) → EquivalenceTable
        self.eq_tables: dict[tuple[Any, bool], EquivalenceTable] = {}
        #: (expr_key, ascending, exact) → ThresholdHeap
        self.heaps: dict[tuple[Any, bool, bool], ThresholdHeap] = {}

    # -- registration ---------------------------------------------------------
    def add(self, tag: Tag, waiter: "Waiter") -> TagRecord:
        """File ``waiter`` under an Equivalence or Threshold ``tag``.  The
        record's holder has no evaluator when this made it live: the caller
        sets one."""
        if tag.kind is TagKind.EQUIVALENCE:
            where = (tag.expr_key, tag.exact)
            table = self.eq_tables.get(where)
            if table is None:
                table = self.eq_tables[where] = EquivalenceTable()
            rec = table.records.get(tag.key)
            if rec is None:
                rec = table.records[tag.key] = TagRecord(tag, table)
            rec.waiters.append(waiter)
            return rec
        where = (tag.expr_key, tag.op in (">", ">="), tag.exact)
        heap = self.heaps.get(where)
        if heap is None:
            heap = self.heaps[where] = ThresholdHeap(where[1])
        rec = heap.record_for(tag)
        if not rec.waiters:
            heap.note_occupied()
        rec.waiters.append(waiter)
        return rec

    def remove(self, record: TagRecord, waiter: "Waiter") -> None:
        try:
            record.waiters.remove(waiter)
        except ValueError:
            return
        if record.waiters:
            return
        tag = record.tag
        holder = record.holder
        if tag.kind is TagKind.EQUIVALENCE:
            records = holder.records
            records.pop(tag.key, None)
            if not records:
                self.eq_tables.pop((tag.expr_key, tag.exact), None)
        else:
            holder.note_vacated()
            holder.prune_empty()

    # -- search ---------------------------------------------------------------
    def search(
        self,
        monitor: Any,
        predicate_true: Callable[["Waiter"], bool],
        metrics: "Metrics",
    ) -> "Waiter | None":
        """Find one waiter whose predicate is true, cheapest tags first.

        Each table or heap evaluates its shared expression against
        ``monitor`` once, counting one ``metrics.tag_checks``;
        ``predicate_true(waiter)`` evaluates the waiter's full closure
        predicate, and never raises: a predicate that raises poisons its
        waiter and reads True.  Returns the first satisfied waiter, or
        None.

        A probe that raises, or a rearranged key read over a value that is
        not an ``int``, is inconclusive: every waiter of that table or heap
        is checked through ``predicate_true`` (see the module docstring).
        """
        # 1. Equivalence tables: one expression evaluation + one hash probe
        # (equal numbers hash equal, so a float value finds an int key).
        for (_expr, exact), table in self.eq_tables.items():
            metrics.tag_checks += 1
            try:
                value = table.evaluate(monitor)
                if exact or type(value) is int:
                    rec = table.records.get(value)
                    if rec is not None:
                        for waiter in rec.waiters:
                            if predicate_true(waiter):
                                return waiter
                    continue
            except Exception:  # noqa: BLE001 — the waiters' predicates decide
                pass
            waiter = _first_true(table.records.values(), predicate_true)
            if waiter is not None:
                return waiter
        # 2. Threshold heaps.  The root holds the weakest tag of its heap, so
        # a false root ends the heap at one evaluation and one comparison;
        # only a true root starts Algorithm 2's walk.
        for (_expr, _asc, exact), heap in self.heaps.items():
            if not heap._live:
                continue
            metrics.tag_checks += 1
            try:
                value = heap.evaluate(monitor)
                if exact or type(value) is int:
                    root = heap._heap[0][_ENTRY_RECORD]
                    if not root.holds(value, root.key):
                        continue
                    for rec in heap.candidates(value):
                        for waiter in rec.waiters:
                            if predicate_true(waiter):
                                return waiter
                    continue
            except Exception:  # noqa: BLE001 — the waiters' predicates decide
                pass
            waiter = _first_true([e[_ENTRY_RECORD] for e in heap._heap],
                                 predicate_true)
            if waiter is not None:
                return waiter
        return None
