"""Lint fixture: W013 (hint) — an opaque read set is re-evaluated on
every section exit.

The class is ``@monitor_compile``d and ``refill`` writes ``stock`` through
a statically visible path, so the relay's dependency buckets could route
that write to the waiters that read ``stock``.  But ``take``'s wait
predicate is a method call — an opaque read set — so the waiter sits in
the relay's always-scan pool: every section exit runs the relay search
and evaluates it.  Writing the condition over ``self.stock`` (or
annotating ``reads=`` on a shared expression) lets the buckets route
only the writes it reads.
"""

from repro.core import Monitor
from repro.preprocess import monitor_compile, waituntil


@monitor_compile
class Shelf(Monitor):
    def __init__(self):
        super().__init__()
        self.stock = 0

    def refill(self, n):
        self.stock += n

    def take(self):
        waituntil(self._has_stock())
        self.stock -= 1

    def _has_stock(self):
        return self.stock > 0
