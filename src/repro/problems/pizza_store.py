"""The pizza-store problem — Figs. 4.7 / 4.8 (global AND conditions).

Cooks wait until every ingredient they need is in stock (a conjunction of
per-ingredient thresholds spanning several monitors), then consume; suppliers
restock.  Variants:

* ``gl`` — one coarse-grained lock + one condition variable over the whole
  store (cooks needing disjoint ingredients still serialize);
* ``tm`` — ingredient quantities as TVars; a cook's acquire is one
  transaction that ``retry()``s until stocked;
* ``as`` / ``av`` / ``cc`` — each ingredient its own monitor; the cook uses
  ``multisynch`` + a global conjunction, under the three signaling
  strategies.  Fig. 4.8's *false evaluations* = waiter wakeups whose global
  predicate re-check failed.
"""

from __future__ import annotations

import random
import threading

import time

from repro.core import Monitor, S
from repro.multi import local, manager, multisynch
from repro.problems.common import RunResult, run_threads
from repro.runtime.errors import WaitTimeoutError
from repro.stm import TVar, atomic, retry

N_INGREDIENTS = 15
N_RECIPES = 15
MAX_NEED = 6
#: one restock enables roughly one cook — keeps ingredients scarce enough
#: that cooks actually block (the regime Figs. 4.7/4.8 measure)
RESTOCK = 6
CAPACITY = 60
#: bound on a store's plan table, cleared when full (as multisynch's
#: flatten cache is): a store fed ever-new recipes never grows past it
PLAN_CACHE_CAP = 1024


def make_recipes(seed: int = 11) -> list[dict[int, int]]:
    """One recipe per pizza type: 3 ingredients, quantities 1..MAX_NEED."""
    rng = random.Random(seed)
    recipes = []
    for _ in range(N_RECIPES):
        chosen = rng.sample(range(N_INGREDIENTS), 3)
        recipes.append({i: rng.randint(1, MAX_NEED) for i in chosen})
    return recipes


class Ingredient(Monitor):
    """One ingredient as a monitor object."""

    def __init__(self, signaling: str = "autosynch"):
        super().__init__(signaling=signaling)
        self.quantity = 0

    def consume(self, n: int) -> None:
        self.quantity -= n

    def produce(self, n: int) -> None:
        self.quantity = min(CAPACITY, self.quantity + n)


class CoarseStore:
    """GL variant: one lock, one broadcast condition, a plain dict."""

    def __init__(self):
        self.quantity = [0] * N_INGREDIENTS
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)

    def cook(self, recipe: dict[int, int]) -> None:
        with self._mutex:
            while not all(self.quantity[i] >= n for i, n in recipe.items()):
                self._cond.wait()
            for i, n in recipe.items():
                self.quantity[i] -= n

    def supply(self, ingredient: int, n: int) -> None:
        with self._mutex:
            self.quantity[ingredient] = min(CAPACITY, self.quantity[ingredient] + n)
            self._cond.notify_all()


class TMStore:
    """TM variant: quantities in TVars, conditional acquire via retry()."""

    def __init__(self):
        self.quantity = [TVar(0) for _ in range(N_INGREDIENTS)]

    def cook(self, recipe: dict[int, int]) -> None:
        def txn():
            for i, n in recipe.items():
                if self.quantity[i].get() < n:
                    retry()
            for i, n in recipe.items():
                self.quantity[i].set(self.quantity[i].get() - n)

        atomic(txn)

    def supply(self, ingredient: int, n: int) -> None:
        atomic(lambda: self.quantity[ingredient].set(
            min(CAPACITY, self.quantity[ingredient].get() + n)))


class MonitorStore:
    """AS/AV/CC variants: one monitor per ingredient + multisynch.

    A cook's lock tuple and global predicate depend only on its recipe, so
    the store builds them once per recipe, in a plan table keyed by
    ``tuple(recipe.items())``.  A global predicate is immutable and closed
    (Def. 2), so one predicate serves every cook of that recipe on every
    thread, and its atoms compile on reuse.
    """

    def __init__(self, strategy: str):
        self.ingredients = [Ingredient() for _ in range(N_INGREDIENTS)]
        self.strategy = strategy
        self._plans: dict[tuple, tuple] = {}

    def _plan(self, recipe: dict[int, int]) -> tuple:
        """``(locks, condition)`` for ``recipe``, built on first use.

        Filling the table is an idempotent single store: two threads racing
        on one new recipe each build a plan, and either one serves."""
        key = tuple(recipe.items())
        plan = self._plans.get(key)
        if plan is None:
            ings = self.ingredients
            condition = None
            for i, n in key:
                atom = local(ings[i], S.quantity >= n)
                condition = atom if condition is None else (condition & atom)
            plan = (tuple(ings[i] for i, _ in key), condition)
            if len(self._plans) >= PLAN_CACHE_CAP:
                self._plans.clear()
            self._plans[key] = plan
        return plan

    def cook(self, recipe: dict[int, int]) -> None:
        locks, condition = self._plan(recipe)
        with multisynch(locks, strategy=self.strategy) as ms:
            ms.wait_until(condition)
            for i, n in recipe.items():
                self.ingredients[i].consume(n)

    def cook_until(self, recipe: dict[int, int],
                   deadline: float | None = None, cancel=None) -> None:
        """Deadline-bounded cook (repro.loadsim service facade).

        The per-request deadline rides on the multisynch global wait;
        a cook whose deadline already passed before it won the ingredient
        locks fails fast with :class:`WaitTimeoutError` instead of
        consuming stock it no longer has time to use.
        """
        if deadline is not None and time.monotonic() >= deadline:
            raise WaitTimeoutError("cook deadline expired before acquisition")
        locks, condition = self._plan(recipe)
        with multisynch(locks, strategy=self.strategy) as ms:
            ms.wait_until(condition, deadline=deadline, cancel=cancel)
            for i, n in recipe.items():
                self.ingredients[i].consume(n)

    def supply(self, ingredient: int, n: int) -> None:
        self.ingredients[ingredient].produce(n)


def make_store(variant: str):
    if variant == "gl":
        return CoarseStore()
    if variant == "tm":
        return TMStore()
    if variant in ("as", "av", "cc"):
        return MonitorStore(variant.upper())
    raise ValueError(f"unknown variant {variant!r}")


def run_pizza_store(
    variant: str,
    n_cooks: int,
    pizzas_per_cook: int,
    n_suppliers: int = 1,
    seed: int = 11,
) -> RunResult:
    """Figs. 4.7/4.8 workload: cooks make random pizza types; suppliers
    restock every ingredient round-robin until all cooks finish."""
    store = make_store(variant)
    recipes = make_recipes(seed)
    rng = random.Random(seed + 1)
    plans = [
        [recipes[rng.randrange(N_RECIPES)] for _ in range(pizzas_per_cook)]
        for _ in range(n_cooks)
    ]
    done = threading.Event()
    finished = [0]
    finished_lock = threading.Lock()
    manager.global_condition_metrics.reset()

    def cook(plan):
        for recipe in plan:
            store.cook(recipe)
        with finished_lock:
            finished[0] += 1
            if finished[0] == n_cooks:
                done.set()

    def supplier(offset: int):
        i = offset
        while not done.is_set():
            store.supply(i % N_INGREDIENTS, RESTOCK)
            i += 1
        # top everything up so no cook is stranded mid-exit
        for j in range(N_INGREDIENTS):
            store.supply(j, RESTOCK)

    targets = [(lambda p=plan: cook(p)) for plan in plans] + [
        (lambda o=o: supplier(o)) for o in range(n_suppliers)
    ]
    elapsed = run_threads(targets, timeout=300.0)
    metrics = manager.global_condition_metrics.snapshot()
    return RunResult(elapsed, n_cooks * pizzas_per_cook, metrics)
