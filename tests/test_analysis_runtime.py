"""Tests for the dynamic monitor-usage checker (repro.analysis.runtime)."""

import pytest

from repro.analysis import runtime as monlint_runtime
from repro.core import Monitor
from repro.multi import multisynch
from repro.runtime.errors import LockOrderError, PredicateSideEffectError


class Node(Monitor):
    def __init__(self):
        super().__init__()
        self.hits = 0

    def touch(self):
        self.hits += 1

    def outer(self, other):
        # nested hand-ordered acquisition: other's lock under self's lock
        other.touch()


class Sneaky(Monitor):
    def __init__(self):
        super().__init__()
        self.n = 0

    def bad_wait(self):
        def pred():
            self.n += 1  # mutation during predicate evaluation
            return True

        self.wait_until(pred)


@pytest.fixture(autouse=True)
def _pristine_checker():
    monlint_runtime.disable_checks()
    monlint_runtime.reset()
    yield
    monlint_runtime.disable_checks()
    monlint_runtime.reset()


# ------------------------------------------------------------- lock order
def test_misordered_acquisition_raises():
    a, b = Node(), Node()  # ids ascend with construction order
    with monlint_runtime.checking():
        with pytest.raises(LockOrderError):
            b.outer(a)  # acquires a (lower id) while holding b
        assert monlint_runtime.violations
        assert "ascending monitor-id order" in monlint_runtime.violations[0]


def test_ascending_nesting_is_allowed():
    a, b = Node(), Node()
    with monlint_runtime.checking():
        a.outer(b)
    assert b.hits == 1


def test_reentrant_acquisition_is_allowed():
    a = Node()
    with monlint_runtime.checking():
        a.outer(a)  # reentrant self-call, legal under the RLock
    assert a.hits == 1


def test_multisynch_satisfies_the_checker():
    a, b = Node(), Node()
    with monlint_runtime.checking():
        with multisynch(b, a):  # multisynch reorders to ascending ids
            a.touch()
            b.touch()
    assert (a.hits, b.hits) == (1, 1)


def test_record_only_mode():
    a, b = Node(), Node()
    with monlint_runtime.checking(raise_on_order_violation=False):
        b.outer(a)  # recorded, not raised
    assert a.hits == 1
    assert len(monlint_runtime.violations) == 1


def test_checker_state_resets_after_violation():
    a, b = Node(), Node()
    with monlint_runtime.checking():
        with pytest.raises(LockOrderError):
            b.outer(a)
        # the refused acquisition must not linger on the held stack
        assert list(monlint_runtime.held_monitor_ids()) == []
        a.touch()  # plain use keeps working
    assert a.hits == 1


# -------------------------------------------------------- predicate purity
def test_predicate_side_effect_detected():
    sneaky = Sneaky()
    with monlint_runtime.checking():
        with pytest.raises(PredicateSideEffectError):
            sneaky.bad_wait()
        assert monlint_runtime.violations


def test_predicate_side_effect_ignored_when_disabled():
    sneaky = Sneaky()
    sneaky.bad_wait()  # impure, but the checker is off: paper semantics only
    assert sneaky.n >= 1


# ------------------------------------------------------------ enable state
def test_config_flag_stays_in_sync():
    assert not monlint_runtime.enabled
    monlint_runtime.enable_checks()
    assert monlint_runtime.enabled
    monlint_runtime.disable_checks()
    assert not monlint_runtime.enabled


def test_disabled_checker_tracks_nothing():
    a = Node()
    a.touch()
    assert list(monlint_runtime.held_monitor_ids()) == []
    assert monlint_runtime.violations == []
