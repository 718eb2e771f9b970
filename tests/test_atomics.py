"""Stress tests for the explicit atomics layer (repro.runtime.atomics).

Both implementations of every primitive are hammered from 8+ threads on
whatever build is running — the locked forms must be correct everywhere,
and the GIL forms must be correct wherever they are selected (a regular
build; on a free-threaded build ``AtomicCounter`` *is* the locked class,
so the Gil* stress here only documents the GIL build's guarantee).

The forced-locked subprocess tests at the bottom re-run the scqueue
linearizability suite, the relay-differential suites and the park
primitive's suite with ``REPRO_ATOMICS=locked`` so ordinary GIL builds
exercise exactly the code the free-threaded lane will run.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.runtime.atomics import (
    FORCED_LOCKED,
    GIL_ENABLED,
    AtomicCounter,
    AtomicFlag,
    AtomicRef,
    GilAtomicCounter,
    LockedAtomicCounter,
    build_info,
)

REPO = Path(__file__).resolve().parent.parent

N_THREADS = 8
DRAWS = 2000


def hammer(n_threads, fn):
    """Run ``fn(thread_index)`` on ``n_threads`` threads with a start barrier."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def body(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover — only on bugs
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


# ------------------------------------------------------------------ counters
@pytest.mark.parametrize("impl", [GilAtomicCounter, LockedAtomicCounter])
class TestCounterStress:
    def test_no_duplicate_draws_from_8_threads(self, impl):
        counter = impl()
        drawn = [[] for _ in range(N_THREADS)]
        hammer(N_THREADS, lambda i: drawn[i].extend(
            counter.next() for _ in range(DRAWS)))
        flat = [v for chunk in drawn for v in chunk]
        assert sorted(flat) == list(range(N_THREADS * DRAWS))

    def test_per_thread_draws_are_monotonic(self, impl):
        counter = impl()
        drawn = [[] for _ in range(N_THREADS)]
        hammer(N_THREADS, lambda i: drawn[i].extend(
            counter.next() for _ in range(DRAWS)))
        for chunk in drawn:
            assert chunk == sorted(chunk)

    def test_initial_and_step_sequence(self, impl):
        counter = impl(10, 3)
        assert [counter.next() for _ in range(4)] == [10, 13, 16, 19]

    def test_peek_is_next_value_without_advancing(self, impl):
        counter = impl(5)
        assert counter.peek() == 5
        assert counter.peek() == 5
        assert counter.next() == 5
        assert counter.peek() == 6


def test_both_impls_produce_identical_sequences():
    for initial, step in [(0, 1), (1, 1), (2, 2), (7, -3)]:
        gil = GilAtomicCounter(initial, step)
        locked = LockedAtomicCounter(initial, step)
        assert [gil.next() for _ in range(6)] == [locked.next() for _ in range(6)]


def test_build_selection_is_consistent():
    expected = GilAtomicCounter if GIL_ENABLED else LockedAtomicCounter
    assert AtomicCounter is expected


# -------------------------------------------------------------------- flags
def test_flag_test_and_set_elects_exactly_one_winner():
    flag = AtomicFlag()
    winners = []
    losses = []
    hammer(N_THREADS, lambda i: (winners if not flag.test_and_set()
                                 else losses).append(i))
    assert len(winners) == 1
    assert len(losses) == N_THREADS - 1


def test_flag_repeated_elections():
    flag = AtomicFlag()
    wins = [0] * N_THREADS
    rounds = 200
    start = threading.Barrier(N_THREADS)
    done = threading.Barrier(N_THREADS)

    def body(i):
        for _ in range(rounds):
            start.wait()
            if not flag.test_and_set():
                wins[i] += 1
            done.wait()
            if i == 0:
                flag.clear()

    hammer(N_THREADS, body)
    assert sum(wins) == rounds


def test_flag_plain_ops():
    flag = AtomicFlag()
    assert not flag
    flag.set()
    assert flag
    flag.clear()
    assert not flag
    assert AtomicFlag(True)


# --------------------------------------------------------------------- refs
def test_ref_update_is_a_correct_rmw():
    ref = AtomicRef(0)
    hammer(N_THREADS, lambda i: [ref.update(lambda v: v + 1)
                                 for _ in range(DRAWS)])
    assert ref.get() == N_THREADS * DRAWS


def test_ref_compare_and_swap_single_winner():
    sentinel = object()
    ref = AtomicRef(sentinel)
    outcomes = []
    hammer(N_THREADS, lambda i: outcomes.append(ref.compare_and_swap(sentinel, i)))
    assert outcomes.count(True) == 1
    assert ref.get() in range(N_THREADS)


def test_ref_cas_uses_identity_not_equality():
    a, b = [1], [1]  # equal but distinct
    ref = AtomicRef(a)
    assert not ref.compare_and_swap(b, "new")
    assert ref.compare_and_swap(a, "new")
    assert ref.get() == "new"


def test_ref_swap_returns_previous():
    ref = AtomicRef("old")
    assert ref.swap("new") == "old"
    assert ref.get() == "new"


# ------------------------------------------------------------- probe / info
def test_gil_probe_matches_interpreter():
    is_enabled = getattr(sys, "_is_gil_enabled", None)
    actual = True if is_enabled is None else bool(is_enabled())
    assert GIL_ENABLED == (actual and not FORCED_LOCKED)


def test_build_info_shape():
    info = build_info()
    for key in ("python", "implementation", "free_threading_build",
                "gil_enabled", "atomics", "platform", "machine", "cpu_count"):
        assert key in info, key
    assert info["atomics"] == ("gil" if GIL_ENABLED else "locked")
    assert info["cpu_count"] >= 1
    # a non-free-threading build can never be running without the GIL
    if not info["free_threading_build"] and not FORCED_LOCKED:
        assert info["gil_enabled"]


# ----------------------------------------------- forced-locked subprocess runs
def _run_locked(*pytest_args):
    env = dict(os.environ, REPRO_ATOMICS="locked",
               PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", *pytest_args],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.skipif(FORCED_LOCKED, reason="already running forced-locked")
def test_locked_lane_smoke():
    """The forced-locked build flag actually flips the implementation."""
    code = ("from repro.runtime.atomics import GIL_ENABLED, AtomicCounter, "
            "LockedAtomicCounter\n"
            "assert not GIL_ENABLED\n"
            "assert AtomicCounter is LockedAtomicCounter\n")
    env = dict(os.environ, REPRO_ATOMICS="locked",
               PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
@pytest.mark.skipif(FORCED_LOCKED, reason="already running forced-locked")
def test_scqueue_linearizability_survives_locked_lane():
    """Full scqueue suite (incl. MPSC stress) on the locked implementations."""
    proc = _run_locked("tests/test_scqueue.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(FORCED_LOCKED, reason="already running forced-locked")
def test_relay_differential_survives_locked_lane():
    """Relay search differential suites on the locked implementations."""
    proc = _run_locked(
        "tests/test_relay_search_properties.py",
        "tests/test_dependency_tracking.py::test_filtered_relay_matches_exhaustive_search",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(FORCED_LOCKED, reason="already running forced-locked")
def test_parker_survives_locked_lane():
    """The park primitive's tests on its locked form, selected at import."""
    proc = _run_locked("tests/test_parking.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
