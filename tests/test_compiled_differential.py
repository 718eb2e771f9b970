"""Differential tests: compiled evaluators ≡ the tree-walking interpreter.

The interpreter in :mod:`repro.core.predicates` is the executable
specification; :mod:`repro.core.compiled` must match it *exactly* — same
values, same truthiness, same exceptions from the same sub-evaluation order.
These tests prove that equivalence three ways:

* hypothesis-generated random predicate trees evaluated against randomized
  (and deliberately hostile) monitor states, comparing value/truthiness and
  raised exception type+message;
* targeted exception cases (ZeroDivisionError via ``%``, AttributeError via
  a missing shared variable, TypeError via mixed-type arithmetic) including
  short-circuit positions where the interpreter must *not* raise;
* the problem corpus smoke-run under :func:`repro.core.compiled.crosscheck`,
  where every evaluation runs both paths and any divergence fails loudly.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor, S
from repro.core import compiled
from repro.core.condition_manager import ConditionManager
from repro.core.expressions import Const, SharedExpr, SharedVar
from repro.core.predicates import (
    And,
    Comparison,
    FalseAtom,
    FuncAtom,
    Or,
    Predicate,
    TrueAtom,
)
from repro.core.waiter import Waiter
from repro.runtime.config import get_config
from repro.runtime.metrics import Metrics


class State:
    """Bare state object standing in for a monitor."""

    def __init__(self, **attrs):
        for k, v in attrs.items():
            setattr(self, k, v)


def _outcome(fn, state):
    """Run ``fn(state)``, capturing (value, truthiness, exception)."""
    try:
        value = fn(state)
        return value, bool(value), None
    except Exception as exc:  # noqa: BLE001 — compared structurally below
        return None, None, exc


def assert_equivalent(predicate, state):
    """Compiled and interpreted evaluation must agree on ``state``."""
    ev = compiled.compile_predicate(predicate)
    if ev is None:
        return  # interpreter fallback: nothing to diverge
    expected, expected_truth, expected_exc = _outcome(predicate.evaluate, state)
    got, got_truth, got_exc = _outcome(ev, state)
    if expected_exc is not None or got_exc is not None:
        assert type(expected_exc) is type(got_exc), (
            f"{predicate!r}: interpreted raised {expected_exc!r}, "
            f"compiled raised {got_exc!r}"
        )
        assert str(expected_exc) == str(got_exc)
    else:
        assert expected == got, f"{predicate!r}: {expected!r} != {got!r}"
        assert expected_truth == got_truth


# --------------------------------------------------------------------------
# randomized trees
# --------------------------------------------------------------------------

_VAR_NAMES = ("a", "b", "c", "missing")

_consts = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([0.5, -1.5, 2.0, 0.0]),
)

_exprs = st.recursive(
    st.one_of(
        st.sampled_from(_VAR_NAMES).map(SharedVar),
        _consts.map(Const),
        st.just(SharedExpr(lambda m: m.a + m.b, "a_plus_b")),
    ),
    lambda children: st.builds(
        lambda op, lhs, rhs: {
            "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs, "%": lhs % rhs,
        }[op],
        st.sampled_from(["+", "-", "*", "%"]),
        children,
        children,
    ),
    max_leaves=4,
)

_atoms = st.one_of(
    st.builds(
        Comparison,
        _exprs,
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        _exprs,
    ),
    st.builds(
        FuncAtom,
        st.sampled_from([
            lambda m: m.a > 0,
            lambda m: (m.a + m.b) % 3 == 1,
            lambda: True,
        ]),
        st.booleans(),
    ),
    st.just(TrueAtom()),
    st.just(FalseAtom()),
)

_trees = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(And),
        st.lists(children, min_size=1, max_size=3).map(Or),
    ),
    max_leaves=6,
)

_values = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([0.0, 1.5, -2.5]),
    st.sampled_from(["x", None, [1]]),   # hostile: arithmetic/compare raise
)


@settings(max_examples=300, deadline=None)
@given(tree=_trees, a=_values, b=_values, c=_values)
def test_random_trees_match_interpreter(tree, a, b, c):
    # ``missing`` is intentionally absent: some runs exercise AttributeError
    state = State(a=a, b=b, c=c)
    assert_equivalent(Predicate(tree), state)


@settings(max_examples=150, deadline=None)
@given(tree=_trees, a=st.integers(-4, 4), b=st.integers(-4, 4))
def test_random_trees_match_on_benign_states(tree, a, b):
    state = State(a=a, b=b, c=0)
    assert_equivalent(Predicate(tree), state)


# --------------------------------------------------------------------------
# targeted exception differential
# --------------------------------------------------------------------------

class TestExceptions:
    def test_zero_division_through_modulo(self):
        assert_equivalent(Predicate((S.a % 0) == 1), State(a=3))
        assert_equivalent(Predicate((S.a % S.b) == 1), State(a=3, b=0))

    def test_zero_scaled_terms_do_not_crash_normalization(self):
        """Regression: ``0 * S.a`` used to leave a 0.0 coefficient that
        linear_key divided by (fuzz-found)."""
        assert_equivalent(Predicate(0 * S.a + S.b > 1), State(a=7, b=2))
        assert_equivalent(Predicate((0 * S.a) >= 0), State(a=7, b=2))

    def test_attribute_error_on_missing_shared_var(self):
        assert_equivalent(Predicate(S.nope > 0), State(a=1))

    def test_type_error_on_mixed_arithmetic(self):
        assert_equivalent(Predicate((S.a + S.b) < 3), State(a="x", b=1))
        assert_equivalent(Predicate(S.a < 3), State(a="x"))

    def test_short_circuit_suppresses_late_raise(self):
        """A true left disjunct must skip the raising right one, both paths."""
        pred = Predicate((S.a == 1) | ((S.b % 0) == 0))
        state = State(a=1, b=2)
        ev = compiled.compile_predicate(pred)
        assert ev is not None
        assert pred.evaluate(state) is True
        assert ev(state) is True

    def test_short_circuit_and_false_left(self):
        pred = Predicate((S.a == 99) & (S.missing > 0))
        state = State(a=1)
        ev = compiled.compile_predicate(pred)
        assert ev is not None
        assert pred.evaluate(state) is False
        assert ev(state) is False

    def test_raising_func_atom(self):
        def boom(m):
            raise RuntimeError("kapow")

        assert_equivalent(Predicate(FuncAtom(boom)), State(a=1))


# --------------------------------------------------------------------------
# compiled expr-key evaluators (the tag search's shared expressions)
# --------------------------------------------------------------------------

def _manager():
    return ConditionManager(State(x=0, y=0), threading.RLock(), Metrics(), "autosynch")


class TestExprKeyDifferential:
    @settings(max_examples=100, deadline=None)
    @given(x=st.integers(-6, 6), y=st.integers(-6, 6))
    def test_compiled_expr_keys_match_interpreter(self, x, y):
        mgr = _manager()
        for cond in (S.x + 2 * S.y >= 3, S.x - S.y == 1, S.y <= -2):
            mgr._register(Waiter(Predicate(cond), mgr.lock))
        index = mgr.index
        holders = [*index.eq_tables.items(), *index.heaps.items()]
        assert len(holders) == 3
        mgr.monitor.x = x
        mgr.monitor.y = y
        for where, holder in holders:
            key = where[0]
            # registration filed each key's compiled evaluator; the
            # reference interpreter reads the same key term by term
            assert holder.evaluate.__code__.co_filename == "<repro.core.compiled>"
            compiled_value = holder.evaluate(mgr.monitor)
            interpreted_value = compiled.interpret_expr_key(key, {}.get)(
                mgr.monitor)
            assert compiled_value == interpreted_value


# --------------------------------------------------------------------------
# template sharing, fallback, config gating
# --------------------------------------------------------------------------

class TestCompilerMechanics:
    def test_same_shape_shares_one_template(self):
        compiled.clear_cache()
        ev1 = compiled.compile_predicate(Predicate(S.count + 3 <= S.capacity))
        ev2 = compiled.compile_predicate(Predicate(S.count + 48 <= S.capacity))
        info = compiled.cache_info()
        assert info["shape_misses"] == 1
        assert info["shape_hits"] == 1
        state = State(count=1, capacity=10)
        assert ev1(state) is True      # 1 + 3 <= 10
        assert ev2(state) is False     # 1 + 48 > 10

    def test_unsupported_shape_falls_back_to_none(self):
        class Exotic(TrueAtom):
            pass

        assert compiled.compile_predicate(Predicate(Exotic())) is None

    def test_flag_off_uses_interpreter(self):
        cfg = get_config()
        prior = cfg.compile_predicates
        cfg.compile_predicates = False
        try:
            p = Predicate(S.a > 0)
            assert p.evaluator() == p.evaluate
        finally:
            cfg.compile_predicates = prior

    def test_tiered_compilation_engages_on_reuse(self):
        p = Predicate(S.a > 0)
        state = State(a=1)
        assert p._evaluator is None
        assert p.fast_eval(state) is True      # first use: interpreted
        assert p._evaluator is None
        assert p.fast_eval(state) is True      # second use: compiled
        assert p._evaluator is not None
        assert p._evaluator(state) is True


# --------------------------------------------------------------------------
# crosscheck mode
# --------------------------------------------------------------------------

class TestCrosscheck:
    def test_divergence_raises(self):
        checked = compiled.crosscheck_wrap(
            lambda m: True, lambda m: False, "forced divergence"
        )
        with pytest.raises(compiled.CompiledDivergence):
            checked(State())

    def test_exception_divergence_raises(self):
        def raises(m):
            raise ValueError("only one side")

        checked = compiled.crosscheck_wrap(raises, lambda m: True, "exc side")
        with pytest.raises(compiled.CompiledDivergence):
            checked(State())

    def test_agreeing_exception_reraises_original(self):
        def boom(m):
            raise ValueError("same both sides")

        checked = compiled.crosscheck_wrap(boom, boom, "agree")
        with pytest.raises(ValueError, match="same both sides"):
            checked(State())

    def test_predicates_checked_under_context(self):
        with compiled.crosscheck():
            assert compiled.crosscheck_active()
            p = Predicate((S.a + 1) * 2 >= S.b)
            assert p.fast_eval(State(a=1, b=3)) is True
        assert not compiled.crosscheck_active()

    def test_bounded_buffer_under_crosscheck(self):
        """Real monitor traffic with both evaluation paths asserted equal."""
        from repro.problems.bounded_buffer import AutoBoundedQueue

        with compiled.crosscheck():
            buf = AutoBoundedQueue(4)
            results = []

            def consumer():
                for _ in range(20):
                    results.append(buf.take())

            t = threading.Thread(target=consumer, daemon=True)
            t.start()
            for i in range(20):
                buf.put(i)
            t.join(10)
            assert not t.is_alive()
        assert results == list(range(20))


# --------------------------------------------------------------------------
# poisoning through the compiled path
# --------------------------------------------------------------------------

class Fragile(Monitor):
    def __init__(self):
        super().__init__()
        self.data = [0]

    def clear(self):
        self.data = []

    def fill(self):
        self.data = [5]

    def wait_positive(self):
        # compiled FuncAtom: raises IndexError once ``data`` is emptied
        self.wait_until(lambda m: m.data[0] > 0)


def test_poisoned_compiled_predicate_reraises_in_owner():
    m = Fragile()
    errors = []
    parked = threading.Event()

    def waiter():
        parked.set()
        try:
            m.wait_positive()
        except IndexError as exc:
            errors.append(exc)

    t = threading.Thread(target=waiter, daemon=True)
    t.start()
    parked.wait(5)
    # let the waiter actually park before mutating
    for _ in range(100):
        if m.waiting_count():
            break
        threading.Event().wait(0.01)
    m.clear()   # relay evaluates the waiter's compiled closure → IndexError
    t.join(5)
    assert not t.is_alive()
    assert len(errors) == 1
