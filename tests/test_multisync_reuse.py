"""Reused global predicates and list-form multisynch blocks: the monitor
sets behind ``wait_until``'s coverage check are computed once."""

import pytest

from repro.core import Monitor, S
from repro.multi import local, monitor_set, multisynch
from repro.multi import multisync as msmod
from repro.runtime.errors import PredicateError


class Cell(Monitor):
    def __init__(self, v=0):
        super().__init__()
        self.v = v


@pytest.fixture
def collect_calls(monkeypatch):
    calls = []
    collect = msmod._collect

    def counting(objs, out):
        calls.append(objs)
        collect(objs, out)

    monkeypatch.setattr(msmod, "_collect", counting)
    return calls


class TestListForm:
    def test_warm_list_form_skips_collect_and_shares_the_entry(
            self, collect_calls):
        a, b = Cell(), Cell()
        hot = multisynch(a, b)
        for form in ([a, b], (a, b)):
            block = multisynch(form)
            assert block.monitors is hot.monitors   # one cache entry
        assert collect_calls == []

    def test_list_form_acquires_in_id_order(self, collect_calls):
        a, b = Cell(), Cell()
        first = multisynch([b, a])          # cold: flattened once
        cold = len(collect_calls)
        assert cold
        with multisynch([b, a]) as block:   # warm: the inline probe
            assert block.monitors is first.monitors
            assert [m.monitor_id for m in block.monitors] == sorted(
                (a.monitor_id, b.monitor_id))
            assert a._lock._is_owned() and b._lock._is_owned()
        assert len(collect_calls) == cold

    def test_list_with_a_non_monitor_raises(self):
        a = Cell()
        multisynch([a])
        with pytest.raises(TypeError):
            multisynch([a, object()])

    def test_cache_disabled_list_form_still_correct(self, monkeypatch,
                                                    collect_calls):
        a, b = Cell(), Cell()
        monkeypatch.setattr(msmod, "_cache_enabled", False)
        first = multisynch([b, a])
        cold = len(collect_calls)
        second = multisynch([b, a])
        assert first.monitors == second.monitors
        assert first.monitors is not second.monitors   # nothing cached
        assert len(collect_calls) == 2 * cold


class TestCachedMonitorSets:
    def test_reused_predicate_returns_one_frozenset(self):
        a, b = Cell(), Cell()
        atom = local(a, S.v > 0)
        conj = atom & local(b, S.v > 0)
        disj = local(a, S.v < 0) | local(b, S.v < 0)
        for node in (atom, conj, disj):
            first = node.monitors()
            assert node.monitors() is first
        assert conj.monitors() == frozenset((a, b))
        assert disj.monitors() == frozenset((a, b))

    @pytest.mark.parametrize("make_block", [
        lambda a, b: multisynch(a),
        lambda a, b: multisynch([a]),
        lambda a, b: monitor_set(a).synch(),
    ], ids=["args", "list", "monitor_set"])
    def test_uncovered_predicate_names_the_missing_ids(self, make_block):
        a, b = Cell(1), Cell(1)
        condition = local(a, S.v > 0) & local(b, S.v > 0)
        for _ in range(2):                  # the reused predicate too
            with make_block(a, b) as ms:
                with pytest.raises(PredicateError) as err:
                    ms.wait_until(condition)
            assert f"[{b.monitor_id}]" in str(err.value)
        with multisynch([a, b]) as ms:
            ms.wait_until(condition)        # covered: already true
