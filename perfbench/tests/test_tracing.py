import types

import pytest
from instrument import starts_converged
from tracing import Span, Tracer, children, inclusive_time, self_times


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] holds a [1, 7] and d [8, 9]; a holds b [2, 4] and c [4, 6]
    tr = Tracer(clock=fake_clock(0, 1, 2, 4, 4, 6, 7, 8, 9, 10))
    op = tr.open("bench.op")
    a = tr.open("lab.a")
    b = tr.open("choice.b")
    tr.close(b)
    c = tr.open("choice.c")
    tr.close(c)
    tr.close(a)
    d = tr.open("types.d")
    tr.close(d)
    tr.close(op)
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 1, 0]
    assert self_times(tr.spans) == [10 - 6 - 1, 6 - 2 - 2, 2, 2, 1]
    assert sum(self_times(tr.spans)) == op.duration


def test_inclusive_time_counts_nested_matches_once():
    spans = [Span("x", 0.0, -1), Span("x", 1.0, 0), Span("y", 5.0, 0), Span("x", 6.0, 2)]
    for s, end in zip(spans, (10.0, 3.0, 8.0, 7.0)):
        s.end = end
    assert inclusive_time(spans, {"x"}) == 10.0
    assert inclusive_time(spans, {"y"}) == 3.0
    assert inclusive_time(spans, {"x", "y"}) == 10.0
    assert inclusive_time(spans[2:3], {"x"}) == 0.0


def test_wrappers_replace_every_binding_and_restore():
    def leaf(x):
        return x + 1

    def outer(x):
        return mod_b.leaf(x) * 2

    mod_a = types.ModuleType("mod_a")
    mod_b = types.ModuleType("mod_b")
    mod_a.leaf = mod_b.leaf = leaf
    mod_a.outer = outer
    tr = Tracer()
    assert tr.replace([mod_a, mod_b], leaf, tr.counted(leaf, "leaf_calls")) == 2
    tr.replace([mod_a], outer, tr.spanned(outer, "a.outer"))
    assert mod_a.outer(1) == 4
    assert mod_a.leaf(1) == 2
    tr.restore()
    assert mod_a.leaf is leaf and mod_b.leaf is leaf and mod_a.outer is outer
    assert tr.counts["leaf_calls"] == 2
    assert [s.name for s in tr.spans] == ["a.outer"]
    with pytest.raises(LookupError):
        tr.replace([mod_a], print, print)


def test_span_closes_when_the_call_raises():
    def boom():
        raise ValueError("x")

    tr = Tracer(clock=fake_clock(0, 1, 2, 5, 6))
    wrapped = tr.spanned(boom, "lab.boom")
    op = tr.open("bench.op")
    with pytest.raises(ValueError):
        wrapped()
    tr.close(op)
    assert [(s.name, s.parent, s.duration) for s in tr.spans] == [("bench.op", -1, 5), ("lab.boom", 0, 1)]
    assert tr.open("next").parent == -1


def test_starts_converged_follows_the_fit_stopping_rule():
    tr = Tracer()
    fit = tr.open("estimate.fit_mle")
    fit.extra = 1e-6
    # start 1 stops on a change below tol; start 2 runs out of steps
    for name, ll in [("ll", -100.0), ("step", None), ("ll", -10.0), ("step", None), ("ll", -10.0 - 1e-9),
                     ("ll", -50.0), ("step", None), ("ll", -40.0)]:
        s = tr.open("estimate.log_likelihood" if name == "ll" else "estimate.em_step")
        s.extra = ll
        tr.close(s)
    tr.close(fit)
    assert len(children(tr.spans, {"estimate.fit_mle"})[0]) == 8
    assert starts_converged(tr) == 1
