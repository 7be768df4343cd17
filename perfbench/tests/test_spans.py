"""Span arithmetic and the patching that records spans."""
import types

import pytest

import spans
from spans import Span


def _tree():
    # root [0, 10] with children [1, 3] and [5, 6]; the first child has a
    # grandchild [1.5, 2.5] that must not count against the root
    return [Span("root", 0.0, 10.0),
            Span("a", 1.0, 3.0, parent=0),
            Span("leaf", 1.5, 2.5, parent=1),
            Span("b", 5.0, 6.0, parent=0)]


def test_self_time_is_duration_minus_child_coverage():
    own = spans.self_times(_tree(), (0.0, 10.0))
    assert own == pytest.approx({"root": 7.0, "a": 1.0, "leaf": 1.0, "b": 1.0})


def test_self_time_counts_overlapping_children_once():
    recorded = [Span("p", 0.0, 10.0), Span("c", 1.0, 4.0, parent=0),
                Span("c", 3.0, 6.0, parent=0)]
    assert spans.self_times(recorded, (0.0, 10.0))["p"] == pytest.approx(5.0)


def test_self_and_inclusive_times_are_clipped_to_the_window():
    window = (2.0, 5.5)
    own = spans.self_times(_tree(), window)
    # root inside [2, 5.5] is 3.5 s, children cover [2, 3] and [5, 5.5]
    assert own["root"] == pytest.approx(2.0)
    assert own["a"] == pytest.approx(0.5)
    inc = spans.inclusive_times(_tree(), window)
    assert inc == pytest.approx({"root": 3.5, "a": 1.0, "leaf": 0.5,
                                 "b": 0.5})
    assert spans.self_times(_tree(), (20.0, 30.0))["root"] == 0.0


def test_self_times_add_up_to_the_root():
    recorded = _tree()
    assert sum(spans.self_times(recorded, (0.0, 10.0)).values()) == \
        pytest.approx(10.0)


def test_children_flops_sums_named_direct_children():
    recorded = [Span("block", 0, 1, flops=100),
                Span("attn", 0, 1, parent=0, flops=30),
                Span("mlp", 0, 1, parent=0, flops=50),
                Span("attn", 0, 1, parent=2, flops=7),  # grandchild
                Span("block", 1, 2, flops=10),
                Span("attn", 1, 2, parent=4, flops=4)]
    assert spans.children_flops(recorded, "block", {"attn"}) == [30, 4]
    assert spans.flops_by_name(recorded) == {"block": 110, "attn": 41,
                                             "mlp": 50}


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert spans.percentile(values, 90) == 90.0
    assert spans.percentile(values[:99], 90) is None
    assert spans.percentile(values[:20], 50) == 10.0
    assert spans.percentile([], 50) is None


def _fake_targets():
    mod = types.SimpleNamespace(f=lambda x: x + 1, g=lambda x: 2 * x)

    class K:
        def m(self, x):
            return mod.f(x)

    return mod, K, [(mod, "f", "mod.f"), (mod, "g", "mod.g"),
                    (K, "m", "K.m")]


def test_tracer_records_nested_spans_and_restores():
    mod, K, targets = _fake_targets()
    before = {(id(o), a): o.__dict__[a] for o, a, _ in targets}
    ticks = iter(range(100))
    with spans.Tracer(targets, [(mod, "g", "g.calls")],
                      clock=lambda: float(next(ticks))) as tr:
        assert K().m(1) == 2
        assert mod.g(3) == 6
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("K.m", -1), ("mod.f", 0), ("mod.g", -1)]
    assert all(s.end > s.start for s in tr.spans)
    assert tr.counts == {"g.calls": 1}
    for owner, attr, _ in targets:
        assert owner.__dict__[attr] is before[(id(owner), attr)]


def test_tracer_restores_after_an_exception():
    mod, K, targets = _fake_targets()
    original = mod.f
    with pytest.raises(RuntimeError):
        with spans.Tracer(targets):
            assert mod.f is not original
            raise RuntimeError
    assert mod.f is original


def test_tracer_restores_every_patched_library_function():
    import workloads as wl

    patched = wl.TRACE_TARGETS + wl.COUNTED
    before = [owner.__dict__[attr] for owner, attr, _ in patched]
    with spans.Tracer(wl.TRACE_TARGETS, wl.COUNTED):
        during = [owner.__dict__[attr] for owner, attr, _ in patched]
    after = [owner.__dict__[attr] for owner, attr, _ in patched]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_patched_restores_the_original():
    mod = types.SimpleNamespace(f=lambda: 1)
    original = mod.f
    with spans.patched(mod, "f", lambda fn: lambda: fn() + 1) as got:
        assert got is original and mod.f() == 2
    assert mod.f is original
