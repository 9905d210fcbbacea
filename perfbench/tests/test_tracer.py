import threading

import pytest

from tracer import Span, Tracer, self_times, summarize


def test_self_time_of_nested_spans_on_two_threads():
    a, b = 1, 2
    root = Span("root", a, 0.0, 10.0)
    child1 = Span("child", a, 1.0, 3.0, root)
    grandchild = Span("leaf", a, 1.5, 2.5, child1)
    # a span of another thread attributed to root, overlapping child1
    other = Span("child", b, 2.0, 4.0, root)
    # ends after its parent: only the part inside the parent is subtracted
    late = Span("child", a, 6.0, 12.0, root)
    b_root = Span("root", b, 0.5, 5.0)
    b_child = Span("leaf", b, 1.0, 2.0, b_root)
    spans = [root, child1, grandchild, other, late, b_root, b_child]

    selfs = self_times(spans)

    assert selfs[id(root)] == pytest.approx(10.0 - (4.0 - 1.0) - (10.0 - 6.0))
    assert selfs[id(child1)] == pytest.approx(2.0 - 1.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)
    assert selfs[id(other)] == pytest.approx(2.0)
    assert selfs[id(late)] == pytest.approx(6.0)
    assert selfs[id(b_root)] == pytest.approx(4.5 - 1.0)
    assert selfs[id(b_child)] == pytest.approx(1.0)

    summary = summarize(spans)
    assert summary["root"]["calls"] == 2
    assert summary["root"]["self_s"] == pytest.approx(3.0 + 3.5)
    assert summary["child"]["calls"] == 3
    assert summary["child"]["self_s"] == pytest.approx(1.0 + 2.0 + 6.0)
    assert summary["leaf"]["self_s"] == pytest.approx(2.0)


def test_tracer_wraps_every_binding_and_counts_work():
    from noisylab import bounds, mcsim, memorize, treatments
    from noisylab.mcsim import InstanceScenario

    original = bounds.binom_tail
    tracer = Tracer()
    tracer.install()
    try:
        assert mcsim.binom_tail is bounds.binom_tail is not original
        assert treatments.memorization_error is memorize.memorization_error
        mcsim.bound_report(InstanceScenario(l=6, y=1, e_plus=0.2, e_minus=0.2), trials=100, seed=3)
        spans, counts = tracer.drain()
    finally:
        tracer.uninstall()
    assert bounds.binom_tail is original and mcsim.binom_tail is original

    summary = summarize(spans)
    assert summary["mcsim.bound_report"]["calls"] == 1
    assert summary["mcsim.run_trials"]["calls"] == 4
    assert summary["bounds.binom_tail"]["calls"] > 0
    # the label-smoothing table (7 splits) is built in run_trials and in bound_report
    assert summary["treatments.compare_ls_lc"]["calls"] == 14
    assert summary["memorize.LabelDist"]["calls"] > 14
    assert counts["trials"] == 400
    assert counts["uniforms"] == 400 * 8
    assert counts["useful_uniforms"] == 400 * 6
    assert counts["ls_table_entries"] == 7
    assert tracer.drain()[0] == []


def test_exceptions_are_counted_and_reraised():
    from noisylab import bounds

    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            bounds.binom_tail(0, 0.5, 0)
        spans, _ = tracer.drain()
    finally:
        tracer.uninstall()
    assert summarize(spans)["bounds.binom_tail"] == {"calls": 1, "self_s": spans[0].end - spans[0].start,
                                                     "errors": 1}


def test_each_thread_keeps_its_own_span_stack():
    from noisylab import bounds

    tracer = Tracer()
    tracer.install()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=10)
        for _ in range(200):
            bounds.peer_failure_lower(10, 0.2)

    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        spans, _ = tracer.drain()
    finally:
        tracer.uninstall()
    # peer_failure_lower calls lc_failure_lower: one outer and one inner span per call
    assert len(spans) == 2 * 2 * 200
    nested = [s for s in spans if s.parent is not None]
    assert len(nested) == 2 * 200
    assert all(s.parent.thread == s.thread for s in nested)
    assert len({s.thread for s in spans}) == 2
