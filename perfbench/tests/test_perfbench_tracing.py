"""Span arithmetic, counters and wrapper installation of the benchmark tracer."""

import sys

import numpy as np
import pytest

import dsie
from dsie import distributed, estimator, linalg, pipeline
from dsie.distributed import LossyTransport, ShareMessage, Transport
from perfbench import tracing
from perfbench.tracing import Span


def spans(*rows):
    return [Span(name, start, end, parent, "op") for name, start, end, parent in rows]


def test_self_time_of_nested_spans():
    s = spans(
        ("root", 0, 100, -1),
        ("child", 10, 40, 0),
        ("grandchild", 15, 25, 1),
        ("child", 50, 60, 0),
    )
    assert tracing.self_times_ns(s) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once():
    s = spans(
        ("root", 0, 100, -1),
        ("a", 10, 50, 0),
        ("b", 30, 70, 0),  # overlaps a over [30, 50]
        ("c", 35, 45, 0),  # inside both
    )
    assert tracing.self_times_ns(s)[0] == 100 - 60


def test_self_time_clips_children_to_the_parent():
    s = spans(("root", 10, 20, -1), ("late", 15, 30, 0), ("early", 0, 12, 0))
    assert tracing.self_times_ns(s)[0] == 10 - 5 - 2


def test_layer_stats_sum_calls_total_and_self_time():
    s = spans(("root", 0, 4_000_000, -1), ("leaf", 0, 1_000_000, 0), ("leaf", 2_000_000, 3_000_000, 0))
    stats = tracing.layer_stats(s)
    assert stats["leaf"].calls == 2
    assert stats["leaf"].total_ms == pytest.approx(2.0)
    assert stats["root"].total_ms == pytest.approx(4.0)
    assert stats["root"].self_ms == pytest.approx(2.0)


def test_recorder_nests_spans_by_call_order():
    rec = tracing.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    with rec.span("next"):
        pass
    assert [(sp.name, sp.parent) for sp in rec.spans] == [("outer", -1), ("inner", 0), ("next", -1)]
    assert all(sp.end_ns >= sp.start_ns for sp in rec.spans)


def _snapshot():
    """Every attribute of every loaded dsie module, and the patched class dicts."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "dsie" or name.startswith("dsie."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for cls in (Transport, LossyTransport, estimator.BddConfig):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def test_install_replaces_every_importer_and_remove_restores_exactly():
    before = _snapshot()
    original_step = estimator.dsie_step
    rec = tracing.Recorder()
    with tracing.Installation(rec):
        assert estimator.dsie_step is not original_step
        assert pipeline.dsie_step is estimator.dsie_step
        assert dsie.dsie_step is estimator.dsie_step
        assert distributed.estimate_input is estimator.estimate_input
        assert Transport.deliver is not before[("Transport", "deliver")]
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_remove_restores_after_a_failed_install(monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("linalg", "no_such_function"),))
    with pytest.raises(AttributeError):
        with tracing.Installation(tracing.Recorder()):
            pass
    after = _snapshot()
    assert [k for k in before if after.get(k) is not before[k]] == []


def test_wrapped_calls_record_spans_and_counters():
    rec = tracing.Recorder()
    p = np.array([[2.0, 1.0], [1.0, -3.0]])  # indefinite: takes the eigen-clamp path
    with tracing.Installation(rec):
        linalg.symmetrize_psd(np.eye(2))
        linalg.symmetrize_psd(p)
        estimator.BddConfig().threshold(3)
    assert [sp.name for sp in rec.spans] == ["linalg.symmetrize_psd"] * 2
    assert rec.counters["linalg.symmetrize_psd.repairs"] == 1
    assert rec.counters["estimator.bdd_threshold_calls"] == 1


def _message(step, sender="a", recipient="b"):
    return ShareMessage(sender, recipient, step, ("v:d",), np.zeros(1), np.eye(1), (False,))


def test_transport_counters_match_a_scripted_lossy_transport():
    drop, delay, seed = 0.3, 0.25, 7
    rounds = 40
    batches = [[_message(k, "a", "b"), _message(k, "b", "a")] for k in range(rounds)]

    # Replay the transport's draws: one uniform number per message, in order.
    draws = np.random.default_rng(seed)
    fate = [["drop" if u < drop else "delay" if u < drop + delay else "deliver" for u in draws.random(2)] for _ in batches]
    held = [sum(f == "delay" for f in fates) for fates in fate]
    fresh = [sum(f == "deliver" for f in fates) for fates in fate]
    released = [0] + held[:-1]

    rec = tracing.Recorder()
    transport = LossyTransport(drop_rate=drop, delay_rate=delay, seed=seed)
    with tracing.Installation(rec):
        for batch in batches:
            transport.deliver(batch)
    c = rec.counters
    assert c["distributed.msgs_sent"] == 2 * rounds
    assert c["distributed.msgs_delivered"] == sum(fresh) + sum(released)
    assert c["distributed.msgs_delayed"] == sum(released)
    assert c["distributed.msgs_stale"] == sum(released)
    assert 0 < sum(released) and 0 < sum(fresh)
    assert [sp.name for sp in rec.spans] == ["distributed.Transport.deliver"] * rounds


def test_lossless_transport_counts_nothing_lost():
    rec = tracing.Recorder()
    with tracing.Installation(rec):
        for k in range(3):
            Transport().deliver([_message(k)])
    c = rec.counters
    assert (c["distributed.msgs_sent"], c["distributed.msgs_delivered"]) == (3, 3)
    assert c["distributed.msgs_delayed"] == c["distributed.msgs_stale"] == 0
