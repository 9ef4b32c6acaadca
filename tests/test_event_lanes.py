"""Order-equivalence oracle for the event loop's FIFO lanes.

`EventLoop` keeps deliveries and ACKs in two FIFO lanes beside its heap
and always runs the smallest of the three heads. `HeapOnlyLoop` below
sends every lane append onto the heap instead, so one heap orders every
event. Random scenarios must give byte-equal `trace.csv`, `events.json`
and packet logs under both loops.
"""

import heapq
import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roccet_lab import simulator
from roccet_lab.errors import SimulationError
from roccet_lab.harness import FlowSpec, LossSpec, ScenarioSpec, SourceSpec, _mk_link
from roccet_lab.simulator import Bottleneck, EventLoop, Receiver
from roccet_lab.units import s_to_us


class _HeapLane:
    """Takes a lane's place: what is appended goes onto the heap, and the
    lane itself always looks empty."""

    def __init__(self, heap):
        self._heap = heap
        self.appended = 0

    def append(self, event):
        self.appended += 1
        heapq.heappush(self._heap, event)

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def clear(self):
        pass  # its events are on the heap, which the run's teardown clears


class HeapOnlyLoop(EventLoop):
    instances: list = []

    def __init__(self):
        super().__init__()
        self.deliveries = _HeapLane(self.heap)
        self.acks = _HeapLane(self.heap)
        HeapOnlyLoop.instances.append(self)


def _outputs(spec):
    traces = simulator.run(spec)
    csv, events = io.StringIO(), io.StringIO()
    traces.write_csv(csv)
    traces.write_events_json(events)
    return csv.getvalue(), events.getvalue(), traces.debug_packets


def _assert_same_order(spec):
    """Run `spec` under both loops; returns the heap-only loop."""
    lanes = _outputs(spec)
    HeapOnlyLoop.instances.clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "EventLoop", HeapOnlyLoop)
        heap_only = _outputs(spec)
    assert lanes[0] == heap_only[0]  # trace.csv
    assert lanes[1] == heap_only[1]  # events.json, events_processed included
    assert lanes[2] == heap_only[2]  # packet log: enqueue, service and delivery times
    (loop,) = HeapOnlyLoop.instances
    return loop


@st.composite
def scenarios(draw):
    # Times and sizes are drawn from a few spread-out choices: left to
    # itself Hypothesis favours tiny integers, which give flows that end
    # before they send anything.
    horizon_us = s_to_us(draw(st.sampled_from([1.0, 1.5, 2.5])))

    def instant():
        return round(horizon_us * draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9])))

    changes = draw(st.lists(st.sampled_from([0.2, 0.45, 0.7]), max_size=2, unique=True))
    schedule = [(t * horizon_us / 1e6, draw(st.sampled_from([2.0, 5.0, 12.0]))) for t in sorted(changes)]
    link = _mk_link(draw(st.sampled_from([4.0, 10.0, 20.0])), draw(st.sampled_from([10.0, 30.0])), schedule)
    flows = []
    for i in range(draw(st.sampled_from([1, 2, 3, 4]))):
        algo = draw(st.sampled_from(["cubic", "roccet", "probe_rate"]))
        start_us = draw(st.sampled_from([0, horizon_us // 10, horizon_us // 3]))
        duration_us = None
        if draw(st.booleans()):
            duration_us = (horizon_us - start_us) * draw(st.sampled_from([1, 2, 3])) // 4
        if draw(st.booleans()):
            source = SourceSpec(
                kind="app_limited",
                rate_bps=draw(st.sampled_from([300_000, 2_500_001, 9_000_000])),
                start_us=start_us,
                duration_us=duration_us,
            )
        else:
            source = SourceSpec(kind="greedy", start_us=start_us, duration_us=duration_us)
        sndbuf = draw(st.sampled_from([None, None, 4, 30, 200]))
        flows.append(FlowSpec(f"{algo}{i}", algo, source, sndbuf_segs=sndbuf))
    loss = None
    if draw(st.booleans()):
        a, b = sorted((instant(), instant()))
        loss = LossSpec(
            drop_at_us=tuple(instant() for _ in range(draw(st.integers(0, 3)))),
            drop_prob=draw(st.sampled_from([0.0, 0.01, 0.1])),
            window_us=(a, b + 1),
            jitter_us=draw(st.sampled_from([0, 500, 20_000])),
        )
    return ScenarioSpec(
        link=link,
        buffer_bdp=draw(st.sampled_from([0.5, 1.0, 4.0])),
        flows=tuple(flows),
        horizon_us=horizon_us,
        seed=draw(st.integers(0, 2**16)),
        sample_us=draw(st.sampled_from([10_000, 33_333])),
        loss=loss,
        debug=draw(st.booleans()),
        name="lanes",
    )


@settings(max_examples=60, deadline=None)
@given(spec=scenarios())
def test_lanes_keep_the_heap_only_order(spec):
    _assert_same_order(spec)


def every_event_scenario():
    """Every kind of event in one scenario: service completions,
    deliveries, ACKs, timeouts, wake-ups for the source and for pacing,
    rate changes, starts and handshakes."""
    return ScenarioSpec(
        link=_mk_link(10.0, 30.0, [(0.7, 4.0), (1.4, 12.0)]),
        buffer_bdp=0.5,
        flows=(
            FlowSpec("cubic0", "cubic", SourceSpec()),
            FlowSpec("roccet1", "roccet", SourceSpec(start_us=200_000, duration_us=1_500_000)),
            FlowSpec("probe_rate2", "probe_rate", SourceSpec(), sndbuf_segs=40),
            FlowSpec(
                "cubic3", "cubic",
                SourceSpec(kind="app_limited", rate_bps=1_234_567, start_us=50_000, duration_us=1_800_000),
            ),
        ),
        horizon_us=s_to_us(2.5),
        seed=7,
        loss=LossSpec(drop_at_us=(300_000, 900_000), drop_prob=0.05, window_us=(500_000, 1_600_000), jitter_us=3_000),
        debug=True,
        name="every-event",
    )


def test_fixed_scenario_reaches_every_kind_of_event(monkeypatch):
    # One scenario with every kind of event, which both loops must run alike.
    spec = every_event_scenario()
    counts = {}

    def counting(cls, name, key=None):
        original = getattr(cls, name)

        def counted(self, *args):
            before = getattr(self, "retransmits", None)
            original(self, *args)
            k = name if key is None else key(self, args, before)
            if k is not None:
                counts[k] = counts.get(k, 0) + 1

        monkeypatch.setattr(cls, name, counted)

    for name in ("_service_done", "set_rate"):
        counting(Bottleneck, name)
    counting(Receiver, "on_segment")
    for name in ("on_ack_frame", "start", "_handshake_done"):
        counting(simulator.Sender, name)
    # A timer event that retransmits is a timeout; try_send with an
    # argument is a wake-up, for the source or for pacing.
    counting(simulator.Sender, "_rto_cb", lambda self, args, before: "timeout" if self.retransmits > before else None)
    counting(simulator.Sender, "try_send", lambda self, args, before: f"wake {self.flow_id}" if args else None)
    traces = simulator.run(spec)
    assert set(counts) >= {
        "_service_done", "set_rate", "on_segment", "on_ack_frame", "start", "_handshake_done",
        "timeout", "wake cubic3", "wake probe_rate2",
    }, counts
    assert sum(a["dropped"] for a in traces.audit.values()) > 0
    assert traces.flows["probe_rate2"].counters["new_sent"] > 0
    monkeypatch.undo()
    for debug in (True, False):
        loop = _assert_same_order(spec._replace(debug=debug))
        # The heap-only loop really took every delivery and ACK on its heap.
        assert loop.deliveries.appended > 1_000 and loop.acks.appended > 1_000


@given(
    heap=st.lists(st.integers(0, 50), max_size=30),
    deliveries=st.lists(st.integers(1, 5), max_size=30),
    acks=st.lists(st.integers(0, 5), max_size=30),
    order=st.randoms(use_true_random=False),
)
def test_three_heads_merge_in_time_and_tie_break_order(heap, deliveries, acks, order):
    # Hand-made queues: heap events at any times, deliveries at strictly
    # increasing times, ACKs at non-decreasing times, each numbered when
    # queued, in a random interleaving of the three kinds.
    loop = EventLoop()
    ran = []
    kinds = ["heap"] * len(heap) + ["delivery"] * len(deliveries) + ["ack"] * len(acks)
    order.shuffle(kinds)
    heap_times = iter(heap)
    delivery_at = ack_at = 0
    gaps = {"delivery": iter(deliveries), "ack": iter(acks)}
    queued = []
    for kind in kinds:
        if kind == "heap":
            at = next(heap_times)
            seq = loop.reserve_seq()
            loop.schedule_reserved(at, seq, ran.append, (at, seq))
        elif kind == "delivery":
            delivery_at = at = delivery_at + next(gaps[kind])
            seq = loop.reserve_seq()
            loop.deliveries.append((at, seq, ran.append, (at, seq)))
        else:
            ack_at = at = ack_at + next(gaps[kind])
            seq = loop.reserve_seq()
            loop.acks.append((at, seq, ran.append, (at, seq)))
        queued.append((at, seq))
    loop.run_until(25)
    assert ran == sorted(e for e in queued if e[0] <= 25)
    loop.run_until(1_000)
    assert ran == sorted(queued)
    assert loop.processed == len(queued)


def test_receiver_with_another_ack_delay_is_refused():
    # ACKs made with one fixed delay come due in the order they are made;
    # with two delays a later ACK could come due first, so the second
    # delay is refused instead of misordering the ACK lane.
    loop = EventLoop()
    Receiver(loop, 20_000)
    Receiver(loop, 20_000)
    with pytest.raises(SimulationError, match="ACK delay"):
        Receiver(loop, 20_001)


def test_second_link_on_one_loop_is_refused():
    loop = EventLoop()
    Bottleneck(loop, capacity_segs=10, rate_bps=10_000_000, prop_delay_us=1_000, injector=None)
    with pytest.raises(SimulationError, match="delivery lane"):
        Bottleneck(loop, capacity_segs=10, rate_bps=10_000_000, prop_delay_us=1_000, injector=None)


def test_pending_scans_the_lanes():
    # The end-of-run audit counts propagating segments through pending().
    loop = EventLoop()
    cb = object()
    loop.schedule(5, cb, "heap")
    loop.deliveries.append((6, loop.reserve_seq(), cb, "delivery"))
    loop.acks.append((7, loop.reserve_seq(), cb, "ack"))
    loop.acks.append((8, loop.reserve_seq(), print, "other"))
    assert sorted(loop.pending(cb)) == ["ack", "delivery", "heap"]


def _run_queued(events, end_us=10):
    """Queue `(queue, at_us, name)` events, numbered in list order, on
    `heap`, `deliveries` or `acks`; run them to `end_us`. Returns the loop
    and the names in the order they ran."""
    loop = EventLoop()
    ran = []
    for queue, at, name in events:
        event = (at, loop.reserve_seq(), ran.append, name)
        if queue == "heap":
            heapq.heappush(loop.heap, event)
        else:
            getattr(loop, queue).append(event)
    loop.run_until(end_us)
    return loop, ran


QUEUES = ("heap", "deliveries", "acks")


@pytest.mark.parametrize("first, second", list(itertools.permutations(QUEUES, 2)))
def test_two_queues_at_one_instant_run_in_tie_break_order(first, second):
    # The tie-break number decides between equal times, and only there.
    loop, ran = _run_queued([(first, 5, "a"), (second, 5, "b")])
    assert ran == ["a", "b"] and loop.processed == 2 and loop.now_us == 10
    _, ran = _run_queued([(second, 6, "numbered first"), (first, 5, "due first")])
    assert ran == ["due first", "numbered first"]


@pytest.mark.parametrize("order", list(itertools.permutations(QUEUES)))
def test_three_queues_at_one_instant_run_in_tie_break_order(order):
    loop, ran = _run_queued([(queue, 7, queue) for queue in order])
    assert ran == list(order)
    assert not loop.deliveries and not loop.acks and len(loop.heap) == 1  # the sentinel


@pytest.mark.parametrize("queue", QUEUES)
def test_event_due_at_the_end_runs(queue):
    loop, ran = _run_queued([(queue, 10, "due"), (queue, 11, "after")], end_us=10)
    assert ran == ["due"] and loop.processed == 1 and loop.now_us == 10
    assert loop.pending(ran.append) == ["after"]
    loop.run_until(11)
    assert ran == ["due", "after"]
