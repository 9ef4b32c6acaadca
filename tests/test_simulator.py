import gc
import io
import sys
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_byte_identity import run_case
from test_event_lanes import every_event_scenario, scenarios

from roccet_lab.cc_types import CubicParams
from roccet_lab.controllers import CubicController
from roccet_lab.errors import ScenarioError, SimulationError
from roccet_lab.harness import (
    FlowSpec,
    LossSpec,
    ScenarioSpec,
    SourceSpec,
    builtin_scenario,
    _mk_link,
)
from roccet_lab.simulator import (
    AppSource,
    Bottleneck,
    EventLoop,
    Sender,
    run,
)
from roccet_lab.units import s_to_us


def _single_flow(algo="cubic", rate_mbps=10.0, rtt_ms=40.0, buffer_bdp=1.0,
                 horizon_s=10.0, seed=1, source=None, sndbuf=None, loss=None,
                 debug=False):
    return ScenarioSpec(
        link=_mk_link(rate_mbps, rtt_ms),
        buffer_bdp=buffer_bdp,
        flows=(
            FlowSpec(
                flow_id=f"{algo}0",
                algo=algo,
                source=source or SourceSpec(kind="greedy"),
                sndbuf_segs=sndbuf,
            ),
        ),
        horizon_us=s_to_us(horizon_s),
        seed=seed,
        loss=loss,
        debug=debug,
        name="test",
    )


class TestQueueOp:
    """The droptail rule as `Bottleneck.submit` runs it, on a new link
    whose clock stands still: the first segment goes into service, the
    next `capacity` wait in the queue, and every later one is dropped."""

    @staticmethod
    def _link(capacity):
        return Bottleneck(
            EventLoop(), capacity_segs=capacity, rate_bps=10_000_000,
            prop_delay_us=1_000, injector=None,
        )

    @staticmethod
    def _pkt(seq, flow_id="f"):
        return (flow_id, seq, 0, False)

    def test_full_queue_drops(self):
        link = self._link(3)
        assert all(link.submit(self._pkt(seq)) for seq in range(4))
        assert link.occupancy == 3
        assert link.submit(self._pkt(4)) is False
        assert link.occupancy == 3
        assert link.drop_log == [(0, "f", "queue_full")]

    def test_empty_queue_accepts(self):
        link = self._link(3)
        assert link.submit(self._pkt(0))  # into service
        assert link.occupancy == 0
        assert link.submit(self._pkt(1))
        assert link.occupancy == 1
        assert link.drop_log == []

    def test_burst_overflow_drops_exactly_k(self):
        capacity, k = 25, 7
        link = self._link(capacity)
        assert link.submit(self._pkt(0, "g"))  # the server takes the first
        accepted = [link.submit(self._pkt(seq)) for seq in range(capacity + k)]
        assert accepted == [True] * capacity + [False] * k
        assert link.occupancy == capacity
        assert link.drop_log == [(0, "f", "queue_full")] * k


class TestRun:
    def test_zero_flows_is_empty(self):
        # A scenario with no flow is refused, by `run` as by every other
        # entry point.
        spec = ScenarioSpec(
            link=_mk_link(10.0, 40.0), buffer_bdp=1.0, flows=(),
            horizon_us=s_to_us(1.0), name="empty",
        )
        with pytest.raises(ScenarioError) as info:
            run(spec)
        assert str(info.value) == "scenario needs at least one flow"

    def test_duplicate_flow_ids_rejected(self):
        spec = ScenarioSpec(
            link=_mk_link(10.0, 40.0), buffer_bdp=1.0,
            flows=(
                FlowSpec("a", "cubic", SourceSpec()),
                FlowSpec("a", "reno", SourceSpec()),
            ),
            horizon_us=s_to_us(1.0), name="dup",
        )
        with pytest.raises(ScenarioError):
            run(spec)

    def test_reno_sawtooth_goodput_within_5_percent(self):
        spec = _single_flow(algo="reno", horizon_s=60.0)
        traces = run(spec)
        fm = traces.flows["reno0"]
        delivered = sum(s.delivered_bytes for s in fm.samples)
        assert delivered * 8 / 60e6 > 0.95 * 10.0

    def test_determinism_byte_identical(self):
        spec = builtin_scenario("steady", horizon_s=5.0, seed=9)
        a, b = io.StringIO(), io.StringIO()
        run(spec).write_csv(a)
        run(spec).write_csv(b)
        assert a.getvalue() == b.getvalue()
        ea, eb = io.StringIO(), io.StringIO()
        run(spec).write_events_json(ea)
        run(spec).write_events_json(eb)
        assert ea.getvalue() == eb.getvalue()

    def test_conservation_identity(self):
        for spec in (
            _single_flow("cubic", horizon_s=8.0),
            _single_flow("reno", horizon_s=8.0),
            _single_flow("roccet", horizon_s=8.0, buffer_bdp=8.0),
        ):
            traces = run(spec)
            for fid, a in traces.audit.items():
                assert a["segments_sent"] == (
                    a["received"] + a["dropped"] + a["in_network_end"]
                ), fid

    @pytest.mark.parametrize(
        "spec",
        [
            builtin_scenario("frozen-cwnd", seed=1, horizon_s=5.0),
            builtin_scenario("fairness-10x40", n_flows=2, buffer_bdp=1.0, seed=1, horizon_s=8.0),
        ],
        ids=["frozen-cwnd", "fairness-10x40"],
    )
    def test_sent_counters_match_handed_over_segments(self, spec, monkeypatch):
        # The audit derives new_sent from snd_nxt and segments_sent from
        # snd_nxt + retransmits; count what each sender really handed to
        # the bottleneck and compare.
        handed: dict[str, list] = {}
        submit = Bottleneck.submit

        def counting_submit(self, pkt):
            handed.setdefault(pkt[0], []).append((pkt[1], pkt[3]))
            return submit(self, pkt)

        monkeypatch.setattr(Bottleneck, "submit", counting_submit)
        traces = run(spec)
        assert sum(a["dropped"] for a in traces.audit.values()) > 0
        for fid, a in traces.audit.items():
            new = [seq for seq, rtx in handed[fid] if not rtx]
            assert new == list(range(len(new)))  # snd_nxt counts them
            assert a["new_sent"] == len(new)
            assert a["retransmits"] == len(handed[fid]) - len(new)
            assert a["segments_sent"] == a["new_sent"] + a["retransmits"]
            assert a["segments_sent"] == a["received"] + a["dropped"] + a["in_network_end"]

    def test_window_obedience(self):
        # Oracle from the packet log alone: just before each sample time,
        # new data sent minus data acknowledged never exceeds the sampled
        # window. The deep buffer keeps the run loss-free, so the window
        # only grows and the sampled value bounds the one just before.
        spec = _single_flow("cubic", horizon_s=2.0, buffer_bdp=200.0, debug=True)
        traces = run(spec)
        audit = traces.audit["cubic0"]
        assert audit["dropped"] == 0 and audit["retransmits"] == 0
        log = traces.debug_packets
        sent = sorted(enq for _, _, enq, _, _, _, _ in log)
        # No loss, so ACKs are cumulative in arrival order; each comes back
        # one propagation delay after its segment reaches the receiver.
        acked = sorted(deliver + spec.link.prop_delay_us for _, _, _, _, _, deliver, _ in log)
        checked = at_window = 0
        for s in traces.flows["cubic0"].samples:
            if s.t_us > sent[-1]:
                break  # later sends may still sit in the queue, unlogged
            outstanding = bisect_left(sent, s.t_us) - bisect_left(acked, s.t_us)
            assert outstanding <= int(s.cwnd), s
            checked += 1
            at_window += outstanding == int(s.cwnd)
        assert checked > 100
        assert at_window > checked // 2  # the window binds: the check has teeth

    def test_goodput_equals_audited_bytes_exactly(self):
        traces = run(_single_flow("cubic", horizon_s=6.0))
        fm = traces.flows["cubic0"]
        assert sum(s.delivered_bytes for s in fm.samples) == (
            traces.audit["cubic0"]["delivered_bytes"]
        )


class TestCausality:
    def test_fifo_and_timing(self):
        spec = _single_flow("cubic", horizon_s=3.0, debug=True)
        traces = run(spec)
        log = traces.debug_packets
        assert log, "debug log empty"
        prop = spec.link.prop_delay_us
        last_deliver = 0
        for flow_id, seq, enq, svc_start, svc_end, deliver, _rtx in log:
            assert svc_start >= enq
            assert svc_end > svc_start
            assert deliver >= svc_end + prop
            assert deliver >= last_deliver  # FIFO per bottleneck
            last_deliver = deliver

    def test_service_time_matches_rate(self):
        spec = _single_flow("cubic", rate_mbps=50.0, horizon_s=1.0, debug=True)
        traces = run(spec)
        svc = [e - s for _, _, _, s, e, _, _ in traces.debug_packets]
        assert all(v == 240 for v in svc)  # 1500 B * 8 / 50 Mbps


class TestRateChange:
    def test_pinned_flow_srtt_doubles_after_halving(self):
        # Send-buffer-pinned flow holds a standing queue; halving the rate
        # doubles the standing queue delay (Little's law on the backlog).
        spec = ScenarioSpec(
            link=_mk_link(50.0, 40.0)._replace(
                rate_schedule=((0, 50_000_000), (s_to_us(10.0), 25_000_000)),
            ),
            buffer_bdp=16.0,
            flows=(
                FlowSpec("f", "cubic", SourceSpec(kind="greedy"), sndbuf_segs=500),
            ),
            horizon_us=s_to_us(20.0),
            name="halve",
        )
        traces = run(spec)
        fm = traces.flows["f"]
        before = [s.srtt_us for s in fm.samples if 8e6 <= s.t_us < 10e6]
        after = [s.srtt_us for s in fm.samples if 17e6 <= s.t_us]
        ratio = (sum(after) / len(after)) / (sum(before) / len(before))
        assert 1.8 < ratio < 2.2

    def test_rate_change_logged(self):
        spec = builtin_scenario("bw-halving", algo="cubic", seed=1)
        traces = run(spec._replace(horizon_us=s_to_us(16.0)))
        assert traces.rate_changes[0] == (0, 50_000_000)
        assert traces.rate_changes[1] == (s_to_us(15.0), 25_000_000)

    def test_single_entry_schedule_constant(self):
        traces = run(_single_flow("cubic", horizon_s=2.0))
        assert traces.rate_changes == [(0, 10_000_000)]


class TestTransport:
    def test_fast_retransmit_single_congestion_event(self):
        # A send-buffer-pinned flow never overflows the queue, so the one
        # injected drop is the only congestion event: three duplicate ACKs,
        # one retransmission, window cut to the survivor fraction.
        spec = _single_flow(
            "cubic", horizon_s=8.0, buffer_bdp=16.0, sndbuf=100,
            loss=LossSpec(drop_at_us=(s_to_us(5.0),)),
        )
        traces = run(spec)
        fm = traces.flows["cubic0"]
        ces = [t for t, k in fm.ce_log if k == "loss_ce"]
        assert len(ces) == 1
        assert 5e6 < ces[0] < 5.5e6
        before = [s.cwnd for s in fm.samples if s.t_us <= ces[0]][-1]
        after = [s.cwnd for s in fm.samples if s.t_us > ces[0] + 200_000][0]
        assert after == pytest.approx(0.7 * before, rel=0.05)
        assert traces.audit["cubic0"]["retransmits"] >= 1
        assert traces.audit["cubic0"]["dropped"] == 1

    def test_rto_during_roccet_slow_start_keeps_window(self):
        # Drop the tail of the initial burst: no duplicate ACKs are
        # possible, so the retransmission timer fires; the retransmit
        # happens but the controller ignores the loss in slow start.
        spec = _single_flow(
            "roccet", horizon_s=3.0, buffer_bdp=16.0,
            loss=LossSpec(drop_at_us=(60_000,)),
        )
        traces = run(spec)
        fm = traces.flows["roccet0"]
        assert traces.audit["roccet0"]["retransmits"] >= 1
        assert not [k for _, k in fm.ce_log if k == "loss_ce"]

    def test_rto_fires_at_earlier_deadline_after_rto_shrinks(self):
        # A slow handshake arms the timer seconds out; fast samples then
        # shrink rto_us, so the re-armed deadline lands far earlier than
        # the one already queued. Once the ACKs stop, the timer must fire
        # at the newest deadline, not at the stale later one.
        prop = 1_500_000
        loop = EventLoop()
        bottleneck = Bottleneck(
            loop, capacity_segs=1000, rate_bps=10_000_000, prop_delay_us=prop,
            injector=None,
        )
        bottleneck.deliver_cb["f"] = lambda pkt: None  # ACKs come from the list below
        sender = Sender(
            loop, "f", CubicController(CubicParams()),
            AppSource("greedy", None, 0, None, 1500), bottleneck,
        )
        loop.schedule(0, sender.start)
        first = 2 * prop + 100_000
        frames = [
            (first + 10_000 * i, (1 + i, i, first + 10_000 * i - 40_000))
            for i in range(40)
        ]
        for at, frame in frames:
            loop.schedule(at, sender.on_ack_frame, frame)

        loop.run_until(first - 1)
        assert sender.in_flight > 0
        # Armed by the first send, right after the idle-path handshake.
        stale_deadline = 2 * prop + 1 + sender.rto_us
        last = frames[-1][0]
        loop.run_until(last)
        deadline = last + sender.rto_us
        assert deadline < stale_deadline - 5_000_000
        assert sender.in_flight > 0

        loop.run_until(deadline - 1)
        assert sender.retransmits == 0
        loop.run_until(deadline)
        assert sender.retransmits == 1

    def test_ack_clocking_releases_new_segments(self):
        # Window obedience plus full utilization imply each cumulative ACK
        # frees exactly the acknowledged number of sends; verified through
        # the audit: everything sent was either received or in the network.
        traces = run(_single_flow("cubic", horizon_s=4.0))
        a = traces.audit["cubic0"]
        assert a["window_violations"] == 0
        assert a["segments_sent"] == a["received"] + a["dropped"] + a["in_network_end"]

    def test_app_limited_source_respects_rate(self):
        spec = _single_flow(
            "cubic", horizon_s=10.0, rate_mbps=50.0,
            source=SourceSpec(kind="app_limited", rate_bps=10_000_000),
        )
        traces = run(spec)
        fm = traces.flows["cubic0"]
        delivered = sum(s.delivered_bytes for s in fm.samples if s.t_us > 2e6)
        mbps = delivered * 8 / 8e6
        assert 9.0 < mbps < 10.5

    def test_flow_duration_stops_transmission(self):
        spec = _single_flow("cubic", horizon_s=10.0)
        spec = spec._replace(flows=(spec.flows[0]._replace(duration_us=s_to_us(2.0)),))
        traces = run(spec)
        fm = traces.flows["cubic0"]
        late = [s.delivered_bytes for s in fm.samples if s.t_us > 4e6]
        assert sum(late) == 0


class TestFrozenWindow:
    def test_app_limited_freeze_pins_window(self):
        traces = run(builtin_scenario("frozen-cwnd", seed=1))
        fm = next(iter(traces.flows.values()))
        tail = [s.cwnd for s in fm.samples if s.t_us >= 10e6]
        assert max(tail) - min(tail) <= 1.0
        kinds = [k for _, k in fm.ce_log]
        assert kinds == ["loss_ce", "loss_ce"]

    def test_freeze_off_lets_window_move(self):
        spec = builtin_scenario("frozen-cwnd", seed=1)
        flows = tuple(
            f._replace(cubic=f.cubic._replace(app_limited_freeze=False))
            for f in spec.flows
        )
        traces = run(spec._replace(flows=flows, horizon_us=s_to_us(30.0)))
        fm = next(iter(traces.flows.values()))
        tail = [s.cwnd for s in fm.samples if s.t_us >= 10e6]
        assert max(tail) - min(tail) > 1.0


class TestPerSegmentCost:
    def test_source_asked_once_per_segment(self, monkeypatch):
        # The sender keeps the source's count until the instant it changes,
        # so `availability`, the one query it makes, runs no more than
        # once per new segment sent (plus a few for the start), however
        # often the sender looks.
        calls = 0
        availability = AppSource.availability

        def counting(self, now_us):
            nonlocal calls
            calls += 1
            return availability(self, now_us)

        monkeypatch.setattr(AppSource, "availability", counting)
        traces = run(builtin_scenario("frozen-cwnd", seed=1, horizon_s=10.0))
        new_sent = traces.audit["cubic0"]["new_sent"]
        assert new_sent > 10_000
        assert 0 < calls <= new_sent + 10, (calls, new_sent)

    def test_segments_are_exact_tuples(self, monkeypatch):
        # CPython 3.11 specializes indexing and unpacking of exact tuples
        # only, so a segment is no tuple subclass. The case sends new data
        # and retransmissions and takes injected and queue drops.
        seen = set()
        submit = Bottleneck.submit

        def recording(self, pkt):
            seen.add((type(pkt), tuple(map(type, pkt))))
            return submit(self, pkt)

        monkeypatch.setattr(Bottleneck, "submit", recording)
        traces = run_case("loss-window-jitter")
        assert sum(a["retransmits"] for a in traces.audit.values()) > 0
        assert seen == {(tuple, (str, int, int, bool))}

    @staticmethod
    def _calls_per_delivered_segment(spec):
        """Every Python-level call, built-ins included, that a run makes,
        per segment delivered; and the segments delivered."""
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        sys.setprofile(count)
        try:
            traces = run(spec)
        finally:
            sys.setprofile(None)
        delivered = sum(audit["received"] for audit in traces.audit.values())
        return calls / delivered, delivered

    def test_calls_per_delivered_segment_within_budget(self):
        # A 6 s bw-halving ROCCET run. With the per-ACK steps folded into
        # straight-line code, deliveries and ACKs in FIFO lanes and each
        # segment a plain tuple built without a call, it makes 20.1 calls
        # per segment; the ceiling leaves about 10% for change. Calling the
        # scalar steps per ACK again (31.0) goes over it; a named-tuple
        # segment built through `tuple.__new__` (21.1) stays under it.
        spec = builtin_scenario("bw-halving", seed=1, horizon_s=6.0)
        per_segment, delivered = self._calls_per_delivered_segment(spec)
        assert delivered > 20_000
        assert per_segment < 22.0, per_segment

    def test_app_limited_calls_per_delivered_segment_within_budget(self):
        # A 10 s frozen-cwnd run: app-limited CUBIC, where the sender's
        # wake-ups and the source carry the load. With the wake-up calling
        # try_send directly, `availability` working its answer out itself,
        # plain-tuple segments and the CUBIC step as `on_ack` itself (one
        # frame per ACK) it makes 19.0 calls per segment; the ceiling
        # leaves about 10% for change. A named-tuple segment and a second
        # CUBIC frame per ACK again (21.0) go over it, and so do a separate
        # wake callback in front of try_send and a source query that calls
        # two helpers (25.9).
        spec = builtin_scenario("frozen-cwnd", seed=1, horizon_s=10.0)
        per_segment, delivered = self._calls_per_delivered_segment(spec)
        assert delivered > 15_000
        assert per_segment < 20.9, per_segment

    def test_loss_heavy_calls_per_delivered_segment_within_budget(self):
        # A 10 s fairness-10x40 cell with two ROCCET flows and a CUBIC
        # rival at 1 BDP: queue drops open 26 loss episodes, each with its
        # repairs, where the two runs above open 0 and 2. It makes 21.6
        # calls per segment; the ceiling leaves about 10% for change.
        spec = builtin_scenario(
            "fairness-10x40", seed=1, n_flows=2, buffer_bdp=1.0, competitor="cubic",
            horizon_s=10.0,
        )
        per_segment, delivered = self._calls_per_delivered_segment(spec)
        assert delivered > 8_000
        assert per_segment < 24.0, per_segment

    @pytest.mark.parametrize("algo, budget", [("probe_rate", 26.7), ("reno", 20.8)])
    def test_steady_calls_per_delivered_segment_within_budget(self, algo, budget):
        # A 6 s steady run. With its state in slots, updated in place, and
        # the delivery-rate maximum kept until the filter changes, the
        # probe_rate controller makes 24.3 calls per segment and reno 18.9;
        # each ceiling leaves about 10% for change. A state record rebuilt
        # per ACK through `_replace`, behind an adapter, makes 41.4 and
        # 23.6.
        spec = builtin_scenario("steady", algo=algo, seed=1, horizon_s=6.0)
        per_segment, delivered = self._calls_per_delivered_segment(spec)
        assert delivered > 4_000
        assert per_segment < budget, per_segment

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_collector_as_found(self, enabled):
        def set_collector(on):
            if on:
                gc.enable()
            else:
                gc.disable()

        was = gc.isenabled()
        try:
            set_collector(enabled)
            run(builtin_scenario("steady", seed=1, horizon_s=0.5))
            assert gc.isenabled() is enabled
        finally:
            set_collector(was)

    @settings(max_examples=25, deadline=None)
    @example(spec=every_event_scenario())
    @given(spec=scenarios())
    def test_events_leave_no_cyclic_garbage(self, spec):
        # The collector is paused while events run, and a sweep runs cell
        # after cell, so a finished run must free itself by reference
        # counting alone: once its traces are dropped, the collector finds
        # nothing. The drawn scenarios mix every controller, loss windows
        # with drops and jitter, app-limited and finite sources, rate
        # changes and the debug packet log.
        gc.collect()
        traces = run(spec)
        assert traces.events_processed > 0
        del traces
        assert gc.collect() == 0

    def test_failed_audit_still_tears_the_run_down(self, monkeypatch):
        # The teardown runs on the audit's error path too: the queued
        # events and the link's delivery callbacks are let go.
        links = []
        in_network_total = Bottleneck.in_network_total

        def miscounted(self, flow_id):
            links.append(self)
            return in_network_total(self, flow_id) + 1

        monkeypatch.setattr(Bottleneck, "in_network_total", miscounted)
        with pytest.raises(SimulationError, match="conservation violated"):
            run(builtin_scenario("steady", seed=1, horizon_s=1.0))
        link = links[0]
        assert link.loop.processed > 0
        assert link.loop.heap == [] and not link.loop.deliveries and not link.loop.acks
        assert link.deliver_cb == {}


class TestAppSourceAvailability:
    @given(
        kind=st.sampled_from(["app_limited", "greedy"]),
        rate_bps=st.integers(1, 10**11),
        start_us=st.integers(0, 10**8),
        duration_us=st.none() | st.integers(1, 10**8),
        mss=st.integers(1, 9000),
        now_us=st.integers(0, 3 * 10**8),
        offset=st.integers(0, 10**12),
    )
    def test_count_holds_until_change_time(
        self, kind, rate_bps, start_us, duration_us, mss, now_us, offset
    ):
        source = AppSource(
            kind, rate_bps if kind == "app_limited" else None, start_us, duration_us, mss
        )
        count, until = source.availability(now_us)
        assert count == source.available_segments(now_us)
        if until == float("inf"):
            assert source.available_segments(now_us + offset) == count
            return
        assert until > now_us
        for t in (now_us + offset % (until - now_us), until - 1):
            assert source.available_segments(t) == count
        assert source.available_segments(until) != count
