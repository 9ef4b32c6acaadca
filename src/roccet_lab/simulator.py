"""Deterministic discrete-event dumbbell simulator.

One droptail bottleneck carries every flow's forward traffic; the reverse
(ACK) path is uncongested with fixed delay. Senders run a simplified
reliable transport: cumulative ACKs drive ACK clocking, three duplicate
ACKs trigger fast retransmit plus one congestion signal per loss episode,
and a retransmission timer (srtt plus a variance margin of at least
200 ms) backstops everything. Receivers acknowledge every received
segment.

The clock is integer microseconds. All event ties break on a monotonically
increasing sequence number, so two runs of the same scenario and seed
produce identical event orders and byte-identical traces.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .cc_types import AckInfo
from .controllers import make_controller
from .errors import ScenarioError, SimulationError
from .trace import FlowTrace, Sample, TraceSet
from .units import bdp_segments

if TYPE_CHECKING:  # pragma: no cover
    from .harness import ScenarioSpec

DUP_ACK_THRESHOLD = 3
MIN_RTO_US = 200_000
INITIAL_RTO_US = 1_000_000
MAX_RTO_US = 60_000_000


class EventLoop:
    """Time-ordered callback queue with deterministic tie-breaking."""

    __slots__ = ("now_us", "_heap", "_seq", "processed")

    def __init__(self) -> None:
        self.now_us = 0
        self._heap: list[tuple[int, int, Callable, object]] = []
        self._seq = 0
        self.processed = 0

    def schedule(self, at_us: int, fn: Callable, arg: object = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at_us, self._seq, fn, arg))

    def reserve_seq(self) -> int:
        """Claim the next tie-break number without queueing anything.
        Passing it to `schedule_reserved` later orders that event exactly
        as if it had been scheduled at the moment of reservation."""
        self._seq += 1
        return self._seq

    def schedule_reserved(self, at_us: int, seq: int, fn: Callable, arg: object = None) -> None:
        heapq.heappush(self._heap, (at_us, seq, fn, arg))

    def run_until(self, end_us: int) -> None:
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap and heap[0][0] <= end_us:
            at, _, fn, arg = pop(heap)
            self.now_us = at
            processed += 1
            fn(arg)
        self.processed += processed
        self.now_us = end_us


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Bottleneck description.

    `rate_schedule` lists (time_us, bits_per_second) entries effective from
    each instant; the first entry must be at time zero and times must be
    strictly increasing. `prop_delay_us` is the one-way propagation delay,
    so the base RTT is twice that plus one service time.
    """

    rate_schedule: tuple[tuple[int, int], ...]
    prop_delay_us: int
    mtu_bytes: int = 1500

    @property
    def initial_rate_bps(self) -> int:
        return self.rate_schedule[0][1]

    @property
    def base_rtt_us(self) -> int:
        return 2 * self.prop_delay_us

    def validate(self) -> None:
        if not self.rate_schedule:
            raise ScenarioError("rate_schedule must have at least one entry")
        if self.rate_schedule[0][0] != 0:
            raise ScenarioError("rate_schedule must start at time 0")
        times = [t for t, _ in self.rate_schedule]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("rate_schedule times must be strictly increasing")
        if any(rate <= 0 for _, rate in self.rate_schedule):
            raise ScenarioError("link rates must be > 0")
        if self.prop_delay_us <= 0 or self.mtu_bytes <= 0:
            raise ScenarioError("prop_delay and mtu must be > 0")


@dataclass(slots=True)
class Packet:
    flow_id: str
    seq: int
    size_bytes: int
    sent_at_us: int
    is_retransmit: bool = False


class EnqueueResult(Enum):
    ACCEPTED = "accepted"
    DROPPED = "dropped"


@dataclass(slots=True)
class QueueState:
    """Droptail FIFO occupancy accounting."""

    capacity: int
    occupancy: int = 0
    drops: int = 0

    def enqueue(self) -> EnqueueResult:
        if self.occupancy < self.capacity:
            self.occupancy += 1
            return EnqueueResult.ACCEPTED
        self.drops += 1
        return EnqueueResult.DROPPED

    def dequeue(self) -> None:
        self.occupancy -= 1


class LossInjector:
    """Abstract stand-in for lower-layer loss and delay jitter.

    Drops the first forward packet at or after each configured time, drops
    probabilistically inside the configured window, and can add uniform
    extra delay to deliveries inside the window.
    """

    def __init__(
        self,
        rng: random.Random,
        drop_at_us: tuple[int, ...] = (),
        drop_prob: float = 0.0,
        window_us: tuple[int, int] | None = None,
        jitter_us: int = 0,
    ) -> None:
        self._rng = rng
        self._drop_times = sorted(drop_at_us)
        self._next_drop = 0
        self._drop_prob = drop_prob
        self._window = window_us
        self._jitter = jitter_us

    def _in_window(self, now_us: int) -> bool:
        return self._window is not None and self._window[0] <= now_us < self._window[1]

    def should_drop(self, now_us: int) -> bool:
        if self._next_drop < len(self._drop_times) and now_us >= self._drop_times[self._next_drop]:
            self._next_drop += 1
            return True
        if self._drop_prob > 0.0 and self._in_window(now_us):
            return self._rng.random() < self._drop_prob
        return False

    def extra_delay_us(self, now_us: int) -> int:
        if self._jitter > 0 and self._in_window(now_us):
            return self._rng.randint(0, self._jitter)
        return 0


class Bottleneck:
    """Serializing droptail bottleneck: one packet in service at a time,
    service time size / current rate, then one-way propagation to the
    receiver. A packet already in service completes at the rate that was
    current when its service began."""

    def __init__(
        self,
        loop: EventLoop,
        capacity_segs: int,
        rate_bps: int,
        prop_delay_us: int,
        injector: LossInjector | None,
        mss_bytes: int = 1500,
        debug: bool = False,
    ) -> None:
        self.loop = loop
        self.queue = QueueState(capacity=capacity_segs)
        self._fifo: deque[Packet] = deque()
        self.rate_bps = rate_bps
        self.prop_delay_us = prop_delay_us
        self.mss_bytes = mss_bytes
        self.injector = injector
        self.in_service: Packet | None = None
        self.deliver_cb: dict[str, Callable[[Packet], None]] = {}
        self.in_network: dict[str, int] = {}
        self.drops_by_flow: dict[str, int] = {}
        self.drop_log: list[tuple[int, str, str]] = []
        self.rate_log: list[tuple[int, int]] = [(0, rate_bps)]
        self.debug_log: list | None = [] if debug else None
        self._debug_enq: dict[int, tuple[int, int]] = {}
        self._last_delivery_us = 0

    def set_rate(self, rate_bps: int) -> None:
        self.rate_bps = rate_bps
        self.rate_log.append((self.loop.now_us, rate_bps))

    def _record_drop(self, pkt: Packet, cause: str) -> None:
        self.drops_by_flow[pkt.flow_id] = self.drops_by_flow.get(pkt.flow_id, 0) + 1
        self.drop_log.append((self.loop.now_us, pkt.flow_id, cause))

    def submit(self, pkt: Packet) -> bool:
        """Sender hands over one segment; returns False when dropped."""
        now = self.loop.now_us
        if self.injector is not None and self.injector.should_drop(now):
            self._record_drop(pkt, "injected")
            return False
        if self.debug_log is not None:
            self._debug_enq[id(pkt)] = (now, -1)
        if self.in_service is None and self.queue.occupancy == 0:
            self.in_network[pkt.flow_id] = self.in_network.get(pkt.flow_id, 0) + 1
            self._start_service(pkt)
            return True
        if self.queue.enqueue() is EnqueueResult.DROPPED:
            self._record_drop(pkt, "queue_full")
            self._debug_enq.pop(id(pkt), None)
            return False
        self.in_network[pkt.flow_id] = self.in_network.get(pkt.flow_id, 0) + 1
        self._fifo.append(pkt)
        return True

    def _start_service(self, pkt: Packet) -> None:
        now = self.loop.now_us
        service_us = max(1, round(pkt.size_bytes * 8_000_000 / self.rate_bps))
        if self.debug_log is not None:
            enq, _ = self._debug_enq[id(pkt)]
            self._debug_enq[id(pkt)] = (enq, now)
        self.in_service = pkt
        self.loop.schedule(now + service_us, self._service_done, pkt)

    def _service_done(self, pkt: Packet) -> None:
        now = self.loop.now_us
        delay = self.prop_delay_us
        if self.injector is not None:
            delay += self.injector.extra_delay_us(now)
        # Jitter wobbles latency but never reorders the link's FIFO.
        deliver_at = max(now + delay, self._last_delivery_us + 1)
        self._last_delivery_us = deliver_at
        if self.debug_log is not None:
            enq, svc_start = self._debug_enq.pop(id(pkt))
            self.debug_log.append(
                (pkt.flow_id, pkt.seq, enq, svc_start, now, deliver_at, pkt.is_retransmit)
            )
        self.loop.schedule(deliver_at, self._deliver, pkt)
        self.in_service = None
        if self._fifo:
            self.queue.dequeue()
            self._start_service(self._fifo.popleft())

    def _deliver(self, pkt: Packet) -> None:
        self.in_network[pkt.flow_id] -= 1
        self.deliver_cb[pkt.flow_id](pkt)

    @property
    def occupancy(self) -> int:
        return self.queue.occupancy

    def in_network_total(self, flow_id: str) -> int:
        return self.in_network.get(flow_id, 0)

    def probe_rtt_us(self) -> int:
        """Round trip a minimal control packet would measure right now:
        both propagation legs plus the wait behind the current backlog."""
        backlog = self.occupancy + (1 if self.in_service is not None else 0)
        wait_us = backlog * round(self.mss_bytes * 8_000_000 / self.rate_bps)
        return 2 * self.prop_delay_us + wait_us + 1


class AppSource:
    """Data availability model: greedy (unlimited) or rate-limited.

    For rate-limited sources availability is computed analytically from
    elapsed time, and `next_avail_us` tells the sender when to wake once it
    runs dry.
    """

    def __init__(
        self,
        kind: str,
        rate_bps: int | None,
        start_us: int,
        duration_us: int | None,
        mss_bytes: int,
    ) -> None:
        self.kind = kind
        self.rate_bps = rate_bps
        self.start_us = start_us
        self.duration_us = duration_us
        self.mss = mss_bytes

    def available_segments(self, now_us: int) -> int | None:
        """Segments the application has produced by `now_us`; None = unbounded."""
        if self.kind == "greedy":
            if self.duration_us is not None and now_us >= self.start_us + self.duration_us:
                return 0  # evaluated against snd_nxt by the caller; greedy+finite is uncommon
            return None
        elapsed = now_us - self.start_us
        if self.duration_us is not None:
            elapsed = min(elapsed, self.duration_us)
        if elapsed <= 0:
            return 0
        return (self.rate_bps * elapsed) // (8 * self.mss * 1_000_000)

    def next_avail_us(self, segment_count: int) -> int | None:
        """Earliest time at which `segment_count` segments exist, or None."""
        if self.kind == "greedy":
            return None
        need_bit_us = segment_count * 8 * self.mss * 1_000_000
        t = self.start_us + math.ceil(need_bit_us / self.rate_bps)
        if self.duration_us is not None and t > self.start_us + self.duration_us:
            return None
        return t


class Receiver:
    """In-order reassembly with one cumulative ACK per received segment."""

    def __init__(
        self, loop: EventLoop, flow_id: str, mss_bytes: int, ack_delay_us: int
    ) -> None:
        self.loop = loop
        self.flow_id = flow_id
        self.mss = mss_bytes
        self.ack_delay_us = ack_delay_us
        self.rcv_nxt = 0
        self.ooo: set[int] = set()
        self.rx_count = 0
        self.delivered_bytes = 0
        self.ack_sink: Callable[[int], None] | None = None

    def on_segment(self, pkt: Packet) -> None:
        self.rx_count += 1
        if pkt.seq == self.rcv_nxt:
            self.rcv_nxt += 1
            while self.rcv_nxt in self.ooo:
                self.ooo.remove(self.rcv_nxt)
                self.rcv_nxt += 1
            self.delivered_bytes = self.rcv_nxt * self.mss
        elif pkt.seq > self.rcv_nxt:
            self.ooo.add(pkt.seq)
        # The ACK names the segment that triggered it (the selective-ACK
        # information a one-ACK-per-segment receiver has) and echoes its
        # send timestamp, so RTT samples survive retransmissions the way
        # they do with TCP timestamps.
        self.loop.schedule(
            self.loop.now_us + self.ack_delay_us,
            self.ack_sink,
            (self.rcv_nxt, pkt.seq, pkt.sent_at_us),
        )


class Sender:
    """Window-driven reliable sender with ACK clocking, fast retransmit,
    NewReno-style partial-ACK repair, and an RTO backstop."""

    def __init__(
        self,
        loop: EventLoop,
        flow_id: str,
        controller,
        source: AppSource,
        bottleneck: Bottleneck,
        mss_bytes: int,
        sndbuf_segs: int | None = None,
    ) -> None:
        self.loop = loop
        self.flow_id = flow_id
        self.ctl = controller
        self.source = source
        self.bottleneck = bottleneck
        self.mss = mss_bytes
        self.sndbuf = sndbuf_segs

        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.recovery_high: int | None = None
        self.recovery_inflation = 0
        # Scoreboard built from the per-ACK triggering sequence numbers:
        # which segments above snd_una the receiver is known to hold.
        self.scoreboard: set[int] = set()
        self.max_received = -1
        self._episode_rtx: set[int] = set()
        self._repair_cursor = 0
        self.srtt_us: float | None = None
        self.rttvar_us: float = 0.0
        self.rto_us = INITIAL_RTO_US
        # Lazy retransmission timer: (_rto_at, _rto_seq) is the armed
        # deadline and its tie-break number, _rto_at None when disarmed;
        # _rto_entry_at/_rto_entry_seq name the one live queue entry.
        self._rto_at: int | None = None
        self._rto_seq = 0
        self._rto_entry_at = 0
        self._rto_entry_seq: int | None = None
        self._round_end_seq = 0
        self._pace_next_us = 0
        self._pending_wake: int | None = None

        self.tx_count = 0
        self.new_sent = 0
        self.retransmits = 0
        self.window_violations = 0
        self.started = False

    # -- helpers ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    def _effective_window(self) -> int:
        # Without SACK the sender cannot tell holes from in-flight data, so
        # while repairing an episode the window is artificially inflated by
        # the duplicate-ACK count (RFC 5681 style); otherwise every lost
        # burst would freeze transmission for the whole repair.
        w = int(self.ctl.cwnd)
        if self.recovery_high is not None:
            w += self.recovery_inflation
        if self.sndbuf is not None:
            w = min(w, self.sndbuf)
        return w

    def _is_app_limited(self) -> bool:
        """True when the sender cannot fill the congestion window because
        of data starvation (application rate or send-buffer cap)."""
        headroom = int(self.ctl.cwnd) - self.in_flight
        if headroom <= 0:
            return False
        avail = self.source.available_segments(self.loop.now_us)
        if avail is not None and avail - self.snd_nxt < headroom:
            return True
        return self.sndbuf is not None and self.sndbuf - self.in_flight < headroom

    # -- wakeups ---------------------------------------------------------

    def _schedule_wake(self, at_us: int) -> None:
        if self._pending_wake is not None and self._pending_wake <= at_us:
            return
        self._pending_wake = at_us
        self.loop.schedule(at_us, self._wake_cb, at_us)

    def _wake_cb(self, at_us: int) -> None:
        if self._pending_wake != at_us:
            return
        self._pending_wake = None
        self.try_send()

    # -- RTO -------------------------------------------------------------

    def _arm_rto(self) -> None:
        """(Re)start the timer at now + rto_us.

        Every ACK re-arms, so the queue keeps a single live entry instead
        of one per ACK: a later deadline is picked up when the live entry
        pops, an earlier one (rto_us shrank) needs an entry of its own.
        Each arm reserves its tie-break number, so the timer fires at the
        same place in the event order as a freshly queued entry would.
        """
        loop = self.loop
        at = loop.now_us + self.rto_us
        self._rto_at = at
        self._rto_seq = loop.reserve_seq()
        if self._rto_entry_seq is None or self._rto_entry_at > at:
            self._queue_rto()

    def _queue_rto(self) -> None:
        self._rto_entry_at = self._rto_at
        self._rto_entry_seq = self._rto_seq
        self.loop.schedule_reserved(self._rto_at, self._rto_seq, self._rto_cb, self._rto_seq)

    def _disarm_rto(self) -> None:
        self._rto_at = None

    def _rto_cb(self, seq: int) -> None:
        if seq != self._rto_entry_seq:
            return  # superseded by an earlier entry
        self._rto_entry_seq = None
        if self._rto_at is None:
            return
        if seq != self._rto_seq:
            self._queue_rto()  # re-armed since: wait for the newer deadline
            return
        self._rto_at = None
        if self.in_flight == 0:
            return
        self.rto_us = min(self.rto_us * 2, MAX_RTO_US)
        fresh_episode = self.recovery_high is None
        if fresh_episode:
            self.recovery_high = self.snd_nxt
            self.recovery_inflation = 0
        self.dup_acks = 0
        self._retransmit(self.snd_una)
        if fresh_episode:
            self.ctl.on_loss(self.loop.now_us, "rto")
        self._arm_rto()
        self.try_send()

    # -- transmit paths ----------------------------------------------------

    def start(self, _arg: object = None) -> None:
        """Connection setup: a handshake round trip through the current
        queue measures the first RTT sample before any data flows (the way
        a SYN exchange seeds a kernel's estimators), then transmission
        begins."""
        sample = self.bottleneck.probe_rtt_us()
        self.loop.schedule(self.loop.now_us + sample, self._handshake_done, sample)

    def _handshake_done(self, sample: int) -> None:
        self._note_sample(sample)
        ack = AckInfo(
            newly_acked=0,
            rtt_sample_us=sample,
            now_us=self.loop.now_us,
            is_app_limited=False,
        )
        self.ctl.on_ack(ack, in_flight=0, round_start=False, in_recovery=False)
        self.started = True
        self.try_send()

    def _send_segment(self, seq: int, retransmit: bool) -> None:
        now = self.loop.now_us
        pkt = Packet(self.flow_id, seq, self.mss, now, retransmit)
        self.tx_count += 1
        if retransmit:
            self.retransmits += 1
        else:
            self.new_sent += 1
        if self._rto_at is None:
            self._arm_rto()
        self.bottleneck.submit(pkt)

    def _retransmit(self, seq: int) -> None:
        self._send_segment(seq, retransmit=True)

    def try_send(self) -> None:
        if not self.started:
            return
        now = self.loop.now_us
        pacing = self.ctl.pacing_rate_bps
        # Sending touches neither the controller nor the clock, so the
        # window and the data available stay fixed for this burst.
        window = self._effective_window()
        avail = self.source.available_segments(now)
        while True:
            if self.in_flight >= window:
                return
            if avail is not None and self.snd_nxt >= avail:
                nxt = self.source.next_avail_us(self.snd_nxt + 1)
                if nxt is not None:
                    self._schedule_wake(nxt)
                return
            if pacing is not None and pacing > 0:
                if now < self._pace_next_us:
                    self._schedule_wake(self._pace_next_us)
                    return
                interval = max(1, round(self.mss * 8_000_000 / pacing))
                self._pace_next_us = max(self._pace_next_us, now) + interval
            seq = self.snd_nxt
            self.snd_nxt += 1
            if self.in_flight > window:
                self.window_violations += 1
            self._send_segment(seq, retransmit=False)

    # -- receive path ------------------------------------------------------

    def _note_received(self, rseq: int) -> None:
        if rseq > self.max_received:
            self.max_received = rseq
        if rseq >= self.snd_una:
            self.scoreboard.add(rseq)

    def _repair_one(self) -> bool:
        """Retransmit the lowest hole deemed lost (three segments received
        above it), at most one per arriving ACK so repairs stay ACK-clocked.
        Returns True when a retransmission went out."""
        high = self.recovery_high
        if high is None:
            return False
        cursor = max(self._repair_cursor, self.snd_una)
        while cursor < high:
            if cursor in self.scoreboard or cursor in self._episode_rtx:
                cursor += 1
                continue
            if self.max_received - cursor >= DUP_ACK_THRESHOLD:
                self._episode_rtx.add(cursor)
                self._repair_cursor = cursor + 1
                self._retransmit(cursor)
                return True
            break
        self._repair_cursor = cursor
        return False

    def _note_sample(self, sample: int) -> None:
        if self.srtt_us is None:
            self.srtt_us = float(sample)
            self.rttvar_us = sample / 2.0
        else:
            self.rttvar_us += 0.25 * (abs(self.srtt_us - sample) - self.rttvar_us)
            self.srtt_us += 0.125 * (sample - self.srtt_us)
        # Variance term floored at the minimum so the timer keeps a real
        # margin over srtt; otherwise a calm standing queue drives rttvar
        # to zero and any fluctuation fires spurious timeouts.
        self.rto_us = round(self.srtt_us + max(MIN_RTO_US, 4 * self.rttvar_us))

    def on_ack_frame(self, frame: tuple[int, int, int]) -> None:
        ackno, rseq, tsecr = frame
        now = self.loop.now_us
        self._note_received(rseq)
        # Timestamp echo dates every ACK, including ones for retransmitted
        # copies, so the sample is always unambiguous.
        sample = now - tsecr
        self._note_sample(sample)
        if ackno > self.snd_una:
            newly = ackno - self.snd_una
            for seq in range(self.snd_una, ackno):
                self.scoreboard.discard(seq)
                self._episode_rtx.discard(seq)
            self.snd_una = ackno
            self.dup_acks = 0

            if self.recovery_high is not None:
                if self.snd_una >= self.recovery_high:
                    self.recovery_high = None
                    self.recovery_inflation = 0
                    self._episode_rtx.clear()
                else:
                    # Partial ACK: the new front segment is a hole unless a
                    # repair for it is already in flight.
                    self.recovery_inflation = max(0, self.recovery_inflation - newly + 1)
                    if self.snd_una not in self._episode_rtx and self.snd_una not in self.scoreboard:
                        self._episode_rtx.add(self.snd_una)
                        self._retransmit(self.snd_una)

            round_start = False
            if self.snd_una > self._round_end_seq:
                round_start = True
                self._round_end_seq = self.snd_nxt

            ack = AckInfo(newly, sample, now, self._is_app_limited())
            in_flight = self.in_flight
            self.ctl.on_ack(ack, in_flight, round_start, self.recovery_high is not None)

            if in_flight > 0:
                self._arm_rto()
            else:
                self._disarm_rto()
            self.try_send()
        elif ackno == self.snd_una and self.in_flight > 0:
            self.dup_acks += 1
            if self.recovery_high is not None:
                if not self._repair_one():
                    self.recovery_inflation += 1
                    self.try_send()
            elif self.dup_acks == DUP_ACK_THRESHOLD:
                self.recovery_high = self.snd_nxt
                self.recovery_inflation = DUP_ACK_THRESHOLD
                self._episode_rtx = {self.snd_una}
                self._repair_cursor = self.snd_una + 1
                self._retransmit(self.snd_una)
                self.ctl.on_loss(self.loop.now_us, "fast_retransmit")
                self.try_send()


def run(scenario: "ScenarioSpec") -> TraceSet:
    """Execute one scenario to its horizon and return the trace set.

    Output is a pure function of the scenario (including its seed): the
    event loop is single-threaded, ties are broken deterministically, and
    randomness only enters through the seeded loss injector and any seeded
    scenario construction. The conservation identity (transmissions equal
    receptions plus drops plus packets still in the network) is audited per
    flow at the end of the run and a violation raises SimulationError.
    """
    scenario.link.validate()
    flow_ids = [f.flow_id for f in scenario.flows]
    if len(set(flow_ids)) != len(flow_ids):
        raise ScenarioError(f"duplicate flow ids: {flow_ids}")
    if scenario.sample_us <= 0:
        raise ScenarioError("sample cadence must be > 0")
    if scenario.horizon_us < 0:
        raise ScenarioError("horizon must be >= 0")
    for f in scenario.flows:
        if f.source.kind not in ("greedy", "app_limited"):
            raise ScenarioError(f"unknown source kind {f.source.kind!r}")
        if f.source.kind == "app_limited" and (
            f.source.rate_bps is None or f.source.rate_bps <= 0
        ):
            raise ScenarioError(f"flow {f.flow_id}: app_limited source needs rate > 0")

    traces = TraceSet(
        mss_bytes=scenario.link.mtu_bytes,
        horizon_us=scenario.horizon_us,
        sample_us=scenario.sample_us,
        config=scenario.to_dict(),
    )
    if not scenario.flows:
        return traces

    loop = EventLoop()
    rng = random.Random(scenario.seed)
    mss = scenario.link.mtu_bytes
    base_rtt = scenario.link.base_rtt_us
    bdp = bdp_segments(scenario.link.initial_rate_bps, base_rtt, mss)
    capacity = math.ceil(scenario.buffer_bdp * bdp)

    injector = None
    if scenario.loss is not None:
        injector = LossInjector(
            rng,
            drop_at_us=scenario.loss.drop_at_us,
            drop_prob=scenario.loss.drop_prob,
            window_us=scenario.loss.window_us,
            jitter_us=scenario.loss.jitter_us,
        )

    bottleneck = Bottleneck(
        loop,
        capacity_segs=capacity,
        rate_bps=scenario.link.initial_rate_bps,
        prop_delay_us=scenario.link.prop_delay_us,
        injector=injector,
        mss_bytes=mss,
        debug=scenario.debug,
    )
    for at_us, rate in scenario.link.rate_schedule[1:]:
        loop.schedule(at_us, lambda r: bottleneck.set_rate(r), rate)

    senders: dict[str, Sender] = {}
    receivers: dict[str, Receiver] = {}
    for f in scenario.flows:
        controller = make_controller(f.algo, f.cubic, f.roccet, f.probe, mss)
        source = AppSource(
            f.source.kind, f.source.rate_bps, f.source.start_us, f.source.duration_us, mss
        )
        sender = Sender(
            loop, f.flow_id, controller, source, bottleneck, mss, f.sndbuf_segs
        )
        receiver = Receiver(loop, f.flow_id, mss, scenario.link.prop_delay_us)
        receiver.ack_sink = sender.on_ack_frame
        bottleneck.deliver_cb[f.flow_id] = receiver.on_segment
        senders[f.flow_id] = sender
        receivers[f.flow_id] = receiver
        traces.flows[f.flow_id] = FlowTrace(f.flow_id, f.algo, f.source.start_us)
        loop.schedule(f.source.start_us, sender.start)

    last_delivered = {fid: 0 for fid in flow_ids}
    last_sample_t = {fid: 0 for fid in flow_ids}

    def record_samples(t_us: int) -> None:
        queue_now = bottleneck.occupancy
        for f in scenario.flows:
            if t_us < f.source.start_us:
                continue
            fid = f.flow_id
            sender = senders[fid]
            receiver = receivers[fid]
            prev_t = max(last_sample_t[fid], f.source.start_us)
            delta = receiver.delivered_bytes - last_delivered[fid]
            traces.flows[fid].samples.append(
                Sample(
                    t_us=t_us,
                    dt_us=t_us - prev_t,
                    cwnd=sender.ctl.cwnd,
                    srtt_us=round(sender.srtt_us) if sender.srtt_us is not None else 0,
                    delivered_bytes=delta,
                    queue_segs=queue_now,
                )
            )
            last_delivered[fid] = receiver.delivered_bytes
            last_sample_t[fid] = t_us

    def sampler(t_us: int) -> None:
        record_samples(t_us)
        nxt = t_us + scenario.sample_us
        if nxt <= scenario.horizon_us:
            loop.schedule(nxt, sampler, nxt)

    loop.schedule(0, sampler, 0)
    loop.run_until(scenario.horizon_us)
    if scenario.horizon_us % scenario.sample_us != 0:
        record_samples(scenario.horizon_us)

    audit: dict[str, dict[str, int]] = {}
    for f in scenario.flows:
        fid = f.flow_id
        sender = senders[fid]
        receiver = receivers[fid]
        in_net = bottleneck.in_network_total(fid)
        drops = bottleneck.drops_by_flow.get(fid, 0)
        entry = {
            "segments_sent": sender.tx_count,
            "new_sent": sender.new_sent,
            "retransmits": sender.retransmits,
            "received": receiver.rx_count,
            "dropped": drops,
            "in_network_end": in_net,
            "delivered_bytes": receiver.delivered_bytes,
            "window_violations": sender.window_violations,
            "conserved": sender.tx_count == receiver.rx_count + drops + in_net,
        }
        audit[fid] = entry
        if not entry["conserved"]:
            raise SimulationError(
                f"conservation violated for flow {fid}: {entry}"
            )
        traces.flows[fid].ce_log = list(sender.ctl.ce_events)
        traces.flows[fid].counters = {
            k: v for k, v in entry.items() if k != "conserved"
        }
        launch_exits = getattr(sender.ctl, "launch_exits", None)
        if launch_exits:
            traces.flows[fid].extra["launch_exits"] = [
                [t / 1000, before, after] for t, before, after in launch_exits
            ]

    traces.audit = audit
    traces.drops = list(bottleneck.drop_log)
    traces.rate_changes = list(bottleneck.rate_log)
    traces.events_processed = loop.processed
    traces.debug_packets = bottleneck.debug_log
    return traces
