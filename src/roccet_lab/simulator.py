"""Deterministic discrete-event dumbbell simulator.

One droptail bottleneck carries every flow's forward traffic; the reverse
(ACK) path is uncongested with fixed delay. Senders run a simplified
reliable transport: cumulative ACKs drive ACK clocking, three duplicate
ACKs trigger fast retransmit plus one congestion signal per loss episode,
and a retransmission timer (srtt plus a variance margin of at least
200 ms) backstops everything, opening an episode if none is open. An
episode ends at the ACK that reaches NewReno's "recover" point (RFC 6582
section 3.2). Receivers acknowledge every received segment.

The clock is integer microseconds. All event ties break on a monotonically
increasing sequence number, so two runs of the same scenario and seed
produce identical event orders and byte-identical traces.

Of a segment's three events, two ride FIFO lanes beside the event heap
(see `EventLoop`): its delivery to the receiver, because the bottleneck
makes delivery times strictly increasing, and its ACK, because every
receiver acknowledges after the same fixed delay. Service completions,
timers, wake-ups, rate changes and samples stay on the heap.

A segment is a plain `(flow_id, seq, sent_at_us, is_retransmit)` tuple:
the flow's id, its sequence number, the instant its sender stamped and
submitted it, and whether it is a retransmitted copy. Every segment is
the link's MSS long. It is an exact tuple rather than a named record
because it is built and freed once per segment, and CPython specializes
the indexing and unpacking of exact tuples only.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter, deque
from typing import TYPE_CHECKING, Callable

from .cc_types import AckInfo
from .controllers import make_controller
from .errors import ScenarioError, SimulationError
from .records import Record
from .trace import FlowTrace, Sample, TraceSet
from .units import bdp_segments

if TYPE_CHECKING:  # pragma: no cover
    from .harness import ScenarioSpec

DUP_ACK_THRESHOLD = 3
MIN_RTO_US = 200_000
INITIAL_RTO_US = 1_000_000
MAX_RTO_US = 60_000_000
_MIN_RTO = float(MIN_RTO_US)  # the RTO update's floor, on floats like the rest of it


_heappush = heapq.heappush  # bound once: it runs for every event
_NEVER = math.inf  # an instant that never comes


class EventLoop:
    """Time-ordered callback queue with deterministic tie-breaking.

    Every event is an `(at_us, seq, fn, arg)` tuple, and events run in
    `(at_us, seq)` order. `reserve_seq()` claims the next tie-break number
    (1, 2, ...) without queueing anything; `schedule` draws one for each
    event it queues. Passing a reserved number to `schedule_reserved` later
    orders that event exactly as if it had been scheduled at the moment of
    reservation.

    Deliveries (link to receivers) and ACKs (receivers to senders) are
    made in time order, so they wait in two FIFO lanes, `deliveries` and
    `acks`; every other event goes on `heap`, whose never-due sentinel
    keeps it from running empty. `run_until` runs the smallest of the
    three heads, the event one heap of them all would pop, as long as each
    lane stays sorted: `delivery_lane` and `ack_lane` say why they do.

    To pick it, `run_until` reads each head once and compares integer
    times, and the tie-break numbers only when two times are equal: a
    tuple comparison and a `deque` index have no specialized form in
    CPython 3.11, an integer comparison has. Each queue then has its own
    branch that pops the event and calls it. A delivery always calls
    `Receiver.on_segment` and an ACK `Sender.on_ack_frame`, so each of
    those call sites sees one function and the interpreter specializes
    it; one shared site would see every kind of event and would not.
    """

    __slots__ = (
        "now_us", "heap", "deliveries", "acks", "reserve_seq", "processed",
        "_delivery_lane_taken", "_ack_delay_us",
    )

    def __init__(self) -> None:
        self.now_us = 0
        self.heap: list[tuple] = [(_NEVER, _NEVER, None, None)]
        self.deliveries: deque[tuple[int, int, Callable, object]] = deque()
        self.acks: deque[tuple[int, int, Callable, object]] = deque()
        self.reserve_seq: Callable[[], int] = itertools.count(1).__next__
        self.processed = 0
        self._delivery_lane_taken = False
        self._ack_delay_us: int | None = None

    def schedule(self, at_us: int, fn: Callable, arg: object = None) -> None:
        _heappush(self.heap, (at_us, self.reserve_seq(), fn, arg))

    def schedule_reserved(self, at_us: int, seq: int, fn: Callable, arg: object = None) -> None:
        _heappush(self.heap, (at_us, seq, fn, arg))

    def delivery_lane(self) -> deque:
        """The delivery lane, for the one bottleneck that feeds it, which
        makes its delivery times strictly increasing; two links' need not
        interleave in order, so a second is refused."""
        if self._delivery_lane_taken:
            raise SimulationError("this loop's delivery lane already has a link")
        self._delivery_lane_taken = True
        return self.deliveries

    def ack_lane(self, delay_us: int) -> deque:
        """The ACK lane, for a receiver that queues each ACK `delay_us`
        after the instant it is made. The clock never goes back, so ACKs
        made with one fixed delay come due in the order they are appended;
        a second delay could put a later ACK before an earlier one, so it
        is refused."""
        if self._ack_delay_us is None:
            self._ack_delay_us = delay_us
        elif delay_us != self._ack_delay_us:
            raise SimulationError(
                f"ACK delay {delay_us} us differs from this loop's {self._ack_delay_us} us"
            )
        return self.acks

    def pending(self, fn: Callable) -> list:
        """Arguments of the queued events that will call `fn`."""
        return [
            arg
            for queue in (self.heap, self.deliveries, self.acks)
            for _, _, queued, arg in queue
            if queued == fn
        ]

    def run_until(self, end_us: int) -> None:
        """Dispatch every event due by `end_us`, then set the clock to it.

        The cyclic garbage collector is paused while events run and left
        as the caller had it afterwards: events allocate only tuples,
        integers and other objects without reference cycles, which
        reference counting frees, so a collection there would only walk
        the live heap for nothing.
        """
        heap = self.heap
        pop = heapq.heappop
        deliveries = self.deliveries
        acks = self.acks
        processed = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                event = heap[0]
                at = event[0]
                queue = heap
                if deliveries:
                    head = deliveries[0]
                    head_at = head[0]
                    if head_at < at or head_at == at and head[1] < event[1]:
                        event = head
                        at = head_at
                        queue = deliveries
                if acks:
                    head = acks[0]
                    head_at = head[0]
                    if head_at < at or head_at == at and head[1] < event[1]:
                        event = head
                        at = head_at
                        queue = acks
                if at > end_us:
                    break
                self.now_us = at
                processed += 1
                # One call site per queue: a lane's events all call one
                # function, so the call specializes there.
                if queue is heap:
                    pop(heap)
                    event[2](event[3])
                elif queue is deliveries:
                    deliveries.popleft()
                    event[2](event[3])
                else:
                    acks.popleft()
                    event[2](event[3])
        finally:
            if collecting:
                gc.enable()
        self.processed += processed
        self.now_us = end_us


class LinkSpec(Record):
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

    def queue_capacity(self, buffer_bdp: float) -> int:
        """The droptail queue's size in segments: `buffer_bdp` times the
        bandwidth-delay product at the initial rate, rounded up."""
        try:
            bdp = bdp_segments(self.initial_rate_bps, self.base_rtt_us, self.mtu_bytes)
            return math.ceil(buffer_bdp * bdp)
        except OverflowError:
            raise ScenarioError(
                f"queue capacity buffer_bdp x BDP is not finite: rate "
                f"{self.initial_rate_bps:.3g} bps, base RTT {self.base_rtt_us:.3g} us"
            ) from None


class LossInjector:
    """Abstract stand-in for lower-layer loss and delay jitter.

    Drops the first forward packet at or after each configured time, drops
    probabilistically inside the configured window, and can add uniform
    extra delay to deliveries inside the window. `quiet_until_us` and
    `jitters` let the bottleneck skip the calls that cannot act: a skipped
    call would neither drop nor draw from the random stream.
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
        self.jitters = jitter_us > 0

    def quiet_until_us(self, now_us: int) -> int | float:
        """First instant at or after which `should_drop` may act (drop or
        draw a random number), given the calls made so far; `now_us`, the
        time of the latest call, is only used to retire an elapsed window.
        Infinite when it never will."""
        at = (
            self._drop_times[self._next_drop]
            if self._next_drop < len(self._drop_times)
            else _NEVER
        )
        window = self._window
        if self._drop_prob > 0.0 and window is not None and now_us < window[1]:
            at = min(at, window[0])
        return at

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
    service time mss_bytes / current rate, then one-way propagation to the
    receiver. A packet already in service completes at the rate that was
    current when its service began. `occupancy` is the FIFO's length, at
    most `capacity`; the packet in service is not in the FIFO. The debug
    log derives each packet's enqueue time, its `sent_at_us` stamp (a
    sender submits a segment as it stamps it), and its service start, the
    later of that and the previous completion."""

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
        self.capacity = capacity_segs
        self._fifo: deque[tuple] = deque()
        self.prop_delay_us = prop_delay_us
        self.mss_bytes = mss_bytes
        self.injector = injector
        # The FIFO is empty whenever nothing is in service; a packet can be
        # in service with the FIFO empty.
        self.in_service: tuple | None = None
        self.deliver_cb: dict[str, Callable[[tuple], None]] = {}
        self.drop_log: list[tuple[int, str, str]] = []
        self.debug_log: list | None = [] if debug else None
        self._last_done_us = 0  # kept for the debug log only
        self._last_delivery_us = 0
        self.set_rate(rate_bps)
        self._heap = loop.heap
        # Callables held in attributes are called through a local: a
        # method-style call `self._next_seq()` does not specialize.
        self._deliver = loop.delivery_lane().append
        self._next_seq = loop.reserve_seq
        # submit asks the injector only from this instant on; _service_done
        # only when it jitters.
        self._drops_from_us = _NEVER if injector is None else injector.quiet_until_us(0)
        self._jitters = injector is not None and injector.jitters

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def set_rate(self, rate_bps: int) -> None:
        self._service_us = max(1, round(self.mss_bytes * 8_000_000 / rate_bps))

    def submit(self, pkt: tuple) -> bool:
        """Sender hands over one segment; returns False when dropped."""
        now = self.loop.now_us
        if now >= self._drops_from_us:
            injector = self.injector
            dropped = injector.should_drop(now)
            self._drops_from_us = injector.quiet_until_us(now)
            if dropped:
                self.drop_log.append((now, pkt[0], "injected"))
                return False
        if self.in_service is None:  # an idle link serves it at once
            self.in_service = pkt
            next_seq = self._next_seq
            _heappush(self._heap, (now + self._service_us, next_seq(), self._service_done, pkt))
            return True
        fifo = self._fifo
        if len(fifo) < self.capacity:  # droptail: a full queue drops
            fifo.append(pkt)
            return True
        self.drop_log.append((now, pkt[0], "queue_full"))
        return False

    def _service_done(self, pkt: tuple) -> None:
        now = self.loop.now_us
        deliver_at = now + self.prop_delay_us
        if self._jitters:
            deliver_at += self.injector.extra_delay_us(now)
        # Jitter wobbles latency but never reorders the link's FIFO, and
        # the delivery lane stays sorted.
        if deliver_at <= self._last_delivery_us:
            deliver_at = self._last_delivery_us + 1
        self._last_delivery_us = deliver_at
        if self.debug_log is not None:
            flow_id, seq, enq, is_retransmit = pkt
            self.debug_log.append(
                (flow_id, seq, enq, max(enq, self._last_done_us), now, deliver_at, is_retransmit)
            )
            self._last_done_us = now
        deliver = self._deliver
        next_seq = self._next_seq
        deliver((deliver_at, next_seq(), self.deliver_cb[pkt[0]], pkt))
        if not self._fifo:
            self.in_service = None
            return
        # Start serving the next queued packet: on a busy link this is where
        # nearly every service starts.
        pkt = self.in_service = self._fifo.popleft()
        _heappush(self._heap, (now + self._service_us, next_seq(), self._service_done, pkt))

    def in_network_total(self, flow_id: str) -> int:
        """The flow's segments this bottleneck accepted and has not yet
        delivered, counted where they are: queued, in service, or
        propagating (their delivery events still queued)."""
        held = list(self._fifo)
        if self.in_service is not None:
            held.append(self.in_service)
        deliver = self.deliver_cb.get(flow_id)
        if deliver is not None:
            held += self.loop.pending(deliver)
        return sum(pkt[0] == flow_id for pkt in held)

    def probe_rtt_us(self) -> int:
        """Round trip a minimal control packet would measure right now:
        both propagation legs plus the wait behind the current backlog."""
        backlog = self.occupancy + (1 if self.in_service is not None else 0)
        return 2 * self.prop_delay_us + backlog * self._service_us + 1


class AppSource:
    """Data availability model: greedy (unlimited) or rate-limited.

    For rate-limited sources availability is computed analytically from
    elapsed time. The sender asks only `availability`, which also says how
    long the count stays true, so the sender asks again only when the
    answer can differ, and wakes then once it runs dry;
    `available_segments` and `next_avail_us` give the two halves of that
    answer on their own. All of it is exact integer arithmetic: rates are
    whole bits per second.
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
        self._seg_bit_us = 8 * mss_bytes * 1_000_000  # one segment, in bit-microseconds

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
        t = self.start_us - (-need_bit_us // self.rate_bps)  # ceiling division
        if self.duration_us is not None and t > self.start_us + self.duration_us:
            return None
        return t

    def availability(self, now_us: int) -> tuple[int | None, int | float]:
        """`available_segments(now_us)`, and the first instant after
        `now_us` at which that answer changes (infinite if it never does):
        `next_avail_us(count + 1)` for a rate-limited count, which grows by
        one there, and the end of a greedy source with one, which turns
        from None to 0 there. The sender asks only this, so it works both
        out itself."""
        start = self.start_us
        duration = self.duration_us
        if self.kind == "greedy":
            if duration is None:
                return None, _NEVER
            end = start + duration
            return (None, end) if now_us < end else (0, _NEVER)
        unit = self._seg_bit_us
        rate = self.rate_bps
        elapsed = now_us - start
        if duration is not None and elapsed > duration:
            elapsed = duration
        count = (rate * elapsed) // unit if elapsed > 0 else 0
        nxt = start - (-(count + 1) * unit // rate)  # ceiling division
        if duration is not None and nxt > start + duration:
            return count, _NEVER
        return count, nxt


class SeqRuns:
    """A set of sequence numbers kept as sorted, disjoint, non-adjacent
    half-open runs: run i is `[lo[i], hi[i])`. Out-of-order data arrives
    in contiguous blocks above a few holes (RFC 2018's SACK blocks), so
    its size follows the holes, not the segments held.

    `lo` is empty exactly when the set is, so callers test `runs.lo` for
    truth: testing the object itself would call `__bool__`.
    """

    __slots__ = ("lo", "hi")

    def __init__(self) -> None:
        self.lo: list[int] = []
        self.hi: list[int] = []

    def __contains__(self, seq: int) -> bool:
        i = bisect_right(self.lo, seq)
        return i > 0 and seq < self.hi[i - 1]

    def add(self, seq: int) -> None:
        """Add `seq`; O(1) when it extends or follows the top run."""
        lo = self.lo
        hi = self.hi
        if not lo or seq > hi[-1]:
            lo.append(seq)
            hi.append(seq + 1)
            return
        if seq == hi[-1]:
            hi[-1] = seq + 1
            return
        i = bisect_right(lo, seq)  # runs 0..i-1 start at or below seq
        if i and seq <= hi[i - 1]:
            if seq < hi[i - 1]:
                return  # a member already
            if lo[i] == seq + 1:  # fills the gap between runs i-1 and i
                hi[i - 1] = hi[i]
                del lo[i], hi[i]
            else:
                hi[i - 1] = seq + 1
        elif lo[i] == seq + 1:
            lo[i] = seq
        else:
            lo.insert(i, seq)
            hi.insert(i, seq + 1)

    def discard_below(self, seq: int) -> None:
        """Remove every member below `seq`."""
        lo = self.lo
        i = bisect_right(self.hi, seq)  # runs 0..i-1 end at or below seq
        if i:
            del lo[:i], self.hi[:i]
        if lo and lo[0] < seq:
            lo[0] = seq

    def take_from(self, seq: int) -> int:
        """Remove the lowest run if it starts at `seq` and return its end;
        otherwise return `seq`. For a `seq` at or below every member, as
        the receiver's `rcv_nxt` is, that is the run starting at `seq`."""
        lo = self.lo
        if lo and lo[0] == seq:
            hi = self.hi
            end = hi[0]
            del lo[0], hi[0]
            return end
        return seq

    def first_absent(self, seq: int) -> int:
        """The first non-member at or after `seq`."""
        i = bisect_right(self.lo, seq)
        if i:
            end = self.hi[i - 1]
            if end > seq:
                return end
        return seq


class Receiver:
    """In-order reassembly with one cumulative ACK per received segment;
    `rcv_nxt` segments, times the link's MSS, are delivered in order.

    `ooo` holds the segments received above `rcv_nxt` as `SeqRuns`, so a
    backlog above a hole costs one run, not one entry per segment. A
    segment that fills the hole at `rcv_nxt` takes the run above it whole.
    """

    def __init__(self, loop: EventLoop, ack_delay_us: int) -> None:
        self.loop = loop
        self.ack_delay_us = ack_delay_us
        self.rcv_nxt = 0
        self.ooo = SeqRuns()
        self.rx_count = 0
        self.ack_sink: Callable[[int], None] | None = None
        # Called through locals, as in Bottleneck.
        self._queue_ack = loop.ack_lane(ack_delay_us).append
        self._next_seq = loop.reserve_seq

    def on_segment(self, pkt: tuple) -> None:
        self.rx_count += 1
        _, seq, sent_at_us, _ = pkt
        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt:
            rcv_nxt += 1
            ooo = self.ooo
            if ooo.lo:
                rcv_nxt = ooo.take_from(rcv_nxt)
            self.rcv_nxt = rcv_nxt
        elif seq > rcv_nxt:
            self.ooo.add(seq)
        # The ACK names the segment that triggered it (the selective-ACK
        # information a one-ACK-per-segment receiver has) and echoes its
        # send timestamp, so RTT samples survive retransmissions the way
        # they do with TCP timestamps.
        queue_ack = self._queue_ack
        next_seq = self._next_seq
        queue_ack(
            (
                self.loop.now_us + self.ack_delay_us,
                next_seq(),
                self.ack_sink,
                (rcv_nxt, seq, sent_at_us),
            )
        )


class _LossEpisode:
    """A sender's open loss episode: `snd_nxt` at its start (`high`), the
    window inflation, the segments it retransmitted (read only at or above
    `snd_una`, so never pruned) and where the hole scan resumes.

    `repaired` is a plain set: it gains one entry per retransmission, not
    one per segment held above a hole, so unlike the sender's scoreboard
    it stays small without `SeqRuns`."""

    __slots__ = ("high", "inflation", "repaired", "cursor")

    def __init__(self, high: int, inflation: int, repaired: set[int], cursor: int) -> None:
        self.high = high
        self.inflation = inflation
        self.repaired = repaired
        self.cursor = cursor


class Sender:
    """Window-driven reliable sender with ACK clocking, fast retransmit,
    NewReno-style partial-ACK repair, and an RTO backstop.

    `scoreboard` holds, as `SeqRuns`, the segments at or above `snd_una`
    that ACKs name as received; each ACK that moves `snd_una` discards
    those below it. During an episode the receiver's backlog above a hole
    grows the top run, so the scoreboard stays as small as the holes, and
    `_repair_one` steps over a whole run at once.

    `episode` is the open loss episode or None. Only `_start_episode`
    opens one, resends `snd_una` and calls `on_loss`: at the third
    duplicate ACK, or at a timeout with none open (its `by_timeout`
    branch). The ACK that covers `high` ends it; a timeout inside it only
    resends `snd_una`.

    Sequence numbers are never reused, so the new segments sent so far
    number `snd_nxt`, and all transmissions `snd_nxt + retransmits`; the
    end-of-run audit derives both from those two fields instead of
    counting each segment.

    The source's answer is kept with the instant it stops being true
    (`_avail`, `_avail_until`). The handshake seeds the RFC 6298
    estimator, and data flows once it has; every ACK updates it once, and
    one `AckInfo` is refilled for every ACK that advances `snd_una`;
    controllers read it during `on_ack` only.
    """

    def __init__(
        self,
        loop: EventLoop,
        flow_id: str,
        controller,
        source: AppSource,
        bottleneck: Bottleneck,
        sndbuf_segs: int | None = None,
    ) -> None:
        self.loop = loop
        self.flow_id = flow_id
        self.ctl = controller
        self.source = source
        self.bottleneck = bottleneck
        self.sndbuf = sndbuf_segs

        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.episode: _LossEpisode | None = None
        self.scoreboard = SeqRuns()
        self.max_received = -1
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
        self._avail: int | None = None
        self._avail_until: int | float = 0  # ask the source at the first look
        self._ack = AckInfo(newly_acked=0, rtt_sample_us=0, srtt_us=0.0, now_us=0)

        self.retransmits = 0

    # -- helpers ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

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
        reserve_seq = loop.reserve_seq
        self._rto_seq = reserve_seq()
        if self._rto_entry_seq is None or self._rto_entry_at > at:
            self._queue_rto()

    def _queue_rto(self) -> None:
        self._rto_entry_at = self._rto_at
        self._rto_entry_seq = self._rto_seq
        self.loop.schedule_reserved(self._rto_at, self._rto_seq, self._rto_cb, self._rto_seq)

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
        self.dup_acks = 0
        if self.episode is None:
            self._start_episode(by_timeout=True)
        else:
            self._retransmit(self.snd_una)
        self._arm_rto()
        self.try_send()

    def _start_episode(self, by_timeout: bool) -> None:
        snd_una = self.snd_una
        if by_timeout:  # no inflation, and snd_una may be resent by a repair
            self.episode = _LossEpisode(self.snd_nxt, 0, set(), snd_una)
        else:
            self.episode = _LossEpisode(self.snd_nxt, DUP_ACK_THRESHOLD, {snd_una}, snd_una + 1)
        self._retransmit(snd_una)
        self.ctl.on_loss(self.loop.now_us)

    # -- transmit paths ----------------------------------------------------

    def start(self, _arg: object = None) -> None:
        """Connection setup: a handshake round trip through the current
        queue measures the first RTT sample before any data flows (the way
        a SYN exchange seeds a kernel's estimators), then transmission
        begins."""
        sample = self.bottleneck.probe_rtt_us()
        self.loop.schedule(self.loop.now_us + sample, self._handshake_done, sample)

    def _handshake_done(self, sample: int) -> None:
        # The first sample seeds the estimator (RFC 6298 section 2.2).
        self.srtt_us = srtt = float(sample)
        self.rttvar_us = rttvar = sample / 2.0
        margin = 4.0 * rttvar
        self.rto_us = round(srtt + (margin if margin > _MIN_RTO else _MIN_RTO))
        self.ctl.on_ack(
            AckInfo(newly_acked=0, rtt_sample_us=sample, srtt_us=srtt, now_us=self.loop.now_us)
        )
        self.try_send()

    def _retransmit(self, seq: int) -> None:
        self.retransmits += 1
        if self._rto_at is None:
            self._arm_rto()
        self.bottleneck.submit((self.flow_id, seq, self.loop.now_us, True))

    def try_send(self, woken_for: int | None = None) -> None:
        """Send what the window, the source and the pacing allow now.

        When that is cut short by the source or the pacing, a wake-up is
        queued for the instant more can go: an event that calls this with
        `woken_for` set to that instant. Only the earliest wake-up is kept
        (`_pending_wake`); a wake-up that finds a different one pending is
        stale and does nothing.
        """
        if woken_for is not None:
            if woken_for != self._pending_wake:
                return
            self._pending_wake = None
        if self.srtt_us is None:
            return  # the handshake is not done
        now = self.loop.now_us
        if now >= self._avail_until:
            self._avail, self._avail_until = self.source.availability(now)
        avail = self._avail
        seq = self.snd_nxt
        if avail is not None and seq >= avail:
            # Dry: all this call could do is queue the wake for segment
            # seq, which comes at `_avail_until`: a rate-limited count
            # rises one by one, so seq == avail, and a source that has
            # ended never changes again (`_avail_until` infinite). With a
            # wake queued at or before that instant there is nothing to do.
            pending = self._pending_wake
            if self._avail_until == _NEVER or (
                pending is not None and pending <= self._avail_until
            ):
                return
        ctl = self.ctl
        pacing = ctl.pacing_segs_per_s
        # Without SACK the sender cannot tell holes from in-flight data, so
        # while repairing an episode the window is artificially inflated by
        # the duplicate-ACK count (RFC 5681 style); otherwise every lost
        # burst would freeze transmission for the whole repair.
        window = int(ctl.cwnd)
        if self.episode is not None:
            window += self.episode.inflation
        if self.sndbuf is not None and self.sndbuf < window:
            window = self.sndbuf
        # Sending touches neither the controller, snd_una nor the clock, so
        # the window and the data available stay fixed for this burst.
        limit = self.snd_una + window
        while seq < limit:
            if avail is not None and seq >= avail:
                wake = self._avail_until
                if wake == _NEVER:
                    return
                break
            if pacing is not None and pacing > 0:
                if now < self._pace_next_us:
                    wake = self._pace_next_us
                    break
                interval = max(1, round(1_000_000 / pacing))
                self._pace_next_us = max(self._pace_next_us, now) + interval
            self.snd_nxt = seq + 1
            # _retransmit's send, for new data, inline: once per segment sent
            if self._rto_at is None:
                self._arm_rto()
            self.bottleneck.submit((self.flow_id, seq, now, False))
            seq += 1
        else:
            return  # the window is full: the next ACK sends more
        pending = self._pending_wake
        if pending is None or pending > wake:
            self._pending_wake = wake
            loop = self.loop
            reserve_seq = loop.reserve_seq
            _heappush(loop.heap, (wake, reserve_seq(), self.try_send, wake))

    # -- receive path ------------------------------------------------------

    def _repair_one(self, episode: _LossEpisode) -> bool:
        """Retransmit the lowest hole deemed lost (three segments received
        above it), at most one per arriving ACK so repairs stay ACK-clocked.
        Returns True when a retransmission went out."""
        high = episode.high
        cursor = max(episode.cursor, self.snd_una)
        first_absent = self.scoreboard.first_absent
        repaired = episode.repaired
        while cursor < high:
            cursor = first_absent(cursor)
            if cursor >= high:
                cursor = high
                break
            if cursor in repaired:
                cursor += 1
                continue
            if self.max_received - cursor >= DUP_ACK_THRESHOLD:
                repaired.add(cursor)
                episode.cursor = cursor + 1
                self._retransmit(cursor)
                return True
            break
        episode.cursor = cursor
        return False

    def on_ack_frame(self, frame: tuple[int, int, int]) -> None:
        ackno, rseq, tsecr = frame
        loop = self.loop
        now = loop.now_us
        # RFC 6298 section 2.3, once per ACK. Timestamp echo dates every ACK,
        # retransmitted copies' too, so the sample is always unambiguous.
        # All of it runs on floats, which the interpreter specializes: the
        # sample, an int below 2**53, converts exactly, so no bit moves.
        sample = now - tsecr
        rtt = float(sample)
        srtt = self.srtt_us
        rttvar = self.rttvar_us
        rttvar += 0.25 * (abs(srtt - rtt) - rttvar)
        srtt += 0.125 * (rtt - srtt)
        self.srtt_us = srtt
        self.rttvar_us = rttvar
        # Variance term floored at the minimum so the timer keeps a real
        # margin over srtt; otherwise a calm standing queue drives rttvar
        # to zero and any fluctuation fires spurious timeouts.
        margin = 4.0 * rttvar
        self.rto_us = round(srtt + (margin if margin > _MIN_RTO else _MIN_RTO))
        snd_una = self.snd_una
        if rseq > self.max_received:
            self.max_received = rseq
        # The scoreboard holds segments at or above snd_una; one below this
        # ACK's cumulative point would be discarded again below, so it is
        # not added.
        if rseq >= snd_una and rseq >= ackno:
            self.scoreboard.add(rseq)
        if ackno > snd_una:
            newly = ackno - snd_una
            scoreboard = self.scoreboard
            if scoreboard.lo:
                scoreboard.discard_below(ackno)
            self.snd_una = ackno
            self.dup_acks = 0

            episode = self.episode
            if episode is not None:
                if ackno >= episode.high:
                    self.episode = episode = None
                else:
                    # Partial ACK: the new front segment is a hole unless a
                    # repair for it is already in flight.
                    episode.inflation = max(0, episode.inflation - newly + 1)
                    if ackno not in episode.repaired and ackno not in scoreboard:
                        episode.repaired.add(ackno)
                        self._retransmit(ackno)

            round_start = False
            if ackno > self._round_end_seq:
                round_start = True
                self._round_end_seq = self.snd_nxt

            snd_nxt = self.snd_nxt
            in_flight = snd_nxt - ackno
            ctl = self.ctl
            # App-limited: the window has headroom that the source's data
            # or the send buffer cannot fill.
            app_limited = False
            headroom = int(ctl.cwnd) - in_flight
            if headroom > 0:
                if now >= self._avail_until:
                    self._avail, self._avail_until = self.source.availability(now)
                avail = self._avail
                if avail is not None and avail - snd_nxt < headroom:
                    app_limited = True
                else:
                    sndbuf = self.sndbuf
                    app_limited = sndbuf is not None and sndbuf - in_flight < headroom
            ack = self._ack
            ack.newly_acked = newly
            ack.rtt_sample_us = sample
            ack.srtt_us = srtt
            ack.now_us = now
            ack.in_flight = in_flight
            ack.round_start = round_start
            ack.in_recovery = episode is not None
            ack.is_app_limited = app_limited
            ctl.on_ack(ack)

            if in_flight > 0:
                # _arm_rto, inline
                at = now + self.rto_us
                self._rto_at = at
                reserve_seq = loop.reserve_seq
                self._rto_seq = reserve_seq()
                if self._rto_entry_seq is None or self._rto_entry_at > at:
                    self._queue_rto()
            else:
                self._rto_at = None  # disarm
            self.try_send()
            return
        if ackno == snd_una and self.snd_nxt > snd_una:
            self.dup_acks += 1
            if self.episode is not None:
                if not self._repair_one(self.episode):
                    self.episode.inflation += 1
                    self.try_send()
            elif self.dup_acks == DUP_ACK_THRESHOLD:
                self._start_episode(by_timeout=False)
                self.try_send()


def run(scenario: "ScenarioSpec") -> TraceSet:
    """Execute one scenario to its horizon and return the trace set.

    Output is a pure function of the scenario (including its seed): the
    event loop is single-threaded, ties are broken deterministically, and
    randomness only enters through the seeded loss injector and any seeded
    scenario construction. The conservation identity (transmissions equal
    receptions plus drops plus packets still in the network) is audited per
    flow at the end of the run and a violation raises SimulationError.
    Either way the run breaks its own reference cycles first, so reference
    counting frees it once the caller drops the traces.

    The audit's `window_violations` is always 0: `try_send` stops at the
    window before each send, so no in-loop count could ever see one (the
    packet-log oracle in the tests checks window obedience instead). The
    key stays so that `events v1` keeps its shape.
    """
    scenario.validate(require_flows=False)
    traces = TraceSet(horizon_us=scenario.horizon_us, config=scenario.to_dict())
    if not scenario.flows:
        return traces

    loop = EventLoop()
    rng = random.Random(scenario.seed)
    mss = scenario.link.mtu_bytes

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
        capacity_segs=scenario.link.queue_capacity(scenario.buffer_bdp),
        rate_bps=scenario.link.initial_rate_bps,
        prop_delay_us=scenario.link.prop_delay_us,
        injector=injector,
        mss_bytes=mss,
        debug=scenario.debug,
    )
    for at_us, rate in scenario.link.rate_schedule[1:]:
        loop.schedule(at_us, bottleneck.set_rate, rate)

    # One row per flow, in scenario order: start, sender, receiver, the
    # samples' append, and the delivered bytes and time of its last sample.
    rows: list[list] = []
    for f in scenario.flows:
        controller = make_controller(f)
        source = AppSource(
            f.source.kind, f.source.rate_bps, f.source.start_us, f.source.duration_us, mss
        )
        sender = Sender(loop, f.flow_id, controller, source, bottleneck, f.sndbuf_segs)
        receiver = Receiver(loop, scenario.link.prop_delay_us)
        receiver.ack_sink = sender.on_ack_frame
        bottleneck.deliver_cb[f.flow_id] = receiver.on_segment
        flow_trace = traces.flows[f.flow_id] = FlowTrace(f.flow_id, f.algo, f.source.start_us)
        rows.append([f.source.start_us, sender, receiver, flow_trace.samples.append, 0, 0])
        loop.schedule(f.source.start_us, sender.start)

    def record_samples(t_us: int) -> None:
        queue_now = bottleneck.occupancy
        for row in rows:
            start_us, sender, receiver, append, last_delivered, last_t = row
            if t_us < start_us:
                continue
            srtt = sender.srtt_us
            delivered = receiver.rcv_nxt * mss
            # Sample(t_us, dt_us, cwnd, srtt_us, delivered_bytes, queue_segs)
            append(
                Sample(
                    t_us,
                    t_us - (last_t if last_t > start_us else start_us),
                    sender.ctl.cwnd,
                    round(srtt) if srtt is not None else 0,
                    delivered - last_delivered,
                    queue_now,
                )
            )
            row[4] = delivered
            row[5] = t_us

    def sampler(t_us: int) -> None:
        record_samples(t_us)
        nxt = t_us + scenario.sample_us
        if nxt <= scenario.horizon_us:
            loop.schedule(nxt, sampler, nxt)

    loop.schedule(0, sampler, 0)
    try:
        loop.run_until(scenario.horizon_us)
        if scenario.horizon_us % scenario.sample_us != 0:
            record_samples(scenario.horizon_us)

        audit: dict[str, dict[str, int]] = {}
        dropped = Counter(fid for _, fid, _ in bottleneck.drop_log)
        for f, (_, sender, receiver, *_) in zip(scenario.flows, rows):
            fid = f.flow_id
            in_net = bottleneck.in_network_total(fid)
            drops = dropped[fid]
            sent = sender.snd_nxt + sender.retransmits
            entry = {
                "segments_sent": sent,
                "new_sent": sender.snd_nxt,
                "retransmits": sender.retransmits,
                "received": receiver.rx_count,
                "dropped": drops,
                "in_network_end": in_net,
                "delivered_bytes": receiver.rcv_nxt * mss,
                "window_violations": 0,
                "conserved": sent == receiver.rx_count + drops + in_net,
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
    finally:
        # Break the run's three reference cycles, so that reference
        # counting frees it once the caller drops the traces (the collector
        # is paused in run_until): queued events hold the components, which
        # hold the loop; the delivery callbacks lead to the receivers, their
        # senders and back to the link; the sampler holds itself through its
        # cell. The audit above reads the queues and the callbacks first.
        # The heap and lanes are cleared in place: the link and the
        # receivers hold their appends.
        loop.heap.clear()
        loop.deliveries.clear()
        loop.acks.clear()
        bottleneck.deliver_cb.clear()
        del sampler

    traces.audit = audit
    traces.drops = list(bottleneck.drop_log)
    # The schedule's entries that ran; run_until runs one due at the horizon.
    traces.rate_changes = [e for e in scenario.link.rate_schedule if e[0] <= scenario.horizon_us]
    traces.events_processed = loop.processed
    traces.debug_packets = bottleneck.debug_log
    return traces
