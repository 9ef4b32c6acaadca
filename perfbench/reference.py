"""A fixed reference workload that measures the host's speed right now.

This host's speed changes in phases that last from seconds to minutes, so
one round's host time says as much about the phase as about roccet-lab.
The reference is a small discrete-event simulation in the benchmark's own
code, of the same kind as the simulator's inner loop (a heapq event queue,
slotted objects, a dict, bound-method dispatch, float arithmetic). It runs
between rounds and between sweep cells. Dividing a round's time by the
reference time measured around it cancels most of the phase; multiplying
by REF_S gives the round's time on a host where the reference takes REF_S.

The reference never changes with roccet-lab, so a faster or slower
program moves the ratio in full.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

REF_S = 0.05  # nominal reference time: run_s and setup_s are in these units
EVENTS = 50_000  # events per reference run, about REF_S on this host


class _Segment:
    __slots__ = ("seq", "sent_at", "acked", "weight")

    def __init__(self, seq: int, sent_at: int) -> None:
        self.seq = seq
        self.sent_at = sent_at
        self.acked = False
        self.weight = 1.0


class _MiniLoop:
    def __init__(self) -> None:
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.window = 10.0
        self.outstanding: dict[int, _Segment] = {}

    def schedule(self, at: int, fn, arg) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, fn, arg))

    def send(self, seq: int) -> None:
        segment = _Segment(seq, self.now)
        self.outstanding[seq] = segment
        self.schedule(self.now + 40, self.ack, segment)

    def ack(self, segment: _Segment) -> None:
        segment.acked = True
        self.window += 1.0 / self.window
        del self.outstanding[segment.seq]
        self.schedule(self.now + 1, self.send, segment.seq + int(self.window) % 3 + 1)

    def run(self, events: int) -> None:
        for flow in range(20):
            self.schedule(flow, self.send, flow * 1_000_000_000 + 1)
        pop = heapq.heappop
        for _ in range(events):
            self.now, _, fn, arg = pop(self.heap)
            fn(arg)


class Speed:
    """Reference timings taken through a run, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the reference once, with the cyclic collector off so the
        program's heap cannot slow it; return its host time."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            _MiniLoop().run(EVENTS)
            elapsed = perf_counter() - started
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed


def scaled(host_s: float, ref_s: float) -> float:
    """Host time rescaled to a host on which the reference takes REF_S."""
    return host_s * REF_S / ref_s
