"""RFC 6298 oracle for the sender's smoothed RTT.

The trace's `srtt_ms` column and ROCCET's srRTT both read the sender's
smoothed RTT. This test rebuilds that estimate from the `debug=True`
packet log alone, without the simulator's code, and checks it against
every sample of the trace.

For one flow starting on an idle link, the handshake measures
`2 * prop + 1`. After it, every delivered segment is acknowledged one
propagation delay after its delivery, and that ACK echoes the segment's
send time, which is its enqueue time in the log: the ACK's sample is
`deliver_at + prop - enqueued`. Every ACK, duplicate or not, updates
`srtt += (sample - srtt) / 8` (RFC 6298 section 2.3). A trace sample taken
at an instant where no ACK lands must read `round(srtt)` over the ACKs
before it, and 0 before the handshake.

The sender runs that update on floats. A lockstep test below checks it,
bit for bit, against the update written with the integer sample as its
operand, over random sample streams.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import AppSource, EventLoop, Sender, run


def _rtt_events(spec, log):
    """(time, sample) of the handshake and of every ACK that arrives by
    the horizon, in arrival order."""
    prop = spec.link.prop_delay_us
    (flow,) = spec.flows
    start = flow.start_us
    events = [(start + 2 * prop + 1, 2 * prop + 1)]
    for _flow_id, _seq, enqueued, _served, _done, deliver_at, _rtx in log:
        if deliver_at + prop <= spec.horizon_us:
            events.append((deliver_at + prop, deliver_at + prop - enqueued))
    return events


# frozen-cwnd takes its two injected drops, steady's one-BDP buffer drops
# about a hundred segments, and bw-halving runs past its 15 s rate cut.
@pytest.mark.parametrize(
    "name, horizon_s, min_drops",
    [("frozen-cwnd", 6.0, 2), ("steady", 4.0, 50), ("bw-halving", 16.0, 0)],
)
def test_trace_srtt_is_the_rfc6298_estimate(name, horizon_s, min_drops):
    spec = builtin_scenario(name, seed=1, horizon_s=horizon_s)._replace(debug=True)
    traces = run(spec)
    assert len(traces.drops) >= min_drops
    events = _rtt_events(spec, traces.debug_packets)
    times = {t for t, _ in events}
    (flow_trace,) = traces.flows.values()
    srtt, i, checked = None, 0, 0
    for sample in flow_trace.samples:
        while i < len(events) and events[i][0] < sample.t_us:
            rtt = events[i][1]
            srtt = float(rtt) if srtt is None else srtt + (rtt - srtt) / 8
            i += 1
        if sample.t_us in times:
            continue  # an ACK lands at the sample instant: either may run first
        assert sample.srtt_us == (0 if srtt is None else round(srtt)), sample
        checked += 1
    assert checked > 0.9 * len(flow_trace.samples)


def _reference_estimates(samples):
    """RFC 6298 with the integer sample as an operand of every step:
    (srtt, rttvar, rto) after the handshake's sample and after each ACK's."""
    first, *rest = samples
    srtt = float(first)
    rttvar = first / 2.0
    margin = 4 * rttvar
    out = [(srtt, rttvar, round(srtt + (margin if margin > 200_000 else 200_000)))]
    for sample in rest:
        rttvar = rttvar + 0.25 * (abs(srtt - sample) - rttvar)
        srtt += 0.125 * (sample - srtt)
        margin = 4 * rttvar
        out.append((srtt, rttvar, round(srtt + (margin if margin > 200_000 else 200_000))))
    return out


def _sender_estimates(samples):
    """The same through a `Sender`: the handshake takes the first sample,
    and one ACK per later sample acknowledges one new segment. The window
    is zero, so nothing is sent."""
    acks = []
    ctl = SimpleNamespace(
        cwnd=0.0,
        pacing_segs_per_s=None,
        on_ack=lambda ack: acks.append((ack.rtt_sample_us, ack.srtt_us)),
    )
    loop = EventLoop()
    sender = Sender(loop, "f", ctl, AppSource("greedy", None, 0, None, 1500), bottleneck=None)
    first, *rest = samples
    sender._handshake_done(first)
    out = [(sender.srtt_us, sender.rttvar_us, sender.rto_us)]
    for sample in rest:
        sender.snd_nxt += 1
        loop.now_us += sample
        sender.on_ack_frame((sender.snd_nxt, sender.snd_nxt - 1, loop.now_us - sample))
        out.append((sender.srtt_us, sender.rttvar_us, sender.rto_us))
    # The controllers still see the integer sample, and the new estimate.
    assert acks == [(s, est[0]) for s, est in zip(samples, out)]
    assert all(type(sample) is int for sample, _ in acks)
    return out


def _bits(estimates):
    return [(srtt.hex(), rttvar.hex(), rto, type(rto)) for srtt, rttvar, rto in estimates]


@given(st.lists(st.integers(1, 2**40), min_size=1, max_size=60))
@example([1, 1, 1])  # the 200 ms floor throughout
@example([2**40, 1, 3, 2**40 - 1])  # far apart, either side of the floor
def test_float_update_matches_the_integer_operand_form(samples):
    assert _bits(_sender_estimates(samples)) == _bits(_reference_estimates(samples))
