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
"""

import pytest

from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import run


def _rtt_events(spec, log):
    """(time, sample) of the handshake and of every ACK that arrives by
    the horizon, in arrival order."""
    prop = spec.link.prop_delay_us
    (flow,) = spec.flows
    start = flow.source.start_us
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
