"""Queueing oracle for the bottleneck link.

It rebuilds the link's two service rules from the `debug=True` packet
log and `traces.rate_changes` alone, without the simulator's code:

- the link is work-conserving: each service starts at the later of the
  segment's enqueue time and the previous service's end;
- a service lasts `max(1, round(mtu * 8e6 / rate))` us at the rate in
  force when it *started*, so a segment in service when the rate changes
  finishes at the old rate. A change at an instant is in force for a
  service starting then: the change was queued before the run began.

The log lists segments as their service ends, which on one server is the
order they were served in.

An in-order receiver rebuilt from the same log must also agree with each
flow's `delivered_bytes` in the run's audit.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from test_byte_identity import run_case
from test_event_lanes import scenarios

from roccet_lab.simulator import run


def _mismatches(log, rate_changes, mtu_bytes):
    times = [t for t, _ in rate_changes]
    previous_end = 0
    bad = []
    for entry in log:
        _flow, _seq, enqueued, started, ended, _deliver, _rtx = entry
        rate = rate_changes[bisect_right(times, started) - 1][1]
        if started != max(enqueued, previous_end):
            bad.append(("not work-conserving", previous_end, entry))
        if ended - started != max(1, round(mtu_bytes * 8e6 / rate)):
            bad.append(("service time", rate, entry))
        previous_end = ended
    return bad


def _in_order_bytes(log, horizon_us, mtu_bytes):
    """Each flow's bytes delivered in order by the horizon: the segments
    that reach the receiver by then, counted up from seq 0 to the first
    one missing."""
    arrived = {}
    for flow, seq, _enqueued, _started, _ended, deliver_at, _rtx in log:
        if deliver_at <= horizon_us:
            arrived.setdefault(flow, set()).add(seq)
    delivered = {}
    for flow, seqs in arrived.items():
        rcv_nxt = 0
        while rcv_nxt in seqs:
            rcv_nxt += 1
        delivered[flow] = rcv_nxt * mtu_bytes
    return delivered


@settings(max_examples=40, deadline=None)
@given(spec=scenarios())
def test_link_rules_and_in_order_delivery_hold_on_random_scenarios(spec):
    traces = run(spec._replace(debug=True))
    log, mtu_bytes = traces.debug_packets, spec.link.mtu_bytes
    assert _mismatches(log, traces.rate_changes, mtu_bytes) == []
    delivered = _in_order_bytes(log, spec.horizon_us, mtu_bytes)
    assert {fid: delivered.get(fid, 0) for fid in traces.audit} == {
        fid: entry["delivered_bytes"] for fid, entry in traces.audit.items()
    }


# bw-halving runs past its 15 s rate cut; the loss-window-jitter variant
# drops and jitters three flows' segments; fairness-8x1bdp keeps a one-BDP
# queue full.
@pytest.mark.parametrize("name", ["bw-halving", "loss-window-jitter", "fairness-8x1bdp"])
def test_link_serves_by_its_two_rules(name):
    traces = run_case(name, debug=True)
    log = traces.debug_packets
    mtu_bytes = traces.config["link"]["mtu_bytes"]
    assert _mismatches(log, traces.rate_changes, mtu_bytes) == []
    # Both ways a service starts occur: on an idle link at the enqueue
    # time, and behind the queue at the previous completion.
    idle = sum(started == enqueued for _, _, enqueued, started, _, _, _ in log)
    assert 0 < idle < len(log)


def test_segment_in_service_at_a_rate_cut_finishes_at_the_old_rate():
    traces = run_case("bw-halving", debug=True)
    (_, old_rate), (cut_us, new_rate) = traces.rate_changes
    assert new_rate < old_rate
    straddling = [e for e in traces.debug_packets if e[3] < cut_us < e[4]]
    assert len(straddling) == 1  # one server: at most one segment at a time
    _, _, _, started, ended, _, _ = straddling[0]
    assert ended - started == round(traces.config["link"]["mtu_bytes"] * 8e6 / old_rate)
