"""Metamorphic relations: a change of input that must leave a run's
artifacts, or a stated part of them, as they are, checked by running both
inputs and comparing."""

import io

import pytest
from hypothesis import assume, example, given, settings
from test_event_lanes import scenarios

from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import run


def _artifacts(spec):
    traces = run(spec)
    csv, events = io.StringIO(), io.StringIO()
    traces.write_csv(csv)
    traces.write_events_json(events)
    return csv.getvalue(), events.getvalue(), traces.debug_packets


# bw-halving runs past its 15 s rate cut.
@pytest.mark.parametrize("name, horizon_s", [("steady", 4.0), ("bw-halving", 16.0)])
def test_debug_changes_no_artifact_byte(name, horizon_s):
    # The packet log only records what the bottleneck does.
    spec = builtin_scenario(name, horizon_s=horizon_s)
    csv, events, no_log = _artifacts(spec)
    debug_csv, debug_events, log = _artifacts(spec._replace(debug=True))
    assert no_log is None and log
    assert debug_csv == csv
    assert debug_events == events


# The named builtins of the relations below, short enough for tier 1: a
# ROCCET flow with a LAUNCH exit and delay-based events, two ROCCET flows
# and a CUBIC rival with queue drops, and one greedy CUBIC flow.
_BW_HALVING = builtin_scenario("bw-halving", seed=1, horizon_s=16.0)
_FAIRNESS = builtin_scenario(
    "fairness-10x40", seed=1, n_flows=2, buffer_bdp=1.0, competitor="cubic", horizon_s=12.0
)
_STEADY = builtin_scenario("steady", seed=1, horizon_s=4.0)


def _behaviour(traces):
    """What a run did, apart from how it was sampled."""
    flows = {
        fid: (ft.ce_log, ft.counters, ft.extra) for fid, ft in traces.flows.items()
    }
    return flows, traces.drops


@settings(max_examples=40, deadline=None)
@example(spec=_BW_HALVING)
@example(spec=_FAIRNESS)
@example(spec=_STEADY)
@given(spec=scenarios())
def test_sample_cadence_changes_no_behaviour(spec):
    # The sampler only reads state, and the tie-break numbers its events
    # take cannot reorder other events.
    assert _behaviour(run(spec._replace(sample_us=5 * spec.sample_us))) == _behaviour(run(spec))


@settings(max_examples=40, deadline=None)
@example(spec=_BW_HALVING)
@example(spec=_FAIRNESS)
@example(spec=_STEADY)
@given(spec=scenarios())
def test_half_horizon_run_is_a_prefix(spec):
    # A run to half the horizon, rounded down to whole sample periods, is
    # the full run cut there. Every flow must end before the cut, as a
    # flow may not outlast its run.
    cut = spec.horizon_us // 2 // spec.sample_us * spec.sample_us
    assume(
        all(
            f.source.start_us < cut
            and (f.source.duration_us is None or f.source.start_us + f.source.duration_us < cut)
            for f in spec.flows
        )
    )
    full, half = run(spec), run(spec._replace(horizon_us=cut))
    full_csv, half_csv = io.StringIO(), io.StringIO()
    full.write_csv(full_csv)
    half.write_csv(half_csv)
    full_rows = full_csv.getvalue().splitlines()
    half_rows = half_csv.getvalue().splitlines()
    assert half_rows == full_rows[: len(half_rows)]
    # ... and the cut leaves out no row at or before it
    assert float(half_rows[-1].split(",")[0]) == cut / 1000
    assert all(float(row.split(",")[0]) > cut / 1000 for row in full_rows[len(half_rows):])
    for fid, ft in half.flows.items():
        assert ft.ce_log == [entry for entry in full.flows[fid].ce_log if entry[0] <= cut]


def _doubled(spec):
    """`spec` with twice the segment size, every link rate and every
    rate-limited source's rate doubled."""
    link = spec.link
    return spec._replace(
        link=link._replace(
            mtu_bytes=2 * link.mtu_bytes,
            rate_schedule=tuple((t, 2 * rate) for t, rate in link.rate_schedule),
        ),
        flows=tuple(
            f if f.source.rate_bps is None
            else f._replace(source=f.source._replace(rate_bps=2 * f.source.rate_bps))
            for f in spec.flows
        ),
    )


@settings(max_examples=40, deadline=None)
@example(spec=_BW_HALVING)
@example(spec=_FAIRNESS)
@example(spec=_STEADY)
@given(spec=scenarios())
def test_scale_changes_no_behaviour_but_bytes(spec):
    # Twice the bytes per segment over twice the rate is the same service
    # time, the same buffer in segments and the same source segments, so
    # the run counts the same segments and only its bytes double. A factor
    # of 2 keeps every floating-point quotient exact.
    base, doubled = run(spec), run(_doubled(spec))
    assert doubled.drops == base.drops
    for fid, ft in base.flows.items():
        other = doubled.flows[fid]
        assert other.ce_log == ft.ce_log
        assert other.extra == ft.extra
        assert other.counters["delivered_bytes"] == 2 * ft.counters["delivered_bytes"]
        assert {**other.counters, "delivered_bytes": 0} == {**ft.counters, "delivered_bytes": 0}
