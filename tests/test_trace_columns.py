"""A run's samples are held per flow as columns, and what a `Sample`
carries besides them is derived on read. These tests replay the
simulator's former per-sample bookkeeping over the raw columns (the
interval since the flow's last sample, the bytes delivered since then,
the rounded sRTT) and check every reader against it: `samples`,
`write_csv`, `flow_metrics`, `bandwidth_share` over drawn windows and
`summarize`. They also bound the memory a sample holds."""

import gc
import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roccet_lab.errors import MetricsError
from roccet_lab.harness import builtin_scenario
from roccet_lab.metrics import WARMUP_FRACTION, bandwidth_share, flow_metrics, summarize
from roccet_lab.simulator import run
from roccet_lab.trace import Sample

# Three ROCCET flows starting 0.5 ms apart with jitter, a CUBIC rival
# starting at 1 s (on a sample tick), and a horizon of 3,003.7 ms, off
# the 10 ms grid, so the last sample's interval is 3.7 ms.
HORIZON_US = 3_003_700


@pytest.fixture(scope="module")
def traces():
    spec = builtin_scenario(
        "fairness-10x40", seed=3, n_flows=3, competitor="cubic", buffer_bdp=1.0,
        horizon_s=HORIZON_US / 1e6,
    )
    assert spec.horizon_us == HORIZON_US and spec.horizon_us % spec.sample_us != 0
    return run(spec)


def _reference_rows(ft):
    """(t_us, dt_us, cwnd, srtt_us, delivered_bytes, queue_segs) per sample,
    as a loop that keeps the last sample's delivery and time computes them."""
    rows = []
    last_delivered = last_t = 0
    for t_us, cwnd, srtt, segs, queue in zip(
        ft.t_us, ft.cwnd, ft.srtt_us, ft.delivered_segs, ft.queue_segs
    ):
        delivered = segs * ft.mss_bytes
        rows.append((
            t_us,
            t_us - (last_t if last_t > ft.start_us else ft.start_us),
            cwnd,
            round(srtt) if srtt is not None else 0,
            delivered - last_delivered,
            queue,
        ))
        last_delivered, last_t = delivered, t_us
    return rows


def _goodput(delivered, dt_us):
    return delivered * 8.0 / dt_us if dt_us > 0 else 0.0


def test_the_run_covers_late_starts_and_an_off_grid_last_sample(traces):
    starts = [ft.start_us for ft in traces.flows.values()]
    assert len(set(starts)) == 4 and max(starts) == 1_000_000
    assert all(ft.t_us[-1] == HORIZON_US for ft in traces.flows.values())


def test_samples_match_the_per_sample_loop(traces):
    for ft in traces.flows.values():
        samples = ft.samples
        assert all(type(s) is Sample for s in samples)
        got = [tuple(getattr(s, name) for name in Sample.__slots__) for s in samples]
        assert got == _reference_rows(ft)
        assert [s.goodput_mbps for s in samples] == ft.goodput_mbps()


def test_each_interval_runs_from_the_previous_sample(traces):
    for ft in traces.flows.values():
        samples = ft.samples
        assert samples[0].dt_us == samples[0].t_us - ft.start_us
        for before, now in zip(samples, samples[1:]):
            assert now.dt_us == now.t_us - before.t_us
        assert samples[-1].dt_us == HORIZON_US % 10_000


def test_delivered_bytes_sum_to_the_audit(traces):
    for fid, ft in traces.flows.items():
        assert sum(s.delivered_bytes for s in ft.samples) == traces.audit[fid]["delivered_bytes"]


def test_every_flow_samples_the_same_queue_at_one_instant(traces):
    queue_at = {}
    for ft in traces.flows.values():
        for s in ft.samples:
            assert queue_at.setdefault(s.t_us, s.queue_segs) == s.queue_segs
    first = min(ft.start_us for ft in traces.flows.values())
    ticks = [t for t in range(0, HORIZON_US, 10_000) if t >= first]
    assert sorted(queue_at) == [*ticks, HORIZON_US]


def test_csv_matches_a_sort_of_per_sample_rows(traces):
    rows = [
        (t, idx, ft.flow_id, cwnd, srtt, _goodput(delivered, dt), queue)
        for idx, ft in enumerate(traces.flows.values())
        for t, dt, cwnd, srtt, delivered, queue in _reference_rows(ft)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    expected = "# roccet-lab trace v1\ntime_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg\n"
    expected += "".join(
        f"{t / 1000:.3f},{fid},{cwnd:.3f},{srtt / 1000:.3f},{goodput:.6f},{queue}\n"
        for t, _, fid, cwnd, srtt, goodput, queue in rows
    )
    out = io.StringIO()
    traces.write_csv(out)
    assert out.getvalue() == expected


def test_flow_metrics_match_the_per_sample_loop(traces):
    metrics = flow_metrics(traces)
    for fid, ft in traces.flows.items():
        rows = _reference_rows(ft)
        delivered = sum(r[4] for r in rows)
        active_us = rows[-1][0] - ft.start_us
        assert metrics[fid].delivered_bytes == delivered
        assert metrics[fid].total_goodput_mbps == delivered * 8.0 / active_us


def test_summarize_matches_the_per_sample_series(traces):
    for ft in traces.flows.values():
        rows = _reference_rows(ft)
        times = [r[0] / 1000 for r in rows]
        cut = times[0] + WARMUP_FRACTION * (times[-1] - times[0])
        series = {
            "t_ms": times,
            "srtt_ms": [r[3] / 1000 for r in rows],
            "goodput_mbps": [_goodput(r[4], r[1]) for r in rows],
        }
        assert cut < times[-1]
        assert summarize(ft) == summarize(series)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(min_value=-10_000, max_value=HORIZON_US + 10_000),
    width=st.integers(min_value=1, max_value=HORIZON_US + 20_000),
)
def test_bandwidth_share_matches_the_per_sample_sum(traces, lo, width):
    hi = lo + width
    by_flow = {
        fid: sum(r[4] for r in _reference_rows(ft) if lo < r[0] <= hi)
        for fid, ft in traces.flows.items()
    }
    grand = sum(by_flow.values())
    if grand == 0:
        with pytest.raises(MetricsError):
            bandwidth_share(traces, (lo, hi))
        return
    share = bandwidth_share(traces, (lo, hi))
    assert share.per_flow_fraction == {fid: b / grand for fid, b in by_flow.items()}
    assert share.window_ms == (lo / 1000, hi / 1000)


def test_a_sample_holds_under_80_bytes():
    # Eight ROCCET flows and a CUBIC rival in an 8-BDP buffer: the
    # sweep's largest cells, where a sample is about one per delivered
    # segment. Measured after the run, with its traces alive and then
    # dropped: 62 B per flow-sample as five columns, 169 B as one
    # `Sample` per flow per tick.
    spec = builtin_scenario(
        "fairness-10x40", seed=1, n_flows=8, competitor="cubic", buffer_bdp=8.0, horizon_s=10.0
    )
    gc.collect()
    tracemalloc.start()
    try:
        traces = run(spec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        n_samples = sum(len(ft.t_us) for ft in traces.flows.values())
        del traces
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Ticks 0 to 10 s; the ROCCET flows start just after the first and
    # the rival at 1 s.
    assert n_samples == 8 * 1000 + 901
    assert held / n_samples < 80, held / n_samples
