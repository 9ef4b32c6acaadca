"""Per-flow and cross-flow statistics.

Bandwidth share, Jain's fairness index and nearest-rank percentile
summaries. Everything here is a pure function over immutable trace data;
by default statistics exclude the first 10 % of the run as warm-up.
"""

from __future__ import annotations

import math

from .errors import MetricsError
from .records import Record
from .trace import FlowTrace, TraceSet

WARMUP_FRACTION = 0.10
PERCENTILES = (25, 50, 75)


class FlowMetrics(Record):
    """Per-flow totals of one run: scalars only, no per-sample series.

    The samples stay in the run's `FlowTrace`; `summarize` reads its
    percentiles from there. So a sweep that keeps these per cell keeps
    no per-sample data once a cell is done.
    """

    flow_id: str
    algo: str
    total_goodput_mbps: float
    delivered_bytes: int
    ce_counts: dict[str, int]


class ShareReport(Record):
    """Each flow's fraction of the bytes delivered in a window, and their Jain index."""

    per_flow_fraction: dict[str, float]
    jain_index: float
    window_ms: tuple[float, float]


def jain_index(values: list[float]) -> float:
    """(sum x)^2 / (n * sum x^2) over a non-negative allocation."""
    n = len(values)
    if n == 0:
        raise MetricsError("jain index of an empty allocation")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        raise MetricsError("jain index undefined for an all-zero allocation")
    return (total * total) / (n * squares)


def flow_metrics(traces: TraceSet) -> dict[str, FlowMetrics]:
    out: dict[str, FlowMetrics] = {}
    for fid, ft in traces.flows.items():
        delivered = sum(s.delivered_bytes for s in ft.samples)
        active_us = ft.samples[-1].t_us - ft.start_us if ft.samples else 0
        total = delivered * 8.0 / active_us if active_us > 0 else 0.0
        counts: dict[str, int] = {}
        for _, kind in ft.ce_log:
            counts[kind] = counts.get(kind, 0) + 1
        out[fid] = FlowMetrics(
            flow_id=fid,
            algo=ft.algo,
            total_goodput_mbps=total,
            delivered_bytes=delivered,
            ce_counts=counts,
        )
    return out


def bandwidth_share(
    traces: TraceSet, window_us: tuple[int, int] | None = None
) -> ShareReport:
    """Fraction of delivered bytes per flow over a measurement window.

    The window defaults to the run span minus the leading 10 % warm-up.
    Byte counts come straight from the per-sample delivery deltas, so the
    fractions agree exactly with the simulator's own accounting.
    """
    if not traces.flows:
        raise MetricsError("bandwidth share of an empty trace set")
    if window_us is None:
        t0 = round(traces.horizon_us * WARMUP_FRACTION)
        window_us = (t0, traces.horizon_us)
    lo, hi = window_us
    if hi <= lo:
        raise MetricsError(f"empty share window [{lo}, {hi}] us")
    bytes_by_flow: dict[str, int] = {}
    for fid, ft in traces.flows.items():
        total = 0
        for s in ft.samples:
            if lo < s.t_us <= hi:
                total += s.delivered_bytes
        bytes_by_flow[fid] = total
    grand = sum(bytes_by_flow.values())
    if grand == 0:
        raise MetricsError(f"no bytes delivered inside window [{lo}, {hi}] us")
    fractions = {fid: b / grand for fid, b in bytes_by_flow.items()}
    return ShareReport(
        per_flow_fraction=fractions,
        jain_index=jain_index([float(b) for b in bytes_by_flow.values()]),
        window_ms=(lo / 1000, hi / 1000),
    )


def percentile_nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation); values need not be sorted."""
    if not values:
        raise MetricsError("percentile of an empty series")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(series: dict[str, list[float]] | FlowTrace) -> dict[str, dict[str, float]]:
    """p25/p50/p75/max table for sRTT and goodput past the warm-up window.

    Accepts either a run's FlowTrace or a parsed-CSV column dict; both are
    timed by their samples, so a run's summary and a report of its
    `trace.csv` read the same rows. The warm-up is measured from a flow's
    first sample to its last, and samples without an sRTT yet are left
    out of the sRTT table.
    """
    if isinstance(series, FlowTrace):
        samples = series.samples
        times = [s.t_us / 1000 for s in samples]
        srtts = [s.srtt_us / 1000 for s in samples]
        goodputs = [s.goodput_mbps for s in samples]
    else:
        times, srtts, goodputs = series["t_ms"], series["srtt_ms"], series["goodput_mbps"]
    if not times:
        raise MetricsError("summarize: empty trace")
    cut = times[0] + WARMUP_FRACTION * (times[-1] - times[0])
    srtt_vals = [v for t, v in zip(times, srtts) if t >= cut and v > 0]
    good_vals = [v for t, v in zip(times, goodputs) if t >= cut]
    if not srtt_vals or not good_vals:
        raise MetricsError(
            f"summarize: no samples after warm-up (window starts at {cut:.1f} ms)"
        )
    out: dict[str, dict[str, float]] = {}
    for name, vals in (("srtt_ms", srtt_vals), ("goodput_mbps", good_vals)):
        table = {f"p{p}": percentile_nearest_rank(vals, p) for p in PERCENTILES}
        table["max"] = max(vals)
        out[name] = table
    return out
