"""Trace containers and their CSV / JSON serializations.

The CSV surface is versioned and fixed: a `# roccet-lab trace v1` comment
line, then `time_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg` rows
sampled at the configured cadence. The JSON event file carries the resolved
configuration echo, per-flow congestion-event logs and counters, drop and
rate-change events, and the conservation audit, making every artifact
self-describing and re-runnable.
"""

from __future__ import annotations

import json
from typing import IO

from .errors import TraceFormatError

CSV_VERSION_LINE = "# roccet-lab trace v1"
CSV_COLUMNS = "time_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg"


class Sample:
    """One flow's state at one sampling instant, and the bytes delivered since the last."""

    __slots__ = ("t_us", "dt_us", "cwnd", "srtt_us", "delivered_bytes", "queue_segs")

    def __init__(
        self, t_us: int, dt_us: int, cwnd: float, srtt_us: int,
        delivered_bytes: int, queue_segs: int,
    ) -> None:
        self.t_us = t_us
        self.dt_us = dt_us
        self.cwnd = cwnd
        self.srtt_us = srtt_us
        self.delivered_bytes = delivered_bytes
        self.queue_segs = queue_segs

    @property
    def goodput_mbps(self) -> float:
        # bytes * 8 / microseconds == bits / us == Mbit/s
        return self.delivered_bytes * 8.0 / self.dt_us if self.dt_us > 0 else 0.0


class FlowTrace:
    """One flow's samples, congestion-event log and counters over a run."""

    __slots__ = ("flow_id", "algo", "start_us", "samples", "ce_log", "counters", "extra")

    def __init__(self, flow_id: str, algo: str, start_us: int) -> None:
        self.flow_id = flow_id
        self.algo = algo
        self.start_us = start_us
        self.samples: list[Sample] = []
        self.ce_log: list[tuple[int, str]] = []
        self.counters: dict[str, int] = {}
        self.extra: dict = {}


class TraceSet:
    """Everything one run records: each flow's trace, drops, rate changes and the audit."""

    __slots__ = (
        "horizon_us", "config", "flows", "drops", "rate_changes", "audit",
        "events_processed", "debug_packets",
    )

    def __init__(self, horizon_us: int, config: dict) -> None:
        self.horizon_us = horizon_us
        self.config = config
        self.flows: dict[str, FlowTrace] = {}
        self.drops: list[tuple[int, str, str]] = []
        self.rate_changes: list[tuple[int, int]] = []
        self.audit: dict = {}
        self.events_processed = 0
        self.debug_packets: list | None = None

    def write_csv(self, out: IO[str]) -> None:
        out.write(CSV_VERSION_LINE + "\n")
        out.write(CSV_COLUMNS + "\n")
        rows = [
            (s.t_us, idx, ft.flow_id, s)
            for idx, ft in enumerate(self.flows.values())
            for s in ft.samples
        ]
        rows.sort(key=lambda r: (r[0], r[1]))
        for t_us, _, flow_id, s in rows:
            out.write(
                f"{t_us / 1000:.3f},{flow_id},{s.cwnd:.3f},"
                f"{s.srtt_us / 1000:.3f},{s.goodput_mbps:.6f},{s.queue_segs}\n"
            )

    def events_dict(self) -> dict:
        return {
            "version": "roccet-lab events v1",
            "config": self.config,
            "flows": {
                fid: {
                    "algo": ft.algo,
                    "start_ms": ft.start_us / 1000,
                    "counters": ft.counters,
                    "ce_log": [[t / 1000, kind] for t, kind in ft.ce_log],
                    "extra": ft.extra,
                }
                for fid, ft in self.flows.items()
            },
            "drops": [[t / 1000, fid, cause] for t, fid, cause in self.drops],
            "rate_changes": [[t / 1000, bps / 1e6] for t, bps in self.rate_changes],
            "audit": self.audit,
            "events_processed": self.events_processed,
        }

    def write_events_json(self, out: IO[str]) -> None:
        json.dump(self.events_dict(), out, indent=2, sort_keys=True)
        out.write("\n")


def read_trace_csv(path: str) -> dict[str, dict[str, list[float]]]:
    """Parse a trace CSV back into per-flow column series.

    Returns {flow_id: {"t_ms": [...], "cwnd_seg": [...], "srtt_ms": [...],
    "goodput_mbps": [...], "queue_seg": [...]}} preserving first-seen flow
    order. Raises TraceFormatError naming the file and row on any problem.
    """
    flows: dict[str, dict[str, list[float]]] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            first = f.readline().rstrip("\n")
            if first != CSV_VERSION_LINE:
                raise TraceFormatError(
                    f"{path}: line 1: expected {CSV_VERSION_LINE!r}, got {first!r}"
                )
            header = f.readline().rstrip("\n")
            if header != CSV_COLUMNS:
                raise TraceFormatError(f"{path}: line 2: unexpected columns {header!r}")
            for lineno, line in enumerate(f, start=3):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 6:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: expected 6 fields, got {len(parts)}"
                    )
                try:
                    t_ms = float(parts[0])
                    cwnd = float(parts[2])
                    srtt = float(parts[3])
                    goodput = float(parts[4])
                    queue = float(parts[5])
                except ValueError as exc:
                    raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
                cols = flows.get(parts[1])
                if cols is None:  # not setdefault, which builds five lists per row
                    cols = flows[parts[1]] = {
                        "t_ms": [], "cwnd_seg": [], "srtt_ms": [], "goodput_mbps": [], "queue_seg": [],
                    }
                cols["t_ms"].append(t_ms)
                cols["cwnd_seg"].append(cwnd)
                cols["srtt_ms"].append(srtt)
                cols["goodput_mbps"].append(goodput)
                cols["queue_seg"].append(queue)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
    if not flows:
        raise TraceFormatError(f"{path}: no sample rows")
    return flows


def read_events_json(path: str) -> dict:
    """Load an events file. Raises TraceFormatError naming the file unless
    `flows` maps each flow id to an object whose `ce_log`, if any, is a
    list of `[time, kind]` pairs."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
    flows = data.get("flows") if isinstance(data, dict) else None
    if not isinstance(flows, dict):
        raise TraceFormatError(f"{path}: not an events file")
    for fid, flow in flows.items():
        if not isinstance(flow, dict):
            raise TraceFormatError(f"{path}: flow {fid!r} is not an object")
        ce_log = flow.get("ce_log", [])
        if not isinstance(ce_log, list) or not all(
            isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], (int, float)) and isinstance(entry[1], str)
            for entry in ce_log
        ):
            raise TraceFormatError(f"{path}: flow {fid!r}: ce_log is not a list of [time, kind] pairs")
    return data
