"""Trace containers and their CSV / JSON serializations.

A run's samples are held per flow as columns (`FlowTrace`); a `Sample`
record is built only when `FlowTrace.samples` is read.

The CSV surface is versioned and fixed: a `# roccet-lab trace v1` comment
line, then `time_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg` rows
sampled at the configured cadence. The JSON event file carries the resolved
configuration echo, per-flow congestion-event logs and counters, drop and
rate-change events, and the conservation audit, making every artifact
self-describing and re-runnable.
"""

from __future__ import annotations

import json
from bisect import bisect_right
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
        return _mbps(self.delivered_bytes, self.dt_us)


def _mbps(delivered_bytes: int, dt_us: int) -> float:
    # bytes * 8 / microseconds == bits / us == Mbit/s
    return delivered_bytes * 8.0 / dt_us if dt_us > 0 else 0.0


class FlowTrace:
    """One flow's samples and congestion-event log over a run. Its
    counters are its entry in the run's `TraceSet.audit`.

    The samples are five columns, plain lists that the simulator's sampler
    appends to in time order: the sample time, the window, the sender's
    smoothed RTT as it stands (None before the handshake), the segments
    delivered in order so far (the receiver's `rcv_nxt`) and the
    bottleneck's queue. Each holds the simulator's own objects, so a
    sample costs five list slots. What a `Sample` holds besides is derived
    when read: each sample's interval and delivered bytes, and the sRTT
    rounded to the microsecond (0 before the handshake). `samples` builds
    the `Sample` records on each read.
    """

    __slots__ = (
        "flow_id", "algo", "start_us", "mss_bytes",
        "t_us", "cwnd", "srtt_us", "delivered_segs", "queue_segs",
        "ce_log", "extra",
    )

    def __init__(self, flow_id: str, algo: str, start_us: int, mss_bytes: int) -> None:
        self.flow_id = flow_id
        self.algo = algo
        self.start_us = start_us
        self.mss_bytes = mss_bytes
        self.t_us: list[int] = []
        self.cwnd: list[float] = []
        self.srtt_us: list[float | None] = []
        self.delivered_segs: list[int] = []
        self.queue_segs: list[int] = []
        self.ce_log: list[tuple[int, str]] = []
        self.extra: dict = {}

    def dt_us(self) -> list[int]:
        """Each sample's time since the flow's previous sample, or since its start for the first."""
        t = self.t_us
        return [now - before for before, now in zip([self.start_us, *t], t)]

    def delivered_bytes(self) -> list[int]:
        """The bytes delivered in order since the flow's previous sample."""
        segs, mss = self.delivered_segs, self.mss_bytes
        return [(now - before) * mss for before, now in zip([0, *segs], segs)]

    def delivered_by(self, t_us: int) -> int:
        """The bytes delivered in order by the flow's last sample at or before `t_us`."""
        i = bisect_right(self.t_us, t_us)
        return self.delivered_segs[i - 1] * self.mss_bytes if i else 0

    def rounded_srtt_us(self) -> list[int]:
        return [0 if srtt is None else round(srtt) for srtt in self.srtt_us]

    def goodput_mbps(self) -> list[float]:
        return list(map(_mbps, self.delivered_bytes(), self.dt_us()))

    @property
    def samples(self) -> list[Sample]:
        """The samples as `Sample` records, built anew on each read."""
        return list(map(
            Sample, self.t_us, self.dt_us(), self.cwnd, self.rounded_srtt_us(),
            self.delivered_bytes(), self.queue_segs,
        ))


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
        times: list[int] = []
        lines: list[str] = []
        for ft in self.flows.values():
            fid = ft.flow_id
            times += ft.t_us
            lines += [
                f"{t_us / 1000:.3f},{fid},{cwnd:.3f},{srtt_us / 1000:.3f},{goodput:.6f},{queue}\n"
                for t_us, cwnd, srtt_us, goodput, queue in zip(
                    ft.t_us, ft.cwnd, ft.rounded_srtt_us(), ft.goodput_mbps(), ft.queue_segs
                )
            ]
        # Rows in (time, flow index) order: the flows' rows laid end to end,
        # sorted by time alone. The sort is stable, so rows at one instant
        # keep the flows' order, and it merges the flows' time-ordered runs.
        out.writelines(map(lines.__getitem__, sorted(range(len(times)), key=times.__getitem__)))

    def events_dict(self) -> dict:
        return {
            "version": "roccet-lab events v1",
            "config": self.config,
            "flows": {
                fid: {
                    "algo": ft.algo,
                    "start_ms": ft.start_us / 1000,
                    "counters": {k: v for k, v in self.audit[fid].items() if k != "conserved"},
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
