"""Output checks, computed from the scenario and the artifacts alone.

Nothing here calls roccet-lab. Each check takes the scenario in its
scenario-file form (the dict `ScenarioSpec.to_dict` returns, documented in
the project README) and the run's outputs, and returns a list of problems;
an empty list means the check passed.

Per-flow samples are `(t_us, delivered_bytes, srtt_us, queue_segs, cwnd)`
tuples, the fields of one `trace.csv` row with goodput turned back into
bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

WARMUP_DIVISOR = 10  # the share window skips the first tenth of the horizon
SHARE_TOLERANCE = 1e-9


def _us(seconds) -> int:
    return round(Fraction(str(seconds)) * 1_000_000)


def rate_schedule(cfg: dict) -> list[tuple[int, float]]:
    """[(start_us, bits per second)], the link rate from each instant on."""
    link = cfg["link"]
    entries = [(0, link["rate_mbps"] * 1e6)]
    for e in link.get("schedule", []):
        entries.append((_us(e["at_s"]), e["rate_mbps"] * 1e6))
    return entries


def link_capacity_bytes(schedule, t_us: int) -> float:
    """Bytes the link can serialize from time 0 to `t_us`."""
    bits = 0.0
    for i, (start, bps) in enumerate(schedule):
        if t_us <= start:
            break
        end = schedule[i + 1][0] if i + 1 < len(schedule) else t_us
        bits += bps * (min(t_us, end) - start) / 1e6
    return bits / 8


def queue_capacity_segs(cfg: dict) -> int:
    """ceil(buffer_bdp x rate x RTT / (8 x MSS)) at the initial rate."""
    link = cfg["link"]
    bdp = (
        Fraction(str(cfg["buffer_bdp"]))
        * Fraction(str(link["rate_mbps"])) * 1_000_000
        * Fraction(str(link["rtt_ms"])) / 1000
        / (8 * int(link["mtu_bytes"]))
    )
    return math.ceil(bdp)


def parse_trace_csv(text: str, cfg: dict) -> dict[str, list[tuple]]:
    """trace.csv rows per flow as sample tuples.

    Goodput is delivered bytes x 8 / interval, printed with six decimals,
    so rounding goodput x interval / 8 recovers the bytes exactly. A
    flow's first interval starts at its start time.
    """
    lines = text.splitlines()
    if lines[:2] != [
        "# roccet-lab trace v1",
        "time_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg",
    ]:
        raise ValueError("trace.csv: unexpected header")
    starts = {f["id"]: _us(f["start_s"]) for f in cfg["flows"]}
    last_t: dict[str, int] = {}
    flows: dict[str, list[tuple]] = {}
    for line in lines[2:]:
        t_ms, fid, cwnd, srtt_ms, goodput, queue = line.split(",")
        t_us = _ms3_to_us(t_ms)
        prev = max(last_t.get(fid, 0), starts[fid])
        delivered = round(float(goodput) * (t_us - prev) / 8)
        last_t[fid] = t_us
        flows.setdefault(fid, []).append(
            (t_us, delivered, _ms3_to_us(srtt_ms), int(queue), float(cwnd))
        )
    return flows


def _ms3_to_us(text: str) -> int:
    """A millisecond field printed with exactly three decimals, in us."""
    whole, frac = text.split(".")
    if len(frac) != 3:
        raise ValueError(f"trace.csv: {text!r} does not have three decimals")
    return int(whole + frac)


def check_samples(samples: dict[str, list[tuple]], cfg: dict) -> list[str]:
    """Link capacity, sRTT floor and queue ceiling over every sample."""
    problems = []
    schedule = rate_schedule(cfg)
    base_rtt_us = _us(cfg["link"]["rtt_ms"] / 1000)
    qcap = queue_capacity_segs(cfg)

    delivered_at: dict[int, int] = {}
    for fid, rows in samples.items():
        seen_srtt = False
        for row in rows:
            t_us, delivered, srtt_us, queue = row[0], row[1], row[2], row[3]
            delivered_at[t_us] = delivered_at.get(t_us, 0) + delivered
            if srtt_us > 0:
                seen_srtt = True
                if srtt_us < base_rtt_us:
                    problems.append(
                        f"{fid}: sRTT {srtt_us / 1000} ms below the base RTT at {t_us / 1000} ms"
                    )
            elif seen_srtt:
                problems.append(f"{fid}: sRTT missing at {t_us / 1000} ms")
            if queue > qcap:
                problems.append(
                    f"{fid}: queue {queue} above its capacity {qcap} at {t_us / 1000} ms"
                )
    total = 0
    for t_us in sorted(delivered_at):
        total += delivered_at[t_us]
        # One byte of slack covers float rounding in the capacity sum.
        if total > link_capacity_bytes(schedule, t_us) + 1:
            problems.append(
                f"{total} bytes delivered by {t_us / 1000} ms, more than the link can carry"
            )
            break
    return problems[:5]


def window_bytes(samples: dict[str, list[tuple]], cfg: dict) -> dict[str, int]:
    """Bytes each flow delivered after the warm-up tenth of the horizon."""
    horizon_us = _us(cfg["horizon_s"])
    return {
        fid: sum(
            row[1] for row in rows
            if horizon_us < WARMUP_DIVISOR * row[0] and row[0] <= horizon_us
        )
        for fid, rows in samples.items()
    }


def jain(values: list[int]) -> float:
    total = sum(values)
    return total * total / (len(values) * sum(v * v for v in values))


def check_share(per_flow: dict[str, int], reported: dict) -> list[str]:
    """The program's Jain index and shares against ours, and shares sum to 1."""
    problems = []
    grand = sum(per_flow.values())
    if grand == 0:
        return ["no bytes delivered inside the share window"]
    expected_jain = jain(list(per_flow.values()))
    if not math.isclose(reported["jain"], expected_jain, rel_tol=SHARE_TOLERANCE):
        problems.append(f"Jain {reported['jain']} reported, {expected_jain} recomputed")
    fractions = reported["fractions"]
    if set(fractions) != set(per_flow):
        problems.append(f"share flows {sorted(fractions)} differ from {sorted(per_flow)}")
        return problems
    for fid, b in per_flow.items():
        if not math.isclose(fractions[fid], b / grand, rel_tol=SHARE_TOLERANCE):
            problems.append(f"{fid}: share {fractions[fid]} reported, {b / grand} recomputed")
    if not math.isclose(sum(fractions.values()), 1.0, rel_tol=SHARE_TOLERANCE):
        problems.append(f"shares sum to {sum(fractions.values())}")
    return problems


def check_roccet_ce_after_halving(events: dict, cfg: dict, within_ms: float = 3000.0) -> list[str]:
    """A roccet_ce within `within_ms` after the first rate cut."""
    rates = rate_schedule(cfg)
    cuts = [t / 1000 for (t, r), (_, prev) in zip(rates[1:], rates) if r < prev]
    if not cuts:
        return ["scenario has no capacity cut"]
    cut_ms = cuts[0]
    for flow in events["flows"].values():
        for t_ms, kind in flow["ce_log"]:
            if kind == "roccet_ce" and cut_ms < t_ms <= cut_ms + within_ms:
                return []
    return [f"no roccet_ce within {within_ms} ms after the cut at {cut_ms} ms"]


def check_window_frozen(samples: dict[str, list[tuple]], events: dict, cfg: dict) -> list[str]:
    """After the loss event that answers the last injected drop, the window
    never grows again."""
    last_drop_ms = max(cfg["loss"]["drop_at_s"]) * 1000
    problems = []
    for fid, rows in samples.items():
        reactions = [
            t for t, kind in events["flows"][fid]["ce_log"]
            if kind == "loss_ce" and t >= last_drop_ms
        ]
        if not reactions:
            problems.append(f"{fid}: no loss event after the drop at {last_drop_ms} ms")
            continue
        since_us = round(Fraction(str(reactions[0])) * 1000)
        cwnd = [row[4] for row in rows if row[0] >= since_us]
        grown = [i for i in range(1, len(cwnd)) if cwnd[i] > cwnd[i - 1]]
        if grown:
            problems.append(f"{fid}: window grew {len(grown)} times after the losses")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def events_digest(text: str) -> str:
    """sha256 of events.json without `events_processed`, with the seed echo
    set to 1, in the writer's own form. The two single-run scenarios draw
    no random numbers, so that is the same for every seed."""
    events = json.loads(text)
    events.pop("events_processed", None)
    events["config"]["seed"] = 1
    return sha256((json.dumps(events, indent=2, sort_keys=True) + "\n").encode("utf-8"))
