"""Simplified rate-probing comparator.

A model-based controller in the startup / drain / probe-bandwidth /
probe-RTT mould. It keeps a windowed maximum of the measured delivery rate
and a minimum-RTT estimate, paces at a cyclic gain over the rate estimate,
and caps the window at twice the estimated BDP. It counts in segments:
the delivery rate and the pacing rate are segments per second. This is
deliberately a plumbing-grade stand-in for modern rate-based stacks, not
a faithful implementation of any of them.
"""

from __future__ import annotations

from .cc_types import INITIAL_CWND, AckInfo
from .records import Record

PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BW_FILTER_ROUNDS = 10  # rounds the delivery-rate filter keeps a maximum for
LOSS_BETA = 0.7  # window survivor fraction after a loss

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe_bw"
PROBE_RTT = "probe_rtt"


class ProbeRateParams(Record):
    """Rate-probing knobs: startup gain, min-RTT window and probe, window floor and gain."""

    startup_pacing_gain: float = 2.885
    min_rtt_window_us: int = 10_000_000
    probe_rtt_duration_us: int = 200_000
    min_cwnd: float = 4.0
    cwnd_gain: float = 2.0


class ProbeRateState(Record):
    """Per-flow rate-probing state: mode, min RTT, delivery-rate filter and gain cycle."""

    cwnd: float = INITIAL_CWND
    mode: str = STARTUP
    min_rtt_us: int | None = None
    min_rtt_stamp_us: int = 0
    probe_rtt_best_us: int | None = None
    probe_rtt_done_us: int = 0
    # Delivery-rate filter: per-round maxima over the last few rounds.
    round_index: int = 0
    round_start_us: int = 0
    round_acked: float = 0.0
    bw_window: tuple[tuple[int, float], ...] = ()  # (round, segs per second)
    full_bw: float = 0.0
    full_bw_count: int = 0
    gain_index: int = 0
    cycle_stamp_us: int = 0


def _max_bw(state: ProbeRateState) -> float:
    if not state.bw_window:
        return 0.0
    return max(bw for _, bw in state.bw_window)


def _bdp_segments(state: ProbeRateState) -> float:
    if state.min_rtt_us is None:
        return 0.0
    return _max_bw(state) * state.min_rtt_us / 1e6


def probe_rate_on_ack(
    state: ProbeRateState, ack: AckInfo, params: ProbeRateParams
) -> tuple[ProbeRateState, float | None]:
    """Advance the model for one ACK.

    Returns the new state plus the pacing rate in segments per second
    (None before any rate estimate exists). Rounds are counted by the
    transport's ACK clock (`ack.round_start`).
    """
    now = ack.now_us
    sample = ack.rtt_sample_us
    round_start = ack.round_start

    if state.min_rtt_us is None or sample < state.min_rtt_us:
        state = state._replace(min_rtt_us=sample, min_rtt_stamp_us=now)
    if state.mode == PROBE_RTT:
        best = state.probe_rtt_best_us
        if best is None or sample < best:
            state = state._replace(probe_rtt_best_us=sample)

    state = state._replace(round_acked=state.round_acked + ack.newly_acked)
    if round_start:
        elapsed = now - state.round_start_us
        if elapsed > 0 and state.round_acked > 0:
            bw = state.round_acked * 1e6 / elapsed
            window = state.bw_window + ((state.round_index, bw),)
            window = tuple(
                (r, b)
                for r, b in window
                if r > state.round_index - BW_FILTER_ROUNDS
            )
            state = state._replace(bw_window=window)
        state = state._replace(
            round_index=state.round_index + 1,
            round_start_us=now,
            round_acked=0.0,
        )

    bdp = _bdp_segments(state)
    bdp_cwnd = max(params.min_cwnd, params.cwnd_gain * bdp)

    if state.mode == STARTUP:
        state = state._replace(cwnd=state.cwnd + ack.newly_acked)
        if round_start and not ack.is_app_limited:
            max_bw = _max_bw(state)
            if max_bw >= state.full_bw * 1.25 or state.full_bw == 0.0:
                state = state._replace(full_bw=max_bw, full_bw_count=0)
            else:
                state = state._replace(full_bw_count=state.full_bw_count + 1)
                if state.full_bw_count >= 3:
                    state = state._replace(mode=DRAIN)
    elif state.mode == DRAIN:
        if bdp > 0 and ack.in_flight <= bdp:
            state = state._replace(mode=PROBE_BW, gain_index=0, cycle_stamp_us=now, cwnd=bdp_cwnd)
    elif state.mode == PROBE_BW:
        cap = bdp_cwnd if bdp > 0 else state.cwnd
        state = state._replace(cwnd=min(state.cwnd + ack.newly_acked, cap))
        if state.min_rtt_us is not None and now - state.cycle_stamp_us >= state.min_rtt_us:
            state = state._replace(
                gain_index=(state.gain_index + 1) % len(PROBE_GAINS),
                cycle_stamp_us=now,
            )
        if now - state.min_rtt_stamp_us > params.min_rtt_window_us:
            state = state._replace(
                mode=PROBE_RTT,
                probe_rtt_done_us=now + params.probe_rtt_duration_us,
                probe_rtt_best_us=None,
                cwnd=params.min_cwnd,
            )
    elif state.mode == PROBE_RTT:
        state = state._replace(cwnd=params.min_cwnd)
        if now >= state.probe_rtt_done_us:
            best = state.probe_rtt_best_us
            if best is not None:
                state = state._replace(min_rtt_us=best, min_rtt_stamp_us=now)
            else:
                state = state._replace(min_rtt_stamp_us=now)
            state = state._replace(mode=PROBE_BW, gain_index=0, cycle_stamp_us=now, cwnd=bdp_cwnd)

    return state, pacing_segs_per_s(state, params)


def probe_rate_on_loss(state: ProbeRateState, params: ProbeRateParams) -> ProbeRateState:
    """Mild multiplicative backoff; the rate model does the real work."""
    return state._replace(cwnd=max(params.min_cwnd, state.cwnd * LOSS_BETA))


def pacing_segs_per_s(state: ProbeRateState, params: ProbeRateParams) -> float | None:
    """Current pacing rate in segments per second, or None until a
    delivery-rate estimate exists."""
    max_bw = _max_bw(state)
    if max_bw <= 0.0:
        return None
    if state.mode == STARTUP:
        gain = params.startup_pacing_gain
    elif state.mode == DRAIN:
        gain = 1.0 / params.startup_pacing_gain
    elif state.mode == PROBE_RTT:
        gain = 1.0
    else:
        gain = PROBE_GAINS[state.gain_index]
    return gain * max_bw
