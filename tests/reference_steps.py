"""State-value forms of per-ACK steps that no simulation calls.

The CUBIC and ROCCET controllers run the rtt_min tracker, the interval
counters and the anchored-epoch CUBIC step in place, as straight-line code
in `controllers.py`. These functions are the reference that
`test_controller_lockstep.py` replays recorded runs against, and that
`test_roccet_ops.py` and `test_cubic.py` check directly.
"""

from roccet_lab.cc_types import MIN_CWND, CubicParams
from roccet_lab.cubic import cubic_epoch
from roccet_lab.roccet import RoccetParams, RoccetState


def update_rtt_min(
    state: RoccetState, sample_us: int, now_us: int, params: RoccetParams
) -> RoccetState:
    """Track the minimum per-ACK RTT sample.

    A lower sample always replaces the minimum. With refresh enabled, a
    minimum that has not been updated for longer than the refresh age is
    blended toward the current sample by EWMA, so the baseline can follow
    a path whose floor genuinely moved.
    """
    rtt_min_us = state.rtt_min_us
    if rtt_min_us is None or sample_us < rtt_min_us:
        return state._replace(rtt_min_us=sample_us, rtt_min_updated_at_us=now_us)
    if (
        params.rtt_min_refresh
        and now_us - state.rtt_min_updated_at_us > params.rtt_min_refresh_age_us
    ):
        a = params.rtt_min_refresh_alpha
        return state._replace(
            rtt_min_us=round(a * sample_us + (1.0 - a) * rtt_min_us),
            rtt_min_updated_at_us=now_us,
        )
    return state


def accumulate_interval(
    state: RoccetState,
    newly_acked: float,
    current_cwnd: float,
    rtt_boundary_crossed: bool,
) -> RoccetState:
    """Fold one ACK (and, when flagged, one RTT boundary) into the interval
    counters. At each boundary the current window joins cum_cwnd."""
    if rtt_boundary_crossed:
        state = state._replace(
            cum_cwnd_in_interval=state.cum_cwnd_in_interval + current_cwnd,
            rtts_elapsed_in_interval=state.rtts_elapsed_in_interval + 1,
        )
    return state._replace(acks_in_interval=state.acks_in_interval + newly_acked)


def cubic_target(
    t_since_epoch_s: float, w_max: float, cwnd_epoch: float, params: CubicParams
) -> float:
    """Window target for an epoch that began from `cwnd_epoch`, floored at
    one segment; equals `cubic.cubic_window` when
    cwnd_epoch == beta_mult * w_max."""
    k, origin = cubic_epoch(w_max, cwnd_epoch, params)
    return max(MIN_CWND, params.c_scale * (t_since_epoch_s - k) ** 3 + origin)
