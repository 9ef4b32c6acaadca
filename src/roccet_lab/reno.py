"""Classic AIMD (Reno-style) baseline comparator."""

from __future__ import annotations


from .cc_types import AckInfo, CcState, MIN_CWND, Phase


def reno_on_ack(state: CcState, ack: AckInfo) -> CcState:
    """Slow start doubles per round; congestion avoidance adds one segment
    per window of acknowledged segments (tracked with an accumulator so the
    increase is exact rather than drifting with 1/cwnd summation)."""
    if state.phase is Phase.SLOW_START:
        cwnd = state.cwnd + ack.newly_acked
        if state.ssthresh is not None and cwnd >= state.ssthresh:
            return state._replace(
                cwnd=min(cwnd, state.ssthresh),
                phase=Phase.CONGESTION_AVOIDANCE,
            )
        return state._replace(cwnd=cwnd)

    if state.phase is Phase.CONGESTION_AVOIDANCE:
        acked = state.ca_acked + ack.newly_acked
        cwnd = state.cwnd
        while acked >= cwnd:
            acked -= cwnd
            cwnd += 1.0
        return state._replace(cwnd=cwnd, ca_acked=acked)

    return state


def reno_on_congestion_event(state: CcState) -> CcState:
    """Halve the window on any congestion event."""
    cwnd = max(MIN_CWND, state.cwnd / 2.0)
    return state._replace(
        cwnd=cwnd,
        ssthresh=cwnd,
        ca_acked=0.0,
        phase=Phase.CONGESTION_AVOIDANCE,
    )
