"""CUBIC window growth.

The growth curve is a cubic anchored at the window size held when the last
congestion event fired (w_max):

    W(t) = c_scale * (t - K)^3 + w_max

On the standard loss path the window drops to beta_mult * w_max, and K is
chosen so the curve is continuous with that post-reduction window:
W(0) = beta_mult * w_max, hence K = cbrt(w_max * (1 - beta_mult) / c_scale).
That special case is `cubic_k` / `cubic_window`.

In general an epoch can begin from any window (a delay-based reduction
keeps w_max where it was; a slow-start exit can land anywhere), so the
live target in `cubic_on_ack` uses the epoch form (`cubic_epoch`): K is
derived from the gap between w_max and the window the epoch started from,
which keeps W(0) equal to the actual starting window. When the epoch
starts at or above w_max the curve is purely convex from the current
window (K = 0). The curve plateaus near w_max (cautious close to the last
congestion point) and accelerates the further the window is from it.

Every transition into congestion avoidance, here and in `roccet`, starts
its epoch through `start_epoch`, which sets the window, the curve's anchor
(`epoch_start_us`, `cwnd_epoch`), the companion window and the phase
together. K and the curve's origin are fixed for an epoch (`cubic_epoch`),
as in RFC 9438, which computes K once when the epoch begins; the controllers'
in-place per-ACK path (`controllers`) keeps them from the epoch's start,
and `cubic_on_ack` is the reference it is checked against.
"""

from __future__ import annotations

from .cc_types import CONGESTION_AVOIDANCE, MIN_CWND, SLOW_START, AckInfo, CcState, CubicParams


def _curve(t_since_epoch_s: float, k: float, origin: float, c_scale: float) -> float:
    """W(t) = c_scale * (t - K)^3 + origin, floored at one segment."""
    return max(MIN_CWND, c_scale * (t_since_epoch_s - k) ** 3 + origin)


def cubic_k(w_max: float, params: CubicParams) -> float:
    """Seconds for the standard post-reduction curve to regain `w_max`."""
    return (w_max * (1.0 - params.beta_mult) / params.c_scale) ** (1.0 / 3.0)


def cubic_window(t_since_epoch_s: float, w_max: float, params: CubicParams) -> float:
    """Window target `t_since_epoch_s` seconds into a standard epoch, i.e.
    one that began from beta_mult * w_max. Floored at one segment."""
    return _curve(t_since_epoch_s, cubic_k(w_max, params), w_max, params.c_scale)


def cubic_epoch(w_max: float, cwnd_epoch: float, params: CubicParams) -> tuple[float, float]:
    """(K, origin) of the curve for an epoch that began from `cwnd_epoch`.

    For an epoch starting at or above w_max the origin moves up to the
    starting window and K collapses to zero (convex growth from there).
    """
    if w_max > cwnd_epoch:
        return ((w_max - cwnd_epoch) / params.c_scale) ** (1.0 / 3.0), w_max
    return 0.0, cwnd_epoch


def aimd_increment(params: CubicParams) -> float:
    """Per-RTT additive growth of the Reno-equivalent companion window,
    scaled so an AIMD flow with this algorithm's decrease factor matches
    plain Reno throughput: 3 * (1 - beta) / (1 + beta)."""
    return 3.0 * (1.0 - params.beta_mult) / (1.0 + params.beta_mult)


def start_epoch(state: CcState, cwnd: float, now_us: int, **changes) -> CcState:
    """Start a congestion-avoidance epoch at window `cwnd` and time `now_us`,
    re-anchoring the growth curve and the Reno-equivalent companion window
    there (RFC 9438 section 4.2); `changes` are the other fields the
    transition sets (`ssthresh`, `w_max`)."""
    return state._replace(
        cwnd=cwnd, cwnd_epoch=cwnd, w_est=cwnd, epoch_start_us=now_us,
        phase=CONGESTION_AVOIDANCE, **changes,
    )


def cubic_on_ack(state: CcState, ack: AckInfo, params: CubicParams) -> CcState:
    """Advance the window for one cumulative ACK.

    Slow start grows by the newly acked segment count (doubling per round
    with per-segment ACKs), capped at ssthresh when one is set. In
    congestion avoidance the window steps toward the growth target by at
    most (target - cwnd) / cwnd and never shrinks; the target is the cubic
    curve of the epoch (`cubic_epoch`) floored by the Reno-equivalent
    companion window, which keeps small-window flows converging toward
    each other instead of being starved by large-w_max neighbours. If the
    flow is app-limited and the freeze knob is on, the window is left
    untouched in any phase.

    The CUBIC and ROCCET controllers run this per ACK in place
    (`controllers.CubicController._cubic_on_ack`): inside an anchored
    congestion-avoidance epoch they write the congestion-avoidance step
    out on their own fields, with the epoch's K and the Reno-equivalent
    increment kept from its start, and call this function only outside
    one. This function is the reference that
    `tests/test_controller_lockstep.py` checks the folded path against.
    """
    if params.app_limited_freeze and ack.is_app_limited:
        return state

    if state.phase is SLOW_START:
        cwnd = state.cwnd + ack.newly_acked
        if state.ssthresh is not None and cwnd >= state.ssthresh:
            capped = min(cwnd, state.ssthresh)
            return start_epoch(state, capped, ack.now_us, w_max=max(state.w_max, capped))
        return state._replace(cwnd=cwnd)

    if state.phase is CONGESTION_AVOIDANCE:
        if state.epoch_start_us is None:
            # Defensive: anchor a fresh epoch rather than growing blind.
            return start_epoch(state, state.cwnd, ack.now_us)
        k, origin = cubic_epoch(state.w_max, state.cwnd_epoch, params)
        t = (ack.now_us - state.epoch_start_us) / 1e6
        cwnd = state.cwnd
        # The companion window updated by this ACK floors the *next* step,
        # keeping the epoch-start window exactly continuous.
        target = max(_curve(t, k, origin, params.c_scale), state.w_est)
        w_est = state.w_est + aimd_increment(params) * ack.newly_acked / cwnd
        if target > cwnd:
            cwnd = cwnd + (target - cwnd) / cwnd
        return state._replace(cwnd=cwnd, w_est=w_est)

    return state


def cubic_on_congestion_event(
    state: CcState, params: CubicParams, now_us: int
) -> CcState:
    """Multiplicative decrease plus epoch reset.

    The pre-reduction window becomes the new w_max unless the flow was
    still below its previous peak; in that case fast convergence (when
    enabled) shrinks the recorded peak to cwnd * (2 - beta_mult) / 2 so
    that competing flows converge faster. Callers must not invoke this
    twice for the same loss episode.
    """
    if state.cwnd < state.w_max and params.fast_convergence:
        w_max = state.cwnd * (2.0 - params.beta_mult) / 2.0
    else:
        w_max = state.cwnd
    cwnd = max(MIN_CWND, state.cwnd * params.beta_mult)
    return start_epoch(state, cwnd, now_us, ssthresh=cwnd, w_max=w_max)
