"""ROCCET: delay-based extension over CUBIC.

Two signals drive congestion detection. The first is the smoothed relative
RTT, an EWMA of the relative inflation of the connection's smoothed RTT
(the sender's RFC 6298 estimate) over the measured minimum:

    x_t     = (rtt_curr - rtt_min) / rtt_min
    srrtt_t = alpha * x_t + (1 - alpha) * srrtt_{t-1}

The second compares the number of ACKed segments received over an interval
against the cumulative sum of the windows sampled once per RTT over the
same interval (cum_cwnd): a persistent shortfall means the window promises
more than the path delivers.

LAUNCH exits slow start when, over a 100 ms interval, the ACK/cum_cwnd
difference reaches ten segments while srrtt is at least 100 %; the initial
slow start exits by halving the window, later ones by generating a regular
CUBIC congestion event. Loss during slow start is ignored. ORBITER, in
congestion avoidance, generates a delay-based congestion event when the
ACK deficit over five RTTs exceeds 20 % of cum_cwnd and srrtt is at least
100 %; afterwards the window is held constant for a 100 ms drain period so
the standing queue can empty. Loss in congestion avoidance falls back to
the normal CUBIC reaction (unless configured to be ignored entirely).

Everything here is a pure transition over `RoccetState` / `CcState`
values. `controllers.RoccetController` runs the per-ACK signal updates
(the rtt_min tracker, srRTT and the interval counters) written out on its
own fields; `update_srrtt` here and the state-value forms of the other
two in `tests/reference_steps.py` are the reference that
`tests/test_controller_lockstep.py` checks it against. The checks and the
transitions they trigger run through here directly. Each transition that
reduces the window ends by starting a new CUBIC epoch through
`cubic.start_epoch`. The transitions record no congestion event: the
controller's `ce_events` is the one log.
"""

from __future__ import annotations

from .cc_types import CcState, CubicParams, MIN_CWND
from .cubic import cubic_on_congestion_event, start_epoch
from .errors import RoccetLabError
from .records import Record

#: The kinds of congestion event a controller logs in `ce_events`.
ROCCET_CE = "roccet_ce"
LOSS_CE = "loss_ce"
LAUNCH_EXIT = "launch_exit"


class RoccetParams(Record):
    """Tuning knobs; defaults follow the algorithm description.

    `srrtt_threshold` of 1.0 is the "100 %" relative-RTT bound. Raising it
    or `launch_ack_margin` / `orbiter_deviation` makes detection more
    defensive. `ignore_loss` drops the loss reaction entirely (for lossy
    links); `rtt_min_refresh` re-estimates a stale minimum RTT by EWMA once
    it is older than `rtt_min_refresh_age_us`.
    """

    alpha: float = 0.25
    srrtt_threshold: float = 1.0
    launch_ack_margin: float = 10.0
    launch_interval_us: int = 100_000
    orbiter_interval_rtts: int = 5
    orbiter_deviation: float = 0.20
    drain_duration_us: int = 100_000
    ignore_loss: bool = False
    rtt_min_refresh: bool = False
    rtt_min_refresh_age_us: int = 10_000_000
    rtt_min_refresh_alpha: float = 0.5


class RoccetState(Record):
    """Per-flow ROCCET bookkeeping on top of the shared CcState.

    Interval counters (`acks_in_interval`, `cum_cwnd_in_interval`,
    `rtts_elapsed_in_interval`) always reset together. `drain_until_us`,
    when set, is the end of the post-congestion-event hold period.
    """

    srrtt: float = 0.0
    rtt_min_us: int | None = None
    rtt_min_updated_at_us: int = 0
    interval_start_us: int | None = None
    acks_in_interval: float = 0.0
    cum_cwnd_in_interval: float = 0.0
    rtts_elapsed_in_interval: int = 0
    drain_until_us: int | None = None
    is_initial_slow_start: bool = True


def update_srrtt(state: RoccetState, srtt_now_us: int, params: RoccetParams) -> RoccetState:
    """EWMA the relative inflation of the smoothed RTT over the minimum;
    needs an rtt_min sample first.

    The inflation term is floored at zero: with rtt_min tracking raw
    minima it is never negative, but the refresh option can lift rtt_min
    above a transiently low smoothed RTT.
    """
    if state.rtt_min_us is None:
        raise RoccetLabError("update_srrtt called before any rtt_min sample")
    x = (srtt_now_us - state.rtt_min_us) / state.rtt_min_us
    if x < 0.0:
        x = 0.0
    return state._replace(srrtt=params.alpha * x + (1.0 - params.alpha) * state.srrtt)


def reset_interval(state: RoccetState, now_us: int) -> RoccetState:
    """Zero the interval counters and start a new interval at `now_us`.
    Applied by the caller after every LAUNCH or ORBITER check."""
    return state._replace(
        interval_start_us=now_us,
        acks_in_interval=0.0,
        cum_cwnd_in_interval=0.0,
        rtts_elapsed_in_interval=0,
    )


def launch_check(state: RoccetState, params: RoccetParams) -> bool:
    """Whether slow start exits, evaluated once per 100 ms interval.

    True when the absolute ACK/cum_cwnd difference reaches the margin
    AND srrtt is at or above the threshold. The absolute difference keeps
    the check robust to the sign of the imbalance. The caller applies the
    exit (see `apply_launch_exit`) and resets the interval either way.
    """
    deficit = abs(state.acks_in_interval - state.cum_cwnd_in_interval)
    return deficit >= params.launch_ack_margin and state.srrtt >= params.srrtt_threshold


def apply_launch_exit(
    state: RoccetState, cc: CcState, now_us: int, cubic_params: CubicParams
) -> tuple[RoccetState, CcState]:
    """Exit slow start after a LAUNCH check returned True.

    The initial slow start (`state.is_initial_slow_start`) exits by
    halving: cwnd = cwnd / 2 and ssthresh = cwnd. Later slow starts exit
    through a regular CUBIC congestion event. The halving exit
    deliberately leaves w_max alone (still unset at this point in a fresh
    connection): the peak tracker belongs to congestion events, so the
    first delay-based event after the exit anchors it at a real operating
    point rather than at the slow-start overshoot.
    """
    if state.is_initial_slow_start:
        halved = max(MIN_CWND, cc.cwnd / 2.0)
        new_cc = start_epoch(cc, halved, now_us, ssthresh=halved)
    else:
        new_cc = cubic_on_congestion_event(cc, cubic_params, now_us)
    return state._replace(is_initial_slow_start=False), new_cc


def orbiter_check(state: RoccetState, now_us: int, params: RoccetParams) -> bool:
    """Whether a delay-based congestion event fires, evaluated once per
    five-RTT interval.

    Inside the drain window nothing fires. Otherwise a congestion event
    requires both conjuncts: the ACK shortfall must exceed the configured
    fraction of cum_cwnd, and srrtt must be at or above the threshold.
    The caller resets the interval either way.
    """
    if state.drain_until_us is not None and now_us < state.drain_until_us:
        return False
    deficit = state.cum_cwnd_in_interval - state.acks_in_interval
    return (
        deficit > params.orbiter_deviation * state.cum_cwnd_in_interval
        and state.srrtt >= params.srrtt_threshold
    )


def apply_roccet_ce(
    state: RoccetState,
    cc: CcState,
    now_us: int,
    params: RoccetParams,
    cubic_params: CubicParams,
) -> tuple[RoccetState, CcState]:
    """Reduce the window for a delay-based congestion event.

    w_max is only raised, never shrunk (no fast convergence here), which
    keeps regrowth after a delay-based event fast. The window drops by the
    survivor fraction and a drain period begins during which the window is
    held constant.
    """
    w_max = cc.cwnd if cc.cwnd > cc.w_max else cc.w_max
    new_cc = start_epoch(cc, max(MIN_CWND, cc.cwnd * cubic_params.beta_mult), now_us, w_max=w_max)
    return state._replace(drain_until_us=now_us + params.drain_duration_us), new_cc


def orbiter_on_loss(
    cc: CcState, params: RoccetParams, cubic_params: CubicParams, now_us: int
) -> CcState:
    """Loss outside slow start: behave like CUBIC (including fast
    convergence), unless loss is configured to be ignored. The drain window
    does not shield against loss."""
    if params.ignore_loss:
        return cc
    return cubic_on_congestion_event(cc, cubic_params, now_us)
