"""The four congestion controllers the simulator drives, one per
algorithm, each a slotted class that updates its state in place.

Every controller has the same contract: `on_ack(ack)` takes the one
`AckInfo` record the sender refills per ACK (the transport's smoothed
RTT, in-flight count, round boundaries and recovery flag included), and
`on_loss(now_us)` reports a loss episode. Each exposes the current window
in segments, a pacing rate in segments per second (None unless it
paces), and `ce_events`, its one log of congestion events for the trace.
`CONTROLLERS` maps each algorithm name to its builder.

Reno and the rate-probing comparator are written here whole. The CUBIC
and ROCCET controllers run the per-ACK path as straight-line code: the
congestion-avoidance step of `cubic.cubic_on_ack` and ROCCET's signal
updates (the rtt_min tracker, `roccet.update_srrtt` and the interval
counters, whose state-value forms are in `tests/reference_steps.py`) are
written out here with the same operations in the same order, so every
float comes out bit for bit as the state-value function's would. Those
functions stay the reference: `tests/test_controller_lockstep.py`
replays recorded runs through these controllers and through a driver
built from them, and checks that both hold the same state, and the same
congestion events, after every call. The `cc` (and `roc`) attributes
read and assign whole `CcState` / `RoccetState` values, which is how the
rarer transitions (congestion events, LAUNCH/ORBITER checks) are
applied.

The CUBIC and ROCCET per-ACK code reads only instance slots and module
constants, the kinds of name CPython 3.11 specializes. Every parameter
the per-ACK code reads is copied into a slot when the controller is built:
`_c_scale` and `_freeze` from `cubic_params` (beside `_aimd_inc`, the
Reno-equivalent increment derived from it), and `_alpha`,
`_launch_interval_us`, `_orbiter_interval_rtts`, `_refresh`,
`_refresh_age_us` and `_refresh_alpha` from ROCCET's `params`.
`cubic_params` and `params` stay the source of truth for the rarer
transitions. Likewise `pacing_segs_per_s`, which the sender reads for
every segment, is an instance attribute of every controller: a read of a
class attribute through an instance does not specialize in 3.11.
"""

from __future__ import annotations

from operator import attrgetter

from .cc_types import (
    CONGESTION_AVOIDANCE, INITIAL_CWND, MIN_CWND, SLOW_START, AckInfo, CcState, CubicParams,
)
from . import cubic, roccet
from .probe_rate import (
    BW_FILTER_ROUNDS, DRAIN, LOSS_BETA, PROBE_BW, PROBE_GAINS, PROBE_RTT, STARTUP, ProbeRateParams,
)
from .roccet import LAUNCH_EXIT, LOSS_CE, ROCCET_CE, RoccetParams, RoccetState

_CC_FIELDS = CcState._fields
_ROC_FIELDS = RoccetState._fields
_get_cc = attrgetter(*_CC_FIELDS)
_get_roc = attrgetter(*_ROC_FIELDS)


class CubicController:
    """CcState held as one attribute per field, with the CUBIC per-ACK
    growth applied in place; ROCCET builds on it. `cwnd` is a plain
    attribute. `_epoch` caches `cubic.cubic_epoch` of the current fields
    (None until first needed); assigning `cc` clears it."""

    __slots__ = _CC_FIELDS + (
        "cubic_params", "ce_events", "pacing_segs_per_s", "_epoch", "_aimd_inc", "_c_scale",
        "_freeze",
    )

    def __init__(self, cubic_params: CubicParams):
        self.cubic_params = cubic_params
        self.pacing_segs_per_s = None  # never paces
        self._aimd_inc = cubic.aimd_increment(cubic_params)
        self._c_scale = cubic_params.c_scale
        self._freeze = cubic_params.app_limited_freeze
        self.cc = CcState()
        self.ce_events: list[tuple[int, str]] = []

    @property
    def cc(self) -> CcState:
        return CcState(*_get_cc(self))

    @cc.setter
    def cc(self, value: CcState) -> None:
        for name in _CC_FIELDS:
            setattr(self, name, getattr(value, name))
        self._epoch = None

    def _cubic_on_ack(self, ack: AckInfo) -> None:
        """`cubic.cubic_on_ack` in place, paused while the transport
        repairs a loss: congestion avoidance with an anchored epoch runs its
        step written out, with the epoch's K and origin kept from its start;
        anything else goes through the state-value function."""
        if ack.in_recovery or (self._freeze and ack.is_app_limited):
            return
        start = self.epoch_start_us
        if self.phase is CONGESTION_AVOIDANCE and start is not None:
            epoch = self._epoch
            if epoch is None:
                epoch = self._epoch = cubic.cubic_epoch(
                    self.w_max, self.cwnd_epoch, self.cubic_params
                )
            cwnd = self.cwnd
            w_est = self.w_est
            # target = max(max(MIN_CWND, curve), w_est), each comparison
            # keeping the earlier operand on a tie as max() does
            target = self._c_scale * ((ack.now_us - start) / 1e6 - epoch[0]) ** 3 + epoch[1]
            if not target > MIN_CWND:
                target = MIN_CWND
            if w_est > target:
                target = w_est
            self.w_est = w_est + self._aimd_inc * ack.newly_acked / cwnd
            if target > cwnd:
                self.cwnd = cwnd + (target - cwnd) / cwnd
        else:
            self.cc = cubic.cubic_on_ack(self.cc, ack, self.cubic_params)

    # The in-place step itself: one Python frame per ACK.
    on_ack = _cubic_on_ack

    def on_loss(self, now_us: int) -> None:
        self.cc = cubic.cubic_on_congestion_event(self.cc, self.cubic_params, now_us)
        self.ce_events.append((now_us, LOSS_CE))


class RenoController:
    """Classic AIMD (Reno-style) baseline, paused while the transport
    repairs a loss. Slow start adds each newly acked segment; congestion
    avoidance adds one segment per window of acknowledged segments, counted
    in `_ca_acked` so the increase is exact rather than drifting with
    1/cwnd summation; any congestion event halves the window."""

    __slots__ = ("cwnd", "ssthresh", "phase", "ce_events", "pacing_segs_per_s", "_ca_acked")

    def __init__(self):
        self.pacing_segs_per_s = None  # never paces
        self.cwnd = INITIAL_CWND
        self.ssthresh: float | None = None
        self.phase = SLOW_START
        self._ca_acked = 0.0
        self.ce_events: list[tuple[int, str]] = []

    def on_ack(self, ack: AckInfo) -> None:
        if ack.in_recovery:
            return
        if self.phase is SLOW_START:
            cwnd = self.cwnd + ack.newly_acked
            ssthresh = self.ssthresh
            if ssthresh is not None and cwnd >= ssthresh:
                self.cwnd = ssthresh
                self.phase = CONGESTION_AVOIDANCE
            else:
                self.cwnd = cwnd
        else:
            acked = self._ca_acked + ack.newly_acked
            cwnd = self.cwnd
            while acked >= cwnd:
                acked -= cwnd
                cwnd += 1.0
            self.cwnd = cwnd
            self._ca_acked = acked

    def on_loss(self, now_us: int) -> None:
        cwnd = self.cwnd / 2.0
        self.cwnd = self.ssthresh = cwnd if cwnd > MIN_CWND else MIN_CWND
        self._ca_acked = 0.0
        self.phase = CONGESTION_AVOIDANCE
        self.ce_events.append((now_us, LOSS_CE))


class ProbeRateController:
    """The rate-probing comparator of `probe_rate`, paused while the
    transport repairs a loss. `bw_window` holds the delivery rates of the
    last `BW_FILTER_ROUNDS` ACK-clocked rounds and `max_bw` their maximum.
    Each mode sets `pacing_gain` as it starts; the pacing rate is that gain
    times `max_bw`, and stays None until a rate has been measured. Every
    mode past STARTUP has measured one, so its BDP is above 0."""

    __slots__ = (
        "params", "cwnd", "mode", "min_rtt_us", "min_rtt_stamp_us", "probe_rtt_best_us",
        "probe_rtt_done_us", "round_index", "round_start_us", "round_acked", "bw_window",
        "max_bw", "full_bw", "full_bw_count", "gain_index", "cycle_stamp_us", "pacing_gain",
        "pacing_segs_per_s", "ce_events",
    )

    def __init__(self, params: ProbeRateParams):
        self.params = params
        self.cwnd = INITIAL_CWND
        self.mode = STARTUP
        self.min_rtt_us: int | None = None
        self.min_rtt_stamp_us = 0
        self.probe_rtt_best_us: int | None = None
        self.probe_rtt_done_us = 0
        self.round_index = 0
        self.round_start_us = 0
        self.round_acked = 0.0
        self.bw_window: tuple[tuple[int, float], ...] = ()  # (round, segs per second)
        self.max_bw = 0.0
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.gain_index = 0
        self.cycle_stamp_us = 0
        self.pacing_gain = params.startup_pacing_gain
        self.pacing_segs_per_s: float | None = None
        self.ce_events: list[tuple[int, str]] = []

    def on_ack(self, ack: AckInfo) -> None:
        if ack.in_recovery:
            return
        now = ack.now_us
        sample = ack.rtt_sample_us
        params = self.params
        mode = self.mode

        min_rtt = self.min_rtt_us
        if min_rtt is None or sample < min_rtt:
            self.min_rtt_us = min_rtt = sample
            self.min_rtt_stamp_us = now
        if mode == PROBE_RTT:
            best = self.probe_rtt_best_us
            if best is None or sample < best:
                self.probe_rtt_best_us = sample

        round_acked = self.round_acked + ack.newly_acked
        if ack.round_start:
            elapsed = now - self.round_start_us
            if elapsed > 0 and round_acked > 0:
                bw = round_acked * 1e6 / elapsed
                index = self.round_index
                self.bw_window = window = tuple(
                    (r, b) for r, b in self.bw_window + ((index, bw),)
                    if r > index - BW_FILTER_ROUNDS
                )
                self.max_bw = max(b for _, b in window)
            self.round_index += 1
            self.round_start_us = now
            round_acked = 0.0
        self.round_acked = round_acked

        bdp = self.max_bw * min_rtt / 1e6
        bdp_cwnd = params.cwnd_gain * bdp
        if not bdp_cwnd > params.min_cwnd:
            bdp_cwnd = params.min_cwnd

        if mode == STARTUP:
            self.cwnd += ack.newly_acked
            if ack.round_start and not ack.is_app_limited:
                max_bw = self.max_bw
                if max_bw >= self.full_bw * 1.25 or self.full_bw == 0.0:
                    self.full_bw = max_bw
                    self.full_bw_count = 0
                else:
                    self.full_bw_count += 1
                    if self.full_bw_count >= 3:
                        self.mode = DRAIN
                        self.pacing_gain = 1.0 / params.startup_pacing_gain
        elif mode == DRAIN:
            if ack.in_flight <= bdp:
                self._enter_probe_bw(now, bdp_cwnd)
        elif mode == PROBE_BW:
            cwnd = self.cwnd + ack.newly_acked
            self.cwnd = bdp_cwnd if bdp_cwnd < cwnd else cwnd
            if now - self.cycle_stamp_us >= min_rtt:
                self.gain_index = index = (self.gain_index + 1) % len(PROBE_GAINS)
                self.pacing_gain = PROBE_GAINS[index]
                self.cycle_stamp_us = now
            if now - self.min_rtt_stamp_us > params.min_rtt_window_us:
                self.mode = PROBE_RTT
                self.pacing_gain = 1.0
                self.probe_rtt_done_us = now + params.probe_rtt_duration_us
                self.probe_rtt_best_us = None
                self.cwnd = params.min_cwnd
        else:  # PROBE_RTT
            self.cwnd = params.min_cwnd
            if now >= self.probe_rtt_done_us:
                if self.probe_rtt_best_us is not None:
                    self.min_rtt_us = self.probe_rtt_best_us
                self.min_rtt_stamp_us = now
                self._enter_probe_bw(now, bdp_cwnd)

        if self.max_bw > 0.0:
            self.pacing_segs_per_s = self.pacing_gain * self.max_bw

    def _enter_probe_bw(self, now_us: int, cwnd: float) -> None:
        self.mode = PROBE_BW
        self.gain_index = 0
        self.pacing_gain = PROBE_GAINS[0]
        self.cycle_stamp_us = now_us
        self.cwnd = cwnd

    def on_loss(self, now_us: int) -> None:
        cwnd = self.cwnd * LOSS_BETA
        min_cwnd = self.params.min_cwnd
        self.cwnd = cwnd if cwnd > min_cwnd else min_cwnd
        self.ce_events.append((now_us, LOSS_CE))


class RoccetController(CubicController):
    """Per-ACK driver for the ROCCET decision flow.

    Update order per ACK: refresh rtt_min from the raw sample, recompute
    srrtt from the sender's smoothed RTT (`ack.srtt_us`, which has already
    taken this ACK's sample), advance the interval counters (RTT
    boundaries tick on rtt_min of wall time, so cum_cwnd states what the
    window promises per uncongested round trip), then route: slow start
    runs the LAUNCH check each 100 ms interval, congestion avoidance
    returns immediately while draining, otherwise runs the ORBITER check
    each five-RTT interval. Whenever no check fires, growth falls through
    to plain CUBIC. While the transport is repairing a loss episode
    (`ack.in_recovery`), signal updates continue but decisions and growth
    pause, mirroring a kernel suspending the growth hook during recovery.

    The signal updates and CUBIC growth run in place on this object's
    fields as straight-line code; the checks and the transitions they
    trigger go through the `roccet` state-value functions on `roc` / `cc`.
    """

    __slots__ = _ROC_FIELDS + (
        "params", "_next_tick_us", "launch_exits", "_alpha", "_launch_interval_us",
        "_orbiter_interval_rtts", "_refresh", "_refresh_age_us", "_refresh_alpha",
    )

    def __init__(self, cubic_params: CubicParams, params: RoccetParams):
        super().__init__(cubic_params)
        self.params = params
        # The per-ACK reads of params, taken once.
        self._alpha = params.alpha
        self._launch_interval_us = params.launch_interval_us
        self._orbiter_interval_rtts = params.orbiter_interval_rtts
        self._refresh = params.rtt_min_refresh
        self._refresh_age_us = params.rtt_min_refresh_age_us
        self._refresh_alpha = params.rtt_min_refresh_alpha
        self.roc = RoccetState()
        self._next_tick_us: int | None = None
        self.launch_exits: list[tuple[int, float, float]] = []  # (t, before, after)

    @property
    def roc(self) -> RoccetState:
        return RoccetState(*_get_roc(self))

    @roc.setter
    def roc(self, value: RoccetState) -> None:
        for name in _ROC_FIELDS:
            setattr(self, name, getattr(value, name))

    def _reset_interval(self, now_us: int) -> None:
        # The RTT tick grid re-anchors at the ACK that starts the interval,
        # so measurement windows are self-timed per flow.
        self.roc = roccet.reset_interval(self.roc, now_us)
        self._next_tick_us = now_us + (self.rtt_min_us or 0)

    def on_ack(self, ack: AckInfo) -> None:
        now = ack.now_us
        sample = ack.rtt_sample_us

        # update_rtt_min of tests/reference_steps.py
        rtt_min = self.rtt_min_us
        if rtt_min is None or sample < rtt_min:
            self.rtt_min_us = rtt_min = sample
            self.rtt_min_updated_at_us = now
        elif self._refresh and now - self.rtt_min_updated_at_us > self._refresh_age_us:
            a = self._refresh_alpha
            self.rtt_min_us = rtt_min = round(a * sample + (1.0 - a) * rtt_min)
            self.rtt_min_updated_at_us = now
        # roccet.update_srrtt
        x = (round(ack.srtt_us) - rtt_min) / rtt_min
        if x < 0.0:
            x = 0.0
        alpha = self._alpha
        self.srrtt = alpha * x + (1.0 - alpha) * self.srrtt

        if self.interval_start_us is None:
            self._reset_interval(now)
        # accumulate_interval of tests/reference_steps.py. Each boundary
        # re-anchors on the ACK that crossed it: windows are self-timed per
        # flow, drifting with ACK quantization the way an ACK-clocked kernel
        # timer would.
        next_tick = self._next_tick_us
        if next_tick is not None and now >= next_tick:
            self._next_tick_us = now + rtt_min
            self.cum_cwnd_in_interval += self.cwnd
            self.rtts_elapsed_in_interval += 1
        self.acks_in_interval += ack.newly_acked

        if ack.in_recovery:
            return

        if self.phase is SLOW_START:
            if (
                self.interval_start_us is not None
                and now - self.interval_start_us >= self._launch_interval_us
            ):
                exits = roccet.launch_check(self.roc, self.params)
                self._reset_interval(now)
                if exits:
                    before = self.cwnd
                    self.roc, self.cc = roccet.apply_launch_exit(
                        self.roc, self.cc, now, self.cubic_params
                    )
                    self.ce_events.append((now, LAUNCH_EXIT))
                    self.launch_exits.append((now, before, self.cwnd))
                    return
        else:
            if self.drain_until_us is not None and now < self.drain_until_us:
                return
            if self.rtts_elapsed_in_interval >= self._orbiter_interval_rtts:
                params = self.params
                fires = roccet.orbiter_check(self.roc, now, params)
                self._reset_interval(now)
                if fires:
                    self.roc, self.cc = roccet.apply_roccet_ce(
                        self.roc, self.cc, now, params, self.cubic_params
                    )
                    self.ce_events.append((now, ROCCET_CE))
                    return
        self._cubic_on_ack(ack)

    def on_loss(self, now_us: int) -> None:
        # Loss during slow start is ignored: retransmission is still the
        # transport's job, but the window is left untouched.
        if self.phase is SLOW_START or self.params.ignore_loss:
            return
        self.cc = roccet.orbiter_on_loss(self.cc, self.params, self.cubic_params, now_us)
        self.ce_events.append((now_us, LOSS_CE))


#: Each algorithm's controller, built from one flow's `harness.FlowSpec`.
CONTROLLERS = {
    "cubic": lambda flow: CubicController(flow.cubic),
    "reno": lambda flow: RenoController(),
    "roccet": lambda flow: RoccetController(flow.cubic, flow.roccet),
    "probe_rate": lambda flow: ProbeRateController(flow.probe),
}


def make_controller(flow):
    """Build the controller of one flow, a `harness.FlowSpec`; the
    scenario's validation has checked that its algo is in `CONTROLLERS`."""
    return CONTROLLERS[flow.algo](flow)
