"""Lockstep oracle for the folded per-ACK path of the CUBIC and ROCCET
controllers.

`controllers.py` runs each ACK as straight-line code: the rtt_min
tracker, srRTT over the sender's smoothed RTT, the interval counters and
the anchored-epoch CUBIC step are written out inside `on_ack`. This test
records every `on_ack` / `on_loss` call the simulator makes in five runs,
two of them with every parameter the controllers copy into a slot away
from its default, with a copy of each ACK record, and replays each flow's
calls into a fresh controller and into a reference driver. The reference
is built only from the state-value functions of `cubic.py`, `roccet.py`
and `reference_steps.py` (`update_rtt_min`, `update_srrtt`,
`accumulate_interval`, `cubic_on_ack` and the LAUNCH / ORBITER checks and
transitions) and
imports nothing from `controllers.py`. After every call both must hold exactly the same state,
the same values of the same types compared through `repr`, and the
controller's `ce_events` must equal the congestion events the reference
logged itself.
"""

from copy import copy

from reference_steps import accumulate_interval, update_rtt_min

from roccet_lab import simulator
from roccet_lab.cc_types import SLOW_START, CcState, CubicParams
from roccet_lab.cubic import cubic_on_ack, cubic_on_congestion_event
from roccet_lab.harness import builtin_scenario
from roccet_lab.roccet import (
    LAUNCH_EXIT,
    LOSS_CE,
    ROCCET_CE,
    RoccetParams,
    RoccetState,
    apply_launch_exit,
    apply_roccet_ce,
    launch_check,
    orbiter_check,
    orbiter_on_loss,
    reset_interval,
    update_srrtt,
)


class ReferenceCubic:
    """CUBIC through the state-value functions: growth outside loss
    repair, a congestion event on every loss the transport reports.
    `ce_log` is its own log of congestion events, (time, kind) pairs."""

    def __init__(self, cubic_params):
        self.cubic_params = cubic_params
        self.cc = CcState()
        self.ce_log = []

    def on_ack(self, ack):
        if not ack.in_recovery:
            self.cc = cubic_on_ack(self.cc, ack, self.cubic_params)

    def on_loss(self, now_us):
        self.cc = cubic_on_congestion_event(self.cc, self.cubic_params, now_us)
        self.ce_log.append((now_us, LOSS_CE))

    def snapshot(self):
        return self.cc, self.cc.cwnd


class ReferenceRoccet(ReferenceCubic):
    """ROCCET's per-ACK decision flow, one state value at a time."""

    def __init__(self, cubic_params, params):
        super().__init__(cubic_params)
        self.params = params
        self.roc = RoccetState()
        self.next_tick = None

    def _reset(self, now):
        self.roc = reset_interval(self.roc, now)
        self.next_tick = now + (self.roc.rtt_min_us or 0)

    def on_ack(self, ack):
        now, params = ack.now_us, self.params
        self.roc = update_rtt_min(self.roc, ack.rtt_sample_us, now, params)
        self.roc = update_srrtt(self.roc, round(ack.srtt_us), params)
        if self.roc.interval_start_us is None:
            self._reset(now)
        boundary = self.next_tick is not None and now >= self.next_tick
        if boundary:
            self.next_tick = now + self.roc.rtt_min_us
        self.roc = accumulate_interval(self.roc, ack.newly_acked, self.cc.cwnd, boundary)
        if ack.in_recovery:
            return
        if self.cc.phase is SLOW_START:
            start = self.roc.interval_start_us
            if start is not None and now - start >= params.launch_interval_us:
                exits = launch_check(self.roc, params)
                self._reset(now)
                if exits:
                    self.roc, self.cc = apply_launch_exit(self.roc, self.cc, now, self.cubic_params)
                    self.ce_log.append((now, LAUNCH_EXIT))
                    return
        else:
            drain = self.roc.drain_until_us
            if drain is not None and now < drain:
                return
            if self.roc.rtts_elapsed_in_interval >= params.orbiter_interval_rtts:
                fires = orbiter_check(self.roc, now, params)
                self._reset(now)
                if fires:
                    self.roc, self.cc = apply_roccet_ce(
                        self.roc, self.cc, now, params, self.cubic_params
                    )
                    self.ce_log.append((now, ROCCET_CE))
                    return
        self.cc = cubic_on_ack(self.cc, ack, self.cubic_params)

    def on_loss(self, now_us):
        if self.cc.phase is SLOW_START:
            return
        self.cc = orbiter_on_loss(self.cc, self.params, self.cubic_params, now_us)
        if not self.params.ignore_loss:
            self.ce_log.append((now_us, LOSS_CE))

    def snapshot(self):
        return self.cc, self.roc, self.cc.cwnd


def _folded_snapshot(ctl):
    if hasattr(ctl, "roc"):
        return ctl.cc, ctl.roc, ctl.cwnd
    return ctl.cc, ctl.cwnd


class _Recorder:
    """Stands in for one flow's controller during a run and records what
    the sender passes it; everything else is the controller's own."""

    def __init__(self, ctl, flow):
        self.ctl, self.flow = ctl, flow
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.ctl, name)

    @property
    def cwnd(self):
        return self.ctl.cwnd

    def on_ack(self, ack):
        # The sender refills one record per ACK, so keep a copy.
        self.calls.append(("ack", copy(ack)))
        self.ctl.on_ack(ack)

    def on_loss(self, now_us):
        self.calls.append(("loss", now_us))
        self.ctl.on_loss(now_us)


def _record(spec, monkeypatch):
    make = simulator.make_controller
    recorders = []

    def recording(flow):
        ctl = make(flow)
        if flow.algo not in ("cubic", "roccet"):
            return ctl
        rec = _Recorder(ctl, flow)
        recorders.append(rec)
        return rec

    with monkeypatch.context() as m:
        m.setattr(simulator, "make_controller", recording)
        simulator.run(spec)
    return recorders


def _replay(rec):
    """Drive a fresh folded controller and the reference with one flow's
    calls; fail at the first call after which their states differ."""
    flow = rec.flow
    ctl = simulator.make_controller(flow)
    if flow.algo == "roccet":
        ref = ReferenceRoccet(flow.cubic, flow.roccet)
    else:
        ref = ReferenceCubic(flow.cubic)
    for i, (kind, arg) in enumerate(rec.calls):
        if kind == "ack":
            ctl.on_ack(arg)
            ref.on_ack(arg)
        else:
            ctl.on_loss(arg)
            ref.on_loss(arg)
        assert repr(_folded_snapshot(ctl)) == repr(ref.snapshot()), (flow.algo, i, arg)
        assert ctl.ce_events == ref.ce_log, (flow.algo, i, arg)
    return ref


def _bw_halving():
    return builtin_scenario("bw-halving", seed=1, horizon_s=16.0)


def _fairness_with_drops():
    return builtin_scenario(
        "fairness-10x40", seed=1, n_flows=2, buffer_bdp=1.0, competitor="cubic", horizon_s=12.0
    )


def _steady_refresh():
    spec = builtin_scenario("steady", algo="roccet", seed=1, horizon_s=6.0)
    params = RoccetParams(rtt_min_refresh=True, rtt_min_refresh_age_us=500_000)
    return spec._replace(flows=tuple(f._replace(roccet=params) for f in spec.flows))


# Every parameter the controllers copy into a slot when they are built,
# each away from its default.
_CUBIC_PARAMS = CubicParams(c_scale=0.8, app_limited_freeze=False)
_ROCCET_PARAMS = RoccetParams(
    alpha=0.5,
    launch_interval_us=50_000,
    orbiter_interval_rtts=3,
    rtt_min_refresh=True,
    rtt_min_refresh_age_us=500_000,
    rtt_min_refresh_alpha=0.25,
)


def _with_params(spec):
    return spec._replace(
        flows=tuple(f._replace(cubic=_CUBIC_PARAMS, roccet=_ROCCET_PARAMS) for f in spec.flows)
    )


def _refreshes(calls, params):
    """ACKs at which `update_rtt_min` refreshes the minimum: a sample no
    lower than it restamps it. A minimum not refreshed keeps its stamp,
    which cannot be this ACK's time, as the refresh age is positive."""
    state, fired = RoccetState(), 0
    for kind, ack in calls:
        if kind == "ack":
            sample, now = ack.rtt_sample_us, ack.now_us
            before = state.rtt_min_us
            state = update_rtt_min(state, sample, now, params)
            fired += before is not None and sample >= before and state.rtt_min_updated_at_us == now
    return fired


def test_bw_halving_in_lockstep(monkeypatch):
    (rec,) = _record(_bw_halving(), monkeypatch)
    ref = _replay(rec)
    kinds = {kind for _, kind in ref.ce_log}
    assert {LAUNCH_EXIT, ROCCET_CE} <= kinds
    assert any(kind == "ack" and ack.is_app_limited for kind, ack in rec.calls)


def test_fairness_cell_with_drops_in_lockstep(monkeypatch):
    recs = _record(_fairness_with_drops(), monkeypatch)
    assert sorted(rec.flow.algo for rec in recs) == ["cubic", "roccet", "roccet"]
    for rec in recs:
        _replay(rec)
    calls = [call for rec in recs for call in rec.calls]
    assert any(kind == "loss" for kind, _ in calls)
    assert any(kind == "ack" and ack.in_recovery for kind, ack in calls)


def test_rtt_min_refresh_in_lockstep(monkeypatch):
    (rec,) = _record(_steady_refresh(), monkeypatch)
    assert _refreshes(rec.calls, rec.flow.roccet) >= 5
    _replay(rec)


def test_non_default_params_in_lockstep(monkeypatch):
    # A ROCCET run and an app-limited CUBIC run: app-limited ACKs reach
    # the CUBIC step of both with the freeze off, and the ROCCET flow
    # refreshes rtt_min and takes both kinds of ROCCET event.
    recs = _record(_with_params(builtin_scenario("bw-halving", seed=1, horizon_s=8.0)), monkeypatch)
    recs += _record(_with_params(builtin_scenario("frozen-cwnd", seed=1, horizon_s=5.0)), monkeypatch)
    assert [rec.flow.algo for rec in recs] == ["roccet", "cubic"]
    roccet_rec, cubic_rec = recs
    kinds = {kind for _, kind in _replay(roccet_rec).ce_log}
    assert {LAUNCH_EXIT, ROCCET_CE} <= kinds
    assert _refreshes(roccet_rec.calls, _ROCCET_PARAMS) >= 5
    assert _replay(cubic_rec).ce_log
    for rec in recs:
        assert any(kind == "ack" and ack.is_app_limited for kind, ack in rec.calls)
