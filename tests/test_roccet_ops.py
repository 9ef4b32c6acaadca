import math
import random

import pytest
from reference_steps import accumulate_interval, update_rtt_min

from roccet_lab.cc_types import CONGESTION_AVOIDANCE, AckInfo, CcState, CubicParams
from roccet_lab.controllers import RoccetController
from roccet_lab.cubic import cubic_on_congestion_event
from roccet_lab.errors import RoccetLabError
from roccet_lab.roccet import (
    LOSS_CE,
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

CP = CubicParams()
RP = RoccetParams()


def _ack(ctl, sample_us, now_us, srtt_us):
    """Hand `ctl` one single-segment ACK the way the sender does, with its
    smoothed RTT after this sample (the first sample seeds it, then weight
    1/8); returns that smoothed RTT for the next call."""
    srtt_us = float(sample_us) if srtt_us is None else srtt_us + 0.125 * (sample_us - srtt_us)
    ctl.on_ack(AckInfo(newly_acked=1, rtt_sample_us=sample_us, srtt_us=srtt_us, now_us=now_us))
    return srtt_us


class TestRttMin:
    def test_first_sample_initializes(self):
        out = update_rtt_min(RoccetState(), 40_000, now_us=10, params=RP)
        assert out.rtt_min_us == 40_000
        assert out.rtt_min_updated_at_us == 10

    def test_lower_sample_updates(self):
        state = RoccetState(rtt_min_us=40_000)
        out = update_rtt_min(state, 35_000, now_us=20, params=RP)
        assert out.rtt_min_us == 35_000

    def test_higher_sample_ignored_without_refresh(self):
        state = RoccetState(rtt_min_us=40_000, rtt_min_updated_at_us=0)
        out = update_rtt_min(state, 90_000, now_us=99_000_000, params=RP)
        assert out.rtt_min_us == 40_000

    def test_stale_minimum_refreshes_by_ewma(self):
        params = RoccetParams(rtt_min_refresh=True, rtt_min_refresh_alpha=0.5)
        state = RoccetState(rtt_min_us=40_000, rtt_min_updated_at_us=0)
        out = update_rtt_min(state, 60_000, now_us=11_000_000, params=params)
        assert out.rtt_min_us == 50_000
        assert out.rtt_min_updated_at_us == 11_000_000


class TestSrrtt:
    def test_zero_inflation_stays_zero(self):
        state = RoccetState(rtt_min_us=40_000, srrtt=0.0)
        assert update_srrtt(state, 40_000, RP).srrtt == 0.0

    def test_alpha_one_hits_threshold_exactly(self):
        params = RoccetParams(alpha=1.0)
        state = RoccetState(rtt_min_us=40_000, srrtt=0.123)
        assert math.isclose(update_srrtt(state, 80_000, params).srrtt, 1.0, rel_tol=1e-12)

    def test_ewma_arithmetic(self):
        state = RoccetState(rtt_min_us=100_000, srrtt=0.4)
        # x = (220000 - 100000) / 100000 = 1.2
        out = update_srrtt(state, 220_000, RP)
        assert math.isclose(out.srrtt, 0.25 * 1.2 + 0.75 * 0.4, rel_tol=1e-12)

    def test_misuse_before_rtt_min(self):
        with pytest.raises(RoccetLabError):
            update_srrtt(RoccetState(), 50_000, RP)

    def test_non_negative_over_any_sequence(self):
        rng = random.Random(5)
        params = RoccetParams(rtt_min_refresh=True)
        state = RoccetState()
        now = 0
        for _ in range(2000):
            now += rng.randint(1_000, 2_000_000)
            sample = rng.randint(10_000, 400_000)
            state = update_rtt_min(state, sample, now, params)
            state = update_srrtt(state, sample, params)
            assert state.srrtt >= 0.0

    def test_oracle_equivalence_direct_recurrence(self):
        # Independent direct evaluation of the smoothing recurrence over the
        # same inflation inputs, exact to 1e-12.
        rng = random.Random(99)
        for _ in range(50):
            alpha = rng.uniform(0.05, 1.0)
            params = RoccetParams(alpha=alpha)
            rtt_min = rng.randint(5_000, 80_000)
            samples = [rtt_min + rng.randint(0, 300_000) for _ in range(rng.randint(1, 200))]

            oracle = 0.0
            for s in samples:
                x = (s - rtt_min) / rtt_min
                oracle = alpha * x + (1 - alpha) * oracle

            state = RoccetState(rtt_min_us=rtt_min)
            for s in samples:
                state = update_srrtt(state, s, params)
            assert abs(state.srrtt - oracle) <= 1e-12


class TestAccumulate:
    def test_acks_accumulate_without_boundary(self):
        state = RoccetState()
        out = accumulate_interval(state, 10, 50.0, rtt_boundary_crossed=False)
        assert out.acks_in_interval == 10
        assert out.cum_cwnd_in_interval == 0.0
        assert out.rtts_elapsed_in_interval == 0

    def test_boundary_adds_window(self):
        out = accumulate_interval(RoccetState(), 0, 50.0, rtt_boundary_crossed=True)
        assert out.cum_cwnd_in_interval == 50.0
        assert out.rtts_elapsed_in_interval == 1

    def test_conservation_on_steady_window(self):
        # Constant window, every sent segment acked: 5 rounds of cwnd ACKs
        # against 5 window samples balance exactly.
        state = RoccetState()
        cwnd = 50.0
        for _ in range(5):
            state = accumulate_interval(state, cwnd, cwnd, rtt_boundary_crossed=True)
        assert state.acks_in_interval == state.cum_cwnd_in_interval

    def test_reset_clears_counters_together(self):
        state = RoccetState(acks_in_interval=10, cum_cwnd_in_interval=99,
                            rtts_elapsed_in_interval=3)
        out = reset_interval(state, now_us=123)
        assert out.acks_in_interval == 0
        assert out.cum_cwnd_in_interval == 0
        assert out.rtts_elapsed_in_interval == 0
        assert out.interval_start_us == 123


class TestLaunch:
    def test_exit_initial_when_both_conditions_hold(self):
        state = RoccetState(srrtt=1.5, acks_in_interval=100, cum_cwnd_in_interval=125)
        cc = CcState(cwnd=200.0)
        assert launch_check(state, RP) is True
        _, out = apply_launch_exit(state, cc, 7, CP)
        assert out.cwnd == 100.0
        assert out.ssthresh == 100.0
        assert out.phase is CONGESTION_AVOIDANCE

    def test_stay_when_srrtt_low(self):
        state = RoccetState(srrtt=0.3, acks_in_interval=0, cum_cwnd_in_interval=500)
        assert launch_check(state, RP) is False

    def test_stay_when_margin_unmet(self):
        state = RoccetState(srrtt=1.2, acks_in_interval=96, cum_cwnd_in_interval=100)
        assert launch_check(state, RP) is False

    def test_later_slow_start_exits_via_congestion_event(self):
        state = RoccetState(srrtt=1.5, acks_in_interval=0, cum_cwnd_in_interval=100,
                            is_initial_slow_start=False)
        cc = CcState(cwnd=100.0, w_max=0.0)
        assert launch_check(state, RP) is True
        _, out = apply_launch_exit(state, cc, 7, CP)
        assert math.isclose(out.cwnd, 70.0, rel_tol=1e-9)

    def test_halving_property_floors_at_one(self):
        rng = random.Random(11)
        for _ in range(300):
            cwnd = rng.uniform(1.0, 4000.0)
            state = RoccetState(srrtt=2.0, acks_in_interval=0, cum_cwnd_in_interval=50)
            cc = CcState(cwnd=cwnd)
            _, out = apply_launch_exit(state, cc, 1, CP)
            assert out.cwnd == max(1.0, cwnd / 2.0)
            assert out.ssthresh == out.cwnd

    def test_loss_ignored_in_slow_start(self):
        cc = CcState(cwnd=300.0)
        ctl = RoccetController(CP, RoccetParams())
        ctl.cc = cc
        ctl.on_loss(0)
        assert ctl.cc == cc
        # plain CUBIC contrast: the same loss costs 30 %
        cubic_cc = cubic_on_congestion_event(cc, CP, 0)
        assert math.isclose(cubic_cc.cwnd, 210.0, rel_tol=1e-9)
        # ignoring twice changes nothing either
        ctl.on_loss(0)
        assert ctl.cc == cc


class TestOrbiter:
    def test_fires_on_deficit_and_srrtt(self):
        state = RoccetState(srrtt=1.4, acks_in_interval=350, cum_cwnd_in_interval=500)
        assert orbiter_check(state, 0, RP) is True

    def test_no_fire_below_deviation(self):
        state = RoccetState(srrtt=1.4, acks_in_interval=450, cum_cwnd_in_interval=500)
        assert orbiter_check(state, 0, RP) is False

    def test_no_fire_below_srrtt_threshold(self):
        state = RoccetState(srrtt=0.99, acks_in_interval=0, cum_cwnd_in_interval=500)
        assert orbiter_check(state, 0, RP) is False

    def test_drain_blocks_unconditionally(self):
        state = RoccetState(srrtt=9.9, acks_in_interval=0, cum_cwnd_in_interval=500,
                            drain_until_us=1_000_000)
        assert orbiter_check(state, 999_999, RP) is False
        assert orbiter_check(state, 1_000_000, RP) is True

    def test_apply_ce_raises_peak_when_above(self):
        state, cc = apply_roccet_ce(
            RoccetState(), CcState(cwnd=120.0, w_max=100.0), 50, RP, CP
        )
        assert cc.w_max == 120.0
        assert math.isclose(cc.cwnd, 84.0, rel_tol=1e-9)
        assert state.drain_until_us == 50 + RP.drain_duration_us

    def test_apply_ce_keeps_peak_when_below(self):
        _, cc = apply_roccet_ce(
            RoccetState(), CcState(cwnd=80.0, w_max=100.0), 0, RP, CP
        )
        assert cc.w_max == 100.0
        assert math.isclose(cc.cwnd, 56.0, rel_tol=1e-9)

    def test_peak_monotone_under_roccet_ces(self):
        rng = random.Random(2)
        state, cc = RoccetState(), CcState(cwnd=100.0, w_max=0.0)
        now = 0
        for _ in range(200):
            now += rng.randint(1, 10_000_000)
            prev_peak = cc.w_max
            state, cc = apply_roccet_ce(state, cc, now, RP, CP)
            assert cc.w_max >= prev_peak
            cc = CcState(cwnd=rng.uniform(1, 500), w_max=cc.w_max)

    def test_loss_delegates_to_cubic(self):
        cc = orbiter_on_loss(CcState(cwnd=100.0, w_max=80.0), RP, CP, 9)
        assert math.isclose(cc.cwnd, 70.0, rel_tol=1e-9)
        assert cc.w_max == 100.0

    def test_loss_ignored_when_configured(self):
        params = RoccetParams(ignore_loss=True)
        start = CcState(cwnd=100.0, w_max=80.0)
        cc = orbiter_on_loss(start, params, CP, 9)
        assert cc == start
        ctl = RoccetController(CP, params)
        ctl.cc = CcState(cwnd=100.0, w_max=80.0, phase=CONGESTION_AVOIDANCE)
        ctl.on_loss(9)
        assert ctl.cwnd == 100.0 and ctl.ce_events == []

    def test_loss_during_drain_still_reduces(self):
        ctl = RoccetController(CP, RP)
        ctl.cc = CcState(cwnd=100.0, w_max=80.0, phase=CONGESTION_AVOIDANCE)
        ctl.roc = RoccetState(drain_until_us=10_000_000)
        ctl.on_loss(5_000_000)
        assert math.isclose(ctl.cwnd, 70.0, rel_tol=1e-9)
        assert ctl.ce_events == [(5_000_000, LOSS_CE)]


class TestControllerDrain:
    def _controller_in_avoidance(self):
        ctl = RoccetController(CP, RP)
        now = 0
        # one sample seeds rtt_min / srtt
        srtt = _ack(ctl, 40_000, now, None)

        ctl.cc = ctl.cc._replace(
            cwnd=100.0, w_max=120.0, cwnd_epoch=100.0, w_est=100.0,
            phase=CONGESTION_AVOIDANCE, epoch_start_us=now,
        )
        return ctl, srtt

    def test_window_constant_through_drain(self):
        ctl, srtt = self._controller_in_avoidance()
        from roccet_lab import roccet as ops

        ctl.roc, ctl.cc = ops.apply_roccet_ce(ctl.roc, ctl.cc, 1_000, RP, CP)
        held = ctl.cc.cwnd
        now = 1_000
        for _ in range(20):  # 20 ACKs in under 100 ms
            now += 4_000
            srtt = _ack(ctl, 90_000, now, srtt)
            assert ctl.cc.cwnd == held
        # first ACK past the drain resumes growth
        _ack(ctl, 90_000, 1_000 + 100_000, srtt)
        assert ctl.cc.cwnd > held

    def test_launch_exit_records_exact_halving(self):
        ctl = RoccetController(CP, RP)
        now = 0
        srtt = _ack(ctl, 40_000, now, None)
        # inflate srrtt and the deficit, then cross the interval boundary
        for i in range(30):
            now += 10_000
            srtt = _ack(ctl, 120_000, now, srtt)
        if not ctl.launch_exits:
            now += 200_000
            _ack(ctl, 120_000, now, srtt)
        assert ctl.launch_exits, "controller never left slow start"
        _, before, after = ctl.launch_exits[0]
        assert after == max(1.0, before / 2.0)
        assert ctl.cc.ssthresh == after
