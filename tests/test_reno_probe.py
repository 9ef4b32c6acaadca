from dataclasses import replace

from roccet_lab.cc_types import AckInfo, CcState, Phase
from roccet_lab.harness import builtin_scenario
from roccet_lab.metrics import flow_metrics
from roccet_lab.probe_rate import (
    PROBE_BW,
    PROBE_RTT,
    ProbeRateParams,
    ProbeRateState,
    probe_rate_on_ack,
    probe_rate_on_loss,
)
from roccet_lab.reno import reno_on_ack, reno_on_congestion_event
from roccet_lab.simulator import run


def ack(newly=1, now_us=0, rtt_us=40_000):
    return AckInfo(newly_acked=newly, rtt_sample_us=rtt_us, now_us=now_us)


class TestReno:
    def test_full_window_acked_adds_one(self):
        state = CcState(cwnd=10.0, phase=Phase.CONGESTION_AVOIDANCE)
        for _ in range(10):
            state = reno_on_ack(state, ack())
        assert state.cwnd == 11.0

    def test_halving_on_congestion(self):
        state = CcState(cwnd=20.0)
        out = reno_on_congestion_event(state, now_us=1)
        assert out.cwnd == 10.0
        assert out.ssthresh == 10.0

    def test_slow_start_step(self):
        state = CcState(cwnd=1.0)
        assert reno_on_ack(state, ack()).cwnd == 2.0

    def test_ssthresh_crossover_enters_avoidance(self):
        state = CcState(cwnd=7.0, ssthresh=8.0)
        out = reno_on_ack(state, ack(newly=4))
        assert out.cwnd == 8.0
        assert out.phase is Phase.CONGESTION_AVOIDANCE


class TestProbeRate:
    def test_startup_doubles_per_round(self):
        params = ProbeRateParams()
        cc = CcState(cwnd=10.0)
        pr = ProbeRateState()
        now = 0
        for _ in range(10):  # one round of per-segment ACKs
            now += 4_000
            cc, pr, _ = probe_rate_on_ack(cc, pr, ack(1, now), params, 10.0, False, 1500)
        assert cc.cwnd == 20.0

    def test_probe_rtt_entered_after_quiet_window(self):
        params = ProbeRateParams()
        cc = CcState(cwnd=40.0)
        pr = ProbeRateState(mode=PROBE_BW, min_rtt_us=40_000, min_rtt_stamp_us=0,
                            bw_window=((0, 800.0),), cycle_stamp_us=0)
        cc, pr, _ = probe_rate_on_ack(
            cc, pr, ack(1, now_us=10_100_000, rtt_us=41_000), params, 40.0, False, 1500
        )
        assert pr.mode == PROBE_RTT
        assert cc.cwnd == 4.0

    def test_loss_backoff_floors_at_min_cwnd(self):
        params = ProbeRateParams()
        cc = CcState(cwnd=5.0)
        out = probe_rate_on_loss(cc, ProbeRateState(), params, 0)
        assert out.cwnd == 4.0

    def test_steady_link_pacing_near_bottleneck_rate(self):
        # Simulator steady-state check: the rate model converges near the
        # 10 Mbps bottleneck and holds the queue low.
        spec = builtin_scenario("steady", algo="probe_rate", horizon_s=20.0)
        traces = run(spec)
        fm = next(iter(traces.flows.values()))
        delivered = sum(s.delivered_bytes for s in fm.samples if s.t_us >= 10e6)
        mbps = delivered * 8 / 10e6
        assert 8.0 < mbps <= 10.0
        tail_queue = [s.queue_segs for s in fm.samples if s.t_us >= 10e6]
        assert sum(tail_queue) / len(tail_queue) < 17  # below half the 1-BDP buffer

    def test_pacing_converges_to_bottleneck_within_one_gain_cycle(self):
        # Feed ACKs at exactly the bottleneck pace (10 Mbps, per-segment):
        # once the model leaves startup, unity-gain phases pace at the
        # estimated rate, which must sit near the bottleneck rate.
        params = ProbeRateParams()
        cc = CcState(cwnd=10.0)
        pr = ProbeRateState()
        now, seq_interval = 0, 1200  # 1500 B at 10 Mbps
        bdp = 10e6 * 0.04 / (8 * 1500)
        pacing = None
        unity_rates = []
        for i in range(25_000):
            now += seq_interval
            round_start = i % 33 == 0  # ~one 40 ms round of 33 segments
            in_flight = min(cc.cwnd, bdp)  # ACK-paced feed keeps one BDP out
            cc, pr, pacing = probe_rate_on_ack(
                cc, pr, ack(1, now, rtt_us=40_000), params, in_flight, round_start, 1500
            )
            if pr.mode == PROBE_BW and pacing is not None and now > 20e6:
                from roccet_lab.probe_rate import PROBE_GAINS

                if PROBE_GAINS[pr.gain_index] == 1.0:
                    unity_rates.append(pacing)
        assert unity_rates, "model never reached steady probing"
        mean = sum(unity_rates) / len(unity_rates)
        assert abs(mean - 10e6) / 10e6 < 0.15

    def test_goodput_does_not_depend_on_mtu(self):
        # The pacing rate is the model's segments per second times the
        # link's segment size, so jumbo frames pace at the same bit rate.
        spec = builtin_scenario("steady", algo="probe_rate", horizon_s=20.0)
        goodput = {}
        for mtu in (1500, 9000):
            traces = run(replace(spec, link=replace(spec.link, mtu_bytes=mtu)))
            goodput[mtu] = flow_metrics(traces)["probe_rate0"].total_goodput_mbps
        assert goodput[1500] > 8.0
        assert abs(goodput[9000] - goodput[1500]) <= 0.1 * goodput[1500]

    def test_cwnd_capped_near_two_bdp(self):
        spec = builtin_scenario("steady", algo="probe_rate", horizon_s=20.0)
        traces = run(spec)
        fm = next(iter(traces.flows.values()))
        tail = [s.cwnd for s in fm.samples if s.t_us >= 10e6]
        bdp = 10e6 * 0.04 / (8 * 1500)
        assert max(tail) <= 2.0 * bdp * 1.25
