from roccet_lab.cc_types import CONGESTION_AVOIDANCE, AckInfo
from roccet_lab.controllers import ProbeRateController, RenoController
from roccet_lab.harness import builtin_scenario
from roccet_lab.metrics import flow_metrics
from roccet_lab.probe_rate import PROBE_BW, PROBE_GAINS, PROBE_RTT, ProbeRateParams
from roccet_lab.simulator import run


def ack(newly=1, now_us=0, rtt_us=40_000, in_flight=0, round_start=False):
    return AckInfo(
        newly_acked=newly, rtt_sample_us=rtt_us, srtt_us=rtt_us, now_us=now_us,
        in_flight=in_flight, round_start=round_start,
    )


def _with(ctl, fields):
    for name, value in fields.items():
        setattr(ctl, name, value)
    return ctl


def reno(**fields):
    return _with(RenoController(), fields)


def probe(**fields):
    return _with(ProbeRateController(ProbeRateParams()), fields)


class TestReno:
    def test_full_window_acked_adds_one(self):
        ctl = reno(cwnd=10.0, phase=CONGESTION_AVOIDANCE)
        for _ in range(10):
            ctl.on_ack(ack())
        assert ctl.cwnd == 11.0

    def test_halving_on_congestion(self):
        ctl = reno(cwnd=20.0)
        ctl.on_loss(0)
        assert ctl.cwnd == 10.0
        assert ctl.ssthresh == 10.0

    def test_slow_start_step(self):
        ctl = reno(cwnd=1.0)
        ctl.on_ack(ack())
        assert ctl.cwnd == 2.0

    def test_ssthresh_crossover_enters_avoidance(self):
        ctl = reno(cwnd=7.0, ssthresh=8.0)
        ctl.on_ack(ack(newly=4))
        assert ctl.cwnd == 8.0
        assert ctl.phase is CONGESTION_AVOIDANCE


class TestProbeRate:
    def test_startup_doubles_per_round(self):
        pr = probe(cwnd=10.0)
        now = 0
        for _ in range(10):  # one round of per-segment ACKs
            now += 4_000
            pr.on_ack(ack(1, now, in_flight=10))
        assert pr.cwnd == 20.0

    def test_probe_rtt_entered_after_quiet_window(self):
        pr = probe(cwnd=40.0, mode=PROBE_BW, min_rtt_us=40_000, min_rtt_stamp_us=0,
                   bw_window=((0, 800.0),), max_bw=800.0, cycle_stamp_us=0)
        pr.on_ack(ack(1, now_us=10_100_000, rtt_us=41_000, in_flight=40))
        assert pr.mode == PROBE_RTT
        assert pr.cwnd == 4.0

    def test_loss_backoff_floors_at_min_cwnd(self):
        pr = probe(cwnd=5.0)
        pr.on_loss(0)
        assert pr.cwnd == 4.0

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
        pr = probe(cwnd=10.0)
        now, seq_interval = 0, 1200  # 1500 B at 10 Mbps
        rate = 10e6 / (8 * 1500)  # the bottleneck, in segments per second
        bdp = rate * 0.04
        unity_rates = []
        for i in range(25_000):
            now += seq_interval
            round_start = i % 33 == 0  # ~one 40 ms round of 33 segments
            in_flight = min(pr.cwnd, bdp)  # ACK-paced feed keeps one BDP out
            pr.on_ack(ack(1, now, rtt_us=40_000, in_flight=in_flight, round_start=round_start))
            pacing = pr.pacing_segs_per_s
            if pr.mode == PROBE_BW and pacing is not None and now > 20e6:
                if PROBE_GAINS[pr.gain_index] == 1.0:
                    unity_rates.append(pacing)
        assert unity_rates, "model never reached steady probing"
        mean = sum(unity_rates) / len(unity_rates)
        assert abs(mean - rate) / rate < 0.15

    def test_goodput_does_not_depend_on_mtu(self):
        # The model measures and paces in segments per second, so with
        # jumbo frames it paces at the same bit rate.
        spec = builtin_scenario("steady", algo="probe_rate", horizon_s=20.0)
        goodput = {}
        for mtu in (1500, 9000):
            traces = run(spec._replace(link=spec.link._replace(mtu_bytes=mtu)))
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
