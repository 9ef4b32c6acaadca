"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
with the measured numbers (run pytest with -s to see them). Tolerances are
pinned here, not configurable.
"""

import io
import random
import statistics
import time

from roccet_lab.cc_types import CONGESTION_AVOIDANCE, AckInfo, CubicParams
from roccet_lab.controllers import RoccetController
from roccet_lab.cubic import cubic_k, cubic_window
from roccet_lab.harness import (
    FlowSpec,
    ScenarioSpec,
    SourceSpec,
    SweepSpec,
    builtin_scenario,
    run_sweep,
    _mk_link,
)
from roccet_lab.metrics import bandwidth_share
from roccet_lab.roccet import RoccetParams, RoccetState, apply_roccet_ce, update_srrtt
from roccet_lab.simulator import run
from roccet_lab.units import s_to_us

BASE_RTT_US = 40_000  # bw-halving link


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _conserved(traces) -> bool:
    return all(
        a["segments_sent"] == a["received"] + a["dropped"] + a["in_network_end"]
        for a in traces.audit.values()
    )


def test_criterion_1_cubic_math_suite():
    started = time.perf_counter()
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        w_max = rng.uniform(2.0, 10_000.0)
        beta = rng.uniform(0.05, 0.95)
        c = rng.uniform(0.05, 5.0)
        params = CubicParams(c_scale=c, beta_mult=beta)
        k = cubic_k(w_max, params)
        continuity = abs(cubic_window(0.0, w_max, params) - beta * w_max) / (beta * w_max)
        saddle = abs(cubic_window(k, w_max, params) - w_max) / w_max
        d = rng.uniform(0.0, k)
        sym = abs(
            (cubic_window(k + d, w_max, params) - w_max)
            - (w_max - cubic_window(k - d, w_max, params))
        ) / w_max
        worst = max(worst, continuity, saddle, sym)
    elapsed = time.perf_counter() - started
    _verdict(
        "criterion-1",
        worst < 1e-9 and elapsed < 1.0,
        f"1000 triples, worst relative error {worst:.2e}, runtime {elapsed:.3f}s",
    )


def test_criterion_2_srrtt_oracle_equivalence():
    rng = random.Random(77)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.01, 1.0)
        params = RoccetParams(alpha=alpha)
        rtt_min = rng.randint(2_000, 200_000)
        samples = [rtt_min + rng.randint(0, 500_000) for _ in range(rng.randint(1, 300))]
        oracle = 0.0
        for s in samples:
            oracle = alpha * ((s - rtt_min) / rtt_min) + (1 - alpha) * oracle
        state = RoccetState(rtt_min_us=rtt_min)
        for s in samples:
            state = update_srrtt(state, s, params)
        worst = max(worst, abs(state.srrtt - oracle))
    _verdict(
        "criterion-2",
        worst <= 1e-12,
        f"200 randomized sequences, max |difference| {worst:.2e}",
    )


def test_criterion_3_bandwidth_halving(bw_halving_roccet, bw_halving_cubic):
    started = time.perf_counter()
    timing_probe = run(builtin_scenario("bw-halving", algo="roccet", seed=1))
    run_seconds = time.perf_counter() - started
    assert _conserved(timing_probe)

    roc = next(iter(bw_halving_roccet.flows.values()))
    roccet_ces = [t for t, k in roc.ce_log if k == "roccet_ce" and 15e6 < t <= 18e6]
    roc_steady = statistics.median(
        s.srtt_us for s in roc.samples if s.t_us >= 25e6 and s.srtt_us > 0
    )

    cub = next(iter(bw_halving_cubic.flows.values()))
    cubic_post_ces = [t for t, _ in cub.ce_log if t > 15e6]
    cub_steady = statistics.median(
        s.srtt_us for s in cub.samples if s.t_us >= 25e6 and s.srtt_us > 0
    )

    ok = (
        len(roccet_ces) >= 1
        and roc_steady < 2 * BASE_RTT_US
        and len(cubic_post_ces) == 0
        and cub_steady > 4 * BASE_RTT_US
        and run_seconds < 10.0
    )
    _verdict(
        "criterion-3",
        ok,
        f"roccet: {len(roccet_ces)} delay events within 3 s of reduction, "
        f"steady sRTT {roc_steady / 1e3:.1f} ms (< {2 * BASE_RTT_US / 1e3:.0f}); "
        f"cubic: {len(cubic_post_ces)} events post-reduction, "
        f"steady sRTT {cub_steady / 1e3:.1f} ms (> {4 * BASE_RTT_US / 1e3:.0f}); "
        f"run time {run_seconds:.1f}s",
    )


def test_criterion_4_frozen_window_reproduction():
    traces = run(builtin_scenario("frozen-cwnd", seed=1))
    assert _conserved(traces)
    fm = next(iter(traces.flows.values()))
    tail = [s.cwnd for s in fm.samples if s.t_us >= 10e6]
    spread = max(tail) - min(tail)
    injected = [t for t, k in fm.ce_log if t < 5e6]
    _verdict(
        "criterion-4",
        spread <= 1.0 and len(injected) >= 1 and fm.samples[-1].t_us >= 60e6,
        f"window spread {spread:.3f} segments from 10 s to 60 s "
        f"({len(injected)} loss events injected in the first 5 s)",
    )


def test_criterion_5_intra_bandwidth_share():
    started = time.perf_counter()
    spec = SweepSpec(
        scenario="fairness-10x40",
        algo="roccet",
        axes={"n_flows": [2, 4, 8], "buffer_bdp": [1.0, 4.0, 8.0]},
        repetitions=5,
        seed=1,
    )
    cells = run_sweep(spec)
    elapsed = time.perf_counter() - started
    worst = min(cells, key=lambda c: c.share.jain_index)
    ok = worst.share.jain_index > 0.9 and elapsed < 120.0
    one_bdp = [c.share.jain_index for c in cells if c.axis["buffer_bdp"] == 1.0]
    _verdict(
        "criterion-5",
        ok,
        f"{len(cells)} cells; worst Jain {worst.share.jain_index:.4f} at {worst.axis} "
        f"rep {worst.repetition}; min Jain at 1 BDP {min(one_bdp):.4f}; "
        f"sweep time {elapsed:.0f}s",
    )


def test_criterion_6_defensiveness_ordering():
    results = {}
    for buf in (1.0, 8.0):
        spec = builtin_scenario(
            "fairness-10x40", n_flows=1, competitor="cubic", buffer_bdp=buf, seed=5
        )
        traces = run(spec)
        assert _conserved(traces)
        results[buf] = bandwidth_share(traces).per_flow_fraction
    deep_roccet = results[8.0]["roccet0"]
    deep_cubic = results[8.0]["cubic_rival"]
    shallow = results[1.0]
    ok = deep_cubic > deep_roccet and all(
        0.35 <= frac <= 0.65 for frac in shallow.values()
    )
    _verdict(
        "criterion-6",
        ok,
        f"8 BDP: cubic {deep_cubic:.3f} > roccet {deep_roccet:.3f}; "
        f"1 BDP shares {[round(v, 3) for v in shallow.values()]} within [0.35, 0.65]",
    )


def test_criterion_7_drain_exactness():
    cp, rp = CubicParams(), RoccetParams()
    ctl = RoccetController(cp, rp)
    # Each ACK carries the sender's smoothed RTT after its sample: the
    # first sample seeds it, and later ones move it by 1/8.
    srtt = 40_000.0
    ctl.on_ack(AckInfo(newly_acked=1, rtt_sample_us=40_000, srtt_us=srtt, now_us=0))

    ctl.cc = ctl.cc._replace(
        cwnd=100.0, w_max=120.0, cwnd_epoch=100.0, w_est=100.0,
        phase=CONGESTION_AVOIDANCE, epoch_start_us=0,
    )
    ctl.roc, ctl.cc = apply_roccet_ce(ctl.roc, ctl.cc, 1_000, rp, cp)
    held = ctl.cc.cwnd
    acks = 0
    now = 1_000
    deviations = 0
    while now + 7_000 < 1_000 + rp.drain_duration_us:
        now += 7_000
        acks += 1
        srtt += 0.125 * (95_000 - srtt)
        ctl.on_ack(AckInfo(newly_acked=1, rtt_sample_us=95_000, srtt_us=srtt, now_us=now))
        if ctl.cc.cwnd != held:
            deviations += 1
    _verdict(
        "criterion-7",
        acks >= 10 and deviations == 0,
        f"window constant at {held:.1f} segments across {acks} ACKs inside the drain",
    )


def test_criterion_8_conservation_and_determinism(
    bw_halving_roccet, bw_halving_cubic
):
    matrix = {
        "bw-halving/roccet": bw_halving_roccet,
        "bw-halving/cubic": bw_halving_cubic,
        "frozen-cwnd": run(builtin_scenario("frozen-cwnd", seed=2)),
        "steady": run(builtin_scenario("steady", seed=3, horizon_s=20.0)),
        "fairness": run(
            builtin_scenario("fairness-10x40", n_flows=4, seed=4, horizon_s=20.0)
        ),
    }
    conserved = {name: _conserved(t) for name, t in matrix.items()}

    spec = builtin_scenario("fairness-10x40", n_flows=2, seed=9, horizon_s=15.0)
    a, b = io.StringIO(), io.StringIO()
    run(spec).write_csv(a)
    run(spec).write_csv(b)
    identical = a.getvalue() == b.getvalue()

    _verdict(
        "criterion-8",
        all(conserved.values()) and identical,
        f"conservation exact on {len(matrix)} scenarios; "
        f"same-seed reruns byte-identical: {identical}",
    )


def test_criterion_9_launch_exit_vs_slow_start():
    outcomes = {}
    for algo in ("roccet", "cubic"):
        spec = ScenarioSpec(
            link=_mk_link(10.0, 40.0),
            buffer_bdp=16.0,
            flows=(FlowSpec(flow_id=algo, algo=algo, source=SourceSpec(kind="greedy")),),
            horizon_us=s_to_us(20.0),
            seed=3,
            name="launch-acceptance",
        )
        traces = run(spec)
        assert _conserved(traces)
        outcomes[algo] = traces

    roc = outcomes["roccet"].flows["roccet"]
    exits = roc.extra.get("launch_exits", [])
    roc_drops = outcomes["roccet"].audit["roccet"]["dropped"]

    cub = outcomes["cubic"].flows["cubic"]
    cub_first_ce = cub.ce_log[0]
    cub_drops = outcomes["cubic"].audit["cubic"]["dropped"]

    ok = (
        len(exits) == 1
        and roc.ce_log[0][1] == "launch_exit"
        and exits[0][2] == exits[0][1] / 2.0
        and roc_drops == 0
        and cub_first_ce[1] == "loss_ce"
        and cub_drops > 0
        and cub_first_ce[0] > roc.ce_log[0][0]
    )
    _verdict(
        "criterion-9",
        ok,
        f"roccet left slow start at {exits[0][0]:.0f} ms with cwnd "
        f"{exits[0][1]:.0f} -> {exits[0][2]:.0f} (exact halving, no losses); "
        f"cubic stayed in slow start until its first drop-driven event at "
        f"{cub_first_ce[0] / 1e3:.0f} ms ({cub_drops} drops)",
    )
