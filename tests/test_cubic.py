import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_steps import cubic_target

import roccet_lab
from roccet_lab.cc_types import CONGESTION_AVOIDANCE, SLOW_START, AckInfo, CcState, CubicParams
from roccet_lab.cubic import (
    aimd_increment,
    cubic_k,
    cubic_on_ack,
    cubic_on_congestion_event,
    cubic_window,
)
from roccet_lab.roccet import (
    RoccetParams,
    RoccetState,
    apply_launch_exit,
    apply_roccet_ce,
)

P = CubicParams()  # c_scale 0.4, beta_mult 0.7, fast convergence on


def ack(newly=1, now_us=0, rtt_us=40_000, app_limited=False):
    return AckInfo(
        newly_acked=newly,
        rtt_sample_us=rtt_us,
        srtt_us=rtt_us,
        now_us=now_us,
        is_app_limited=app_limited,
    )


class TestK:
    def test_closed_form(self):
        # cbrt(100 * 0.3 / 0.4) = cbrt(75)
        assert math.isclose(cubic_k(100.0, P), 75.0 ** (1.0 / 3.0), rel_tol=1e-12)
        assert math.isclose(cubic_k(100.0, P), 4.2172, rel_tol=1e-4)

    def test_no_reduction_limit(self):
        # K -> 0 as the survivor fraction approaches 1 (no reduction means
        # the saddle point is immediate).
        previous = float("inf")
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            k = cubic_k(1000.0, P._replace(beta_mult=1.0 - eps))
            assert k < previous
            previous = k
        assert previous < 0.01

    def test_unit_k(self):
        w = 0.4 / 0.3  # solves cbrt(w * 0.3 / 0.4) = 1
        assert math.isclose(cubic_k(w, P), 1.0, rel_tol=1e-12)


class TestWindowCurve:
    def test_saddle(self):
        k = cubic_k(100.0, P)
        assert math.isclose(cubic_window(k, 100.0, P), 100.0, rel_tol=1e-9)

    def test_continuity_at_zero(self):
        assert math.isclose(cubic_window(0.0, 100.0, P), 70.0, rel_tol=1e-9)

    def test_symmetry_value(self):
        k = cubic_k(100.0, P)
        assert math.isclose(cubic_window(2 * k, 100.0, P), 130.0, rel_tol=1e-9)

    def test_floor_at_one_segment(self):
        tiny = cubic_window(0.0, 1.0, P)
        assert tiny == 1.0

    def test_epoch_form_matches_standard_case(self):
        # Starting the epoch from beta * w_max reproduces the plain curve.
        for t in (0.0, 1.0, 3.0, 7.0):
            assert math.isclose(
                cubic_target(t, 100.0, 70.0, P),
                cubic_window(t, 100.0, P),
                rel_tol=1e-12,
            )

    def test_epoch_form_from_peak_is_convex(self):
        # Epoch starting at w_max: no concave phase, growth from the start.
        assert cubic_target(0.0, 50.0, 50.0, P) == 50.0
        assert cubic_target(2.0, 50.0, 50.0, P) == pytest.approx(50.0 + 0.4 * 8.0)


class TestProperties:
    def test_continuity_saddle_symmetry_over_random_triples(self):
        rng = random.Random(7)
        for _ in range(1000):
            w_max = rng.uniform(2.0, 5000.0)
            beta = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 4.0)
            params = CubicParams(c_scale=c, beta_mult=beta)
            k = cubic_k(w_max, params)
            assert math.isclose(cubic_window(0.0, w_max, params), beta * w_max, rel_tol=1e-9)
            assert math.isclose(cubic_window(k, w_max, params), w_max, rel_tol=1e-9)
            d = rng.uniform(0.0, k)
            up = cubic_window(k + d, w_max, params) - w_max
            down = w_max - cubic_window(k - d, w_max, params)
            assert math.isclose(up, down, rel_tol=1e-9, abs_tol=1e-9 * w_max)

    def test_monotone_beyond_saddle(self):
        k = cubic_k(300.0, P)
        prev = cubic_window(k, 300.0, P)
        for i in range(1, 400):
            cur = cubic_window(k + i * 0.05, 300.0, P)
            assert cur >= prev
            prev = cur

    def test_cwnd_floor_over_random_event_sequences(self):
        rng = random.Random(21)
        for _ in range(200):
            state = CcState()
            now = 0
            for _ in range(60):
                now += rng.randint(1_000, 200_000)
                if rng.random() < 0.3:
                    state = cubic_on_congestion_event(state, P, now)
                else:
                    state = cubic_on_ack(state, ack(rng.randint(1, 10), now), P)
                assert state.cwnd >= 1.0


class TestOnAck:
    def test_slow_start_doubles_per_round(self):
        state = CcState(cwnd=10.0)
        state = cubic_on_ack(state, ack(newly=10), P)
        assert state.cwnd == 20.0
        assert state.phase is SLOW_START

    def test_congestion_avoidance_continuity_at_epoch(self):
        state = CcState(cwnd=100.0)
        state = cubic_on_congestion_event(state, P, now_us=5_000_000)
        at_epoch = cubic_on_ack(state, ack(newly=1, now_us=5_000_000), P)
        assert math.isclose(at_epoch.cwnd, 0.7 * 100.0, rel_tol=1e-9)

    def test_growth_step_bounded(self):
        state = CcState(cwnd=70.0, w_max=100.0, cwnd_epoch=70.0, w_est=70.0,
                        phase=CONGESTION_AVOIDANCE, epoch_start_us=0)
        grown = cubic_on_ack(state, ack(newly=1, now_us=2_000_000), P)
        target = cubic_target(2.0, 100.0, 70.0, P)
        assert grown.cwnd - state.cwnd <= (target - state.cwnd) / state.cwnd + 1e-12

    def test_app_limited_freeze_any_phase(self):
        for phase in (SLOW_START, CONGESTION_AVOIDANCE):
            state = CcState(cwnd=50.0, phase=phase, epoch_start_us=0, w_max=80.0)
            frozen = cubic_on_ack(state, ack(newly=5, app_limited=True), P)
            assert frozen == state

    def test_freeze_disabled_grows(self):
        params = P._replace(app_limited_freeze=False)
        state = CcState(cwnd=10.0)
        grown = cubic_on_ack(state, ack(newly=5, app_limited=True), params)
        assert grown.cwnd == 15.0

    def test_freeze_property_any_number_of_acks(self):
        rng = random.Random(3)
        state = CcState(cwnd=64.0, phase=CONGESTION_AVOIDANCE,
                        epoch_start_us=0, w_max=80.0, cwnd_epoch=64.0, w_est=64.0)
        now = 0
        for _ in range(500):
            now += rng.randint(100, 50_000)
            state2 = cubic_on_ack(state, ack(rng.randint(1, 8), now, app_limited=True), P)
            assert state2 == state


class TestCongestionEvent:
    def test_reduction_above_peak(self):
        state = CcState(cwnd=100.0, w_max=80.0)
        out = cubic_on_congestion_event(state, P, now_us=1)
        assert out.w_max == 100.0
        assert math.isclose(out.cwnd, 70.0, rel_tol=1e-9)
        assert out.ssthresh == out.cwnd
        assert out.phase is CONGESTION_AVOIDANCE
        assert out.epoch_start_us == 1

    def test_fast_convergence_below_peak(self):
        state = CcState(cwnd=60.0, w_max=80.0)
        out = cubic_on_congestion_event(state, P, now_us=1)
        assert math.isclose(out.w_max, 60.0 * 1.3 / 2.0, rel_tol=1e-9)  # 39
        assert math.isclose(out.cwnd, 42.0, rel_tol=1e-9)

    def test_floor(self):
        state = CcState(cwnd=1.0, w_max=1.0)
        out = cubic_on_congestion_event(state, P, now_us=1)
        assert out.cwnd == 1.0

    def test_no_fast_convergence_keeps_full_peak(self):
        params = P._replace(fast_convergence=False)
        state = CcState(cwnd=60.0, w_max=80.0)
        out = cubic_on_congestion_event(state, params, now_us=1)
        assert out.w_max == 60.0


def test_aimd_increment_value():
    # 3 * (1 - 0.7) / (1 + 0.7)
    assert math.isclose(aimd_increment(P), 0.9 / 1.7, rel_tol=1e-12)


# -- the one epoch opener ------------------------------------------------------

_windows = st.floats(min_value=1.0, max_value=1e6)
_cc_states = st.builds(
    CcState,
    cwnd=_windows,
    ssthresh=st.none() | _windows,
    w_max=st.floats(min_value=0.0, max_value=1e6),
    epoch_start_us=st.none() | st.integers(min_value=0, max_value=10**12),
    cwnd_epoch=st.floats(min_value=0.0, max_value=1e6),
    w_est=st.floats(min_value=0.0, max_value=1e6),
    phase=st.sampled_from((SLOW_START, CONGESTION_AVOIDANCE)),
)
_cubic_params = st.builds(
    CubicParams,
    c_scale=st.floats(min_value=0.01, max_value=10.0),
    beta_mult=st.floats(min_value=0.05, max_value=0.95),
    fast_convergence=st.booleans(),
    app_limited_freeze=st.booleans(),
)

# Every transition into congestion avoidance, each from a state that takes it.
EPOCH_STARTS = {
    "slow-start exit at ssthresh": lambda cc, params, now_us: cubic_on_ack(
        cc._replace(phase=SLOW_START, ssthresh=cc.cwnd), ack(now_us=now_us), params
    ),
    "anchor for an epoch-less congestion avoidance": lambda cc, params, now_us: cubic_on_ack(
        cc._replace(phase=CONGESTION_AVOIDANCE, epoch_start_us=None),
        ack(now_us=now_us),
        params,
    ),
    "cubic_on_congestion_event": lambda cc, params, now_us: cubic_on_congestion_event(
        cc, params, now_us
    ),
    "apply_launch_exit initial": lambda cc, params, now_us: apply_launch_exit(
        RoccetState(), cc, now_us, params
    )[1],
    "apply_launch_exit later": lambda cc, params, now_us: apply_launch_exit(
        RoccetState(is_initial_slow_start=False), cc, now_us, params
    )[1],
    "apply_roccet_ce": lambda cc, params, now_us: apply_roccet_ce(
        RoccetState(), cc, now_us, RoccetParams(), params
    )[1],
}


@pytest.mark.parametrize("transition", EPOCH_STARTS)
@settings(max_examples=200, deadline=None)
@given(cc=_cc_states, params=_cubic_params, now_us=st.integers(min_value=0, max_value=10**12))
def test_every_epoch_start_anchors_the_curve_at_the_new_window(transition, cc, params, now_us):
    out = EPOCH_STARTS[transition](cc, params, now_us)
    assert out.phase is CONGESTION_AVOIDANCE
    assert out.epoch_start_us == now_us
    assert out.cwnd_epoch == out.w_est == out.cwnd


def test_only_start_epoch_writes_the_epoch_anchor():
    # The anchor of CUBIC's curve is written in one place, so no transition
    # can start an epoch and leave `cwnd_epoch` or `w_est` behind.
    anchor = {"epoch_start_us", "cwnd_epoch"}
    writers, inside = [], []
    for path in sorted(Path(roccet_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "start_epoch":
                inside += [n for n in ast.walk(node) if isinstance(n, ast.keyword)]
            if isinstance(node, ast.keyword) and node.arg in anchor:
                writers.append((path.name, node))
            elif isinstance(node, ast.Attribute) and node.attr in anchor:
                assert not isinstance(node.ctx, ast.Store), (path.name, node.lineno)
    assert writers and all(
        name == "cubic.py" and node in inside for name, node in writers
    ), [(name, node.lineno) for name, node in writers]
