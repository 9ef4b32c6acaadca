"""Simplified rate-probing comparator.

A model-based controller in the startup / drain / probe-bandwidth /
probe-RTT mould. It keeps a windowed maximum of the measured delivery rate
and a minimum-RTT estimate, paces at a cyclic gain over the rate estimate,
and caps the window at twice the estimated BDP. It counts in segments:
the delivery rate and the pacing rate are segments per second. This is
deliberately a plumbing-grade stand-in for modern rate-based stacks, not
a faithful implementation of any of them.

This module holds its knobs, gains and mode names; the per-ACK model is
`controllers.ProbeRateController`.
"""

from __future__ import annotations

from .records import Record

PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BW_FILTER_ROUNDS = 10  # rounds the delivery-rate filter keeps a maximum for
LOSS_BETA = 0.7  # window survivor fraction after a loss

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe_bw"
PROBE_RTT = "probe_rtt"


class ProbeRateParams(Record):
    """Rate-probing knobs: startup gain, min-RTT window and probe, window floor and gain."""

    startup_pacing_gain: float = 2.885
    min_rtt_window_us: int = 10_000_000
    probe_rtt_duration_us: int = 200_000
    min_cwnd: float = 4.0
    cwnd_gain: float = 2.0
