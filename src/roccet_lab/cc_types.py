"""Shared congestion-controller types.

CUBIC and ROCCET share the `CcState` record, and every controller reads
one `AckInfo` per ACK; all of them count in segments and microseconds.
CUBIC's and ROCCET's transition functions are pure: each takes a state
value plus event data and returns a new state. Every controller keeps its
state field by field and runs the per-ACK step in place (see
`controllers`). One event loop owns each flow's state at a time; nothing
here is shared or locked.
"""

from __future__ import annotations

from .records import Record

#: Conventional initial window, in segments.
INITIAL_CWND = 10.0

#: A flow's window never drops below one segment.
MIN_CWND = 1.0

#: The two values `CcState.phase` holds. Controllers compare against them
#: with `is`: no state is pickled, which would copy the string.
SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"


class CubicParams(Record):
    """CUBIC tuning knobs.

    `beta_mult` is the multiplicative-decrease *survivor* fraction: after a
    congestion event the window keeps `beta_mult * cwnd`. `c_scale` scales
    the cubic growth curve (segments per second cubed). The app-limited
    freeze reproduces the Linux behaviour of not growing cwnd while the
    application fails to fill the current window; turn it off for an
    idealized controller.
    """

    c_scale: float = 0.4
    beta_mult: float = 0.7
    fast_convergence: bool = True
    app_limited_freeze: bool = True


class CcState(Record):
    """Per-flow congestion controller state.

    `ssthresh` is None while still "infinite" (no congestion event or
    explicit threshold yet); this mirrors kernels initializing the
    threshold to the largest representable value. `epoch_start_us` and
    `cwnd_epoch` anchor CUBIC's growth curve (when the epoch began and the
    window it began from); `cubic.start_epoch` sets both whenever CUBIC or
    ROCCET enter congestion avoidance. `w_est` is the Reno-equivalent
    companion window that floors CUBIC growth in its friendly region.
    """

    cwnd: float = INITIAL_CWND
    ssthresh: float | None = None
    w_max: float = 0.0
    epoch_start_us: int | None = None
    cwnd_epoch: float = 0.0
    w_est: float = 0.0
    phase: str = SLOW_START


class AckInfo:
    """Everything a controller learns from one cumulative ACK.

    `rtt_sample_us` is always present: the receiver echoes each segment's
    send timestamp, so an ACK for a retransmitted copy dates that copy and
    no sample has to be discarded. `srtt_us` is the sender's RFC 6298
    smoothed RTT after it took that sample; a controller that needs a
    smoothed RTT reads it here rather than keeping its own. `in_flight` is
    the segments still unacknowledged, `round_start` marks the first ACK
    past the data outstanding at the previous round start (ACK-clocked
    round counting), and `in_recovery` means the sender is repairing a
    loss episode. `is_app_limited` means the sender could not fill the
    current window because the application supplied too little data.

    Read-only by convention but not frozen: each sender keeps one and
    refills it for every ACK, which costs less than building a record per
    ACK, so a controller reads it during `on_ack` and keeps none of it.
    """

    __slots__ = (
        "newly_acked", "rtt_sample_us", "srtt_us", "now_us",
        "in_flight", "round_start", "in_recovery", "is_app_limited",
    )

    def __init__(
        self, *, newly_acked: int, rtt_sample_us: int, srtt_us: float, now_us: int,
        in_flight: int = 0, round_start: bool = False, in_recovery: bool = False,
        is_app_limited: bool = False,
    ) -> None:
        self.newly_acked = newly_acked
        self.rtt_sample_us = rtt_sample_us
        self.srtt_us = srtt_us
        self.now_us = now_us
        self.in_flight = in_flight
        self.round_start = round_start
        self.in_recovery = in_recovery
        self.is_app_limited = is_app_limited
