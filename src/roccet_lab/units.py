"""Unit helpers.

Simulation time is integer microseconds; link rates are bits per second;
window sizes are MSS-sized segments (floats, floored at one segment).
"""

US_PER_MS = 1_000
US_PER_S = 1_000_000


def s_to_us(seconds: float) -> int:
    return round(seconds * US_PER_S)


def ms_to_us(ms: float) -> int:
    return round(ms * US_PER_MS)


def mbps_to_bps(mbps: float) -> int:
    return round(mbps * 1_000_000)


def bdp_segments(rate_bps: float, base_rtt_us: int, mss_bytes: int) -> float:
    """Bandwidth-delay product expressed in MSS-sized segments."""
    return rate_bps * base_rtt_us / (8.0 * mss_bytes * US_PER_S)
