"""Congestion-control simulation lab.

Implements TCP CUBIC, the delay-based ROCCET extension (LAUNCH slow-start
exit + ORBITER congestion detection), Reno and a simplified rate-probing
comparator, all running inside a deterministic discrete-event dumbbell
simulator with a droptail bottleneck, plus the metrics and experiment
harness needed for bandwidth-share and bandwidth-change studies.
"""

__version__ = "0.1.0"

from .cc_types import CONGESTION_AVOIDANCE, SLOW_START, AckInfo, CcState, CubicParams
from .roccet import RoccetParams, RoccetState
from .harness import ScenarioSpec, SweepSpec, builtin_scenario, run_sweep
from .simulator import LinkSpec, run

__all__ = [
    "CONGESTION_AVOIDANCE",
    "SLOW_START",
    "AckInfo",
    "CcState",
    "CubicParams",
    "LinkSpec",
    "RoccetParams",
    "RoccetState",
    "ScenarioSpec",
    "SweepSpec",
    "builtin_scenario",
    "run",
    "run_sweep",
]
