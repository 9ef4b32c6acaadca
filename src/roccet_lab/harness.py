"""Scenario definition, validation, builtin experiments, and sweeps.

Scenario files are JSON (nested key-value with lists); unknown keys are
errors. Builtin scenarios mirror the lab's reference experiments:

  bw-halving   greedy flow on a 50 Mbps x 40 ms link whose capacity halves
               mid-run, with a deep (16 BDP) buffer and a finite send
               buffer so a frozen-window controller stays queue-limited
  frozen-cwnd  app-limited flow on a deep-buffered link with loss injected
               in the first seconds, reproducing the stuck-window pathology
  fairness-50x30 / fairness-10x40
               dumbbell bandwidth-share runs: n same-algorithm flows with
               near-symmetric starts plus an optional competitor starting
               one second later
  steady       single greedy flow, one-BDP buffer, fixed-rate link

Sweeps execute the cartesian product of named axes with per-cell seeds
derived purely from (base seed, axis point, repetition), so cells can run
in any order and repetitions are individually reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .cc_types import CubicParams
from .errors import ScenarioError
from .metrics import FlowMetrics, ShareReport, bandwidth_share, flow_metrics
from .probe_rate import ProbeRateParams
from .roccet import RoccetParams
from .simulator import LinkSpec, run
from .trace import TraceSet
from .units import mbps_to_bps, ms_to_us, s_to_us

SWEEP_CELL_CAP = 4096


@dataclass(frozen=True, slots=True)
class SourceSpec:
    kind: str = "greedy"  # "greedy" | "app_limited"
    rate_bps: int | None = None
    start_us: int = 0
    duration_us: int | None = None


@dataclass(frozen=True, slots=True)
class LossSpec:
    drop_at_us: tuple[int, ...] = ()
    drop_prob: float = 0.0
    window_us: tuple[int, int] | None = None
    jitter_us: int = 0


@dataclass(frozen=True, slots=True)
class FlowSpec:
    flow_id: str
    algo: str
    source: SourceSpec
    sndbuf_segs: int | None = None
    cubic: CubicParams = CubicParams()
    roccet: RoccetParams = RoccetParams()
    probe: ProbeRateParams = ProbeRateParams()


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    link: LinkSpec
    buffer_bdp: float
    flows: tuple[FlowSpec, ...]
    horizon_us: int
    seed: int = 1
    sample_us: int = 10_000
    loss: LossSpec | None = None
    debug: bool = False
    name: str = "custom"

    def validate(self, require_flows: bool = True) -> None:
        self.link.validate()
        if self.buffer_bdp < 0.25:
            raise ScenarioError(
                f"buffer_bdp must be >= 0.25, got {self.buffer_bdp}"
            )
        if require_flows and not self.flows:
            raise ScenarioError("scenario needs at least one flow")
        ids = [f.flow_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"duplicate flow ids: {ids}")
        for f in self.flows:
            if f.algo not in ("reno", "cubic", "roccet", "probe_rate"):
                raise ScenarioError(f"flow {f.flow_id}: unknown algo {f.algo!r}")
            f.cubic.validate()
            f.roccet.validate()
            f.probe.validate()
            if f.source.kind not in ("greedy", "app_limited"):
                raise ScenarioError(f"flow {f.flow_id}: unknown source kind {f.source.kind!r}")
            if f.source.kind == "app_limited" and (
                f.source.rate_bps is None or f.source.rate_bps <= 0
            ):
                raise ScenarioError(f"flow {f.flow_id}: app_limited source needs rate > 0")
            if f.sndbuf_segs is not None and f.sndbuf_segs < 1:
                raise ScenarioError(
                    f"flow {f.flow_id}: sndbuf_segs must be >= 1, got {f.sndbuf_segs}"
                )
            end = f.source.start_us + (f.source.duration_us or 0)
            if f.source.duration_us is not None and end >= self.horizon_us:
                raise ScenarioError(
                    f"flow {f.flow_id}: ends at {end} us, at or past the horizon"
                )
            if f.source.start_us >= self.horizon_us:
                raise ScenarioError(f"flow {f.flow_id}: starts past the horizon")
        if self.sample_us <= 0:
            raise ScenarioError("sample cadence must be > 0")
        if self.horizon_us < 0:
            raise ScenarioError("horizon must be >= 0")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "horizon_s": self.horizon_us / 1e6,
            "sample_ms": self.sample_us / 1e3,
            "buffer_bdp": self.buffer_bdp,
            "link": {
                "rate_mbps": self.link.initial_rate_bps / 1e6,
                "rtt_ms": self.link.base_rtt_us / 1e3,
                "mtu_bytes": self.link.mtu_bytes,
                "schedule": [
                    {"at_s": t / 1e6, "rate_mbps": r / 1e6}
                    for t, r in self.link.rate_schedule[1:]
                ],
            },
            "loss": None,
            "flows": [],
        }
        if self.loss is not None:
            d["loss"] = {
                "drop_at_s": [t / 1e6 for t in self.loss.drop_at_us],
                "drop_prob": self.loss.drop_prob,
                "window_s": (
                    [self.loss.window_us[0] / 1e6, self.loss.window_us[1] / 1e6]
                    if self.loss.window_us
                    else None
                ),
                "jitter_ms": self.loss.jitter_us / 1e3,
            }
        for f in self.flows:
            d["flows"].append(
                {
                    "id": f.flow_id,
                    "algo": f.algo,
                    "start_s": f.source.start_us / 1e6,
                    "duration_s": (
                        f.source.duration_us / 1e6
                        if f.source.duration_us is not None
                        else None
                    ),
                    "source": {
                        "kind": f.source.kind,
                        "rate_mbps": (
                            f.source.rate_bps / 1e6
                            if f.source.rate_bps is not None
                            else None
                        ),
                    },
                    "sndbuf_segs": f.sndbuf_segs,
                    "cubic": {
                        "c_scale": f.cubic.c_scale,
                        "beta_mult": f.cubic.beta_mult,
                        "fast_convergence": f.cubic.fast_convergence,
                        "app_limited_freeze": f.cubic.app_limited_freeze,
                    },
                    "roccet": {
                        "alpha": f.roccet.alpha,
                        "srrtt_threshold": f.roccet.srrtt_threshold,
                        "launch_ack_margin": f.roccet.launch_ack_margin,
                        "launch_interval_ms": f.roccet.launch_interval_us / 1e3,
                        "orbiter_interval_rtts": f.roccet.orbiter_interval_rtts,
                        "orbiter_deviation": f.roccet.orbiter_deviation,
                        "drain_ms": f.roccet.drain_duration_us / 1e3,
                        "ignore_loss": f.roccet.ignore_loss,
                        "rtt_min_refresh": f.roccet.rtt_min_refresh,
                        "rtt_min_refresh_age_s": f.roccet.rtt_min_refresh_age_us / 1e6,
                        "rtt_min_refresh_alpha": f.roccet.rtt_min_refresh_alpha,
                    },
                    "probe_rate": {
                        "startup_pacing_gain": f.probe.startup_pacing_gain,
                        "min_rtt_window_s": f.probe.min_rtt_window_us / 1e6,
                        "probe_rtt_duration_ms": f.probe.probe_rtt_duration_us / 1e3,
                        "min_cwnd": f.probe.min_cwnd,
                        "cwnd_gain": f.probe.cwnd_gain,
                    },
                }
            )
        return d


# -- dict / file parsing ---------------------------------------------------


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")


def _cubic_from_dict(d: dict, where: str) -> CubicParams:
    _check_keys(d, {"c_scale", "beta_mult", "fast_convergence", "app_limited_freeze"}, where)
    base = CubicParams()
    return CubicParams(
        c_scale=d.get("c_scale", base.c_scale),
        beta_mult=d.get("beta_mult", base.beta_mult),
        fast_convergence=d.get("fast_convergence", base.fast_convergence),
        app_limited_freeze=d.get("app_limited_freeze", base.app_limited_freeze),
    )


def _roccet_from_dict(d: dict, where: str) -> RoccetParams:
    _check_keys(
        d,
        {
            "alpha",
            "srrtt_threshold",
            "launch_ack_margin",
            "launch_interval_ms",
            "orbiter_interval_rtts",
            "orbiter_deviation",
            "drain_ms",
            "ignore_loss",
            "rtt_min_refresh",
            "rtt_min_refresh_age_s",
            "rtt_min_refresh_alpha",
        },
        where,
    )
    base = RoccetParams()
    return RoccetParams(
        alpha=d.get("alpha", base.alpha),
        srrtt_threshold=d.get("srrtt_threshold", base.srrtt_threshold),
        launch_ack_margin=d.get("launch_ack_margin", base.launch_ack_margin),
        launch_interval_us=(
            ms_to_us(d["launch_interval_ms"])
            if "launch_interval_ms" in d
            else base.launch_interval_us
        ),
        orbiter_interval_rtts=d.get("orbiter_interval_rtts", base.orbiter_interval_rtts),
        orbiter_deviation=d.get("orbiter_deviation", base.orbiter_deviation),
        drain_duration_us=(
            ms_to_us(d["drain_ms"]) if "drain_ms" in d else base.drain_duration_us
        ),
        ignore_loss=d.get("ignore_loss", base.ignore_loss),
        rtt_min_refresh=d.get("rtt_min_refresh", base.rtt_min_refresh),
        rtt_min_refresh_age_us=(
            s_to_us(d["rtt_min_refresh_age_s"])
            if "rtt_min_refresh_age_s" in d
            else base.rtt_min_refresh_age_us
        ),
        rtt_min_refresh_alpha=d.get("rtt_min_refresh_alpha", base.rtt_min_refresh_alpha),
    )


def _probe_from_dict(d: dict, where: str) -> ProbeRateParams:
    _check_keys(
        d,
        {
            "startup_pacing_gain",
            "min_rtt_window_s",
            "probe_rtt_duration_ms",
            "min_cwnd",
            "cwnd_gain",
        },
        where,
    )
    base = ProbeRateParams()
    return ProbeRateParams(
        startup_pacing_gain=d.get("startup_pacing_gain", base.startup_pacing_gain),
        min_rtt_window_us=(
            s_to_us(d["min_rtt_window_s"])
            if "min_rtt_window_s" in d
            else base.min_rtt_window_us
        ),
        probe_rtt_duration_us=(
            ms_to_us(d["probe_rtt_duration_ms"])
            if "probe_rtt_duration_ms" in d
            else base.probe_rtt_duration_us
        ),
        min_cwnd=d.get("min_cwnd", base.min_cwnd),
        cwnd_gain=d.get("cwnd_gain", base.cwnd_gain),
    )


# What a value of the wrong type raises on its way through a parser, a
# builder or `validate`; both entry points report it as ScenarioError.
_BAD_VALUE = (TypeError, ValueError, AttributeError, OverflowError)


def scenario_from_dict(d: dict) -> ScenarioSpec:
    """Parse and validate a scenario-file dict. A value of the wrong type
    fails as ScenarioError, like any other bad value."""
    try:
        spec = _parse_scenario(d)
        spec.validate()
    except _BAD_VALUE as exc:
        raise ScenarioError(f"scenario: bad value: {exc}") from exc
    return spec


def _parse_scenario(d: dict) -> ScenarioSpec:
    _check_keys(
        d,
        {
            "name",
            "seed",
            "horizon_s",
            "sample_ms",
            "buffer_bdp",
            "link",
            "loss",
            "flows",
            "cubic",
            "roccet",
            "probe_rate",
        },
        "scenario",
    )
    link_d = d.get("link")
    if not isinstance(link_d, dict):
        raise ScenarioError("scenario: missing link section")
    _check_keys(link_d, {"rate_mbps", "rtt_ms", "mtu_bytes", "schedule"}, "link")
    if "rate_mbps" not in link_d or "rtt_ms" not in link_d:
        raise ScenarioError("link: rate_mbps and rtt_ms are required")
    prop_us = ms_to_us(link_d["rtt_ms"]) // 2
    schedule: list[tuple[int, int]] = [(0, mbps_to_bps(link_d["rate_mbps"]))]
    for i, entry in enumerate(link_d.get("schedule", [])):
        _check_keys(entry, {"at_s", "rate_mbps"}, f"link.schedule[{i}]")
        schedule.append((s_to_us(entry["at_s"]), mbps_to_bps(entry["rate_mbps"])))
    link = LinkSpec(
        rate_schedule=tuple(schedule),
        prop_delay_us=prop_us,
        mtu_bytes=link_d.get("mtu_bytes", 1500),
    )

    loss = None
    loss_d = d.get("loss")
    if loss_d is not None:
        _check_keys(loss_d, {"drop_at_s", "drop_prob", "window_s", "jitter_ms"}, "loss")
        window = loss_d.get("window_s")
        loss = LossSpec(
            drop_at_us=tuple(s_to_us(t) for t in loss_d.get("drop_at_s", [])),
            drop_prob=loss_d.get("drop_prob", 0.0),
            window_us=(s_to_us(window[0]), s_to_us(window[1])) if window else None,
            jitter_us=ms_to_us(loss_d.get("jitter_ms", 0.0)),
        )

    default_cubic = _cubic_from_dict(d.get("cubic", {}), "cubic")
    default_roccet = _roccet_from_dict(d.get("roccet", {}), "roccet")
    default_probe = _probe_from_dict(d.get("probe_rate", {}), "probe_rate")

    flows: list[FlowSpec] = []
    for i, fd in enumerate(d.get("flows", [])):
        where = f"flows[{i}]"
        _check_keys(
            fd,
            {
                "id",
                "algo",
                "start_s",
                "duration_s",
                "source",
                "sndbuf_segs",
                "cubic",
                "roccet",
                "probe_rate",
            },
            where,
        )
        if "id" not in fd or "algo" not in fd:
            raise ScenarioError(f"{where}: id and algo are required")
        src_d = fd.get("source", {"kind": "greedy"})
        _check_keys(src_d, {"kind", "rate_mbps"}, f"{where}.source")
        rate = src_d.get("rate_mbps")
        source = SourceSpec(
            kind=src_d.get("kind", "greedy"),
            rate_bps=mbps_to_bps(rate) if rate is not None else None,
            start_us=s_to_us(fd.get("start_s", 0.0)),
            duration_us=(
                s_to_us(fd["duration_s"]) if fd.get("duration_s") is not None else None
            ),
        )
        cubic = (
            _cubic_from_dict({**_cubic_to_partial(default_cubic), **fd["cubic"]}, f"{where}.cubic")
            if "cubic" in fd
            else default_cubic
        )
        roccet = (
            _roccet_from_dict(
                {**_roccet_to_partial(default_roccet), **fd["roccet"]}, f"{where}.roccet"
            )
            if "roccet" in fd
            else default_roccet
        )
        probe = (
            _probe_from_dict(
                {**_probe_to_partial(default_probe), **fd["probe_rate"]},
                f"{where}.probe_rate",
            )
            if "probe_rate" in fd
            else default_probe
        )
        flows.append(
            FlowSpec(
                flow_id=fd["id"],
                algo=fd["algo"],
                source=source,
                sndbuf_segs=fd.get("sndbuf_segs"),
                cubic=cubic,
                roccet=roccet,
                probe=probe,
            )
        )

    return ScenarioSpec(
        link=link,
        buffer_bdp=d.get("buffer_bdp", 1.0),
        flows=tuple(flows),
        horizon_us=s_to_us(d.get("horizon_s", 60.0)),
        seed=d.get("seed", 1),
        sample_us=ms_to_us(d.get("sample_ms", 10.0)),
        loss=loss,
        name=d.get("name", "custom"),
    )


def _cubic_to_partial(p: CubicParams) -> dict:
    return {
        "c_scale": p.c_scale,
        "beta_mult": p.beta_mult,
        "fast_convergence": p.fast_convergence,
        "app_limited_freeze": p.app_limited_freeze,
    }


def _roccet_to_partial(p: RoccetParams) -> dict:
    return {
        "alpha": p.alpha,
        "srrtt_threshold": p.srrtt_threshold,
        "launch_ack_margin": p.launch_ack_margin,
        "launch_interval_ms": p.launch_interval_us / 1e3,
        "orbiter_interval_rtts": p.orbiter_interval_rtts,
        "orbiter_deviation": p.orbiter_deviation,
        "drain_ms": p.drain_duration_us / 1e3,
        "ignore_loss": p.ignore_loss,
        "rtt_min_refresh": p.rtt_min_refresh,
        "rtt_min_refresh_age_s": p.rtt_min_refresh_age_us / 1e6,
        "rtt_min_refresh_alpha": p.rtt_min_refresh_alpha,
    }


def _probe_to_partial(p: ProbeRateParams) -> dict:
    return {
        "startup_pacing_gain": p.startup_pacing_gain,
        "min_rtt_window_s": p.min_rtt_window_us / 1e6,
        "probe_rtt_duration_ms": p.probe_rtt_duration_us / 1e3,
        "min_cwnd": p.min_cwnd,
        "cwnd_gain": p.cwnd_gain,
    }


def load_scenario(path: str) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data)


# -- builtin scenarios ------------------------------------------------------


def _mk_link(rate_mbps: float, rtt_ms: float, schedule: list[tuple[float, float]] = ()) -> LinkSpec:
    entries = [(0, mbps_to_bps(rate_mbps))]
    entries += [(s_to_us(t), mbps_to_bps(r)) for t, r in schedule]
    return LinkSpec(rate_schedule=tuple(entries), prop_delay_us=ms_to_us(rtt_ms) // 2)


def _builtin_bw_halving(algo: str, seed: int, **kw) -> ScenarioSpec:
    # Finite send buffer keeps a frozen-window controller queue-limited
    # instead of overflowing even a 16 BDP buffer.
    return ScenarioSpec(
        link=_mk_link(50.0, 40.0, [(15.0, 25.0)]),
        buffer_bdp=kw.pop("buffer_bdp", 16.0),
        flows=(
            FlowSpec(
                flow_id=f"{algo}0",
                algo=algo,
                source=SourceSpec(kind="greedy"),
                sndbuf_segs=kw.pop("sndbuf_segs", 800),
            ),
        ),
        horizon_us=s_to_us(kw.pop("horizon_s", 35.0)),
        seed=seed,
        name="bw-halving",
        **kw,
    )


def _builtin_frozen_cwnd(algo: str, seed: int, **kw) -> ScenarioSpec:
    return ScenarioSpec(
        link=_mk_link(50.0, 40.0),
        buffer_bdp=kw.pop("buffer_bdp", 16.0),
        flows=(
            FlowSpec(
                flow_id=f"{algo}0",
                algo=algo,
                source=SourceSpec(kind="app_limited", rate_bps=mbps_to_bps(20.0)),
            ),
        ),
        horizon_us=s_to_us(kw.pop("horizon_s", 60.0)),
        seed=seed,
        loss=LossSpec(drop_at_us=(s_to_us(2.0), s_to_us(4.0))),
        name="frozen-cwnd",
        **kw,
    )


def _builtin_fairness(
    rate_mbps: float,
    rtt_ms: float,
    name: str,
    algo: str,
    seed: int,
    n_flows: int = 2,
    competitor: str | None = None,
    buffer_bdp: float = 1.0,
    horizon_s: float = 120.0,
    **kw,
) -> ScenarioSpec:
    """n same-algorithm flows starting near-symmetrically (0.5 ms apart
    plus seeded jitter so repetitions differ; close enough that every
    handshake completes before any data loads the queue), optionally
    against one competitor flow starting 1 s later.

    """
    rng = random.Random(seed ^ 0x5EED)
    flows = []
    for i in range(n_flows):
        start = i * 500 + rng.randint(0, 2_000)
        flows.append(
            FlowSpec(
                flow_id=f"{algo}{i}",
                algo=algo,
                source=SourceSpec(kind="greedy", start_us=start),
            )
        )
    if competitor is not None:
        flows.append(
            FlowSpec(
                flow_id=f"{competitor}_rival",
                algo=competitor,
                source=SourceSpec(kind="greedy", start_us=s_to_us(1.0)),
            )
        )
    return ScenarioSpec(
        link=_mk_link(rate_mbps, rtt_ms),
        buffer_bdp=buffer_bdp,
        flows=tuple(flows),
        horizon_us=s_to_us(horizon_s),
        seed=seed,
        name=name,
        **kw,
    )


def _builtin_steady(algo: str, seed: int, **kw) -> ScenarioSpec:
    return ScenarioSpec(
        link=_mk_link(10.0, 40.0),
        buffer_bdp=kw.pop("buffer_bdp", 1.0),
        flows=(
            FlowSpec(flow_id=f"{algo}0", algo=algo, source=SourceSpec(kind="greedy")),
        ),
        horizon_us=s_to_us(kw.pop("horizon_s", 60.0)),
        seed=seed,
        name="steady",
        **kw,
    )


BUILTIN_DOCS = {
    "bw-halving": "50->25 Mbps at t=15 s, 40 ms RTT, 16 BDP buffer, 35 s, greedy + 800-segment send buffer",
    "frozen-cwnd": "app-limited 20 Mbps flow, 50 Mbps x 40 ms, 16 BDP, drops injected at 2 s and 4 s, 60 s",
    "fairness-50x30": "bandwidth share on 50 Mbps x 30 ms, n flows (+ optional competitor), 2 min",
    "fairness-10x40": "bandwidth share on 10 Mbps x 40 ms, n flows (+ optional competitor), 2 min",
    "steady": "single greedy flow, 10 Mbps x 40 ms, 1 BDP buffer, 60 s",
}

_BUILDERS: dict[str, Callable[..., ScenarioSpec]] = {
    "bw-halving": _builtin_bw_halving,
    "frozen-cwnd": _builtin_frozen_cwnd,
    "fairness-50x30": lambda algo, seed, **kw: _builtin_fairness(
        50.0, 30.0, "fairness-50x30", algo, seed, **kw
    ),
    "fairness-10x40": lambda algo, seed, **kw: _builtin_fairness(
        10.0, 40.0, "fairness-10x40", algo, seed, **kw
    ),
    "steady": _builtin_steady,
}

_BUILDER_KWARGS = {
    "bw-halving": {"buffer_bdp", "sndbuf_segs", "horizon_s"},
    "frozen-cwnd": {"buffer_bdp", "horizon_s"},
    "fairness-50x30": {"n_flows", "competitor", "buffer_bdp", "horizon_s"},
    "fairness-10x40": {"n_flows", "competitor", "buffer_bdp", "horizon_s"},
    "steady": {"buffer_bdp", "horizon_s"},
}

_DEFAULT_ALGO = {
    "bw-halving": "roccet",
    "frozen-cwnd": "cubic",
    "fairness-50x30": "roccet",
    "fairness-10x40": "roccet",
    "steady": "cubic",
}


def builtin_scenario(name: str, algo: str | None = None, seed: int = 1, **kwargs) -> ScenarioSpec:
    if name not in _BUILDERS:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_BUILDERS))}"
        )
    allowed = _BUILDER_KWARGS[name]
    unknown = set(kwargs) - allowed
    if unknown:
        raise ScenarioError(
            f"scenario {name}: unknown options {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    algo = algo or _DEFAULT_ALGO[name]
    try:
        spec = _BUILDERS[name](algo=algo, seed=seed, **kwargs)
        spec.validate()
    except _BAD_VALUE as exc:
        raise ScenarioError(f"scenario {name}: bad value: {exc}") from exc
    return spec


# -- sweeps -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Cartesian experiment matrix over a builtin scenario's options."""

    scenario: str
    algo: str | None = None
    axes: dict[str, list] = field(default_factory=dict)
    repetitions: int = 1
    seed: int = 1
    options: dict = field(default_factory=dict)
    cell_cap: int = SWEEP_CELL_CAP

    def cells(self) -> list[dict]:
        names = sorted(self.axes)
        values = [self.axes[n] for n in names]
        points = [dict(zip(names, combo)) for combo in itertools.product(*values)]
        total = len(points) * self.repetitions
        if total > self.cell_cap:
            raise ScenarioError(
                f"sweep would run {total} cells, above the cap of {self.cell_cap}"
            )
        return points


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One finished (axis point, repetition) of a sweep: its share report
    and each flow's totals (`FlowMetrics`). It keeps no per-sample data,
    so the cells a sweep has finished hold no traces, however many."""

    axis: dict
    repetition: int
    seed: int
    share: ShareReport
    flows: dict[str, FlowMetrics]


def derive_seed(base_seed: int, axis_point: dict, repetition: int) -> int:
    """Pure, order-independent seed for one sweep cell."""
    canon = json.dumps(axis_point, sort_keys=True) + f"|rep={repetition}"
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


def materialize_cell(spec: SweepSpec, axis_point: dict, repetition: int) -> ScenarioSpec:
    seed = derive_seed(spec.seed, axis_point, repetition)
    kwargs = dict(spec.options)
    kwargs.update(axis_point)
    return builtin_scenario(spec.scenario, algo=spec.algo, seed=seed, **kwargs)


def run_sweep(
    spec: SweepSpec, runner: Callable[[ScenarioSpec], TraceSet] = run
) -> list[SweepCell]:
    """Execute every (axis point, repetition) cell.

    All cells are materialized and validated before the first one runs, so
    a bad corner of the matrix fails fast. Results are keyed by axis point
    and repetition; ordering carries no information.
    """
    points = spec.cells()
    plan: list[tuple[dict, int, ScenarioSpec]] = []
    for point in points:
        for rep in range(spec.repetitions):
            plan.append((point, rep, materialize_cell(spec, point, rep)))
    results: list[SweepCell] = []
    for point, rep, scenario in plan:
        traces = runner(scenario)
        results.append(
            SweepCell(
                axis=point,
                repetition=rep,
                seed=scenario.seed,
                share=bandwidth_share(traces),
                flows=flow_metrics(traces),
            )
        )
        del traces  # so the next cell runs without this one's samples
    return results
