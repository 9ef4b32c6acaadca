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
import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, NamedTuple

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


# Each controller section of a scenario file, top level or per flow: the
# FlowSpec attribute it fills, its params class, and one row per key:
# (attribute, file key, stored units per file unit or None, stored type).
# A scaled key is a number in the file and a rounded int once stored.
SECTIONS: dict[str, tuple[str, type, tuple[tuple[str, str, float | None, type], ...]]] = {
    "cubic": ("cubic", CubicParams, (
        ("c_scale", "c_scale", None, float),
        ("beta_mult", "beta_mult", None, float),
        ("fast_convergence", "fast_convergence", None, bool),
        ("app_limited_freeze", "app_limited_freeze", None, bool),
    )),
    "roccet": ("roccet", RoccetParams, (
        ("alpha", "alpha", None, float),
        ("srrtt_threshold", "srrtt_threshold", None, float),
        ("launch_ack_margin", "launch_ack_margin", None, float),
        ("launch_interval_us", "launch_interval_ms", 1e3, int),
        ("orbiter_interval_rtts", "orbiter_interval_rtts", None, int),
        ("orbiter_deviation", "orbiter_deviation", None, float),
        ("drain_duration_us", "drain_ms", 1e3, int),
        ("ignore_loss", "ignore_loss", None, bool),
        ("rtt_min_refresh", "rtt_min_refresh", None, bool),
        ("rtt_min_refresh_age_us", "rtt_min_refresh_age_s", 1e6, int),
        ("rtt_min_refresh_alpha", "rtt_min_refresh_alpha", None, float),
    )),
    "probe_rate": ("probe", ProbeRateParams, (
        ("startup_pacing_gain", "startup_pacing_gain", None, float),
        ("min_rtt_window_us", "min_rtt_window_s", 1e6, int),
        ("probe_rtt_duration_us", "probe_rtt_duration_ms", 1e3, int),
        ("min_cwnd", "min_cwnd", None, float),
        ("cwnd_gain", "cwnd_gain", None, float),
    )),
}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _check_type(value: Any, typ: type, where: str) -> None:
    """Refuse a value that is not of the stored type. A float takes an int
    too, kept as given; no number takes a bool; a float must be finite."""
    if typ is float:
        ok = type(value) is int or (type(value) is float and math.isfinite(value))
    else:
        ok = type(value) is typ
    if not ok:
        raise ScenarioError(f"{where} must be {_TYPE_NAMES[typ]}, got {value!r}")


def _check_keys(obj: Any, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")


def _section_from_dict(d: dict, rows, base, where: str):
    """`base` with the keys of one controller section of a file applied."""
    _check_keys(d, {key for _, key, _, _ in rows}, where)
    changes = {}
    for attr, key, scale, _ in rows:
        if key in d:
            value = d[key]
            if scale is not None:
                _check_type(value, float, f"{where}.{key}")
                value = round(value * scale)
            changes[attr] = value
    return replace(base, **changes)


def _section_to_dict(params, rows) -> dict:
    return {
        key: getattr(params, attr) if scale is None else getattr(params, attr) / scale
        for attr, key, scale, _ in rows
    }


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
        _check_type(self.name, str, "name")
        _check_type(self.seed, int, "seed")
        _check_type(self.buffer_bdp, float, "buffer_bdp")
        _check_type(self.link.mtu_bytes, int, "link.mtu_bytes")
        self.link.validate()
        if self.buffer_bdp < 0.25:
            raise ScenarioError(
                f"buffer_bdp must be >= 0.25, got {self.buffer_bdp}"
            )
        if require_flows and not self.flows:
            raise ScenarioError("scenario needs at least one flow")
        checked: set[int] = set()  # builtin flows share their params objects
        for f in self.flows:
            _check_type(f.flow_id, str, "flow id")
            if f.algo not in ("reno", "cubic", "roccet", "probe_rate"):
                raise ScenarioError(f"flow {f.flow_id}: unknown algo {f.algo!r}")
            for section, (attr, _, rows) in SECTIONS.items():
                params = getattr(f, attr)
                if id(params) not in checked:
                    checked.add(id(params))
                    for name, _, _, typ in rows:
                        _check_type(
                            getattr(params, name), typ, f"flow {f.flow_id}: {section}.{name}"
                        )
                    params.validate()
            if f.source.kind not in ("greedy", "app_limited"):
                raise ScenarioError(f"flow {f.flow_id}: unknown source kind {f.source.kind!r}")
            if f.source.kind == "app_limited" and (
                f.source.rate_bps is None or f.source.rate_bps <= 0
            ):
                raise ScenarioError(f"flow {f.flow_id}: app_limited source needs rate > 0")
            if f.sndbuf_segs is not None:
                _check_type(f.sndbuf_segs, int, f"flow {f.flow_id}: sndbuf_segs")
                if f.sndbuf_segs < 1:
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
        ids = [f.flow_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"duplicate flow ids: {ids}")
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
                    **{
                        section: _section_to_dict(getattr(f, attr), rows)
                        for section, (attr, _, rows) in SECTIONS.items()
                    },
                }
            )
        return d


# -- dict / file parsing ---------------------------------------------------


# What a value of the wrong type or shape raises on its way through a
# parser, a builder or `validate`; both entry points report it as
# ScenarioError.
_BAD_VALUE = (TypeError, ValueError, AttributeError, OverflowError, KeyError, IndexError)


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
        {"name", "seed", "horizon_s", "sample_ms", "buffer_bdp", "link", "loss", "flows", *SECTIONS},
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
        if "at_s" not in entry or "rate_mbps" not in entry:
            raise ScenarioError(f"link.schedule[{i}]: at_s and rate_mbps are required")
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
        if window and len(window) != 2:
            raise ScenarioError(f"loss.window_s must be [start, end], got {window!r}")
        loss = LossSpec(
            drop_at_us=tuple(s_to_us(t) for t in loss_d.get("drop_at_s", [])),
            drop_prob=loss_d.get("drop_prob", 0.0),
            window_us=(s_to_us(window[0]), s_to_us(window[1])) if window else None,
            jitter_us=ms_to_us(loss_d.get("jitter_ms", 0.0)),
        )

    defaults = {
        section: _section_from_dict(d.get(section, {}), rows, cls(), section)
        for section, (_, cls, rows) in SECTIONS.items()
    }

    flows: list[FlowSpec] = []
    for i, fd in enumerate(d.get("flows", [])):
        where = f"flows[{i}]"
        _check_keys(
            fd,
            {"id", "algo", "start_s", "duration_s", "source", "sndbuf_segs", *SECTIONS},
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
        params = {
            attr: (
                _section_from_dict(fd[section], rows, defaults[section], f"{where}.{section}")
                if section in fd
                else defaults[section]
            )
            for section, (attr, _, rows) in SECTIONS.items()
        }
        flows.append(
            FlowSpec(
                flow_id=fd["id"],
                algo=fd["algo"],
                source=source,
                sndbuf_segs=fd.get("sndbuf_segs"),
                **params,
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


_FAIRNESS_OPTIONS = {"n_flows", "competitor", "buffer_bdp", "horizon_s"}


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


class Builtin(NamedTuple):
    """One builtin scenario: its `list-scenarios` line, the algorithm it
    runs when none is given, the options it takes, and its builder."""

    doc: str
    default_algo: str
    options: set[str]
    build: Callable[..., ScenarioSpec]


BUILTINS: dict[str, Builtin] = {
    "bw-halving": Builtin(
        "50->25 Mbps at t=15 s, 40 ms RTT, 16 BDP buffer, 35 s, greedy + 800-segment send buffer",
        "roccet", {"buffer_bdp", "sndbuf_segs", "horizon_s"}, _builtin_bw_halving,
    ),
    "frozen-cwnd": Builtin(
        "app-limited 20 Mbps flow, 50 Mbps x 40 ms, 16 BDP, drops injected at 2 s and 4 s, 60 s",
        "cubic", {"buffer_bdp", "horizon_s"}, _builtin_frozen_cwnd,
    ),
    "fairness-50x30": Builtin(
        "bandwidth share on 50 Mbps x 30 ms, n flows (+ optional competitor), 2 min",
        "roccet", _FAIRNESS_OPTIONS, partial(_builtin_fairness, 50.0, 30.0, "fairness-50x30"),
    ),
    "fairness-10x40": Builtin(
        "bandwidth share on 10 Mbps x 40 ms, n flows (+ optional competitor), 2 min",
        "roccet", _FAIRNESS_OPTIONS, partial(_builtin_fairness, 10.0, 40.0, "fairness-10x40"),
    ),
    "steady": Builtin(
        "single greedy flow, 10 Mbps x 40 ms, 1 BDP buffer, 60 s",
        "cubic", {"buffer_bdp", "horizon_s"}, _builtin_steady,
    ),
}


def _builtin(name: str, options) -> Builtin:
    """The registry entry for `name`, once each of `options` is one it takes."""
    if name not in BUILTINS:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(BUILTINS))}"
        )
    builtin = BUILTINS[name]
    unknown = set(options) - builtin.options
    if unknown:
        raise ScenarioError(
            f"scenario {name}: unknown options {sorted(unknown)}; allowed: {sorted(builtin.options)}"
        )
    return builtin


def builtin_scenario(name: str, algo: str | None = None, seed: int = 1, **kwargs) -> ScenarioSpec:
    builtin = _builtin(name, kwargs)
    try:
        spec = builtin.build(algo=algo or builtin.default_algo, seed=seed, **kwargs)
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


def sweep_from_dict(d: dict) -> SweepSpec:
    """Parse a sweep file's dict (`sweep --builtin` passes its flags as
    one). Field types, and each axis and option name against what the
    builtin takes, are checked before any cell is built."""
    _check_keys(d, {"scenario", "algo", "axes", "repetitions", "seed", "options"}, "sweep")
    if "scenario" not in d:
        raise ScenarioError("sweep: scenario is required")
    spec = SweepSpec(**d)
    _check_type(spec.scenario, str, "sweep: scenario")
    if spec.algo is not None:
        _check_type(spec.algo, str, "sweep: algo")
    _check_type(spec.repetitions, int, "sweep: repetitions")
    _check_type(spec.seed, int, "sweep: seed")
    for key in ("axes", "options"):
        if not isinstance(getattr(spec, key), dict):
            raise ScenarioError(f"sweep: {key} must be an object, got {getattr(spec, key)!r}")
    _builtin(spec.scenario, [*spec.axes, *spec.options])
    for name, values in spec.axes.items():
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"sweep: axis {name!r} must be a non-empty list, got {values!r}")
    if spec.repetitions < 1:
        raise ScenarioError(f"sweep: repetitions must be >= 1, got {spec.repetitions}")
    return spec


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
