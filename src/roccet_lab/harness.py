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

import itertools
import json
import math
import random
from functools import cache, partial
from operator import ge, gt, le, lt
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .cc_types import MIN_CWND, CubicParams
from .controllers import CONTROLLERS
from .errors import MetricsError, ScenarioError
from .metrics import FlowMetrics, ShareReport, bandwidth_share, flow_metrics
from .probe_rate import ProbeRateParams
from .records import Record
from .roccet import RoccetParams
from .simulator import LinkSpec, run
from .trace import TraceSet
from .units import mbps_to_bps, ms_to_us, s_to_us

SWEEP_CELL_CAP = 4096


class SourceSpec(Record):
    """What a flow sends: greedy, or app-limited at `rate_bps`."""

    kind: str = "greedy"  # "greedy" | "app_limited"
    rate_bps: int | None = None


class LossSpec(Record):
    """Injected loss: drops at fixed times, random drops and delay jitter inside a window."""

    drop_at_us: tuple[int, ...] = ()
    drop_prob: float = 0.0
    window_us: tuple[int, int] | None = None
    jitter_us: int = 0


class FlowSpec(Record):
    """One flow: its id, algorithm, source, when it starts and for how long
    it sends, its send buffer and its controller parameters."""

    flow_id: str
    algo: str
    source: SourceSpec
    start_us: int = 0
    duration_us: int | None = None
    sndbuf_segs: int | None = None
    cubic: CubicParams = CubicParams()
    roccet: RoccetParams = RoccetParams()
    probe: ProbeRateParams = ProbeRateParams()


# The keys of one object of a scenario file, one row per key: (attribute,
# file key, stored units per file unit or None, stored type, range or
# None). A scaled key is a finite number in the file and a rounded int once
# stored. A stored type `T | None` marks a key that may be null, and
# `tuple[T, ...]` one that is a list in the file. A range is the text a
# user reads, `> x`, `>= x` or `in` an interval such as `in (0, 1]`, and
# bounds the stored value, or each entry of a list. Parsing, the config
# echo and the type and range checks of `ScenarioSpec.validate` all walk
# these rows.
Rows = tuple[tuple[Any, str, float | None, Any, str | None], ...]

SCENARIO_KEYS: Rows = (
    ("name", "name", None, str, None),
    ("seed", "seed", None, int, ">= 0"),
    ("horizon_us", "horizon_s", 1e6, int, ">= 0"),
    ("sample_us", "sample_ms", 1e3, int, "> 0"),
    ("buffer_bdp", "buffer_bdp", None, float, "in [0.25, 1e6]"),
)
# `initial_rate_bps` and `base_rtt_us` are read-only LinkSpec properties,
# stored by `_parse_scenario` as the first schedule entry and the one-way delay.
LINK_KEYS: Rows = (
    ("initial_rate_bps", "rate_mbps", 1e6, int, "> 0"),
    ("base_rtt_us", "rtt_ms", 1e3, int, "> 0"),
    ("mtu_bytes", "mtu_bytes", None, int, "> 0"),
)
# An entry of `link.schedule`, stored as a (time, rate) pair.
STEP_KEYS: Rows = ((0, "at_s", 1e6, int, None), (1, "rate_mbps", 1e6, int, "> 0"))
LOSS_KEYS: Rows = (
    ("drop_at_us", "drop_at_s", 1e6, tuple[int, ...], ">= 0"),
    ("drop_prob", "drop_prob", None, float, "in [0, 1]"),
    ("window_us", "window_s", 1e6, tuple[int, ...] | None, ">= 0"),
    ("jitter_us", "jitter_ms", 1e3, int, ">= 0"),
)
FLOW_KEYS: Rows = (
    ("flow_id", "id", None, str, None),
    ("algo", "algo", None, str, None),
    ("start_us", "start_s", 1e6, int, ">= 0"),
    ("duration_us", "duration_s", 1e6, int | None, ">= 0"),
    ("sndbuf_segs", "sndbuf_segs", None, int | None, ">= 1"),
)
SOURCE_KEYS: Rows = (
    ("kind", "kind", None, str, None),
    ("rate_bps", "rate_mbps", 1e6, int | None, "> 0"),
)

# Each controller section of a scenario file, top level or per flow: the
# FlowSpec attribute it fills, its params class, and its rows.
SECTIONS: dict[str, tuple[str, type, Rows]] = {
    "cubic": ("cubic", CubicParams, (
        # The acceptance suite's curve identities draw C from 0.05 to 5. At
        # 1000 a flow's window stays under its slow-start peak; at 1e4 the
        # default fairness-10x40 cell grows one past five times its queue
        # plus BDP.
        ("c_scale", "c_scale", None, float, "in (0, 1000]"),
        ("beta_mult", "beta_mult", None, float, "in (0, 1)"),
        ("fast_convergence", "fast_convergence", None, bool, None),
        ("app_limited_freeze", "app_limited_freeze", None, bool, None),
    )),
    "roccet": ("roccet", RoccetParams, (
        ("alpha", "alpha", None, float, "in (0, 1]"),
        ("srrtt_threshold", "srrtt_threshold", None, float, "> 0"),
        ("launch_ack_margin", "launch_ack_margin", None, float, None),
        ("launch_interval_us", "launch_interval_ms", 1e3, int, "> 0"),
        ("orbiter_interval_rtts", "orbiter_interval_rtts", None, int, ">= 1"),
        ("orbiter_deviation", "orbiter_deviation", None, float, "in (0, 1)"),
        ("drain_duration_us", "drain_ms", 1e3, int, "> 0"),
        ("ignore_loss", "ignore_loss", None, bool, None),
        ("rtt_min_refresh", "rtt_min_refresh", None, bool, None),
        ("rtt_min_refresh_age_us", "rtt_min_refresh_age_s", 1e6, int, "> 0"),
        ("rtt_min_refresh_alpha", "rtt_min_refresh_alpha", None, float, "in (0, 1]"),
    )),
    "probe_rate": ("probe", ProbeRateParams, (
        # Below 1 startup cannot probe for bandwidth; far above, the drain
        # phase's gain (its inverse) paces at a rate too small to time.
        ("startup_pacing_gain", "startup_pacing_gain", None, float, "in [1, 100]"),
        ("min_rtt_window_us", "min_rtt_window_s", 1e6, int, "> 0"),
        ("probe_rtt_duration_us", "probe_rtt_duration_ms", 1e3, int, "> 0"),
        ("min_cwnd", "min_cwnd", None, float, f">= {MIN_CWND:g}"),
        ("cwnd_gain", "cwnd_gain", None, float, "> 0"),
    )),
}

# The keys of a sweep file besides its `axes` and `options` objects, whose
# keys are the options of its builtin.
SWEEP_KEYS: Rows = (
    ("scenario", "scenario", None, str, None),
    ("algo", "algo", None, str | None, None),
    ("repetitions", "repetitions", None, int, ">= 1"),
    ("seed", "seed", None, int, None),
)

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _check_type(value: Any, typ, where: str) -> None:
    """Refuse a value that is not of the stored type. A float takes an int
    too, kept as given; no number takes a bool; a float must be finite."""
    if type(typ) is not type:
        args = typ.__args__
        if type(None) not in args:  # tuple[T, ...]
            if type(value) is not tuple:
                raise ScenarioError(f"{where} must be a tuple, got {value!r}")
            for v in value:
                _check_type(v, args[0], where)
        elif value is not None:  # T | None
            _check_type(value, args[0], where)
        return
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


def _from_file(value: Any, scale: float | None, typ, where: str) -> Any:
    """A file value in its stored form. A scaled value must be a finite
    number here; `ScenarioSpec.validate` checks the stored types."""
    if type(typ) is not type:
        args = typ.__args__
        if type(None) in args:  # T | None
            return None if value is None else _from_file(value, scale, args[0], where)
        if not isinstance(value, list):  # tuple[T, ...]
            raise ScenarioError(f"{where} must be a list, got {value!r}")
        return tuple(_from_file(v, scale, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if scale is None:
        return value
    _check_type(value, float, where)
    return round(value * scale)


def _fields(d: Any, rows: Rows, where: str, others=(), required=()) -> dict:
    """The stored value of each key of `rows` that the file object `d`
    gives, by attribute. `d` may also hold the keys `others`."""
    _check_keys(d, {key for _, key, *_ in rows}.union(others), where)
    if not all(key in d for key in required):
        verb = "is" if len(required) == 1 else "are"
        raise ScenarioError(f"{where}: {' and '.join(required)} {verb} required")
    return {
        attr: _from_file(d[key], scale, typ, f"{where}.{key}")
        for attr, key, scale, typ, _ in rows
        if key in d
    }


def _get(obj: Any, attr: Any) -> Any:
    return obj[attr] if type(attr) is int else getattr(obj, attr)


def _to_file(value: Any, scale: float | None) -> Any:
    if type(value) is tuple:
        return [_to_file(v, scale) for v in value]
    return value if scale is None or value is None else value / scale


def _to_dict(obj: Any, rows: Rows) -> dict:
    return {key: _to_file(_get(obj, attr), scale) for attr, key, scale, *_ in rows}


@cache
def _limits(text: str) -> tuple:
    """A range text as (low-end test, low end, high-end test, high end).
    `> x` and `>= x` have no high end; in an interval a `[` or `]` end is
    closed and a `(` or `)` end open."""
    if text.startswith("in "):
        low, high = text[4:-1].split(", ")
        closed_low, closed_high = text[3] == "[", text[-1] == "]"
        return (ge if closed_low else gt), float(low), (le if closed_high else lt), float(high)
    op, low = text.split()
    return (ge if op == ">=" else gt), float(low), le, math.inf


def _check_rows(obj: Any, rows: Rows, where: str) -> None:
    """Refuse a value of `obj` that is not of its row's stored type, or
    that is, or has a list entry, outside its row's range."""
    for attr, _, _, typ, limits in rows:
        value = _get(obj, attr)
        _check_type(value, typ, f"{where}{attr}")
        if limits is None or value is None:
            continue
        above, low, below, high = _limits(limits)
        for v in value if type(value) is tuple else (value,):
            if not (above(v, low) and below(v, high)):
                raise ScenarioError(f"{where}{attr} must be {limits}, got {v}")


class ScenarioSpec(Record):
    """One run: the link, its buffer, the flows, the horizon, seed, sample cadence and loss."""

    link: LinkSpec
    buffer_bdp: float
    flows: tuple[FlowSpec, ...]
    horizon_us: int
    seed: int = 1
    sample_us: int = 10_000
    loss: LossSpec | None = None
    debug: bool = False
    name: str = "custom"

    def validate(self) -> None:
        """Refuse a value outside its row's type or range, then check what
        relates keys to each other, which no single row can say."""
        schedule = self.link.rate_schedule
        if not schedule or schedule[0][0] != 0:
            raise ScenarioError("link.rate_schedule must start with an entry at time 0")
        _check_rows(self, SCENARIO_KEYS, "")
        _check_rows(self.link, LINK_KEYS, "link.")
        for i, step in enumerate(schedule[1:], start=1):
            _check_rows(step, STEP_KEYS, f"link.rate_schedule.{i}.")
        times = [t for t, _ in schedule]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("link.rate_schedule times must be strictly increasing")
        if self.loss is not None:
            _check_rows(self.loss, LOSS_KEYS, "loss.")
            window = self.loss.window_us
            if window is not None and not (len(window) == 2 and window[0] < window[1]):
                raise ScenarioError(f"loss.window_us must be (start, end), start < end: {window}")
            if window is None and (self.loss.drop_prob > 0 or self.loss.jitter_us > 0):
                raise ScenarioError(
                    "loss.drop_prob and loss.jitter_ms act only inside loss.window_s, which is null"
                )
        self.link.queue_capacity(self.buffer_bdp)  # raises unless finite, as the run would
        if not self.flows:
            raise ScenarioError("scenario needs at least one flow")
        checked: set[int] = set()  # builtin flows share their params objects
        for f in self.flows:
            where = f"flow {f.flow_id}: "
            _check_rows(f, FLOW_KEYS, where)
            _check_rows(f.source, SOURCE_KEYS, f"{where}source.")
            if f.algo not in CONTROLLERS:
                raise ScenarioError(f"{where}unknown algo {f.algo!r}")
            for section, (attr, _, rows) in SECTIONS.items():
                params = getattr(f, attr)
                if id(params) not in checked:
                    checked.add(id(params))
                    _check_rows(params, rows, f"{where}{section}.")
            if f.source.kind not in ("greedy", "app_limited"):
                raise ScenarioError(f"{where}unknown source kind {f.source.kind!r}")
            if f.source.kind == "app_limited" and f.source.rate_bps is None:
                raise ScenarioError(f"{where}app_limited source needs a rate")
            end = f.start_us + (f.duration_us or 0)
            if f.duration_us is not None and end >= self.horizon_us:
                raise ScenarioError(f"{where}ends at {end} us, at or past the horizon")
            if f.start_us >= self.horizon_us:
                raise ScenarioError(f"{where}starts past the horizon")
        ids = [f.flow_id for f in self.flows]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"duplicate flow ids: {ids}")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            **_to_dict(self, SCENARIO_KEYS),
            "link": {
                **_to_dict(self.link, LINK_KEYS),
                "schedule": [_to_dict(step, STEP_KEYS) for step in self.link.rate_schedule[1:]],
            },
            "loss": None if self.loss is None else _to_dict(self.loss, LOSS_KEYS),
            "flows": [
                {
                    **_to_dict(f, FLOW_KEYS),
                    "source": _to_dict(f.source, SOURCE_KEYS),
                    **{
                        section: _to_dict(getattr(f, attr), rows)
                        for section, (attr, _, rows) in SECTIONS.items()
                    },
                }
                for f in self.flows
            ],
        }


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
    top = _fields(d, SCENARIO_KEYS, "scenario", ("link", "loss", "flows", *SECTIONS))
    link = _fields(d.get("link"), LINK_KEYS, "link", ("schedule",), ("rate_mbps", "rtt_ms"))
    steps = [
        _fields(entry, STEP_KEYS, f"link.schedule[{i}]", required=("at_s", "rate_mbps"))
        for i, entry in enumerate(d["link"].get("schedule", []))
    ]
    link = LinkSpec(
        rate_schedule=((0, link.pop("initial_rate_bps")), *((s[0], s[1]) for s in steps)),
        # The one key that is not a scale: the file gives the round trip and
        # the link keeps the one-way delay, so an odd microsecond is dropped
        # here and the echo doubles what is kept.
        prop_delay_us=link.pop("base_rtt_us") // 2,
        **link,
    )
    loss = None if d.get("loss") is None else LossSpec(**_fields(d["loss"], LOSS_KEYS, "loss"))

    defaults = {
        section: cls(**_fields(d.get(section, {}), rows, section))
        for section, (_, cls, rows) in SECTIONS.items()
    }
    flows: list[FlowSpec] = []
    for i, fd in enumerate(d.get("flows", [])):
        where = f"flows[{i}]"
        flow = _fields(fd, FLOW_KEYS, where, ("source", *SECTIONS), ("id", "algo"))
        source = SourceSpec(**_fields(fd.get("source", {}), SOURCE_KEYS, f"{where}.source"))
        params = {
            attr: defaults[section]._replace(**_fields(fd[section], rows, f"{where}.{section}"))
            if section in fd else defaults[section]
            for section, (attr, _, rows) in SECTIONS.items()
        }
        flows.append(FlowSpec(source=source, **flow, **params))

    # The file's defaults for the two fields that ScenarioSpec requires.
    top = {"buffer_bdp": 1.0, "horizon_us": s_to_us(60.0), **top}
    return ScenarioSpec(link=link, flows=tuple(flows), loss=loss, **top)


def load_scenario(path: str) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data)


# -- builtin scenarios ------------------------------------------------------


def _mk_link(rate_mbps: float, rtt_ms: float, schedule: list[tuple[float, float]] = ()) -> LinkSpec:
    entries = [(0, mbps_to_bps(rate_mbps))]
    entries += [(s_to_us(t), mbps_to_bps(r)) for t, r in schedule]
    return LinkSpec(rate_schedule=tuple(entries), prop_delay_us=ms_to_us(rtt_ms) // 2)


def _builtin_single(
    link: LinkSpec, source: SourceSpec, loss: LossSpec | None,
    name: str, algo: str, seed: int, buffer_bdp: float, horizon_s: float,
    sndbuf_segs: int | None = None,
) -> ScenarioSpec:
    """One flow from `source` on `link`, with `loss` injected. Only
    bw-halving takes `sndbuf_segs`: its finite send buffer keeps a
    frozen-window controller queue-limited instead of overflowing even a
    16 BDP buffer."""
    return ScenarioSpec(
        link=link,
        buffer_bdp=buffer_bdp,
        flows=(FlowSpec(flow_id=f"{algo}0", algo=algo, source=source, sndbuf_segs=sndbuf_segs),),
        horizon_us=s_to_us(horizon_s),
        seed=seed,
        loss=loss,
        name=name,
    )


def _builtin_fairness(
    link: LinkSpec, name: str, algo: str, seed: int,
    n_flows: int, competitor: str | None, buffer_bdp: float, horizon_s: float,
) -> ScenarioSpec:
    """n same-algorithm flows starting near-symmetrically (0.5 ms apart
    plus seeded jitter so repetitions differ; close enough that every
    handshake completes before any data loads the queue), optionally
    against one competitor flow starting 1 s later."""
    rng = random.Random(seed ^ 0x5EED)
    flows = []
    for i in range(n_flows):
        start = i * 500 + rng.randint(0, 2_000)
        flows.append(FlowSpec(f"{algo}{i}", algo, SourceSpec(), start_us=start))
    if competitor is not None:
        flows.append(FlowSpec(f"{competitor}_rival", competitor, SourceSpec(), start_us=s_to_us(1.0)))
    return ScenarioSpec(
        link=link,
        buffer_bdp=buffer_bdp,
        flows=tuple(flows),
        horizon_us=s_to_us(horizon_s),
        seed=seed,
        name=name,
    )


class Builtin(Record):
    """One builtin scenario: its `list-scenarios` line, the algorithm it
    runs when none is given, each option it takes with its default, and
    its builder, called with the name, algorithm, seed and every option."""

    doc: str
    default_algo: str
    defaults: dict[str, Any]
    build: Callable[..., ScenarioSpec]


# The stored type of each builtin option, checked as a scenario file's
# values are: no number takes a bool, and an integer takes no float.
_OPTION_TYPES = {
    "n_flows": int, "competitor": str | None, "buffer_bdp": float, "horizon_s": float,
    "sndbuf_segs": int | None,
}
_FAIRNESS_DEFAULTS = {"n_flows": 2, "competitor": None, "buffer_bdp": 1.0, "horizon_s": 120.0}

BUILTINS: dict[str, Builtin] = {
    "bw-halving": Builtin(
        "50->25 Mbps at t=15 s, 40 ms RTT, 16 BDP buffer, 35 s, greedy + 800-segment send buffer",
        "roccet", {"buffer_bdp": 16.0, "sndbuf_segs": 800, "horizon_s": 35.0},
        partial(
            _builtin_single, _mk_link(50.0, 40.0, [(15.0, 25.0)]), SourceSpec(kind="greedy"), None
        ),
    ),
    "frozen-cwnd": Builtin(
        "app-limited 20 Mbps flow, 50 Mbps x 40 ms, 16 BDP, drops injected at 2 s and 4 s, 60 s",
        "cubic", {"buffer_bdp": 16.0, "horizon_s": 60.0},
        partial(
            _builtin_single, _mk_link(50.0, 40.0),
            SourceSpec(kind="app_limited", rate_bps=mbps_to_bps(20.0)),
            LossSpec(drop_at_us=(s_to_us(2.0), s_to_us(4.0))),
        ),
    ),
    "fairness-50x30": Builtin(
        "bandwidth share on 50 Mbps x 30 ms, n flows (+ optional competitor), 2 min",
        "roccet", _FAIRNESS_DEFAULTS, partial(_builtin_fairness, _mk_link(50.0, 30.0)),
    ),
    "fairness-10x40": Builtin(
        "bandwidth share on 10 Mbps x 40 ms, n flows (+ optional competitor), 2 min",
        "roccet", _FAIRNESS_DEFAULTS, partial(_builtin_fairness, _mk_link(10.0, 40.0)),
    ),
    "steady": Builtin(
        "single greedy flow, 10 Mbps x 40 ms, 1 BDP buffer, 60 s",
        "cubic", {"buffer_bdp": 1.0, "horizon_s": 60.0},
        partial(_builtin_single, _mk_link(10.0, 40.0), SourceSpec(kind="greedy"), None),
    ),
}


def _builtin(name: str, options) -> Builtin:
    """The registry entry for `name`, once each of `options` is one it takes."""
    if name not in BUILTINS:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(BUILTINS))}"
        )
    builtin = BUILTINS[name]
    unknown = set(options) - builtin.defaults.keys()
    if unknown:
        raise ScenarioError(
            f"scenario {name}: unknown options {sorted(unknown)}; allowed: {sorted(builtin.defaults)}"
        )
    return builtin


def builtin_scenario(name: str, algo: str | None = None, seed: int = 1, **kwargs) -> ScenarioSpec:
    builtin = _builtin(name, kwargs)
    for option, value in kwargs.items():
        _check_type(value, _OPTION_TYPES[option], f"scenario {name}: {option}")
    try:
        spec = builtin.build(
            name=name, algo=algo or builtin.default_algo, seed=seed, **{**builtin.defaults, **kwargs}
        )
        spec.validate()
    except _BAD_VALUE as exc:
        raise ScenarioError(f"scenario {name}: bad value: {exc}") from exc
    return spec


# -- sweeps -----------------------------------------------------------------


class SweepSpec(Record):
    """Cartesian experiment matrix over a builtin scenario's options.
    `axes` and `options` default to one shared read-only empty mapping;
    `sweep_from_dict` gives each spec dicts of its own."""

    scenario: str
    algo: str | None = None
    axes: Mapping[str, list] = MappingProxyType({})
    repetitions: int = 1
    seed: int = 1
    options: Mapping[str, Any] = MappingProxyType({})

    def cells(self) -> list[dict]:
        names = sorted(self.axes)
        values = [self.axes[n] for n in names]
        # Counted before any point is built, so an oversized sweep is refused
        # at once instead of filling memory first.
        total = math.prod(map(len, values)) * self.repetitions
        if total > SWEEP_CELL_CAP:
            raise ScenarioError(
                f"sweep would run {total} cells, above the cap of {SWEEP_CELL_CAP}"
            )
        return [dict(zip(names, combo)) for combo in itertools.product(*values)]


def sweep_from_dict(d: dict) -> SweepSpec:
    """Parse a sweep file's dict (`sweep --builtin` passes its flags as
    one). Field types, and each axis and option name against what the
    builtin takes, are checked before any cell is built."""
    # Refuses an unknown or a missing key; no sweep key is scaled, so each
    # is stored as given.
    _fields(d, SWEEP_KEYS, "sweep", ("axes", "options"), ("scenario",))
    spec = SweepSpec(**{"axes": {}, "options": {}, **d})
    _check_rows(spec, SWEEP_KEYS, "sweep: ")
    for key in ("axes", "options"):
        if not isinstance(getattr(spec, key), dict):
            raise ScenarioError(f"sweep: {key} must be an object, got {getattr(spec, key)!r}")
    _builtin(spec.scenario, [*spec.axes, *spec.options])
    for name, values in spec.axes.items():
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"sweep: axis {name!r} must be a non-empty list, got {values!r}")
    return spec


class SweepCell(Record):
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
    # Imported here: only sweeps derive seeds, so a `run` or `report` never
    # loads OpenSSL's `_hashlib`, which would lengthen every CLI start-up.
    import hashlib

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
    a bad corner of the matrix fails fast. A cell whose run cannot be
    measured (no bytes inside the share window, say) raises MetricsError
    naming its axis point and repetition. Results are keyed by axis point
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
        try:
            share = bandwidth_share(traces)
        except MetricsError as exc:
            where = ", ".join(f"{name}={value}" for name, value in point.items())
            raise MetricsError(f"cell {where or '(no axes)'}, repetition {rep}: {exc}") from None
        results.append(
            SweepCell(
                axis=point,
                repetition=rep,
                seed=scenario.seed,
                share=share,
                flows=flow_metrics(traces),
            )
        )
        del traces  # so the next cell runs without this one's samples
    return results
