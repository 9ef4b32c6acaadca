"""The immutable records are values: a field cannot be assigned, equal
fields make equal records with equal hashes, and `_replace` makes a new
record. Each is a subclass of `records.Record`, a tuple with named fields
built as a `typing.NamedTuple` of the same class body would be: the
tests check construction, its errors, `_asdict`, `repr`, copying and
pickling against that. Being tuples, no record may be taken for a tuple
where the scenario file form is written, which the tests after them
check.

The mutable records (`AckInfo` and the trace containers) are plain
classes with `__slots__` and one `__init__`; the last tests check their
fields, their defaults and that no two instances share a container."""

import copy
import json
import pickle

import pytest

from roccet_lab.cc_types import AckInfo, CcState, CubicParams
from roccet_lab.controllers import CONTROLLERS
from roccet_lab.errors import ScenarioError
from roccet_lab.harness import (
    BUILTINS,
    Builtin,
    FlowSpec,
    LossSpec,
    ScenarioSpec,
    SourceSpec,
    SweepCell,
    SweepSpec,
    _check_type,
    _to_file,
    builtin_scenario,
    scenario_from_dict,
    sweep_from_dict,
)
from roccet_lab.metrics import FlowMetrics, ShareReport
from roccet_lab.probe_rate import ProbeRateParams
from roccet_lab.records import Record
from roccet_lab.roccet import RoccetParams, RoccetState
from roccet_lab.simulator import LinkSpec, _LossEpisode
from roccet_lab.trace import FlowTrace, Sample, TraceSet


def _share():
    return ShareReport(per_flow_fraction={"a": 0.5, "b": 0.5}, jain_index=1.0, window_ms=(0.0, 1.0))


def _flow_metrics():
    return FlowMetrics("a", "roccet", 1.5, 1500, {"roccet_ce": 2})


# Each record: a builder that makes a fresh record from the same values,
# and a field with a value other than the one the builder gives it.
RECORDS = {
    CubicParams: (lambda: CubicParams(c_scale=0.5), "beta_mult", 0.5),
    CcState: (lambda: CcState(cwnd=20.0, ssthresh=15.0), "cwnd", 21.0),
    RoccetParams: (lambda: RoccetParams(alpha=0.5), "srrtt_threshold", 2.0),
    RoccetState: (lambda: RoccetState(srrtt=0.5, rtt_min_us=40_000), "rtt_min_us", 41_000),
    ProbeRateParams: (lambda: ProbeRateParams(min_cwnd=8.0), "cwnd_gain", 3.0),
    LinkSpec: (lambda: builtin_scenario("bw-halving").link, "mtu_bytes", 1000),
    SourceSpec: (lambda: SourceSpec(kind="app_limited", rate_bps=20_000_000), "start_us", 5),
    LossSpec: (lambda: builtin_scenario("frozen-cwnd").loss, "jitter_us", 3),
    FlowSpec: (lambda: builtin_scenario("frozen-cwnd").flows[0], "flow_id", "other"),
    ScenarioSpec: (lambda: builtin_scenario("frozen-cwnd"), "seed", 2),
    Builtin: (lambda: Builtin(*BUILTINS["bw-halving"]), "default_algo", "cubic"),
    # Not the default `options`: a read-only mapping does not pickle.
    SweepSpec: (
        lambda: SweepSpec("fairness-10x40", axes={"n_flows": [2, 8]}, options={}), "repetitions", 3,
    ),
    SweepCell: (
        lambda: SweepCell({"n_flows": 2}, 0, 7, _share(), {"a": _flow_metrics()}), "seed", 8,
    ),
    FlowMetrics: (_flow_metrics, "delivered_bytes", 3000),
    ShareReport: (_share, "jain_index", 0.5),
}
# These hold dicts, so they have no hash; nor had they as frozen dataclasses.
UNHASHABLE = {Builtin, SweepSpec, SweepCell, FlowMetrics, ShareReport}

params = pytest.mark.parametrize(
    "cls, build, name, other", [(cls, *row) for cls, row in RECORDS.items()],
    ids=[cls.__name__ for cls in RECORDS],
)


@params
def test_a_field_cannot_be_assigned(cls, build, name, other):
    record = build()
    assert type(record) is cls
    with pytest.raises(AttributeError):
        setattr(record, name, other)
    with pytest.raises(AttributeError):
        record.not_a_field = 1  # no instance dict either


@params
def test_equal_fields_make_equal_records(cls, build, name, other):
    a, b = build(), build()
    assert a == b and repr(a) == repr(b)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@params
def test_replace_makes_a_new_record(cls, build, name, other):
    record = build()
    before = getattr(record, name)
    changed = record._replace(**{name: other})
    assert type(changed) is cls and changed != record
    assert getattr(changed, name) == other
    assert getattr(record, name) == before
    assert record == build()
    assert changed._replace(**{name: before}) == record


@params
def test_positional_and_keyword_construction_agree(cls, build, name, other):
    record = build()
    assert list(record._asdict()) == list(cls._fields) == list(cls.__annotations__)
    assert cls(*record) == record == cls(**record._asdict())
    # Defaults trail the required fields, and each fills its field.
    required = [f for f in cls._fields if f not in cls._field_defaults]
    assert list(cls._fields[:len(required)]) == required
    bare = cls(**{f: getattr(record, f) for f in required})
    for field, default in cls._field_defaults.items():
        assert getattr(bare, field) is default


@params
def test_a_bad_construction_is_refused(cls, build, name, other):
    record = build()
    fields = record._asdict()
    for field in fields:
        if field not in cls._field_defaults:
            with pytest.raises(TypeError, match=f"missing .*'{field}'"):
                cls(**{f: v for f, v in fields.items() if f != field})
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{cls._fields[0]}'"):
        cls(*record, **{cls._fields[0]: record[0]})
    with pytest.raises(TypeError, match=r"positional arguments but \d+ were given"):
        cls(*record, None)
    with pytest.raises(ValueError, match="not_a_field"):
        record._replace(not_a_field=1)


@params
def test_repr_names_every_field(cls, build, name, other):
    record = build()
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in cls._fields)
    assert repr(record) == f"{cls.__name__}({fields})"


@params
def test_copy_and_pickle_keep_the_record(cls, build, name, other):
    record = build()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and repr(twin) == repr(record)
        if cls is Builtin:  # a copied `functools.partial` is equal only to itself
            twin = twin._replace(build=record.build)
        assert twin == record


def test_a_required_field_after_a_default_is_refused():
    with pytest.raises(TypeError, match="required field 'b' follows a field with a default"):
        class Bad(Record):
            a: int = 0
            b: int


def test_sweep_spec_defaults_are_read_only():
    # A record's default is shared by every record that takes it, so it
    # must not be a dict anyone can fill.
    with pytest.raises(TypeError):
        SweepSpec("fairness-10x40").axes["n_flows"] = [2]
    a = sweep_from_dict({"scenario": "fairness-10x40"})
    b = sweep_from_dict({"scenario": "fairness-10x40"})
    assert a.axes == {} and a.options == {}
    assert a.axes is not b.axes and a.options is not b.options
    assert json.loads(json.dumps(a._asdict())) == {
        "scenario": "fairness-10x40", "algo": None, "axes": {},
        "repetitions": 1, "seed": 1, "options": {},
    }


def _plain(value):
    """True when `value` holds only what a JSON file holds: no tuple, so
    no record either."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_scenario_echo_holds_no_record(name):
    # json.dumps would write a record out as a list.
    for algo in CONTROLLERS:
        config = builtin_scenario(name, algo=algo).to_dict()
        assert _plain(config)
        assert _plain(scenario_from_dict(config).to_dict())


def test_to_file_keeps_a_record_whole():
    # `_to_file` turns a plain tuple into a list; a record is a tuple
    # subclass and must not be taken for one.
    assert _to_file((1_000_000, 2_000_000), 1e6) == [1.0, 2.0]
    record = CubicParams()
    assert _to_file(record, None) is record
    with pytest.raises(ScenarioError, match="must be a tuple"):
        _check_type(LossSpec(), tuple[int, ...], "loss.drop_at_us")


@pytest.mark.parametrize("algo", sorted(CONTROLLERS))
def test_controllers_hold_their_state_in_slots(algo):
    # A controller keeps its state field by field: every class it is built
    # from declares `__slots__`, it has no instance `__dict__`, and no field
    # holds a state record; only the parameter records are kept whole.
    ctl = CONTROLLERS[algo](builtin_scenario("steady", algo=algo).flows[0])
    for now_us in range(1_000, 50_000, 1_000):
        ctl.on_ack(AckInfo(newly_acked=1, rtt_sample_us=40_000, srtt_us=40_000.0, now_us=now_us,
                           in_flight=10, round_start=now_us % 10_000 == 0))
    ctl.on_loss(50_000)
    classes = type(ctl).__mro__[:-1]
    assert all("__slots__" in vars(cls) for cls in classes)
    assert not hasattr(ctl, "__dict__")
    fields = [name for cls in classes for name in vars(cls)["__slots__"]]
    records = {name: type(getattr(ctl, name)) for name in fields
               if isinstance(getattr(ctl, name), Record)}
    assert set(records.values()) <= {CubicParams, RoccetParams, ProbeRateParams}, records


# The mutable records, each with its fields (for the first four in the
# order the dataclasses they replace declared them) and a builder.
MUTABLE = {
    AckInfo: (
        ("newly_acked", "rtt_sample_us", "srtt_us", "now_us",
         "in_flight", "round_start", "in_recovery", "is_app_limited"),
        lambda: AckInfo(newly_acked=1, rtt_sample_us=2, srtt_us=3.0, now_us=4),
    ),
    Sample: (
        ("t_us", "dt_us", "cwnd", "srtt_us", "delivered_bytes", "queue_segs"),
        lambda: Sample(100_000, 100_000, 10.0, 40_000, 15_000, 3),
    ),
    FlowTrace: (
        ("flow_id", "algo", "start_us", "samples", "ce_log", "counters", "extra"),
        lambda: FlowTrace("a", "roccet", 0),
    ),
    TraceSet: (
        ("horizon_us", "config", "flows", "drops", "rate_changes", "audit",
         "events_processed", "debug_packets"),
        lambda: TraceSet(1_000_000, {}),
    ),
    _LossEpisode: (
        ("high", "inflation", "repaired", "cursor"),
        lambda: _LossEpisode(10, 3, {4}, 5),
    ),
}

mutable = pytest.mark.parametrize(
    "cls, names, build", [(cls, *row) for cls, row in MUTABLE.items()],
    ids=[cls.__name__ for cls in MUTABLE],
)


@mutable
def test_mutable_record_slots_are_its_fields(cls, names, build):
    assert cls.__slots__ == names
    record = build()
    assert type(record) is cls
    for name in names:
        getattr(record, name)  # every slot is set by `__init__`


@mutable
def test_a_misspelled_field_is_refused(cls, names, build):
    record = build()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.in_recovry = True
    setattr(record, names[0], getattr(record, names[0]))  # a field can be assigned


def test_ack_info_is_keyword_only_with_four_defaults():
    with pytest.raises(TypeError):
        AckInfo(1, 2, 3.0, 4)
    with pytest.raises(TypeError):
        AckInfo(newly_acked=1, rtt_sample_us=2, srtt_us=3.0)  # now_us is required
    ack = AckInfo(newly_acked=1, rtt_sample_us=2, srtt_us=3.0, now_us=4)
    assert (ack.newly_acked, ack.rtt_sample_us, ack.srtt_us, ack.now_us) == (1, 2, 3.0, 4)
    assert (ack.in_flight, ack.round_start, ack.in_recovery, ack.is_app_limited) == (
        0, False, False, False,
    )


def test_sample_takes_its_fields_in_order():
    s = Sample(1, 2, 3.0, 4, 5, 6)
    assert [getattr(s, name) for name in Sample.__slots__] == [1, 2, 3.0, 4, 5, 6]
    assert Sample(t_us=1, dt_us=2, cwnd=3.0, srtt_us=4, delivered_bytes=5, queue_segs=6).queue_segs == 6


def test_trace_containers_start_empty_and_unshared():
    # A default written by hand could hand one list to every instance.
    a, b = FlowTrace("a", "cubic", 5), FlowTrace("b", "roccet", 7)
    assert (a.flow_id, a.algo, a.start_us) == ("a", "cubic", 5)
    for name in ("samples", "ce_log", "counters", "extra"):
        assert getattr(a, name) == type(getattr(a, name))()
        assert getattr(a, name) is not getattr(b, name)
    a.samples.append(Sample(1, 1, 1.0, 1, 1, 1))
    a.counters["acks"] = 1
    assert b.samples == [] and b.counters == {}

    ta, tb = TraceSet(10, {"seed": 1}), TraceSet(10, {"seed": 1})
    assert (ta.horizon_us, ta.config) == (10, {"seed": 1})
    assert (ta.events_processed, ta.debug_packets) == (0, None)
    for name in ("flows", "drops", "rate_changes", "audit"):
        assert getattr(ta, name) == type(getattr(ta, name))()
        assert getattr(ta, name) is not getattr(tb, name)


@pytest.mark.parametrize(
    "delivered, dt_us, expected",
    [(15_000, 100_000, 1.2), (1_500, 1_000, 12.0), (0, 100_000, 0.0), (15_000, 0, 0.0)],
)
def test_sample_goodput(delivered, dt_us, expected):
    # bytes * 8 / microseconds is Mbit/s; no time elapsed reads 0.0
    goodput = Sample(0, dt_us, 10.0, 0, delivered, 0).goodput_mbps
    assert type(goodput) is float and goodput == expected
