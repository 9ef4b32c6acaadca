import gc
import hashlib
import importlib
import json
import math
import pkgutil
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roccet_lab
from roccet_lab import harness
from roccet_lab.controllers import CONTROLLERS
from roccet_lab.errors import ScenarioError
from roccet_lab.harness import (
    BUILTINS,
    _get,
    _parse_scenario,
    FLOW_KEYS,
    FLOW_TIMES,
    LINK_KEYS,
    LOSS_KEYS,
    SCENARIO_KEYS,
    SECTIONS,
    SOURCE_KEYS,
    STEP_KEYS,
    SWEEP_CELL_CAP,
    SweepSpec,
    builtin_scenario,
    derive_seed,
    load_scenario,
    materialize_cell,
    run_sweep,
    scenario_from_dict,
)
from roccet_lab.metrics import bandwidth_share
from roccet_lab.roccet import RoccetParams
from roccet_lab.simulator import run
from roccet_lab.trace import FlowTrace, Sample, TraceSet
from roccet_lab.units import s_to_us


class TestBuiltins:
    def test_bw_halving_schedule(self):
        spec = builtin_scenario("bw-halving")
        assert spec.link.rate_schedule == (
            (0, 50_000_000),
            (s_to_us(15.0), 25_000_000),
        )
        assert spec.link.base_rtt_us == 40_000
        assert spec.buffer_bdp == 16.0
        assert spec.horizon_us == s_to_us(35.0)
        assert spec.flows[0].algo == "roccet"

    def test_steady_single_flow_one_bdp(self):
        spec = builtin_scenario("steady")
        assert len(spec.flows) == 1
        assert spec.buffer_bdp == 1.0
        assert spec.flows[0].source.kind == "greedy"

    def test_fairness_10x40_shape(self):
        spec = builtin_scenario("fairness-10x40", n_flows=3, competitor="cubic")
        assert spec.link.initial_rate_bps == 10_000_000
        assert spec.link.base_rtt_us == 40_000
        assert spec.horizon_us == s_to_us(120.0)
        algos = [f.algo for f in spec.flows]
        assert algos == ["roccet", "roccet", "roccet", "cubic"]
        assert spec.flows[-1].source.start_us == s_to_us(1.0)

    def test_frozen_cwnd_has_injected_drops(self):
        spec = builtin_scenario("frozen-cwnd")
        assert spec.loss is not None
        assert spec.loss.drop_at_us == (s_to_us(2.0), s_to_us(4.0))
        assert spec.flows[0].source.kind == "app_limited"

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            builtin_scenario("no-such-thing")

    def test_unknown_option_rejected(self):
        with pytest.raises(ScenarioError, match="unknown options"):
            builtin_scenario("steady", not_a_knob=1)

    def test_all_documented(self):
        for name in BUILTINS:
            builtin_scenario(name).validate()


def _echo_digest(spec) -> str:
    return hashlib.sha256(json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()


# The sha256 of each builtin's config echo, `to_dict()` with sorted keys, at
# seed 7: under every algorithm at its defaults, then with options set. A
# change to how the registry builds its scenarios must leave every one.
ECHO_PINS = {
    ("bw-halving", "cubic"): "09b990120651f1c99bf1661310cb23e15e8dd13959cbff3a9cf57829bc898238",
    ("bw-halving", "reno"): "33e27d7ba2fc9a2a555da67ae071c0ce0f455e5422413cf80a765b98a054a3ad",
    ("bw-halving", "roccet"): "f7d8b6c78e2b96302c12cbc1e61b9f8a54a06536027c91769be9b993d2d94ab6",
    ("bw-halving", "probe_rate"): "e28af22153984485c21ef18178ae6488114253e5c4f9cb0547b974231fbbde6c",
    ("fairness-10x40", "cubic"): "06e33338418568c5a0ee471c1dc3011b2cd14bf55f8babfd189b68740f221ab1",
    ("fairness-10x40", "reno"): "79c3442fee5ba57295aacb60c1f98bd3aa8586760987b628eb6b3b3681187900",
    ("fairness-10x40", "roccet"): "88c48a332145e36df46c22907df4bfa5e4d2c161bbebb368d1f8759a93c440a1",
    ("fairness-10x40", "probe_rate"): "3bb13ce33661516ad85fb68bb716aaf5b4c5c35da432a890d5bb1e5885d16431",
    ("fairness-50x30", "cubic"): "7d939920dac17bebf77eab7d1cf6120bcb8a97094511fdd8c9cd7c3f990ab0ac",
    ("fairness-50x30", "reno"): "0559ec1be90c5010f5309055275235ae0ec9bfa17c22f45577bc9384ab33972f",
    ("fairness-50x30", "roccet"): "d2ac0dac8fd9335b197303318d025bf8c3e6965e5680c79dc22979646da9cfdd",
    ("fairness-50x30", "probe_rate"): "510c2cf5d315b51a3386b829573b77dd482b6806cd5025c002570cde898479a9",
    ("frozen-cwnd", "cubic"): "be4daa1658df6b028a2df998a8671341d3a881693fef1b2d5eb55cd25d03c0aa",
    ("frozen-cwnd", "reno"): "8a3183e6888a5ce65c178b24e7413ca6ea96a4f8ff48ae3a675f4c1e911627fe",
    ("frozen-cwnd", "roccet"): "6305b03f1aa4d720e3616a0318231b3ee1607e35f526e0dd81fb722133c7702a",
    ("frozen-cwnd", "probe_rate"): "22db159ec73b2e66185dde2e9443062dafde211cc0e05c9d826c51157840fa51",
    ("steady", "cubic"): "cea6a8554396bea80446b76d1685cd2839cdee58d9da4d509a763e18665f8193",
    ("steady", "reno"): "fbc6b8a17480d6b1c693f7c46772361d1e30ac938d3e78c6a61ad85c9a74a37d",
    ("steady", "roccet"): "4729b254a55591cbb92eafef9ba825d67d0d62dc87a0a7120b38d7cc1724c191",
    ("steady", "probe_rate"): "96e4c8b53c6dfe03a89e8560d1f1fecc4453b98ed7db6813d33085e8bd338bd9",
}
OPTION_PINS = [
    (
        "fairness-10x40", "roccet",
        {"n_flows": 3, "competitor": "probe_rate", "buffer_bdp": 4.0, "horizon_s": 30.0},
        "da3dd16ecb5412bbd2fd8d002cbe84af1de2282aac31db60b7aba787d6e9b670",
    ),
    (
        "bw-halving", "cubic", {"sndbuf_segs": 100, "buffer_bdp": 2.0, "horizon_s": 10.0},
        "0b47ca7289a742e2e7800d75d4fa906de00abd564370dbcbac855627cf87f5c3",
    ),
]

UNKNOWN_OPTION_ERRORS = {
    "steady": "scenario steady: unknown options ['n_flows', 'not_a_knob'];"
    " allowed: ['buffer_bdp', 'horizon_s']",
    "bw-halving": "scenario bw-halving: unknown options ['n_flows', 'not_a_knob'];"
    " allowed: ['buffer_bdp', 'horizon_s', 'sndbuf_segs']",
}


class TestBuiltinEchoes:
    def test_every_algo_pinned(self):
        assert sorted(ECHO_PINS) == sorted((n, a) for n in BUILTINS for a in CONTROLLERS)

    @pytest.mark.parametrize("name, algo", sorted(ECHO_PINS), ids="-".join)
    def test_default_echo(self, name, algo):
        assert _echo_digest(builtin_scenario(name, algo=algo, seed=7)) == ECHO_PINS[name, algo]

    @pytest.mark.parametrize(
        "name, algo, options, digest", OPTION_PINS, ids=[pin[0] for pin in OPTION_PINS]
    )
    def test_option_echo(self, name, algo, options, digest):
        assert _echo_digest(builtin_scenario(name, algo=algo, seed=7, **options)) == digest

    @pytest.mark.parametrize("name", sorted(UNKNOWN_OPTION_ERRORS))
    def test_unknown_option_message(self, name):
        with pytest.raises(ScenarioError) as info:
            builtin_scenario(name, not_a_knob=1, n_flows=2)
        assert str(info.value) == UNKNOWN_OPTION_ERRORS[name]

class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        spec = builtin_scenario("bw-halving", algo="cubic", seed=42)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = load_scenario(str(path))
        assert loaded.to_dict() == spec.to_dict()

    def test_unknown_top_level_key_rejected(self):
        d = builtin_scenario("steady").to_dict()
        d["surprise"] = 1
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(d)

    def test_unknown_nested_key_rejected(self):
        d = builtin_scenario("steady").to_dict()
        d["flows"][0]["roccet"]["nope"] = 1
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(d)

    def test_flow_past_horizon_rejected(self):
        d = builtin_scenario("steady").to_dict()
        d["flows"][0]["start_s"] = d["horizon_s"] + 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_float_key_keeps_an_int_as_given(self):
        d = builtin_scenario("steady").to_dict()
        d["flows"][0]["roccet"]["launch_ack_margin"] = 12
        echo = scenario_from_dict(d).to_dict()["flows"][0]["roccet"]
        assert echo["launch_ack_margin"] == 12
        assert type(echo["launch_ack_margin"]) is int

    def test_types_checked_for_specs_built_in_code(self):
        spec = builtin_scenario("steady")
        flow = spec.flows[0]._replace(roccet=RoccetParams(orbiter_interval_rtts=2.5))
        with pytest.raises(ScenarioError, match="orbiter_interval_rtts must be an integer"):
            spec._replace(flows=(flow,)).validate()

    def test_readme_example_has_every_key(self):
        # The README's scenario-file example shows every key of the field
        # tables in its place, and parses.
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = json.loads(readme.split("## Scenario files")[1].split("```")[1][len("json"):])
        flow = example["flows"][0]
        places = [
            (example, SCENARIO_KEYS),
            (example["link"], LINK_KEYS),
            (example["link"]["schedule"][0], STEP_KEYS),
            (example["loss"], LOSS_KEYS),
            (flow, FLOW_KEYS + FLOW_TIMES),
            (flow["source"], SOURCE_KEYS),
            *((example[section], rows) for section, (_, _, rows) in SECTIONS.items()),
        ]
        for obj, rows in places:
            assert {key for _, key, *_ in rows} <= set(obj)
        scenario_from_dict(example)

    def test_readme_states_every_range(self):
        # In the README's list of each key's type, unit and range, every
        # clause that names a key with a range states that range.
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        text = readme.split("Each key's type, unit and range.")[1].split("\nA number in s,")[0]
        bullets = {
            item.split(":")[0].split()[0].strip("`"): " ".join(item.split())
            for item in text.split("\n- ")[1:]
        }
        for bullet, _, rows, _ in RANGE_PLACES:
            for _, key, _, _, limits in rows:
                if limits is not None:
                    clauses = [c for c in bullets[bullet].split(";") if f"`{key}`" in c]
                    assert clauses and all(limits in c for c in clauses), (bullet, key, limits)

    def test_bad_params_rejected(self):
        d = builtin_scenario("steady").to_dict()
        d["flows"][0]["roccet"]["orbiter_deviation"] = 1.5
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)


# Where each table's keys sit: the README bullet that lists them, the path
# to their object in a scenario file, the table, and how to reach the
# stored object from the parsed spec.
RANGE_PLACES = [
    ("top", (), SCENARIO_KEYS, lambda spec: spec),
    ("link", ("link",), LINK_KEYS, lambda spec: spec.link),
    ("link", ("link", "schedule", 0), STEP_KEYS, lambda spec: spec.link.rate_schedule[1]),
    ("loss", ("loss",), LOSS_KEYS, lambda spec: spec.loss),
    ("each", ("flows", 0), FLOW_KEYS, lambda spec: spec.flows[0]),
    ("each", ("flows", 0), FLOW_TIMES, lambda spec: spec.flows[0].source),
    ("each", ("flows", 0, "source"), SOURCE_KEYS, lambda spec: spec.flows[0].source),
    *(
        (section, ("flows", 0, section), rows, lambda spec, attr=attr: getattr(spec.flows[0], attr))
        for section, (attr, _, rows) in SECTIONS.items()
    ),
]
RANGE_CASES_ROWS = [
    (path, row, stored)
    for _, path, rows, stored in RANGE_PLACES
    for row in rows
    if row[4] is not None
]


def _edges(text):
    """Each finite end of a range text as (value, whether it is in the
    range, the direction that leaves the range), read apart from the
    harness's own parser."""
    if m := re.fullmatch(r"(>=?) (\S+)", text):
        return [(float(m[2]), m[1] == ">=", -1)]
    m = re.fullmatch(r"in ([\[(])(\S+), (\S+)([\])])", text)
    return [(float(m[2]), m[1] == "[", -1), (float(m[3]), m[4] == "]", 1)]


def _in_range(value, text):
    return all((value > edge or (closed and value == edge)) if away < 0 else
               (value < edge or (closed and value == edge))
               for edge, closed, away in _edges(text))


def _range_cases():
    """For each ranged row and each finite end of its range: the value on
    the end, and the nearest stored value outside it."""
    for path, row, stored in RANGE_CASES_ROWS:
        attr, key, scale, typ, limits = row
        while type(typ) is not type:  # `T | None` or `tuple[T, ...]`
            typ = typ.__args__[0]
        integer = typ is int
        for edge, _, away in _edges(limits):
            outside = edge + away if integer else math.nextafter(edge, away * math.inf)
            end = "low" if away < 0 else "high"
            for name, value in (("on", edge), ("outside", outside)):
                value = int(value) if integer else value
                where = ".".join(map(str, (*path, key)))
                yield pytest.param(path, row, stored, value, id=f"{where}-{end}-{name}")


# A scenario with a schedule entry, a loss section, a send buffer and a
# duration, so every table's keys are in it.
def _ranged_base():
    d = builtin_scenario("bw-halving", algo="roccet").to_dict()
    d["loss"] = {"drop_at_s": [2.0], "drop_prob": 0.0, "window_s": [1.0, 5.0], "jitter_ms": 0.0}
    d["flows"][0]["duration_s"] = 5.0
    return d


class TestRanges:
    def test_every_table_has_a_place(self):
        # So a row added to any table gets its cases below.
        tables = [rows for name, rows in vars(harness).items() if name.endswith(("_KEYS", "_TIMES"))]
        tables += [rows for _, _, rows in SECTIONS.values()]
        placed = [rows for _, _, rows, _ in RANGE_PLACES]
        assert len(tables) >= 10 and all(any(t is rows for rows in placed) for t in tables)

    @pytest.mark.parametrize("path, row, stored, value", _range_cases())
    def test_edge_and_just_outside(self, path, row, stored, value):
        # A stored value inside its row's range passes the row; one outside
        # is refused, naming the key, the range and the stored value. (A
        # value on an end may still be refused for how it relates to other
        # keys: every flow starts at or past a `horizon_s` of 0.)
        attr, key, scale, typ, limits = row
        d = _ranged_base()
        node = d
        for step in path:
            node = node[step]
        in_file = value if scale is None else value / scale
        if key == "window_s":
            node[key] = [in_file, 9.0]
        elif type(node.get(key)) is list:
            node[key] = [in_file]
        else:
            node[key] = in_file
        got = _get(stored(_parse_scenario(d)), attr)
        got = got[0] if type(got) is tuple else got
        try:
            scenario_from_dict(d)
        except ScenarioError as exc:
            error = str(exc)
        else:
            error = ""
        if _in_range(got, limits):
            assert f"{attr} must be" not in error
        else:
            assert f"{attr} must be {limits}, got {got}" in error


def test_scenario_checks_live_in_the_harness():
    # Each key's range is a column of its row in `harness.py`, and what
    # relates keys is checked in `ScenarioSpec.validate`. No other class
    # validates itself, and the controller modules know nothing of
    # scenario files.
    modules = [
        importlib.import_module(f"roccet_lab.{info.name}")
        for info in pkgutil.iter_modules(roccet_lab.__path__)
    ]
    validating = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and module.__name__ != "roccet_lab.harness" and hasattr(cls, "validate")
    ]
    assert validating == []
    for name in ("cc_types", "cubic", "roccet", "probe_rate"):
        source = (Path(__file__).parent.parent / "src" / "roccet_lab" / f"{name}.py").read_text(
            encoding="utf-8"
        )
        assert "ScenarioError" not in source, name


def _leaf_paths(node, path=()):
    """Paths to every value of a scenario dict that is not a non-empty
    object or list."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


_SCALARS = (
    st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.text(max_size=4)
    | st.none()
)
_ANY_LEAF = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(
    st.text(max_size=4), _SCALARS, max_size=3
)


# The most segments a fuzzed run's link may carry in its 0.1 s; a builtin's
# carries at most about 420.
FUZZ_SEGMENTS_PER_100MS = 2_000


class TestScenarioFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTINS)),
        algo=st.sampled_from(["cubic", "roccet", "reno", "probe_rate"]),
        data=st.data(),
    )
    def test_mutated_leaf_parses_or_raises_scenario_error(self, name, algo, data):
        # A value that parses must round-trip through the echo and must run,
        # unless its link's rates and MTU would make the run long.
        d = builtin_scenario(name, algo=algo, horizon_s=0.1).to_dict()
        paths = list(_leaf_paths(d))
        path = data.draw(st.sampled_from(paths), label="path")
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(_ANY_LEAF, label="value")
        try:
            spec = scenario_from_dict(d)
        except ScenarioError:
            return
        assert scenario_from_dict(spec.to_dict()) == spec
        link = spec.link
        peak_bps = max(rate for _, rate in link.rate_schedule)
        if peak_bps * 0.1 / (8 * link.mtu_bytes) <= FUZZ_SEGMENTS_PER_100MS:
            run(spec._replace(horizon_us=min(spec.horizon_us, 100_000)))


class TestSeeds:
    def test_derivation_is_pure(self):
        a = derive_seed(1, {"n_flows": 4, "buffer_bdp": 2}, 3)
        b = derive_seed(1, {"buffer_bdp": 2, "n_flows": 4}, 3)
        assert a == b  # key order independent

    def test_derivation_separates_cells(self):
        seeds = {
            derive_seed(1, {"n": n}, rep) for n in range(6) for rep in range(5)
        }
        assert len(seeds) == 30

    def test_same_cell_same_scenario(self):
        spec = SweepSpec(scenario="fairness-10x40", axes={"n_flows": [2]},
                         repetitions=2, seed=9)
        a = materialize_cell(spec, {"n_flows": 2}, 1)
        b = materialize_cell(spec, {"n_flows": 2}, 1)
        assert a == b


def _fake_traces(n_samples: int = 10) -> TraceSet:
    ts = TraceSet(horizon_us=n_samples * 100_000, config={})
    for fid, weight in (("a", 2), ("b", 1)):
        ft = FlowTrace(flow_id=fid, algo="roccet", start_us=0)
        for i in range(1, n_samples + 1):
            ft.samples.append(
                Sample(t_us=i * 100_000, dt_us=100_000, cwnd=10.0,
                       srtt_us=40_000, delivered_bytes=weight * 15_000, queue_segs=0)
            )
        ts.flows[fid] = ft
    return ts


class TestSweep:
    def test_cell_counting(self):
        spec = SweepSpec(
            scenario="fairness-10x40",
            axes={"n_flows": [1, 2, 4, 8, 16, 32], "buffer_bdp": [1, 2, 4, 8, 16, 32, 64]},
            repetitions=5,
        )
        results = run_sweep(spec, runner=lambda scenario: _fake_traces())
        assert len(results) == 6 * 7 * 5

    def test_finished_cells_keep_no_samples(self):
        # A finished cell keeps per-flow totals only, so what a sweep holds
        # once it returns does not grow with the traces its cells made. Its
        # traces are dropped before the next cell runs, so the sweep's peak
        # is about one cell's traces, not two.
        n_samples = 5_000
        spec = SweepSpec(
            scenario="fairness-10x40", axes={"buffer_bdp": [1, 2, 4, 8, 16]}, repetitions=2
        )
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            one_cell = _fake_traces(n_samples)
            one_cell_bytes = tracemalloc.get_traced_memory()[0] - before
            del one_cell
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            results = run_sweep(spec, runner=lambda scenario: _fake_traces(n_samples))
            peak = tracemalloc.get_traced_memory()[1] - before
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == 10
        assert retained < one_cell_bytes / 10
        assert peak < 1.5 * one_cell_bytes, (peak, one_cell_bytes)

    def test_cap_enforced(self):
        spec = SweepSpec(
            scenario="fairness-10x40",
            axes={"n_flows": list(range(1, 100))},
            repetitions=50,
        )
        with pytest.raises(ScenarioError, match="cap"):
            spec.cells()

    def test_cap_admits_exactly_the_cap(self):
        spec = SweepSpec(
            scenario="fairness-10x40",
            axes={"n_flows": list(range(1, 33)), "buffer_bdp": list(range(1, 33))},
            repetitions=4,
        )
        assert len(spec.cells()) * spec.repetitions == SWEEP_CELL_CAP == 4096

    def test_cap_refuses_one_cell_more(self):
        spec = SweepSpec(scenario="fairness-10x40", axes={"n_flows": list(range(1, 4098))})
        with pytest.raises(ScenarioError) as exc:
            spec.cells()
        assert str(exc.value) == "sweep would run 4097 cells, above the cap of 4096"

    def test_cap_is_checked_before_any_cell_is_built(self):
        # 10**12 cells: building them first would exhaust memory.
        values = list(range(1, 1001))
        spec = SweepSpec(
            scenario="fairness-10x40",
            axes=dict.fromkeys(["n_flows", "competitor", "buffer_bdp", "horizon_s"], values),
        )
        started = time.perf_counter()
        with pytest.raises(ScenarioError) as exc:
            spec.cells()
        assert time.perf_counter() - started < 1.0
        assert str(exc.value) == f"sweep would run {10**12} cells, above the cap of 4096"

    def test_fail_fast_validation(self):
        calls = []

        def runner(scenario):
            calls.append(scenario)
            return _fake_traces()

        spec = SweepSpec(
            scenario="fairness-10x40", axes={"n_flows": [2, "bogus"]}, repetitions=1
        )
        with pytest.raises(Exception):
            run_sweep(spec, runner=runner)
        assert calls == []  # nothing ran before the bad cell was caught

    def test_repetition_reproducibility(self):
        spec = SweepSpec(
            scenario="fairness-10x40",
            axes={"buffer_bdp": [1.0]},
            repetitions=1,
            seed=4,
            options={"n_flows": 2, "horizon_s": 20.0},
        )
        first = run_sweep(spec, runner=run)
        second = run_sweep(spec, runner=run)
        assert first[0].seed == second[0].seed
        assert first[0].share.per_flow_fraction == second[0].share.per_flow_fraction

    def test_intra_share_cell_is_near_equal(self):
        spec = SweepSpec(
            scenario="fairness-10x40",
            axes={"buffer_bdp": [1.0]},
            repetitions=2,
            seed=8,
            options={"n_flows": 2, "horizon_s": 40.0},
        )
        for cell in run_sweep(spec, runner=run):
            assert cell.share.jain_index > 0.95


class TestOtherBuiltinRuns:
    def test_fairness_50x30_runs(self):
        spec = builtin_scenario(
            "fairness-50x30", n_flows=2, buffer_bdp=2.0, seed=6, horizon_s=15.0
        )
        traces = run(spec)
        report = bandwidth_share(traces)
        assert report.jain_index > 0.8
        for a in traces.audit.values():
            assert a["segments_sent"] == a["received"] + a["dropped"] + a["in_network_end"]

    def test_probe_rate_competitor_runs(self):
        spec = builtin_scenario(
            "fairness-10x40", n_flows=2, competitor="probe_rate",
            buffer_bdp=2.0, seed=6, horizon_s=15.0,
        )
        traces = run(spec)
        assert set(traces.flows) == {"roccet0", "roccet1", "probe_rate_rival"}
        assert traces.audit["probe_rate_rival"]["delivered_bytes"] > 0
