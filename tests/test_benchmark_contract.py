"""What the benchmark in `perfbench/` needs of the package, checked in
tier 1 so that a renamed or deleted name, or a moved artifact byte, fails
here rather than only in the benchmark. Reads `perfbench/` and changes
nothing in it."""

import dataclasses
import enum
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import roccet_lab
from roccet_lab.cli import main
from roccet_lab.harness import builtin_scenario, materialize_cell, sweep_from_dict
from roccet_lab.metrics import bandwidth_share
from roccet_lab.records import Record
from roccet_lab.simulator import run

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
checks = _load("checks")


@pytest.mark.parametrize("owner_path, attr, layer", tracing.SPANS)
def test_every_span_resolves(owner_path, attr, layer):
    # `Tracer.install` looks each one up the same way and raises without it.
    module, *classes = owner_path.split(".")
    owner = importlib.import_module(f"roccet_lab.{module}")
    for name in classes:
        owner = getattr(owner, name)
    assert callable(inspect.getattr_static(owner, attr))


@pytest.mark.parametrize("module", sorted(tracing.MODULE_LAYERS))
def test_every_module_layer_resolves(module):
    assert importlib.import_module(f"roccet_lab.{module}")


@pytest.mark.parametrize(
    "workload, scenario, algo",
    [("bw-halving-roccet", "bw-halving", "roccet"), ("frozen-cwnd-cubic", "frozen-cwnd", "cubic")],
)
def test_single_run_workloads_match_pinned_hashes(workload, scenario, algo, tmp_path):
    # The same command and digests as the benchmark's single-run rounds.
    expected = json.loads((PERFBENCH / "hashes.json").read_text(encoding="utf-8"))[workload]
    argv = ["run", "--builtin", scenario, "--algo", algo, "--seed", "1", "-o", str(tmp_path)]
    assert main(argv) == 0
    trace_text = (tmp_path / "trace.csv").read_text(encoding="utf-8")
    events_text = (tmp_path / "events.json").read_text(encoding="utf-8")
    assert checks.sha256(trace_text.encode("utf-8")) == expected["trace_csv"]
    assert checks.events_digest(events_text) == expected["events_json"]


def test_sweep_workload_builds_eleven_cells(tmp_path, monkeypatch):
    # The benchmark's three sweep files, written as its rounds write them,
    # parsed and built as `roccet-lab sweep` does. Its checks key each
    # cell by its seed, so the seeds must differ too.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py does `import checks`
    sweep = importlib.import_module("workloads").Sweep()
    sweep.prepare(1, tmp_path)
    cells = []
    for sweep_file in sweep.sweep_files:
        spec = sweep_from_dict(json.loads(sweep_file.read_text(encoding="utf-8")))
        assert spec.options == {"horizon_s": sweep.HORIZON_S}
        cells += [
            materialize_cell(spec, point, rep)
            for point in spec.cells()
            for rep in range(spec.repetitions)
        ]
    assert len(cells) == 11
    assert len({cell.seed for cell in cells}) == 11


def test_sweep_cell_check_reads_the_samples(monkeypatch):
    # `Sweep.check_cell` reads each flow's samples through
    # `FlowTrace.samples`, the accessor the columns keep. One short cell
    # with two ROCCET flows and a CUBIC rival that starts 1 s late.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py does `import checks`
    workloads = _load("workloads")
    cell = builtin_scenario(
        "fairness-10x40", seed=5, n_flows=2, competitor="cubic", buffer_bdp=1.0, horizon_s=3.0
    )
    traces = run(cell)
    result = workloads.Sweep.check_cell(cell.to_dict(), traces)
    assert result["problems"] == []
    assert result["segments"] == sum(a["received"] for a in traces.audit.values())
    assert result["roccet_only"] is False
    share = bandwidth_share(traces)
    assert checks.check_share(
        result["bytes"], {"jain": share.jain_index, "fractions": share.per_flow_fraction}
    ) == []
    for ft in traces.flows.values():
        ticks = range(0, cell.horizon_us + 1, cell.sample_us)
        assert len(ft.samples) == sum(t >= ft.start_us for t in ticks)


def _lab_classes():
    """Each class a roccet_lab module defines, by its qualified name."""
    modules = [
        importlib.import_module(f"roccet_lab.{info.name}")
        for info in pkgutil.iter_modules(roccet_lab.__path__)
    ]
    return {
        f"{module.__name__}.{name}": cls
        for module in modules
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    }


def test_the_lab_defines_no_dataclass():
    # `setup_s` times a fresh import. A dataclass writes and compiles its
    # methods while its module imports, and with `slots=True` builds its
    # class twice: about 380 us for a six-field class under `timeit`,
    # against 7 us for a plain slotted class. Each immutable record is a
    # `records.Record` and each mutable one a plain class with `__slots__`.
    # Without a dataclass, a fresh process importing the CLI loads neither
    # `dataclasses` nor the `inspect` and `ast` it imports; the CLI's
    # cumulative time under `python -X importtime` fell from about 44 to
    # 27 ms.
    defined = [name for name, cls in _lab_classes().items() if dataclasses.is_dataclass(cls)]
    assert defined == []
    probe = "import sys, roccet_lab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


def test_the_lab_defines_no_enum():
    # A member read through its `Enum` class goes through
    # `EnumType.__getattr__`, about 140 ns under `timeit` against 13 ns
    # for a module constant, and the per-ACK code reads only slots and
    # module constants. Phases, congestion-event kinds and probe modes are
    # plain strings; the LAUNCH / ORBITER checks return a bool.
    defined = [name for name, cls in _lab_classes().items() if issubclass(cls, enum.Enum)]
    assert defined == []


def test_the_records_build_no_namedtuple():
    # `typing.NamedTuple` builds each class through `collections.namedtuple`,
    # which `eval`s a generated `__new__`, and compiles each of its string
    # annotations into a `ForwardRef`: about half of a fresh import of the
    # CLI went to the records. A `Record` reads its annotation names
    # only, so importing the CLI never calls `namedtuple`.
    probe = (
        "import collections\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('collections.namedtuple called')\n"
        "collections.namedtuple = refuse\n"
        "import roccet_lab.cli\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    classes = _lab_classes()
    tuples = {name for name, cls in classes.items() if issubclass(cls, tuple)}
    records = {name for name, cls in classes.items() if issubclass(cls, Record)}
    assert tuples == records and len(records) == 16  # the 15 records and Record


def test_the_cli_imports_no_hashlib():
    # Only sweeps derive seeds, so `derive_seed` imports `hashlib` itself:
    # a `run` or `report` never loads OpenSSL's `_hashlib`.
    probe = "import sys, roccet_lab.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
