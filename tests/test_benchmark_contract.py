"""What the benchmark in `perfbench/` needs of the package, checked in
tier 1 so that a renamed or deleted name, or a moved artifact byte, fails
here rather than only in the benchmark. Reads `perfbench/` and changes
nothing in it."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from roccet_lab.cli import main
from roccet_lab.harness import materialize_cell, sweep_from_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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


def test_only_the_mutable_records_are_dataclasses():
    # `setup_s` times a fresh import. A dataclass writes and compiles its
    # methods while its module imports, about 1 ms for a frozen one, so
    # each immutable record is a NamedTuple and the dataclasses are the
    # four records a run fills in place.
    importlib.import_module("roccet_lab.cli")
    defined = {
        name
        for module in list(sys.modules.values())
        if module is not None and module.__name__.startswith("roccet_lab")
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
    }
    assert defined == {"AckInfo", "Sample", "FlowTrace", "TraceSet"}
