import io
from pathlib import Path

from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import run
from roccet_lab.trace import read_events_json, read_trace_csv
from roccet_lab.units import ms_to_us, s_to_us

GOLDEN = Path(__file__).parent / "data" / "golden_trace.csv"


def _golden_run():
    spec = builtin_scenario("steady", seed=1)
    return run(spec._replace(horizon_us=s_to_us(1.0), sample_us=ms_to_us(50)))


def test_trace_csv_matches_golden_file():
    # Regression pin: column layout, formatting, and simulated behaviour of
    # a short deterministic run are all frozen. A diff here means either
    # the trace format version must be bumped or behaviour changed.
    out = io.StringIO()
    _golden_run().write_csv(out)
    assert out.getvalue() == GOLDEN.read_text(encoding="utf-8")


def test_trace_csv_round_trip(tmp_path):
    traces = _golden_run()
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8") as f:
        traces.write_csv(f)
    flows = read_trace_csv(str(path))
    assert list(flows) == ["cubic0"]
    cols = flows["cubic0"]
    samples = traces.flows["cubic0"].samples
    assert len(cols["t_ms"]) == len(samples)
    assert cols["cwnd_seg"][-1] == round(samples[-1].cwnd, 3)
    assert cols["queue_seg"][-1] == samples[-1].queue_segs


def test_events_json_round_trip(tmp_path):
    traces = _golden_run()
    path = tmp_path / "events.json"
    with open(path, "w", encoding="utf-8") as f:
        traces.write_events_json(f)
    events = read_events_json(str(path))
    assert events["version"] == "roccet-lab events v1"
    assert "cubic0" in events["flows"]
    assert events["flows"]["cubic0"]["counters"]["segments_sent"] > 0
    assert events["config"]["name"] == "steady"
