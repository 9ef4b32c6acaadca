"""Metamorphic relations: a change of input that must leave a run's
artifacts as they are, checked by running both inputs and comparing."""

import io
from dataclasses import replace

import pytest

from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import run


def _artifacts(spec):
    traces = run(spec)
    csv, events = io.StringIO(), io.StringIO()
    traces.write_csv(csv)
    traces.write_events_json(events)
    return csv.getvalue(), events.getvalue(), traces.debug_packets


# bw-halving runs past its 15 s rate cut.
@pytest.mark.parametrize("name, horizon_s", [("steady", 4.0), ("bw-halving", 16.0)])
def test_debug_changes_no_artifact_byte(name, horizon_s):
    # The packet log only records what the bottleneck does.
    spec = builtin_scenario(name, horizon_s=horizon_s)
    csv, events, no_log = _artifacts(spec)
    debug_csv, debug_events, log = _artifacts(replace(spec, debug=True))
    assert no_log is None and log
    assert debug_csv == csv
    assert debug_events == events
