"""`SeqRuns`, the run set behind the receiver's out-of-order data and the
sender's scoreboard.

A Hypothesis property drives it and a plain `set` through the same random
operations and requires the same answers, and after every step checks
that the runs are sorted, disjoint and non-adjacent and hold exactly the
set's members. A memory guard runs a cell whose receiver holds a long
backlog above a hole.
"""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from roccet_lab import simulator
from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import SeqRuns

# Adds outnumber the rest, and numbers come from a short range, so runs
# grow, touch and merge often.
OPS = st.tuples(
    st.sampled_from(["add"] * 6 + ["contains", "discard_below", "take_from", "first_absent"]),
    st.integers(min_value=0, max_value=24),
)


def _check_runs(runs, model):
    lo, hi = runs.lo, runs.hi
    assert len(lo) == len(hi)
    assert all(a < b for a, b in zip(lo, hi))
    assert all(end < start for end, start in zip(hi, lo[1:]))  # a gap between runs
    assert {seq for a, b in zip(lo, hi) for seq in range(a, b)} == model


@settings(max_examples=400, deadline=None)
@given(st.lists(OPS, max_size=120))
def test_runs_behave_as_a_set(ops):
    runs, model = SeqRuns(), set()
    for op, seq in ops:
        if op == "add":
            runs.add(seq)
            model.add(seq)
        elif op == "contains":
            assert (seq in runs) == (seq in model)
        elif op == "discard_below":
            runs.discard_below(seq)
            model = {m for m in model if m >= seq}
        elif op == "take_from":
            # The lowest run, when it starts at seq, goes whole.
            end = seq
            if model and min(model) == seq:
                while end in model:
                    model.remove(end)
                    end += 1
            assert runs.take_from(seq) == end
        else:
            absent = seq
            while absent in model:
                absent += 1
            assert runs.first_absent(seq) == absent
        _check_runs(runs, model)
        assert bool(runs.lo) == bool(model)


def test_backlog_above_a_hole_is_not_held_per_segment():
    """A 30 s `fairness-10x40` cell: two ROCCET flows and a `probe_rate`
    rival at 8 BDP, at the seed the benchmark's sweep derives for it from
    base seed 1. A timeout inside the rival's loss episode only resends
    its front segment, which keeps meeting a full queue, so its receiver
    ends the run holding over 20,000 segments above that hole, in 52
    runs, and its sender's scoreboard as many. Held one entry per
    segment, the two grew 5.0 MiB of tables that the run's peak memory
    counts; held as runs they are a few list slots.

    The peak is measured above what the run still holds when it returns
    (its samples and logs). This cell's backlog comes from the timeout
    defect (ROADMAP item 2, "A timeout restarts the loss episode"): its
    fix will empty it, and this guard will then need another scenario
    that holds a long backlog above a hole.
    """
    spec = builtin_scenario(
        "fairness-10x40", seed=8644057941910514957, n_flows=2, buffer_bdp=8.0,
        competitor="probe_rate", horizon_s=30.0,
    )
    tracemalloc.start()
    try:
        traces = simulator.run(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rival = traces.audit["probe_rate_rival"]
    backlog = rival["received"] - rival["delivered_bytes"] / spec.link.mtu_bytes
    assert backlog >= 10_000, backlog
    assert peak - held < 2**20, (peak, held)
