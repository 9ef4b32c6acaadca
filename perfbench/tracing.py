"""Traced mode: spans around roccet-lab's public calls, from the outside.

`Tracer.install` replaces each call named in `SPANS` with a wrapper, in the
owning class or module and in every roccet_lab module that imported the
same function by name, and wraps the public functions of the controller
math modules where other modules call them. A wrapper opens a span (name,
start, end, parent), and on exit adds the span's self time (its duration
minus its child spans) to its layer and counts the call. Spans are kept in
memory, up to `SPAN_CAP` of them, and written out once at the
end; self times and counts cover every call, whether its span was kept or
not.

Wrapping costs a few microseconds per call, so traced times are larger
than untraced ones; `bench.tracing_overhead_s` reports by how much.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import types
from array import array
from time import perf_counter

SPAN_CAP = 200_000

# (owner, attribute, layer): owner is a roccet_lab module, or
# "module.Class" for a method. Every public function of the modules in
# MODULE_LAYERS is wrapped as well.
SPANS = [
    ("cli", "main", "cli.s"),
    ("harness", "builtin_scenario", "harness.build_s"),
    ("harness", "materialize_cell", "harness.build_s"),
    ("harness", "scenario_from_dict", "harness.build_s"),
    ("harness.ScenarioSpec", "to_dict", "harness.build_s"),
    ("simulator", "run", "simulator.run_s"),
    ("simulator.EventLoop", "run_until", "simulator.loop_s"),
    ("simulator.Sender", "on_ack_frame", "simulator.sender_ack_s"),
    ("simulator.Sender", "try_send", "simulator.sender_send_s"),
    ("simulator.Bottleneck", "submit", "simulator.bottleneck_s"),
    ("simulator.Bottleneck", "_service_done", "simulator.bottleneck_s"),
    ("simulator.Receiver", "on_segment", "simulator.receiver_s"),
    ("simulator.AppSource", "available_segments", "simulator.source_s"),
    ("simulator.AppSource", "next_avail_us", "simulator.source_s"),
    ("trace.TraceSet", "write_csv", "trace.write_s"),
    ("trace.TraceSet", "write_events_json", "trace.write_s"),
    ("trace", "read_trace_csv", "trace.read_s"),
    ("trace", "read_events_json", "trace.read_s"),
    ("metrics", "flow_metrics", "metrics.s"),
    ("metrics", "bandwidth_share", "metrics.s"),
    ("metrics", "summarize", "metrics.s"),
] + [
    (f"controllers.{cls}", meth, "controllers.ack_s")
    for cls in ("CubicController", "RoccetController", "ProbeRateController", "RenoController")
    for meth in ("on_ack", "on_loss")
]
MODULE_LAYERS = {"cubic": "cubic.s", "roccet": "roccet.s", "probe_rate": "probe_rate.s"}

# `simulator.run` samples every flow from a closure it schedules on the
# event loop; EventLoop.schedule is the one public call that reaches it.
SAMPLER_NAME = "sampler"
SAMPLER_LAYER = "simulator.sample_s"

# The benchmark's own checks and speed samples inside a round.
UNTIMED_LAYER = "bench.untimed_s"

# Counts taken from the TraceSet each `simulator.run` returns.
RUN_COUNTS = ("events", "segments_delivered", "drops", "retransmits", "samples")


class GcWatch:
    """Collections and their time, through `gc.callbacks`."""

    def __init__(self) -> None:
        self.full_collections = 0
        self.seconds = 0.0
        self._started = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.seconds += perf_counter() - self._started
        if info["generation"] == 2:
            self.full_collections += 1

    def snapshot(self) -> tuple[int, float]:
        return self.full_collections, self.seconds


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open: list[int] = []  # indices of the open spans, innermost last
        self._child: list[float] = []  # child time of each open span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_total = 0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.run_counts = dict.fromkeys(RUN_COUNTS, 0)
        self.rows_written = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, layer: str, fn, after=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self
        open_spans, child = self._open, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kept = tracer.spans_total < SPAN_CAP
            tracer.spans_total += 1
            if kept:
                idx = len(tracer.span_name)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(open_spans[-1] if open_spans else -1)
                tracer.span_end.append(0.0)
            else:
                idx = -1
            open_spans.append(idx)
            child.append(0.0)
            start = perf_counter()
            if kept:
                tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                duration = end - start
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + duration - child.pop()
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if child:
                    child[-1] += duration
                if kept:
                    tracer.span_end[idx] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, lab, untimed=()) -> None:
        """Wrap the calls in SPANS and MODULE_LAYERS, and the benchmark's
        own `untimed` (object, attribute) calls, whose time is not any
        layer's and so must not count as their caller's."""
        modules = [m for n, m in sys.modules.items() if n.startswith("roccet_lab.")]
        for owner, attr in untimed:
            setattr(owner, attr, self.wrap(f"bench.{attr}", UNTIMED_LAYER, getattr(owner, attr)))

        def replace_refs(original, wrapped, skip=None):
            """Point every roccet_lab module's reference to `original` at
            `wrapped`, except in `skip`."""
            for mod in modules:
                if mod is skip:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        after = {
            "simulator.run": self._after_run,
            "trace.TraceSet.write_csv": self._after_write_csv,
        }
        for owner_path, attr, layer in SPANS:
            owner = lab
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            name = f"{owner_path}.{attr}"
            wrapped = self.wrap(name, layer, original, after.get(name))
            setattr(owner, attr, wrapped)
            if inspect.ismodule(owner):
                replace_refs(original, wrapped)
        # Calls into the controller math modules are traced where other
        # modules make them: those modules get a proxy of the module whose
        # public functions are wrapped, while calls inside the module itself
        # stay direct, so one step does not open a span per helper it uses.
        for mod_name, layer in MODULE_LAYERS.items():
            mod = getattr(lab, mod_name)
            proxy = types.ModuleType(mod.__name__)
            proxy.__dict__.update(vars(mod))
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped = self.wrap(f"{mod_name}.{attr}", layer, fn)
                    setattr(proxy, attr, wrapped)
                    replace_refs(fn, wrapped, skip=mod)
            replace_refs(mod, proxy)

        loop_cls = lab.simulator.EventLoop
        schedule = loop_cls.schedule
        wrap = self.wrap

        def traced_schedule(loop, at_us, fn, arg=None):
            if getattr(fn, "__name__", None) == SAMPLER_NAME:
                fn = wrap("simulator.sampler", SAMPLER_LAYER, fn)
            schedule(loop, at_us, fn, arg)

        loop_cls.schedule = traced_schedule

    def _after_run(self, _args, traces) -> None:
        c = self.run_counts
        c["events"] += traces.events_processed
        for audit in traces.audit.values():
            c["segments_delivered"] += audit["received"]
            c["drops"] += audit["dropped"]
            c["retransmits"] += audit["retransmits"]
        c["samples"] += sum(len(ft.samples) for ft in traces.flows.values())

    def _after_write_csv(self, args, _result) -> None:
        self.rows_written += sum(len(ft.samples) for ft in args[0].flows.values())

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer self times and counts of every traced call."""
        s = self.self_s.get
        calls = self.calls.get
        ctl_acks = sum(calls(f"controllers.{c}.on_ack", 0) for c in _CONTROLLERS)
        ctl_losses = sum(calls(f"controllers.{c}.on_loss", 0) for c in _CONTROLLERS)
        rc = self.run_counts
        return {
            "harness.build_s": (s("harness.build_s", 0.0), "s"),
            "simulator.events": (rc["events"], "count"),
            "simulator.events_per_seg": (
                rc["events"] / rc["segments_delivered"] if rc["segments_delivered"] else 0.0,
                "events/seg",
            ),
            "simulator.loop_s": (s("simulator.loop_s", 0.0), "s"),
            "simulator.run_s": (s("simulator.run_s", 0.0), "s"),
            "simulator.acks": (calls("simulator.Sender.on_ack_frame", 0), "count"),
            "simulator.sender_ack_s": (s("simulator.sender_ack_s", 0.0), "s"),
            "simulator.sender_send_s": (s("simulator.sender_send_s", 0.0), "s"),
            "simulator.bottleneck_s": (s("simulator.bottleneck_s", 0.0), "s"),
            "simulator.submits": (calls("simulator.Bottleneck.submit", 0), "count"),
            "simulator.drops": (rc["drops"], "count"),
            "simulator.receiver_s": (s("simulator.receiver_s", 0.0), "s"),
            "simulator.segments_received": (calls("simulator.Receiver.on_segment", 0), "count"),
            "simulator.retransmits": (rc["retransmits"], "count"),
            "simulator.source_s": (s("simulator.source_s", 0.0), "s"),
            "simulator.samples": (rc["samples"], "count"),
            "simulator.sample_s": (s(SAMPLER_LAYER, 0.0), "s"),
            "controllers.acks": (ctl_acks, "count"),
            "controllers.losses": (ctl_losses, "count"),
            "controllers.ack_s": (s("controllers.ack_s", 0.0), "s"),
            "cubic.s": (s("cubic.s", 0.0), "s"),
            "roccet.s": (s("roccet.s", 0.0), "s"),
            "probe_rate.s": (s("probe_rate.s", 0.0), "s"),
            "trace.write_s": (s("trace.write_s", 0.0), "s"),
            "trace.rows": (self.rows_written, "count"),
            "trace.read_s": (s("trace.read_s", 0.0), "s"),
            "metrics.s": (s("metrics.s", 0.0), "s"),
            "cli.s": (s("cli.s", 0.0), "s"),
        }

    def write_spans(self, path) -> None:
        kept = len(self.span_name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# spans kept {kept} of {self.spans_total}; times in s from the first span\n")
            f.write("index,name,start_s,end_s,parent\n")
            t0 = self.span_start[0] if kept else 0.0
            for i in range(kept):
                f.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                    f"{self.span_end[i] - t0:.9f},{self.span_parent[i]}\n"
                )


_CONTROLLERS = ("CubicController", "RoccetController", "ProbeRateController", "RenoController")
