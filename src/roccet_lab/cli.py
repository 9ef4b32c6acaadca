"""Command-line entry point.

Subcommands: `run` a scenario (builtin or file), `sweep` an experiment
matrix, `report` comparison tables from saved traces, `list-scenarios`.
Every run writes trace.csv, events.json, and summary.txt into the output
directory; the resolved configuration is echoed into both summary.txt and
events.json so each artifact is self-describing and re-runnable. Exit
codes: 0 success, 1 invalid input or unusable output path, 2 runtime fault.

The default output directory is taken from ROCCET_LAB_OUT when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    MetricsError,
    RoccetLabError,
    ScenarioError,
    TraceFormatError,
)
from .harness import (
    BUILTINS,
    SECTIONS,
    ScenarioSpec,
    builtin_scenario,
    load_scenario,
    run_sweep,
    scenario_from_dict,
    sweep_from_dict,
)
from .metrics import bandwidth_share, flow_metrics, summarize
from .simulator import run as run_scenario
from .trace import read_events_json, read_trace_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _fail(code: str, detail: str, exit_code: int) -> int:
    print(f"error: {code}: {detail}", file=sys.stderr)
    return exit_code


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _slot(node, key: str, path: str):
    """The list index or the existing dict key that `key` names in `node`."""
    if isinstance(node, list):
        try:
            index = int(key)
            node[index]
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"override {path!r}: bad index {key!r}") from exc
        return index
    if isinstance(node, dict) and key in node:
        return key
    raise ScenarioError(f"override {path!r}: no such key {key!r}")


def _set_path(root, keys: list[str], value, path: str) -> None:
    node = root
    for key in keys[:-1]:
        node = node[_slot(node, key, path)]
    node[_slot(node, keys[-1], path)] = value


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply dotted-path overrides; every path must name existing keys.

    A path starting with an algorithm section (cubic / roccet / probe_rate)
    fans out to that section of every flow, e.g. `roccet.alpha=0.5`.
    List indices are plain integers, e.g. `flows.0.algo=cubic`.
    """
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        value = _parse_override_value(raw)
        if keys[0] in SECTIONS and keys[0] not in config:
            for flow in config.get("flows", []):
                _set_path(flow, keys, value, path)
        else:
            _set_path(config, keys, value, path)
    return config


def _resolve_scenario(args: argparse.Namespace) -> ScenarioSpec:
    if args.scenario and args.builtin:
        raise ScenarioError("give either --scenario or --builtin, not both")
    if args.scenario:
        spec = load_scenario(args.scenario)
    elif args.builtin:
        spec = builtin_scenario(
            args.builtin, algo=args.algo, seed=args.seed if args.seed is not None else 1
        )
    else:
        raise ScenarioError("one of --scenario or --builtin is required")
    config = spec.to_dict()
    if args.seed is not None:
        config["seed"] = args.seed
    if args.set:
        config = _apply_overrides(config, args.set)
    return scenario_from_dict(config)


def _outdir(args: argparse.Namespace) -> tuple[Path, list[Path]]:
    """Made once the scenario or sweep is parsed and before it runs, so a
    bad one leaves no directory and an unusable path fails at once. Also
    returns the directories this made, deepest first, for a sweep whose
    cells fail to build to remove."""
    path = Path(args.out or os.environ.get("ROCCET_LAB_OUT") or "out")
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    return path, made


def _summary_text(traces, config: dict) -> str:
    lines = ["resolved configuration:"]
    lines.append(json.dumps(config, indent=2, sort_keys=True))
    lines.append("")
    metrics = flow_metrics(traces)
    header = f"{'flow':<16}{'algo':<12}{'goodput':>10}{'srtt p50':>10}{'srtt p75':>10}{'ce count':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for fid, fm in metrics.items():
        try:
            table = summarize(traces.flows[fid])
            p50 = f"{table['srtt_ms']['p50']:.1f}"
            p75 = f"{table['srtt_ms']['p75']:.1f}"
        except MetricsError:
            p50 = p75 = "n/a"
        ces = sum(fm.ce_counts.values())
        lines.append(
            f"{fid:<16}{fm.algo:<12}{fm.total_goodput_mbps:>10.3f}{p50:>10}{p75:>10}{ces:>10}"
        )
    if len(metrics) > 1:
        try:
            share = bandwidth_share(traces)
            lines.append("")
            lines.append(f"jain index: {share.jain_index:.4f}")
            for fid, frac in share.per_flow_fraction.items():
                lines.append(f"  share[{fid}] = {frac:.4f}")
        except MetricsError as exc:
            lines.append(f"share: not computed ({exc})")
    lines.append("")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _resolve_scenario(args)
    except ScenarioError as exc:
        return _fail("invalid-scenario", str(exc), EXIT_VALIDATION)
    out, _ = _outdir(args)
    try:
        traces = run_scenario(spec)
    except RoccetLabError as exc:
        return _fail("simulation-fault", str(exc), EXIT_RUNTIME)
    with open(out / "trace.csv", "w", encoding="utf-8") as f:
        traces.write_csv(f)
    with open(out / "events.json", "w", encoding="utf-8") as f:
        traces.write_events_json(f)
    with open(out / "summary.txt", "w", encoding="utf-8") as f:
        f.write(_summary_text(traces, traces.config))
    print(f"wrote {out / 'trace.csv'}, {out / 'events.json'}, {out / 'summary.txt'}")
    return EXIT_OK


def _parse_axis(items: list[str]) -> dict[str, list]:
    axes: dict[str, list] = {}
    for item in items or []:
        if "=" not in item:
            raise ScenarioError(f"axis {item!r} is not of the form name=v1,v2,...")
        name, raw = item.split("=", 1)
        axes[name] = [_parse_override_value(v) for v in raw.split(",") if v]
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.sweep:
            with open(args.sweep, "r", encoding="utf-8") as f:
                data = json.load(f)
        elif args.builtin:
            data = {
                "scenario": args.builtin,
                "algo": args.algo,
                "axes": _parse_axis(args.axis),
                "repetitions": args.reps,
                "seed": args.seed,
            }
        else:
            raise ScenarioError("one of --sweep or --builtin is required")
        spec = sweep_from_dict(data)
    except (ScenarioError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _fail("invalid-sweep", str(exc), EXIT_VALIDATION)
    out, made = _outdir(args)
    try:
        cells = run_sweep(spec)
    except RoccetLabError as exc:
        for path in made:  # empty: nothing is written before every cell has run
            path.rmdir()
        # A cell that fails to build (all are built before the first runs),
        # or whose run cannot be measured, is a rejected input.
        if isinstance(exc, (ScenarioError, MetricsError)):
            return _fail("invalid-sweep", str(exc), EXIT_VALIDATION)
        return _fail("simulation-fault", str(exc), EXIT_RUNTIME)
    axis_names = sorted(spec.axes)
    with open(out / "results.csv", "w", encoding="utf-8") as f:
        cols = axis_names + ["repetition", "seed", "jain", "flow_id", "algo", "goodput_mbps", "fraction"]
        f.write(",".join(cols) + "\n")
        for cell in cells:
            for fid, fm in cell.flows.items():
                row = [str(cell.axis[a]) for a in axis_names]
                row += [
                    str(cell.repetition),
                    str(cell.seed),
                    f"{cell.share.jain_index:.6f}",
                    fid,
                    fm.algo,
                    f"{fm.total_goodput_mbps:.6f}",
                    f"{cell.share.per_flow_fraction[fid]:.6f}",
                ]
                f.write(",".join(row) + "\n")
    with open(out / "results.json", "w", encoding="utf-8") as f:
        json.dump(
            {
                "sweep": spec._asdict(),
                "cells": [
                    {
                        "axis": cell.axis,
                        "repetition": cell.repetition,
                        "seed": cell.seed,
                        "jain": cell.share.jain_index,
                        "fractions": cell.share.per_flow_fraction,
                        "goodput_mbps": {
                            fid: fm.total_goodput_mbps for fid, fm in cell.flows.items()
                        },
                    }
                    for cell in cells
                ],
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    print(f"wrote {out / 'results.csv'}, {out / 'results.json'} ({len(cells)} cells)")
    return EXIT_OK


def _report_one(path: str) -> tuple[str, dict, dict]:
    p = Path(path)
    if p.is_dir():
        trace_path, events_path = p / "trace.csv", p / "events.json"
    else:
        trace_path, events_path = p, p.parent / "events.json"
    flows = read_trace_csv(str(trace_path))
    ce_counts: dict[str, dict[str, int]] = {}
    if events_path.exists():
        events = read_events_json(str(events_path))
        for fid, fd in events["flows"].items():
            counts: dict[str, int] = {}
            for _, kind in fd.get("ce_log", []):
                counts[kind] = counts.get(kind, 0) + 1
            ce_counts[fid] = counts
    return str(trace_path), flows, ce_counts


def _cmd_report(args: argparse.Namespace) -> int:
    rows = []
    try:
        for path in args.paths:
            trace_path, flows, ce_counts = _report_one(path)
            for fid, cols in flows.items():
                try:
                    table = summarize(cols)
                except MetricsError:  # no sRTT past the warm-up: n/a, as in summary.txt
                    table = None
                rows.append((trace_path, fid, table, ce_counts.get(fid, {})))
    except (TraceFormatError, OSError) as exc:
        return _fail("bad-trace", str(exc), EXIT_VALIDATION)

    header = (
        f"{'trace':<31} {'flow':<16}"
        f"{'srtt p25':>9}{'p50':>8}{'p75':>8}{'max':>9}"
        f"{'gput p25':>10}{'p50':>8}{'p75':>8}{'max':>9}"
        f"{'roccet_ce':>10}{'loss_ce':>8}{'launch':>7}"
    )
    lines = [header, "-" * len(header)]
    for trace_path, fid, table, counts in rows:
        if table is None:
            stats = "".join(f"{'n/a':>{width}}" for width in (9, 8, 8, 9, 10, 8, 8, 9))
        else:
            s, g = table["srtt_ms"], table["goodput_mbps"]
            stats = (
                f"{s['p25']:>9.1f}{s['p50']:>8.1f}{s['p75']:>8.1f}{s['max']:>9.1f}"
                f"{g['p25']:>10.3f}{g['p50']:>8.3f}{g['p75']:>8.3f}{g['max']:>9.3f}"
            )
        lines.append(
            f"{Path(trace_path).parent.name + '/' + Path(trace_path).name:<31} {fid:<16}{stats}"
            f"{counts.get('roccet_ce', 0):>10}{counts.get('loss_ce', 0):>8}"
            f"{counts.get('launch_exit', 0):>7}"
        )
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(BUILTINS):
        print(f"{name:<16} {BUILTINS[name].doc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roccet-lab",
        description="congestion-control simulation lab (CUBIC / ROCCET / comparators)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    p_run.add_argument("--scenario", help="scenario JSON file")
    p_run.add_argument("--builtin", help="builtin scenario name")
    p_run.add_argument("--algo", help="algorithm for builtin scenarios")
    p_run.add_argument("--seed", type=int, help="seed override")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="dotted-path config override, e.g. roccet.alpha=0.5 or flows.0.algo=cubic",
    )
    p_run.add_argument("-o", "--out", help="output directory (default $ROCCET_LAB_OUT or ./out)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment matrix")
    p_sweep.add_argument("--sweep", help="sweep JSON file")
    p_sweep.add_argument("--builtin", help="builtin scenario name")
    p_sweep.add_argument("--algo", help="algorithm for builtin scenarios")
    p_sweep.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2,...", help="sweep axis values"
    )
    p_sweep.add_argument("--reps", type=int, default=1, help="repetitions per cell")
    p_sweep.add_argument("--seed", type=int, default=1, help="base seed")
    p_sweep.add_argument("-o", "--out", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="summarize saved traces side by side")
    p_report.add_argument("paths", nargs="+", help="trace.csv files or run directories")
    p_report.add_argument("-o", "--out", help="also write the table to this file")
    p_report.set_defaults(func=_cmd_report)

    p_list = sub.add_parser("list-scenarios", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # inputs are read under their own codes: this is the output
        return _fail("bad-output", str(exc), EXIT_VALIDATION)
    except RoccetLabError as exc:
        return _fail("unexpected-failure", str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
