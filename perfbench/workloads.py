"""The three workloads, each as set-up, one timed round and its checks.

A round is what one closed-loop caller does before its next request: for
a single-run workload one `roccet-lab run` plus `roccet-lab report`, for
the sweep one `roccet-lab sweep` per sweep file. Everything goes through
`cli.main` in this process, writing into a temporary directory inside the
checkout.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks

LAB_MODULES = (
    "cli", "harness", "simulator", "trace", "metrics", "controllers",
    "cubic", "roccet", "probe_rate",
)


def import_lab() -> SimpleNamespace:
    """Import roccet_lab afresh: drop every loaded roccet_lab module first,
    so the import executes each module body again, as a new process would."""
    for name in [n for n in sys.modules if n == "roccet_lab" or n.startswith("roccet_lab.")]:
        del sys.modules[name]
    importlib.import_module("roccet_lab.cli")
    return SimpleNamespace(**{m: sys.modules[f"roccet_lab.{m}"] for m in LAB_MODULES})


@dataclass
class RoundResult:
    host_s: float  # host time of the round's timed body
    ops: int  # operations the round attempted
    failed: int  # of those, operations that failed or failed a check
    segments: int  # segments delivered to receivers, all flows
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    # host_s split where the round sampled the host's speed: piece i runs
    # between reference samples i and i + 1, counting the one just before
    # the round as sample 0 and the one just after it as the last
    pieces: list[float] = field(default_factory=list)
    run_s: float = 0.0  # host_s scaled piece by piece by the samples around it

    def __post_init__(self) -> None:
        if not self.pieces:
            self.pieces = [self.host_s]


def _cli(lab, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lab.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


class SingleRun:
    """`roccet-lab run --builtin <scenario> --algo <algo>`, then
    `roccet-lab report` on its output directory."""

    UNTIMED = ()  # its checks run after the round's timed body

    def __init__(self, scenario: str, algo: str, scenario_checks) -> None:
        self.scenario = scenario
        self.algo = algo
        self.scenario_checks = scenario_checks
        self.seed = 1
        self.spec = None
        self.cfg: dict = {}

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed

    def setup(self, lab) -> None:
        """What `run` does before its first event: build and validate."""
        spec = lab.harness.builtin_scenario(self.scenario, algo=self.algo, seed=self.seed)
        config = spec.to_dict()
        config["seed"] = self.seed
        self.spec = lab.harness.scenario_from_dict(config)

    def describe(self) -> None:
        """Keep the scenario-file form of what `setup` built, for the checks."""
        self.cfg = self.spec.to_dict()

    def round(self, lab, work: Path, speed) -> RoundResult:
        out = Path(tempfile.mkdtemp(dir=work))
        argv = ["run", "--builtin", self.scenario, "--algo", self.algo,
                "--seed", str(self.seed), "-o", str(out)]
        try:
            started = perf_counter()
            run_code, run_text = _cli(lab, argv)
            report_code, report_text = _cli(lab, ["report", str(out)])
            elapsed = perf_counter() - started
            problems = []
            if run_code != 0 or report_code != 0:
                problems.append(f"exit codes {run_code}, {report_code}: {run_text}{report_text}")
                return RoundResult(elapsed, 1, 1, 0, problems)
            trace_text = (out / "trace.csv").read_text(encoding="utf-8")
            events_text = (out / "events.json").read_text(encoding="utf-8")
        finally:
            shutil.rmtree(out)
        events = json.loads(events_text)
        samples = checks.parse_trace_csv(trace_text, self.cfg)
        problems = checks.check_samples(samples, self.cfg)
        problems += self.scenario_checks(samples, events, self.cfg)
        segments = sum(a["received"] for a in events["audit"].values())
        digests = {
            "trace_csv": checks.sha256(trace_text.encode("utf-8")),
            "events_json": checks.events_digest(events_text),
        }
        return RoundResult(elapsed, 1, 1 if problems else 0, segments, problems, digests)


class Sweep:
    """`roccet-lab sweep --sweep <file>` over fairness-10x40, once per block.

    The matrix is n_flows 2 and 8 x buffer_bdp 1 and 8 x competitor none,
    cubic or probe_rate, less the 8-flow, 1-BDP, ROCCET-only cell. In that
    cell a late-starting flow can find the queue full for its whole
    initial window and every timeout retransmission, so on some seeds it
    delivers nothing for the whole horizon and the cell fails its Jain
    floor (see CHANGES.md). `roccet-lab sweep` runs cartesian products
    only, so the 11 cells are three blocks, one sweep file each; a cell's
    seed depends on its axis point alone, so it is the seed that cell has
    in the full 12-cell sweep.

    Each cell is one operation. The sweeps run through `cli.main`; their
    `run_sweep` is handed a runner that checks every cell's traces as the
    cell finishes and then samples the host's speed, as the benchmark also
    does between two sweeps. The time that takes is left out of the
    round's time, which it cuts into one piece per cell plus one after the
    last cell of each sweep.
    """

    UNTIMED = ("check_cell",)  # called inside the sweep, outside its time
    BLOCKS = (
        {"n_flows": [2, 8], "buffer_bdp": [1, 8], "competitor": ["cubic", "probe_rate"]},
        {"n_flows": [2, 8], "buffer_bdp": [8], "competitor": [None]},
        {"n_flows": [2], "buffer_bdp": [1], "competitor": [None]},
    )
    HORIZON_S = 30.0
    JAIN_FLOOR = 0.9

    def __init__(self) -> None:
        self.sweep_files: list[Path] = []
        self.cells: list = []
        self.cfgs: dict[int, dict] = {}

    def prepare(self, seed: int, work: Path) -> None:
        self.sweep_files = []
        for i, axes in enumerate(self.BLOCKS):
            sweep_file = work / f"sweep-seed{seed}-{i}.json"
            sweep_file.write_text(json.dumps({
                "scenario": "fairness-10x40",
                "algo": "roccet",
                "axes": axes,
                "repetitions": 1,
                "seed": seed,
                "options": {"horizon_s": self.HORIZON_S},
            }), encoding="utf-8")
            self.sweep_files.append(sweep_file)

    def setup(self, lab) -> None:
        """What `sweep` does before its first event, for every sweep file:
        read it, then build and validate every cell."""
        self.cells = []
        for sweep_file in self.sweep_files:
            data = json.loads(sweep_file.read_text(encoding="utf-8"))
            spec = lab.harness.SweepSpec(
                scenario=data["scenario"], algo=data["algo"], axes=data["axes"],
                repetitions=data["repetitions"], seed=data["seed"], options=data["options"],
            )
            self.cells += [
                lab.harness.materialize_cell(spec, point, rep)
                for point in spec.cells()
                for rep in range(spec.repetitions)
            ]

    def describe(self) -> None:
        """Keep each cell's scenario-file form, by cell seed, for the checks."""
        self.cfgs = {cell.seed: cell.to_dict() for cell in self.cells}

    def round(self, lab, work: Path, speed) -> RoundResult:
        seen: dict[int, dict] = {}
        pieces: list[float] = []
        piece_start = 0.0

        def runner(scenario):
            nonlocal piece_start
            traces = lab.simulator.run(scenario)
            pieces.append(perf_counter() - piece_start)
            seen[scenario.seed] = self.check_cell(self.cfgs[scenario.seed], traces)
            speed.sample()
            piece_start = perf_counter()
            return traces

        errors, results_json, results_csv = [], [], []
        run_sweep = lab.cli.run_sweep
        lab.cli.run_sweep = lambda spec: lab.harness.run_sweep(spec, runner=runner)
        try:
            for i, sweep_file in enumerate(self.sweep_files):
                if i:
                    speed.sample()
                out = Path(tempfile.mkdtemp(dir=work))
                try:
                    piece_start = perf_counter()
                    code, text = _cli(lab, ["sweep", "--sweep", str(sweep_file), "-o", str(out)])
                    pieces.append(perf_counter() - piece_start)
                    if code != 0:
                        errors.append(f"{sweep_file.name}: exit code {code}: {text}")
                        continue
                    results_json.append((out / "results.json").read_bytes())
                    results_csv.append((out / "results.csv").read_bytes())
                finally:
                    shutil.rmtree(out)
        finally:
            lab.cli.run_sweep = run_sweep
        elapsed = sum(pieces)
        n_cells = len(self.cells)
        if errors:
            return RoundResult(elapsed, n_cells, n_cells, 0, errors, pieces=pieces)

        problems = []
        failed = 0
        reported = {
            cell["seed"]: cell for data in results_json for cell in json.loads(data)["cells"]
        }
        if sorted(reported) != sorted(seen) or len(reported) != n_cells:
            problems.append(f"results.json has {len(reported)} cells, {len(seen)} ran, {n_cells} planned")
            failed = n_cells
        else:
            for seed, cell in seen.items():
                cell_problems = cell["problems"] + checks.check_share(cell["bytes"], reported[seed])
                jain = checks.jain(list(cell["bytes"].values()))
                if cell["roccet_only"] and jain <= self.JAIN_FLOOR:
                    cell_problems.append(f"Jain {jain} at or below {self.JAIN_FLOOR}")
                if cell_problems:
                    failed += 1
                    problems += [f"cell {reported[seed]['axis']}: {p}" for p in cell_problems]
        segments = sum(cell["segments"] for cell in seen.values())
        digests = {
            "results_json": checks.sha256(b"".join(results_json)),
            "results_csv": checks.sha256(b"".join(results_csv)),
        }
        return RoundResult(elapsed, n_cells, failed, segments, problems, digests, pieces)

    @staticmethod
    def check_cell(cfg: dict, traces) -> dict:
        samples = {
            fid: [(s.t_us, s.delivered_bytes, s.srtt_us, s.queue_segs, s.cwnd) for s in ft.samples]
            for fid, ft in traces.flows.items()
        }
        return {
            "problems": checks.check_samples(samples, cfg),
            "bytes": checks.window_bytes(samples, cfg),
            "roccet_only": all(f["algo"] == "roccet" for f in cfg["flows"]),
            "segments": sum(a["received"] for a in traces.audit.values()),
        }


WORKLOADS = {
    "bw-halving-roccet": lambda: SingleRun(
        "bw-halving", "roccet",
        lambda samples, events, cfg: checks.check_roccet_ce_after_halving(events, cfg),
    ),
    "frozen-cwnd-cubic": lambda: SingleRun("frozen-cwnd", "cubic", checks.check_window_frozen),
    "fairness-sweep": Sweep,
}
