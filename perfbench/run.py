"""roccet-lab benchmark: set-up time, run time, packet rate and peak memory.

Run from the root of a roccet-lab checkout; stdlib only, nothing to build:

    python3 perfbench/run.py --workload bw-halving-roccet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30              # every workload, one process each
    python3 perfbench/run.py --record-hashes           # re-record perfbench/hashes.json

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
one traced round instead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
HASHES = HERE / "hashes.json"

sys.path.insert(0, str(HERE))

from reference import REF_S, Speed, scaled  # noqa: E402
from tracing import GcWatch, Tracer  # noqa: E402
from workloads import WORKLOADS, SingleRun, import_lab  # noqa: E402

SETUP_REPS = 15  # set-ups per process; setup_s is their median
MIN_ROUNDS = 2  # two rounds at least, so two repetitions can be compared


def log(*parts) -> None:
    print(*parts, flush=True)


def measure_setup(workload, speed: Speed) -> tuple[object, float]:
    """Import roccet_lab and build the workload's scenarios SETUP_REPS
    times, after one untimed import that fills the bytecode cache. Each
    set-up is scaled by the reference timings just before and after it;
    the result is their median."""
    import_lab()
    times = []
    speed.sample()
    for _ in range(SETUP_REPS):
        started = perf_counter()
        lab = import_lab()
        workload.setup(lab)
        host_s = perf_counter() - started
        speed.sample()
        times.append(scaled(host_s, (speed.samples[-2] + speed.samples[-1]) / 2))
    gc.collect()
    return lab, statistics.median(times)


class Rounds:
    """Closed loop of rounds: each starts when the previous one ended."""

    def __init__(self, workload, lab, work: Path, hashes: dict | None, speed: Speed) -> None:
        self.workload = workload
        self.lab = lab
        self.work = work
        self.expected = hashes
        self.speed = speed
        self.results = []
        self.first_digests: dict | None = None
        self.gc = GcWatch()
        self.gc_first_round: tuple[int, float] | None = None

    def one(self):
        """One round. Each piece of its time is scaled by the mean of the
        reference timings just before and just after that piece."""
        gc.collect()
        first_ref = len(self.speed.samples) - 1
        before = self.gc.snapshot()
        r = self.workload.round(self.lab, self.work, self.speed)
        after = self.gc.snapshot()
        self.speed.sample()
        refs = self.speed.samples[first_ref:]
        if len(refs) != len(r.pieces) + 1:
            raise RuntimeError(f"{len(r.pieces)} timed pieces between {len(refs)} speed samples")
        r.run_s = sum(scaled(p, (refs[i] + refs[i + 1]) / 2) for i, p in enumerate(r.pieces))
        if self.gc_first_round is None:
            self.gc_first_round = (after[0] - before[0], after[1] - before[1])
        if self.first_digests is None:
            self.first_digests = r.digests
        elif r.digests != self.first_digests:
            r.problems.append(f"outputs differ between repetitions: {r.digests} vs {self.first_digests}")
            r.failed = r.ops
        if self.expected is not None and r.digests and r.digests != self.expected:
            r.problems.append(f"digests {r.digests} differ from the recorded {self.expected}")
            r.failed = r.ops
        for p in r.problems:
            log(f"  problem: {p}")
        self.results.append(r)
        return r

    def until(self, deadline: float, min_rounds: int) -> list:
        done = []
        while len(done) < min_rounds or perf_counter() < deadline:
            done.append(self.one())
        return done


def bench(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{name}-"))
    try:
        workload.prepare(seed, work)
        speed = Speed()
        lab, setup_s = measure_setup(workload, speed)
        workload.describe()
        recorded = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}
        rounds = Rounds(workload, lab, work, recorded.get(name), speed)
        log(f"{name}: seed {seed}, setup {setup_s:.4f} s (median of {SETUP_REPS})")

        # A traced run spends half its time untraced, for the overhead's
        # baseline, and then one round traced.
        start = perf_counter()
        untraced = rounds.until(start + (seconds / 2 if traced else seconds), MIN_ROUNDS)
        run_times = [r.run_s for r in untraced]
        run_s = statistics.median(run_times)
        segments = untraced[0].segments
        log(f"  {len(untraced)} rounds, run_s {', '.join(f'{t:.3f}' for t in run_times)}")
        log(f"  host s    {', '.join(f'{r.host_s:.3f}' for r in untraced)}"
            f" (median {statistics.median(r.host_s for r in untraced):.4f})")
        log(f"  reference s, median {statistics.median(speed.samples):.4f} of {len(speed.samples)}"
            f" (REF_S {REF_S}), min {min(speed.samples):.4f}, max {max(speed.samples):.4f}")
        for key, value in (rounds.first_digests or {}).items():
            log(f"  sha256 {key} {value}")

        if traced:
            tracer = Tracer()
            tracer.install(lab, untimed=[(speed, "sample")] + [(workload, a) for a in workload.UNTIMED])
            traced_round = rounds.one()
            tracer.write_spans(WORK / f"spans-{name}-seed{seed}.csv")
            metrics = tracer.layer_metrics()
            full, gc_s = rounds.gc_first_round
            metrics["gc.full_collections"] = (full, "count")
            metrics["gc.s"] = (gc_s, "s")
            metrics["bench.tracing_overhead_s"] = (traced_round.run_s - run_s, "s")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (run_s, "s"),
                "segs_per_s": (segments / run_s, "1/s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
        attempted = sum(r.ops for r in rounds.results)
        failed = sum(r.failed for r in rounds.results)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_hashes() -> int:
    """Run each single-run workload once at seed 1 and record its digests."""
    recorded = {}
    WORK.mkdir(exist_ok=True)
    for name, make in WORKLOADS.items():
        workload = make()
        if not isinstance(workload, SingleRun):
            continue
        work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{name}-"))
        try:
            workload.prepare(1, work)
            lab = import_lab()
            workload.setup(lab)
            workload.describe()
            r = workload.round(lab, work, Speed())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if r.failed:
            log(f"{name}: not recorded, the round failed: {r.problems}")
            return 1
        recorded[name] = r.digests
        log(f"{name}: {r.digests}")
    HASHES.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log(f"wrote {HASHES}")
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak memory is its own."""
    code = 0
    summary = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in summary.items():
        log(f"{name:<20} attempted {result['attempted']:>4} failed {result['failed']:>3}  " + "  ".join(
            f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="roccet-lab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true",
                        help="re-record the digests of the single-run workloads' outputs")
    args = parser.parse_args(argv)

    if not (SRC / "roccet_lab" / "__init__.py").is_file():
        print(f"error: no roccet_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imports are timed as a user's are, from cached bytecode, even where
    # the environment turns bytecode writing off.
    sys.dont_write_bytecode = False
    if args.record_hashes:
        return record_hashes()
    if args.workload is None:
        return run_all(args)
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
