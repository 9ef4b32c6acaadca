import json

import pytest

from roccet_lab.cli import main
from roccet_lab.harness import builtin_scenario
from roccet_lab.simulator import Bottleneck


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_builtin_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "steady"
        code = run_cli(
            "run", "--builtin", "steady", "--set", "horizon_s=2.0", "-o", str(out)
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "events.json").exists()
        assert (out / "summary.txt").exists()
        first = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first == "# roccet-lab trace v1"

    def test_unknown_builtin_exits_one(self, capsys):
        code = run_cli("run", "--builtin", "banana", "-o", "/tmp/unused")
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_override_echoed_in_summary(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--builtin", "steady", "--algo", "roccet",
            "--set", "horizon_s=2.0", "--set", "roccet.alpha=0.5",
            "-o", str(out),
        )
        assert code == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert '"alpha": 0.5' in summary
        events = json.loads((out / "events.json").read_text(encoding="utf-8"))
        assert events["config"]["flows"][0]["roccet"]["alpha"] == 0.5

    def test_bad_override_path_rejected(self, capsys):
        code = run_cli(
            "run", "--builtin", "steady", "--set", "roccet.banana=1", "-o", "/tmp/unused"
        )
        assert code == 1
        assert "no such key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, detail",
        [
            ("flows.5.algo=cubic", "bad index '5'"),
            ("flows.x.algo=cubic", "bad index 'x'"),
            ("flows.1=null", "bad index '1'"),
            ("link.rate_mbps.x=1", "no such key 'x'"),
        ],
    )
    def test_bad_override_step_rejected(self, override, detail, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--builtin", "steady", "--set", override, "-o", str(out))
        assert code == 1
        path = override.split("=")[0]
        assert capsys.readouterr().err == (
            f"error: invalid-scenario: override {path!r}: {detail}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "override", ['link.rate_mbps="abc"', "flows=5", "buffer_bdp=null"]
    )
    def test_wrong_value_type_exits_one(self, override, tmp_path, capsys):
        code = run_cli("run", "--builtin", "steady", "--set", override, "-o", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid-scenario: ")

    @pytest.mark.parametrize(
        "builtin, override, detail",
        [
            ("frozen-cwnd", "flows.0.source.rate_mbps=-1", "source.rate_bps must be > 0, got -1000000"),
            ("frozen-cwnd", "flows.0.source.rate_mbps=null", "app_limited source needs a rate"),
            ("steady", "flows.0.sndbuf_segs=-3", "sndbuf_segs must be >= 1"),
            # A flow's start is the flow's, not its source's.
            ("steady", "flows.0.start_s=-1", "flow cubic0: start_us must be >= 0, got -1000000"),
        ],
    )
    def test_out_of_range_flow_value_exits_one(self, builtin, override, detail, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--builtin", builtin, "--set", override, "-o", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid-scenario: ")
        assert detail in err[0]
        assert not out.exists()

    def test_identical_invocations_identical_artifacts(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "run", "--builtin", "steady", "--seed", "5",
                "--set", "horizon_s=2.0", "-o", str(out),
            ) == 0
            outs.append(out)
        for fname in ("trace.csv", "events.json", "summary.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("ROCCET_LAB_OUT", str(target))
        assert run_cli("run", "--builtin", "steady", "--set", "horizon_s=1.0") == 0
        assert (target / "trace.csv").exists()

    def test_scenario_file_run(self, tmp_path):
        from roccet_lab.harness import builtin_scenario

        spec = builtin_scenario("steady", seed=3)
        d = spec.to_dict()
        d["horizon_s"] = 2.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(path), "-o", str(out)) == 0
        assert (out / "trace.csv").exists()

    def test_seed_zero_builds_the_builtin_at_seed_zero(self, tmp_path):
        # Seed 0 is a seed like any other: the flow starts are drawn from
        # it, as the harness draws them, not from the default seed 1.
        out = tmp_path / "run"
        argv = ["run", "--builtin", "fairness-10x40", "--seed", "0", "--set", "horizon_s=1.0"]
        assert run_cli(*argv, "-o", str(out)) == 0
        config = json.loads((out / "events.json").read_text(encoding="utf-8"))["config"]
        expected = builtin_scenario("fairness-10x40", seed=0, horizon_s=1.0).to_dict()
        assert config == json.loads(json.dumps(expected))


class TestReport:
    def test_two_trace_comparison(self, bw_halving_artifacts, capsys, tmp_path):
        table_path = tmp_path / "table.txt"
        code = run_cli(
            "report",
            str(bw_halving_artifacts["roccet"]),
            str(bw_halving_artifacts["cubic"]),
            "-o", str(table_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "roccet0" in out and "cubic0" in out
        assert table_path.exists()

    def test_roccet_ce_counts_vs_cubic(self, bw_halving_artifacts, capsys):
        code = run_cli(
            "report",
            str(bw_halving_artifacts["roccet"]),
            str(bw_halving_artifacts["cubic"]),
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        roc = next(l for l in lines if "roccet0" in l)
        cub = next(l for l in lines if "cubic0" in l)
        assert int(roc.split()[-3]) >= 1  # roccet_ce column
        assert int(cub.split()[-3]) == 0

    def test_long_directory_name_keeps_the_flow_column(self, bw_halving_artifacts, tmp_path, capsys):
        # A `<dir>/trace.csv` label of 32 characters or more once ran into
        # the flow id; a short one still lines up under the header.
        long = tmp_path / ("d" * 32)
        long.mkdir()
        for name in ("trace.csv", "events.json"):
            (long / name).write_bytes((bw_halving_artifacts["cubic"] / name).read_bytes())
        assert run_cli("report", str(long), str(bw_halving_artifacts["cubic"])) == 0
        header, _, long_row, short_row = capsys.readouterr().out.splitlines()
        assert long_row.split()[1] == "cubic0"
        assert header.index("flow") == short_row.index("cubic0")

    def test_malformed_trace_names_file(self, tmp_path, capsys):
        bad = tmp_path / "trace.csv"
        bad.write_text("# wrong header\n", encoding="utf-8")
        code = run_cli("report", str(bad))
        assert code == 1
        assert "trace.csv" in capsys.readouterr().err

    def test_truncated_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "trace.csv"
        bad.write_text(
            "# roccet-lab trace v1\n"
            "time_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg\n"
            "0.000,f,10.000\n",
            encoding="utf-8",
        )
        code = run_cli("report", str(bad))
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_no_samples_after_warmup_prints_na(self, tmp_path, capsys):
        rows = ["# roccet-lab trace v1",
                "time_ms,flow_id,cwnd_seg,srtt_ms,goodput_mbps,queue_seg"]
        # srtt never becomes positive, so the post-warm-up window is empty:
        # a well-formed trace with nothing to summarize, as summary.txt says
        rows += [f"{t}.000,f,10.000,0.000,1.000000,0" for t in range(0, 100, 10)]
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run_cli("report", str(trace))
        assert code == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.split()[-11:] == ["n/a"] * 8 + ["0"] * 3

    def test_flow_started_at_the_horizon_prints_na(self, tmp_path, capsys):
        # roccet0 starts 20 ms before the horizon and takes no RTT sample.
        out = tmp_path / "late"
        assert run_cli(
            "run", "--builtin", "fairness-10x40", "--set", "horizon_s=1.02",
            "--set", "flows.0.start_s=1.0", "-o", str(out),
        ) == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert ["roccet0", "roccet", "0.000", "n/a", "n/a", "0"] in map(str.split, summary)
        capsys.readouterr()
        assert run_cli("report", str(out), str(out)) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [row[1] for row in rows] == ["roccet1", "roccet0"] * 2
        assert all(row[2:10] == ["n/a"] * 8 for row in rows if row[1] == "roccet0")
        assert all("n/a" not in row for row in rows if row[1] == "roccet1")

    def test_report_reads_the_percentiles_summary_txt_prints(self, tmp_path, capsys):
        # summary.txt summarizes the run's samples and report its trace.csv;
        # both start the warm-up at a flow's first sample, so a flow that
        # starts between two sample ticks gets the same sRTT p50 and p75.
        out = tmp_path / "run"
        assert run_cli(
            "run", "--builtin", "fairness-10x40", "--set", "horizon_s=1.02", "-o", str(out)
        ) == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        capsys.readouterr()
        assert run_cli("report", str(out)) == 0
        report = capsys.readouterr().out.splitlines()[2:]
        from_summary = {
            row[0]: row[3:5] for row in map(str.split, summary) if row[:1] in (["roccet0"], ["roccet1"])
        }
        from_report = {row[1]: row[3:5] for row in map(str.split, report)}
        assert from_summary == from_report and len(from_report) == 2

    # `events.json` contents beside a good trace that once ended in a
    # traceback.
    @pytest.mark.parametrize(
        "events",
        [{"flows": [1, 2]}, {"flows": {"cubic0": {"ce_log": [[1, 2, 3]]}}}],
        ids=["flows-not-an-object", "ce_log-entry-not-a-pair"],
    )
    def test_malformed_events_exits_one_with_one_line(
        self, events, bw_halving_artifacts, tmp_path, capsys
    ):
        trace = (bw_halving_artifacts["cubic"] / "trace.csv").read_bytes()
        (tmp_path / "trace.csv").write_bytes(trace)
        (tmp_path / "events.json").write_text(json.dumps(events), encoding="utf-8")
        assert run_cli("report", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: bad-trace: ") and "events.json" in err[0]

    @pytest.mark.parametrize("name", ["trace.csv", "events.json"])
    def test_undecodable_file_exits_one_with_one_line(
        self, name, bw_halving_artifacts, tmp_path, capsys
    ):
        # A file that is not UTF-8 once ended in a traceback: a trace with a
        # 0xff byte in a row, or an events file that is that one byte.
        lines = (bw_halving_artifacts["cubic"] / "trace.csv").read_bytes().split(b"\n")
        if name == "trace.csv":
            lines[5] += b"\xff"
        else:
            (tmp_path / "events.json").write_bytes(b"\xff")
        (tmp_path / "trace.csv").write_bytes(b"\n".join(lines))
        assert run_cli("report", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: bad-trace: ") and name in err[0]


class TestSweepCommand:
    def test_small_sweep_writes_results(self, tmp_path):
        out = tmp_path / "sweep"
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(
            json.dumps(
                {
                    "scenario": "fairness-10x40",
                    "axes": {"buffer_bdp": [1.0]},
                    "repetitions": 1,
                    "seed": 2,
                    "options": {"n_flows": 2, "horizon_s": 10.0},
                }
            ),
            encoding="utf-8",
        )
        code = run_cli("sweep", "--sweep", str(sweep_file), "-o", str(out))
        assert code == 0
        results = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        assert results[0].startswith("buffer_bdp,repetition,seed,jain")
        assert len(results) == 1 + 2  # header + one row per flow
        assert (out / "results.json").exists()

    def test_axis_flags(self, tmp_path):
        out = tmp_path / "sweep2"
        code = run_cli(
            "sweep", "--builtin", "steady", "--axis", "buffer_bdp=1,2",
            "--reps", "1", "--seed", "3", "-o", str(out),
        )
        assert code == 0
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 2

    def test_seed_zero_runs_base_seed_zero(self, tmp_path):
        # `--seed 0` gives the same results as a sweep file with seed 0.
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(
            json.dumps(
                {
                    "scenario": "fairness-10x40",
                    "axes": {"horizon_s": [3], "n_flows": [2]},
                    "repetitions": 1,
                    "seed": 0,
                }
            ),
            encoding="utf-8",
        )
        flags, from_file = tmp_path / "flags", tmp_path / "file"
        assert run_cli(
            "sweep", "--builtin", "fairness-10x40", "--seed", "0", "--reps", "1",
            "--axis", "horizon_s=3", "--axis", "n_flows=2", "-o", str(flags),
        ) == 0
        assert run_cli("sweep", "--sweep", str(sweep_file), "-o", str(from_file)) == 0
        for name in ("results.csv", "results.json"):
            assert (flags / name).read_bytes() == (from_file / name).read_bytes()
        assert json.loads((flags / "results.json").read_text(encoding="utf-8"))["sweep"]["seed"] == 0

    def test_unknown_sweep_key_rejected(self, tmp_path, capsys):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps({"scenario": "steady", "oops": 1}))
        assert run_cli("sweep", "--sweep", str(sweep_file), "-o", str(tmp_path)) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["buffer_bdp=abc", "n_flows=abc"])
    def test_wrong_axis_type_exits_one(self, axis, tmp_path, capsys):
        code = run_cli(
            "sweep", "--builtin", "fairness-10x40", "--axis", axis, "-o", str(tmp_path)
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid-sweep: ")
        assert not (tmp_path / "results.csv").exists()
        assert tmp_path.is_dir()  # it was there before the command, so it stays

    @pytest.mark.parametrize("name, axis, error", [
        ("fairness-10x40", "n_flows=true", "n_flows must be an integer, got True"),
        ("fairness-10x40", "n_flows=2.0", "n_flows must be an integer, got 2.0"),
        ("steady", "horizon_s=true", "horizon_s must be a finite number, got True"),
    ])
    def test_option_of_the_wrong_type_exits_one(self, name, axis, error, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("sweep", "--builtin", name, "--axis", axis, "-o", str(out)) == 1
        assert capsys.readouterr().err == f"error: invalid-sweep: scenario {name}: {error}\n"
        assert not out.exists()

    def test_bad_cell_removes_every_directory_it_made(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        code = run_cli(
            "sweep", "--builtin", "fairness-10x40", "--axis", "n_flows=abc", "-o", str(out)
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid-sweep: ")
        assert list(tmp_path.iterdir()) == []

    def test_unmeasurable_cell_exits_one_naming_it(self, tmp_path, capsys):
        # The 10 ms cell ends before anything is delivered inside its share
        # window: a rejected input, as `run` treats it, not a fault.
        out = tmp_path / "a" / "b"
        code = run_cli(
            "sweep", "--builtin", "steady", "--axis", "horizon_s=0.01,0.02", "-o", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: invalid-sweep: cell horizon_s=0.01, repetition 0: ")
        assert list(tmp_path.iterdir()) == []

    def test_simulator_fault_exits_two(self, tmp_path, capsys, monkeypatch):
        # A failed conservation audit is the simulator's own fault.
        monkeypatch.setattr(Bottleneck, "in_network_total", lambda self, flow_id: -1)
        out = tmp_path / "a"
        code = run_cli("sweep", "--builtin", "steady", "--axis", "horizon_s=0.5", "-o", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: simulation-fault: conservation violated")
        assert list(tmp_path.iterdir()) == []


# Inputs that once exited 0 or ended in a traceback. A `sweep --sweep`
# case gives the sweep file's contents, and a `run --scenario` or
# `sweep --sweep` case may give the file's bytes.
BAD_INPUTS = [
    ["run", "--builtin", "steady", "--set", "roccet.orbiter_interval_rtts=2.5"],
    ["run", "--builtin", "steady", "--set", "cubic.fast_convergence=3"],
    ["run", "--builtin", "steady", "--set", 'roccet.ignore_loss="no"'],
    ["run", "--builtin", "steady", "--set", "roccet.launch_ack_margin=NaN"],
    ["run", "--builtin", "steady", "--set", "cubic.c_scale=Infinity"],
    ["run", "--builtin", "steady", "--algo", "probe_rate",
     "--set", "probe_rate.startup_pacing_gain=0"],
    ["run", "--builtin", "steady", "--set", 'seed="x"'],
    ["run", "--builtin", "steady", "--seed", "-5"],
    ["run", "--builtin", "steady", "--set", "name=5"],
    ["run", "--builtin", "steady", "--set", "buffer_bdp=true"],
    ["run", "--builtin", "steady", "--set", "buffer_bdp=NaN"],
    ["run", "--builtin", "steady", "--set", "link.mtu_bytes=1500.5"],
    ["run", "--builtin", "steady", "--set", "flows.0.id=7"],
    ["run", "--builtin", "steady", "--set", "flows.0.sndbuf_segs=2.5"],
    ["run", "--builtin", "steady", "--set", "link.schedule=[{}]"],
    ["run", "--builtin", "steady", "--set", 'loss={"window_s":[1]}'],
    ["run", "--builtin", "steady", "--set", 'loss={"drop_prob":"x"}'],
    ["run", "--builtin", "steady", "--set", 'loss={"drop_prob":2}'],
    ["run", "--builtin", "steady", "--set", 'loss={"jitter_ms":-5}'],
    ["run", "--builtin", "steady", "--set", 'loss={"window_s":[5,1],"drop_prob":0.1}'],
    # Random drops and jitter act only inside a window; none is given.
    ["run", "--builtin", "steady", "--set", 'loss={"drop_prob":0.5}'],
    ["run", "--builtin", "steady", "--set", 'loss={"jitter_ms":30}'],
    ["run", "--builtin", "steady", "--set", "link.rate_mbps=true"],
    ["run", "--builtin", "steady", "--set", "horizon_s=true"],
    ["run", "--builtin", "steady", "--set", "sample_ms=true"],
    ["run", "--builtin", "steady", "--set", "flows.0.start_s=true"],
    ["run", "--builtin", "steady",
     "--set", 'flows.0.source={"kind":"app_limited","rate_mbps":true}'],
    ["run", "--builtin", "steady", "--set", 'flows.0.source={"kind":"greedy","rate_mbps":-5}'],
    ["run", "--builtin", "steady", "--set", "horizon_s=0.5", "--set", "link.rate_mbps=1e300"],
    ["run", "--builtin", "steady", "--set", "horizon_s=0.5", "--set", "link.rtt_ms=1e300"],
    ["run", "--builtin", "steady", "--algo", "probe_rate", "--set", "probe_rate.min_cwnd=-5"],
    ["run", "--builtin", "steady", "--algo", "probe_rate", "--set", "probe_rate.cwnd_gain=-1"],
    ["sweep", "--sweep", {"scenario": "steady", "repetitions": "x"}],
    ["sweep", "--sweep", {"scenario": "steady", "options": [1]}],
    ["sweep", "--sweep", {"scenario": "steady", "axes": [1]}],
    ["sweep", "--builtin", "steady", "--axis", "seed=1"],
    ["sweep", "--builtin", "steady", "--axis", "algo=cubic"],
    ["sweep", "--builtin", "fairness-10x40", "--axis", "buffer_bdp=abc"],
    ["sweep", "--builtin", "fairness-10x40", "--axis", "n_flows=2,8", "--reps", "2049"],
    ["run", "--scenario", b"\xff\xfe\x00bad"],
    ["sweep", "--sweep", b"\xff{}"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: " ".join(map(str, argv[1:])))
def test_bad_input_exits_one_with_one_line(argv, tmp_path, capsys):
    argv = list(argv)
    if isinstance(argv[-1], (dict, bytes)):
        contents = argv[-1]
        if isinstance(contents, dict):
            contents = json.dumps(contents).encode("utf-8")
        input_file = tmp_path / "input.json"
        input_file.write_bytes(contents)
        argv[-1] = str(input_file)
    out = tmp_path / "o"
    assert run_cli(*argv, "-o", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    code = "invalid-sweep" if argv[0] == "sweep" else "invalid-scenario"
    assert err[0].startswith(f"error: {code}: ")
    assert not out.exists()


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out
    for name in ("bw-halving", "frozen-cwnd", "steady"):
        assert name in out


# Output paths that cannot be made or written to, each of which once ended
# in a traceback (the run's only after the whole run): `{file}` stands
# for an existing file, `{dir}` for a run directory.
BAD_OUTPUTS = [
    ["run", "--builtin", "steady", "-o", "{file}"],
    ["run", "--builtin", "steady", "-o", "{file}/sub"],
    ["sweep", "--builtin", "steady", "-o", "{file}"],
    ["report", "{dir}", "-o", "{dir}"],
]


@pytest.mark.parametrize("argv", BAD_OUTPUTS, ids=" ".join)
def test_unusable_output_exits_one_with_one_line(argv, bw_halving_artifacts, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    paths = {"file": str(taken), "dir": str(bw_halving_artifacts["cubic"])}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: bad-output: ")
    assert taken.read_text(encoding="utf-8") == "kept\n"
