"""Tests for the command-line interface."""

import socket

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_locate_args(self):
        args = build_parser().parse_args(
            ["locate", "lab", "3.0", "4.0", "--static", "--seed", "9"]
        )
        assert args.scenario == "lab"
        assert args.x == 3.0
        assert args.static
        assert args.seed == 9

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestScenariosCommand:
    def test_lists_and_renders(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "lab" in out and "lobby" in out
        assert "AP1" in out
        assert "#" in out  # the map


class TestLocateCommand:
    def test_happy_path(self, capsys):
        rc = main(["locate", "lab", "6.4", "4.2", "--packets", "5", "--no-map"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nomadic estimate" in out
        assert "error" in out

    def test_static_mode(self, capsys):
        rc = main(
            ["locate", "lab", "6.4", "4.2", "--packets", "5", "--static", "--no-map"]
        )
        assert rc == 0
        assert "static estimate" in capsys.readouterr().out

    def test_map_rendered_by_default(self, capsys):
        main(["locate", "lab", "6.4", "4.2", "--packets", "5"])
        out = capsys.readouterr().out
        assert "T" in out and "E" in out

    def test_unknown_scenario(self, capsys):
        assert main(["locate", "mall", "1", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_outside_venue(self, capsys):
        assert main(["locate", "lab", "99", "99"]) == 2
        assert "outside" in capsys.readouterr().err


class TestExperimentCommand:
    def test_fig3(self, capsys):
        assert main(["experiment", "fig3", "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "LOS" in out and "NLOS" in out
        assert "first-tap ratio" in out

    def test_fig7(self, capsys):
        assert main(["experiment", "fig7", "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "PDP accuracy" in out
        assert "mean accuracy" in out

    def test_fig9(self, capsys):
        rc = main(
            [
                "experiment", "fig9", "--scenario", "lab",
                "--repetitions", "1", "--packets", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "static" in out and "nomadic" in out

    def test_fig10(self, capsys):
        rc = main(
            [
                "experiment", "fig10", "--scenario", "lab",
                "--repetitions", "1", "--packets", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ER=0" in out and "ER=3" in out


class TestHeatmapCommand:
    def test_renders(self, capsys):
        rc = main(
            ["heatmap", "lab", "--spacing", "3.0", "--packets", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean error" in out and "SLV" in out
        assert "#" in out  # boundary

    def test_static_flag(self, capsys):
        rc = main(
            ["heatmap", "lab", "--static", "--spacing", "4.0", "--packets", "3"]
        )
        assert rc == 0
        assert "static deployment" in capsys.readouterr().out

    def test_unknown_scenario(self, capsys):
        assert main(["heatmap", "mall"]) == 2


class TestRecordReplayCommands:
    def test_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        rc = main(
            ["record", "lab", str(path), "--packets", "5", "--seed", "4"]
        )
        assert rc == 0
        assert path.exists()
        assert "recorded" in capsys.readouterr().out

        rc = main(["replay", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean" in out and "SLV" in out

        rc = main(["replay", str(path), "--paper-literal"])
        assert rc == 0

    def test_replay_missing_file(self, capsys):
        assert main(["replay", "/nonexistent/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_record_unknown_scenario(self, capsys):
        assert main(["record", "mall", "/tmp/x.json"]) == 2


class TestServeCommand:
    def test_happy_path(self, capsys):
        assert main(["serve", "lab", "-n", "4", "--packets", "3"]) == 0
        out = capsys.readouterr().out
        assert "served 4 queries, mean error" in out
        assert "topology cache" in out
        assert "degraded 0" in out

    def test_simulated_serving_run(self, capsys):
        rc = main(
            ["serve", "lab", "-n", "5", "--packets", "3", "--workers", "2",
             "--lp-batch", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving 5 queries" in out
        assert "2 process workers, lp-batch 2" in out
        assert "served 5 queries" in out
        assert "p95" in out

    def test_sequential_default(self, capsys):
        rc = main(["serve", "lab", "-n", "3", "--packets", "3"])
        assert rc == 0
        assert "sequential" in capsys.readouterr().out

    def test_unknown_scenario(self, capsys):
        assert main(["serve", "mall"]) == 2
        assert "error" in capsys.readouterr().err


class TestBatchLocateCommand:
    """The batch path of ``repro serve`` (the former ``batch-locate``)."""

    def test_pooled_and_uncached(self, capsys):
        rc = main(
            [
                "serve", "lobby", "-n", "3", "--packets", "3",
                "--workers", "2", "--no-cache",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "topology cache" not in out  # caches disabled

    def test_unknown_scenario(self, capsys):
        rc = main(
            ["serve", "mall", "-n", "4", "--packets", "3", "--workers", "2"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestProfileCommand:
    """Profiling through ``repro serve --trace`` (the former ``profile``)."""

    def test_stage_breakdown_covers_pipeline(self, capsys):
        rc = main(["serve", "lab", "-n", "2", "--packets", "3", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 2 queries" in out
        for stage in ("csi", "cir", "constraints", "lp.solve_batch", "merge"):
            assert stage in out, f"stage {stage} missing from breakdown"
        assert "simplex.pivots" in out  # pivot counter surfaced

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import load_jsonl

        path = tmp_path / "traces.jsonl"
        rc = main(
            ["serve", "lab", "-n", "1", "--packets", "3",
             "--trace-out", str(path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        spans = load_jsonl(path)
        assert spans and {s.name for s in spans} >= {"lp.solve_batch", "merge"}

    def test_bad_count(self, capsys):
        assert main(["serve", "lab", "-n", "0", "--trace"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["serve", "mall", "--trace"]) == 2

    def test_leaves_tracing_disabled(self):
        from repro import obs

        obs.disable()
        assert main(["serve", "lab", "-n", "1", "--packets", "3", "--trace"]) == 0
        assert not obs.is_enabled()


class TestRemovedSurface:
    """Retired subcommands and flags are argparse errors, not no-ops."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch-locate", "lab"],
            ["cluster", "lab"],
            ["profile", "lab"],
            ["serve", "lab", "--queries", "5"],
            ["serve", "lab", "--timeout", "1"],
            ["serve", "lab", "--queue-capacity", "4"],
            ["track", "lab", "--trace"],
            ["track", "lab", "--selftest"],
            ["guard", "--selftest"],
            ["gateway", "lab", "--selftest"],
            ["gateway", "lab", "--serve"],
            ["gateway", "lab", "--packets", "3"],
            ["gateway", "lab", "--load-s", "1"],
            ["gateway", "lab", "--p95-bound-s", "1"],
            ["gateway", "lab", "--seed", "1"],
        ],
        ids=" ".join,
    )
    def test_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestBadValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["locate", "lab", "6.4", "4.2", "--packets", "0"],
            ["heatmap", "lab", "--spacing", "0"],
            ["record", "lab", "unused.json", "--repetitions", "0"],
            ["experiment", "fig9", "--repetitions", "0"],
            ["experiment", "fig9", "--workers", "-1"],
            ["track", "lab", "--workers", "-1"],
            ["gateway", "lab", "--port", "-5"],
        ],
        ids=" ".join,
    )
    def test_exits_2_without_traceback(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestClusterCommand:
    @pytest.mark.parametrize(
        "flag", ["--replicas", "--heartbeat-every", "--crash", "--stale"]
    )
    def test_removed_fault_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["cluster", "lab", flag, "1"])
        assert exc.value.code == 2


class TestGuardCommand:
    def test_fault_drill_reports_verdicts(self, capsys):
        rc = main(
            ["guard", "lab", "-n", "3", "--packets", "8",
             "--faults", "nan-burst:0.5:AP2",
             "--faults", "ap-outage:1.0:AP3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 fault(s) scheduled, gating ON" in out
        assert "degraded: AP2" in out
        assert "rejected: AP3" in out
        assert "confidence" in out

    def test_clean_drill_keeps_full_confidence(self, capsys):
        rc = main(["guard", "lab", "-n", "2", "--packets", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "confidence 1.00" in out
        assert "0 degraded link(s), 0 rejected link(s)" in out

    def test_no_gate_arm(self, capsys):
        rc = main(
            ["guard", "lab", "-n", "2", "--packets", "8", "--no-gate",
             "--faults", "nan-burst:0.3:AP2"]
        )
        assert rc == 0
        assert "gating OFF" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(["guard", "lab", "--faults", "gremlins:0.5"]) == 2
        assert "unknown fault type" in capsys.readouterr().err

    def test_bad_count_rejected(self, capsys):
        assert main(["guard", "lab", "-n", "0"]) == 2

    def test_parser_defaults(self):
        args = build_parser().parse_args(["guard"])
        assert args.scenario == "lab"
        assert args.faults == []
        assert args.seed == 7


class TestTrackCommand:
    def test_small_run_reports_sessions(self, capsys):
        rc = main(
            ["track", "lab", "--objects", "2", "--steps", "4",
             "--packets", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tracked 2 object(s) for 4 ticks" in out
        assert "obj-000" in out and "obj-001" in out
        assert "track error median" in out
        assert "event log digest" in out

    def test_blind_arm_flagged_in_output(self, capsys):
        rc = main(
            ["track", "lab", "--objects", "1", "--steps", "3",
             "--packets", "3", "--blind"]
        )
        assert rc == 0
        assert "blind noise" in capsys.readouterr().out

    def test_bad_args_rejected(self, capsys):
        assert main(["track", "lab", "--zones", "3by3"]) == 2
        assert "ROWSxCOLS" in capsys.readouterr().err
        assert main(["track", "lab", "--objects", "0"]) == 2
        assert main(["track", "lab", "--steps", "1"]) == 2
        assert main(["track", "lab", "--corrupt", "1.5"]) == 2

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["track", "nowhere"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["track", "lab"])
        assert args.objects == 3
        assert args.steps == 10
        assert args.zones == "2x3"
        assert args.filter == "kalman"
        assert args.corrupt == 0.0
        assert not args.blind

    def test_seeded_replay_is_byte_identical(self, capsys):
        argv = ["track", "lab", "--objects", "2", "--steps", "4",
                "--packets", "3", "--corrupt", "0.25"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "event log digest" in first.splitlines()[-1]
        # Zone events are well-formed: nothing exits a zone it never
        # entered.
        events = next(
            line for line in first.splitlines() if line.startswith("events:")
        )
        counts = dict(
            item.split("=") for item in events[len("events: "):].split(", ")
        )
        assert int(counts.get("enter", 0)) >= int(counts.get("exit", 0))


class TestServingTraceFlag:
    def test_serve_trace_reports_stage_breakdown(self, capsys):
        rc = main(["serve", "lab", "-n", "2", "--packets", "3", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "serve.query" in out

    def test_batch_locate_trace_reports_stage_breakdown(self, capsys):
        rc = main(
            ["serve", "lab", "-n", "2", "--packets", "3", "--workers", "2",
             "--trace"]
        )
        assert rc == 0
        assert "stage breakdown" in capsys.readouterr().out


class TestGatewayCommand:
    def test_parser_accepts_gateway_flags(self):
        args = build_parser().parse_args(
            ["gateway", "lobby", "--host", "0.0.0.0", "--port", "8080",
             "--db", "/tmp/x.db", "--shards", "2"]
        )
        assert args.scenario == "lobby"
        assert args.host == "0.0.0.0"
        assert args.port == 8080
        assert args.db == "/tmp/x.db"
        assert args.shards == 2

    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway"])
        assert args.scenario == "lab"
        assert args.port == 0
        assert args.db == "gateway.db"
        assert args.shards == 1

    def test_unknown_scenario(self, capsys):
        assert main(["gateway", "mall"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_cluster_shape_rejected(self, capsys):
        assert main(["gateway", "lab", "--shards", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_replicas_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["gateway", "lab", "--replicas", "2"])
        assert exc.value.code == 2

    def test_port_in_use_is_one_error_line_and_no_wal_files(
        self, tmp_path, capsys
    ):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            rc = main(
                ["gateway", "lab", "--host", "127.0.0.1", "--port", str(port),
                 "--db", str(tmp_path / "gw.db")]
            )
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gw.db"]
