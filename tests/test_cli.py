"""Tests for the command-line interface."""

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


class TestBatchLocateCommand:
    def test_happy_path_with_selftest(self, capsys):
        rc = main(
            ["batch-locate", "lab", "-n", "4", "--packets", "3", "--selftest"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean error" in out
        assert "topology cache" in out
        assert "SELFTEST OK" in out

    def test_pooled_and_uncached(self, capsys):
        rc = main(
            [
                "batch-locate", "lobby", "-n", "3", "--packets", "3",
                "--workers", "2", "--no-cache",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "topology cache" not in out  # caches disabled

    def test_unknown_scenario(self, capsys):
        assert main(["batch-locate", "mall"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeCommand:
    def test_simulated_serving_run(self, capsys):
        rc = main(
            ["serve", "lab", "--queries", "5", "--packets", "3",
             "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving 5 queries" in out
        assert "served 5 queries" in out
        assert "p95" in out

    def test_sequential_default(self, capsys):
        rc = main(["serve", "lab", "--queries", "3", "--packets", "3"])
        assert rc == 0
        assert "sequential" in capsys.readouterr().out

    def test_unknown_scenario(self, capsys):
        assert main(["serve", "mall"]) == 2


class TestClusterCommand:
    def test_selftest_against_sequential_service(self, capsys):
        rc = main(
            ["cluster", "lab", "--queries", "6", "--packets", "3",
             "--shards", "2", "--selftest"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster of 2 shard(s)" in out
        assert "routed 6 | degraded 0" in out
        assert "SELFTEST OK" in out

    def test_parser_accepts_cluster_flags(self):
        args = build_parser().parse_args(
            ["cluster", "lab", "--shards", "3", "--queries", "5",
             "--timeout", "0.5", "--selftest"]
        )
        assert args.shards == 3
        assert args.queries == 5
        assert args.timeout == 0.5
        assert args.selftest

    @pytest.mark.parametrize(
        "flag", ["--replicas", "--heartbeat-every", "--crash", "--stale"]
    )
    def test_removed_fault_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["cluster", "lab", flag, "1"])
        assert exc.value.code == 2


class TestGuardCommand:
    def test_selftest_passes(self, capsys):
        assert main(["guard", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "GUARD SELFTEST OK" in out
        assert "zero-fault-bit-identical" in out
        assert "phase-smear-salvaged" in out

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
        assert not args.selftest
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
        assert not args.selftest


class TestProfileCommand:
    def test_stage_breakdown_covers_pipeline(self, capsys):
        rc = main(["profile", "lab", "-n", "2", "--packets", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiled 2 queries" in out
        for stage in ("csi", "cir", "constraints", "lp.solve_batch", "merge"):
            assert stage in out, f"stage {stage} missing from breakdown"
        assert "simplex.pivots" in out  # pivot counter surfaced

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import load_jsonl

        path = tmp_path / "traces.jsonl"
        rc = main(
            ["profile", "lab", "-n", "1", "--packets", "3",
             "--trace-out", str(path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        spans = load_jsonl(path)
        assert spans and {s.name for s in spans} >= {"lp.solve_batch", "merge"}

    def test_bad_count(self, capsys):
        assert main(["profile", "lab", "-n", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["profile", "mall"]) == 2

    def test_leaves_tracing_disabled(self):
        from repro import obs

        assert main(["profile", "lab", "-n", "1", "--packets", "3"]) == 0
        assert not obs.is_enabled()


class TestServingTraceFlag:
    def test_serve_trace_reports_stage_breakdown(self, capsys):
        from repro import obs

        try:
            rc = main(
                ["serve", "lab", "--queries", "2", "--packets", "3",
                 "--trace"]
            )
        finally:
            obs.disable()
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "serve.query" in out

    def test_batch_locate_trace_reports_stage_breakdown(self, capsys):
        from repro import obs

        try:
            rc = main(
                ["batch-locate", "lab", "-n", "2", "--packets", "3",
                 "--trace"]
            )
        finally:
            obs.disable()
        assert rc == 0
        assert "stage breakdown" in capsys.readouterr().out


class TestGatewayCommand:
    def test_parser_accepts_gateway_flags(self):
        args = build_parser().parse_args(
            ["gateway", "lobby", "--host", "0.0.0.0", "--port", "8080",
             "--db", "/tmp/x.db", "--shards", "2", "--selftest"]
        )
        assert args.scenario == "lobby"
        assert args.host == "0.0.0.0"
        assert args.port == 8080
        assert args.db == "/tmp/x.db"
        assert args.shards == 2
        assert args.selftest

    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway"])
        assert args.scenario == "lab"
        assert args.port == 0
        assert args.db == "gateway.db"
        assert args.shards == 1

    def test_selftest_round_trip(self, capsys):
        rc = main(["gateway", "lab", "--selftest", "--packets", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        assert "drain durability" in out
        assert "SELFTEST OK" in out

    def test_unknown_scenario(self, capsys):
        assert main(["gateway", "mall", "--selftest"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_cluster_shape_rejected(self, capsys):
        assert main(["gateway", "lab", "--shards", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_replicas_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["gateway", "lab", "--replicas", "2"])
        assert exc.value.code == 2
