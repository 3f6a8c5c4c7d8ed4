"""Tests for the repro-experiments command-line interface."""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestSpecCommands:
    """The spec-driven front-ends: ``run`` and ``--dump-spec``."""

    def test_sweep_dump_spec_to_stdout(self, capsys):
        assert (
            main(["sweep", "--scenarios", "steady", "--managers", "rtm", "--dump-spec", "-"])
            == 0
        )
        output = capsys.readouterr().out
        assert 'scenario = "steady"' in output
        assert 'manager = "rtm"' in output

    def test_sweep_dump_spec_then_run_replays(self, capsys, tmp_path):
        path = tmp_path / "sweep.toml"
        assert (
            main(
                ["sweep", "--scenarios", "single_dnn", "--managers", "rtm",
                 "governor_only", "--dump-spec", str(path)]
            )
            == 0
        )
        assert "replay with: repro-experiments run" in capsys.readouterr().out
        assert main(["run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "2 experiments" in output
        assert "single_dnn/rtm/seed0" in output
        assert "single_dnn/governor_only/seed0" in output
        assert "spec id" in output

    def test_scenario_dump_spec_includes_baselines(self, capsys):
        assert (
            main(["scenario", "--name", "single_dnn", "--baselines", "--dump-spec", "-"])
            == 0
        )
        output = capsys.readouterr().out
        assert output.count("[[experiment]]") == 3
        assert 'manager = "governor_only"' in output
        assert 'manager = "static_deployment"' in output

    def test_run_missing_file_fails(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_run_invalid_spec_fails_with_suggestion(self, capsys, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('scenario = "rush_our"\n')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "did you mean 'rush_hour'" in err

    def test_run_duplicate_labels_fail(self, capsys, tmp_path):
        path = tmp_path / "dup.toml"
        path.write_text(
            '[[experiment]]\nscenario = "steady"\n\n[[experiment]]\nscenario = "steady"\n'
        )
        assert main(["run", str(path)]) == 2
        assert "duplicate experiment labels" in capsys.readouterr().err

    def test_run_rejects_zero_workers(self, capsys, tmp_path):
        path = tmp_path / "one.toml"
        path.write_text('scenario = "single_dnn"\n')
        assert main(["run", str(path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_run_reports_failing_specs_with_exit_1(self, capsys, tmp_path):
        # The platform reference resolves (validate passes names it knows) —
        # make the failure a runtime one via scenario_params the builder
        # rejects, exercising per-case error capture.
        path = tmp_path / "fail.toml"
        path.write_text(
            '[[experiment]]\nname = "bad"\nscenario = "single_dnn"\n'
            "[experiment.scenario_params]\nduration_ms = -1.0\n"
            '\n[[experiment]]\nscenario = "single_dnn"\n'
        )
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "1 experiment(s) failed" in captured.err
        assert "single_dnn/rtm/seed0" in captured.out


class TestUnreadableInputFiles:
    """Spec files and fault plans that are not UTF-8 are usage errors, not crashes."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_bytes(b"\x00\xff\xfe")
        return path

    def test_run_rejects_a_non_utf8_spec_file(self, capsys, bad):
        assert main(["run", str(bad)]) == 2
        assert "invalid spec: cannot read spec file" in capsys.readouterr().err

    def test_run_rejects_a_non_utf8_fault_plan(self, capsys, tmp_path, bad):
        spec = tmp_path / "ok.toml"
        spec.write_text('scenario = "single_dnn"\n')
        assert main(["run", str(spec), "--faults", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot load fault plan" in err and "cannot read fault plan file" in err

    def test_fleet_run_rejects_a_non_utf8_spec_file(self, capsys, bad):
        assert main(["fleet", "run", str(bad)]) == 2
        assert "invalid fleet spec: cannot read fleet spec file" in capsys.readouterr().err


def _readme_commands():
    """The argv of every ``repro-experiments`` line of README's shell blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```(?:sh|bash)\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["repro-experiments"]:
                commands.append(argv[1:])
    return commands


class TestParser:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_readme_command_parses(self, argv):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as error:
            pytest.fail(f"README command {' '.join(argv)!r} does not parse (exit {error.code})")
        assert callable(args.func)

    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["table1"],
            ["fig4a", "--pareto", "--limit", "5"],
            ["fig4b"],
            ["case-study", "--platform", "odroid_xu3"],
            ["scenario", "--name", "single_dnn"],
            ["scenarios", "list"],
            ["managers", "list"],
            ["platforms", "list"],
            ["run", "spec.toml", "--workers", "2"],
            ["sweep", "--scenarios", "steady", "bursty", "--seeds", "2", "--workers", "4"],
            ["sweep", "--scenario", "steady"],
            ["sweep", "--dump-spec", "-"],
            ["bench", "--smoke", "--no-write"],
            ["bench", "--scenarios", "steady", "--managers", "rtm", "--repeats", "1"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_scenarios_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_managers_and_platforms_require_a_subcommand(self):
        for command in ("managers", "platforms"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])


class TestFlagValues:
    """A nonsense flag value exits 2 with a message naming the flag."""

    @pytest.mark.parametrize("flag", ["--latency-ms", "--energy-mj"])
    def test_case_study_needs_both_budget_flags(self, capsys, flag):
        assert main(["case-study", flag, "300"]) == 2
        err = capsys.readouterr().err
        assert "--latency-ms" in err and "--energy-mj" in err

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_rejects_repeats_below_one(self, capsys, backend, repeats):
        argv = ["bench", "--backend", backend, "--repeats", repeats, "--dump-spec", "-"]
        assert main(argv) == 2
        assert "--repeats must be at least 1" in capsys.readouterr().err

    def test_fig4a_rejects_a_negative_limit(self, capsys):
        assert main(["fig4a", "--limit", "-1"]) == 2
        assert "--limit must be at least 0" in capsys.readouterr().err


#: sha256 (first 16 hex digits) of each paper-artefact verb's stdout.
ARTEFACT_DIGESTS = {
    ("table1",): "665e74d21fedd9b5",
    ("fig4a",): "6f7ce042e0ce2218",
    ("fig4a", "--pareto"): "3fed5015bca30d76",
    ("fig4b",): "db04f69cb0504460",
    ("case-study",): "928a08caa676022e",
}


class TestArtefactOutputs:
    """The paper-artefact verbs print exactly the pinned bytes."""

    @pytest.mark.parametrize("argv", sorted(ARTEFACT_DIGESTS), ids=" ".join)
    def test_stdout_digest_is_pinned(self, capsys, argv):
        assert main(list(argv)) == 0
        output = capsys.readouterr().out
        assert hashlib.sha256(output.encode()).hexdigest()[:16] == ARTEFACT_DIGESTS[argv]


class TestCommands:
    def test_table1_prints_every_row(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "odroid_xu3" in output and "jetson_nano" in output
        assert "A7 CPU (200MHz)" in output
        # Ten data rows plus two header lines.
        assert len(output.strip().splitlines()) == 12

    def test_fig4b_prints_four_configurations(self, capsys):
        assert main(["fig4b"]) == 0
        output = capsys.readouterr().out
        for token in ("25%", "50%", "75%", "100%", "71.2"):
            assert token in output

    def test_fig4a_limit_and_pareto(self, capsys):
        assert main(["fig4a", "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "116" in output  # total point count is reported
        data_lines = [line for line in output.splitlines() if line.strip().startswith(("a15", "a7"))]
        assert len(data_lines) == 3
        assert main(["fig4a", "--pareto", "--limit", "5"]) == 0
        assert "Pareto" in capsys.readouterr().out

    def test_case_study_default_budgets(self, capsys):
        assert main(["case-study"]) == 0
        output = capsys.readouterr().out
        assert "400 ms" in output and "200 ms" in output
        assert "a7" in output and "a15" in output

    def test_case_study_defaults_to_the_platforms_cpu_clusters(self, capsys):
        assert main(["case-study", "--platform", "jetson_nano"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" -> ")[0] for line in lines] == [
            "budget (400 ms, 100 mJ)",
            "budget (200 ms, 150 mJ)",
        ]
        assert all(" on a57 " in line for line in lines)

    def test_case_study_custom_budget(self, capsys):
        assert main(["case-study", "--latency-ms", "50", "--energy-mj", "300"]) == 0
        output = capsys.readouterr().out
        assert "50 ms" in output

    def test_scenario_single_dnn(self, capsys):
        assert main(["scenario", "--name", "single_dnn", "--events"]) == 0
        output = capsys.readouterr().out
        assert "violation rate" in output
        assert "Timeline of dnn1" in output

    def test_scenario_unknown_name_fails(self, capsys):
        assert main(["scenario", "--name", "not_a_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_unknown_platform_fails_cleanly(self, capsys):
        assert main(["scenario", "--name", "single_dnn", "--platform", "jetson_nanoo"]) == 2
        err = capsys.readouterr().err
        assert "unknown platform preset" in err and "did you mean 'jetson_nano'" in err

    def test_bench_unknown_platform_fails_cleanly(self, capsys):
        assert main(["bench", "--smoke", "--no-write", "--platform", "nope"]) == 2
        assert "unknown platform preset" in capsys.readouterr().err

    def test_case_study_unknown_platform_fails_cleanly(self, capsys):
        assert main(["case-study", "--platform", "jetson_nanoo"]) == 2
        assert "unknown platform preset" in capsys.readouterr().err

    def test_case_study_unknown_policy_fails_cleanly(self, capsys):
        assert main(["case-study", "--policy", "max_acuracy"]) == 2
        err = capsys.readouterr().err
        assert "unknown policies ['max_acuracy']" in err
        assert "did you mean 'max_accuracy'" in err

    def test_case_study_unknown_cluster_fails_cleanly(self, capsys):
        assert main(["case-study", "--clusters", "a15", "nope"]) == 2
        assert (
            "odroid_xu3 has no clusters ['nope']; available: ['a15', 'a7', 'mali_gpu']"
            in capsys.readouterr().err
        )

    def test_case_study_reports_a_budget_without_a_point(self, capsys, monkeypatch):
        from repro.rtm import RuntimeManager

        monkeypatch.setattr(RuntimeManager, "select_operating_point", lambda *a, **k: None)
        assert main(["case-study", "--latency-ms", "50", "--energy-mj", "300"]) == 0
        assert "budget (50 ms, 300 mJ) -> no operating point found" in capsys.readouterr().out

    def test_scenarios_list_prints_the_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        assert "registered scenarios" in output
        for name in (
            "fig2",
            "steady",
            "bursty",
            "rush_hour",
            "battery_saver",
            "mixed_criticality",
            "overload",
        ):
            assert name in output
        # Every line carries a description next to the name.
        body_lines = [line for line in output.splitlines()[1:] if line.strip()]
        assert all(len(line.split(None, 1)) == 2 for line in body_lines)

    def test_managers_list_prints_the_registry(self, capsys):
        assert main(["managers", "list"]) == 0
        output = capsys.readouterr().out
        assert "registered managers" in output
        for name in ("rtm", "rtm_min_energy", "governor_only", "static_deployment"):
            assert name in output

    def test_platforms_list_prints_topology(self, capsys):
        assert main(["platforms", "list"]) == 0
        output = capsys.readouterr().out
        assert "platform presets" in output
        assert "odroid_xu3" in output and "jetson_nano" in output
        # Cluster topology with core counts appears per preset.
        assert "a15:4xcpu_big" in output
        assert "a57:4xcpu_big" in output

    def test_faults_list_prints_accepted_keys_per_kind(self, capsys):
        assert main(["faults", "list"]) == 0
        output = capsys.readouterr().out
        assert "fault event kinds" in output
        # Every [[events]] kind line is followed by its accepted keys, so a
        # plan author never has to read the dataclass source to spell one.
        assert "keys: kind, time_ms, cluster, cores" in output
        assert "keys: kind, time_ms, cluster, max_frequency_mhz" in output
        assert "keys: kind, time_ms, bias_c" in output
        # The job-crash table's keys are listed too.
        assert "probability" in output and "backoff_base_ms" in output
        assert "chaos scenarios" in output

    def test_sweep_unknown_scenario_fails(self, capsys):
        assert main(["sweep", "--scenarios", "not_a_scenario"]) == 2
        assert "unknown scenarios" in capsys.readouterr().err

    def test_sweep_unknown_manager_fails(self, capsys):
        assert main(["sweep", "--managers", "not_a_manager"]) == 2
        assert "unknown managers" in capsys.readouterr().err

    def test_sweep_near_miss_manager_gets_a_suggestion(self, capsys):
        assert main(["sweep", "--managers", "goveror_only"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'governor_only'" in err

    def test_sweep_rejects_zero_seeds(self, capsys):
        assert main(["sweep", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_sweep_runs_seed_insensitive_scenarios_once(self, capsys):
        assert (
            main(
                ["sweep", "--scenarios", "single_dnn", "--managers", "rtm", "--seeds", "3"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "seed-insensitive" in captured.err
        assert "single_dnn/rtm/seed0" in captured.out
        assert "seed1" not in captured.out and "seed2" not in captured.out

    def test_sweep_seed_base_pins_unseeded_scenarios_to_seed_zero(self, capsys, recwarn):
        # The runner's own seed choice for a deterministic scenario must not
        # trip the ignored-seed warning aimed at caller typos.
        assert (
            main(
                ["sweep", "--scenarios", "single_dnn", "--managers", "rtm",
                 "--seeds", "1", "--seed-base", "3"]
            )
            == 0
        )
        assert "single_dnn/rtm/seed0" in capsys.readouterr().out
        assert not [w for w in recwarn.list if "ignores seed" in str(w.message)]

    def test_sweep_rejects_duplicate_names(self, capsys):
        assert main(["sweep", "--scenarios", "steady", "steady"]) == 2
        assert "duplicate scenario names" in capsys.readouterr().err
        assert main(["sweep", "--managers", "rtm", "rtm"]) == 2
        assert "duplicate manager names" in capsys.readouterr().err

    def test_sweep_rejects_zero_workers(self, capsys):
        assert main(["sweep", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_sweep_unknown_platform_fails_cleanly(self, capsys):
        # Up-front usage error (exit 2), consistent with scenario/bench, so a
        # typo never burns a whole grid or dumps an unreplayable spec file.
        code = main(
            ["sweep", "--scenarios", "steady", "--managers", "rtm", "--seeds", "1",
             "--platform", "not_a_platform"]
        )
        assert code == 2
        assert "unknown platform preset" in capsys.readouterr().err

    def test_sweep_reports_failing_cases_with_exit_1(self, capsys, monkeypatch):
        # Runtime failures (as opposed to name typos) stay captured per case.
        def explode(*args, **kwargs):
            raise RuntimeError("scenario construction exploded")

        monkeypatch.setattr("repro.experiments.runner.build_scenario", explode)
        code = main(["sweep", "--scenarios", "steady", "--managers", "rtm", "--seeds", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 case(s) failed" in captured.err
        assert "scenario construction exploded" in captured.err

    def test_sweep_prints_cases_and_aggregates(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scenarios",
                    "single_dnn",
                    "--managers",
                    "rtm",
                    "governor_only",
                    "--seeds",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "1 seeds on odroid_xu3" in output
        assert "single_dnn/rtm/seed0" in output
        assert "single_dnn/governor_only/seed0" in output
        assert "aggregates across seeds:" in output
        assert "violation rate" in output

    def test_sweep_cache_stats_reports_hits(self, capsys):
        assert (
            main(
                ["sweep", "--scenarios", "single_dnn", "--managers", "rtm", "--cache-stats"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "operating-point cache statistics:" in output
        assert "cache hits" in output and "hit rate" in output
        stats_section = output.split("operating-point cache statistics:")[1]
        row = next(
            line for line in stats_section.splitlines() if "single_dnn/rtm/seed0" in line
        )
        hits, misses = (int(v) for v in row.split()[1:3])
        assert hits > 0 and misses > 0


class TestCliByteParity:
    def test_sweep_output_is_identical_across_worker_counts(self, capsys):
        # A seeded scenario, so both invocations really run two distinct cases.
        argv = ["sweep", "--scenarios", "steady", "--managers", "rtm", "--seeds", "2"]
        assert main([*argv, "--workers", "1"]) == 0
        serial_output = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert serial_output == parallel_output


class TestComposeCommand:
    def test_compose_prints_the_overview(self, capsys):
        assert main(["scenarios", "compose", "--op", "mix", "--a", "steady", "--b", "bursty"]) == 0
        output = capsys.readouterr().out
        assert "applications" in output
        assert "dnn_inference" in output

    def test_compose_dump_spec_round_trips(self, capsys, tmp_path):
        path = tmp_path / "composed.toml"
        assert (
            main(
                ["scenarios", "compose", "--op", "splice", "--a", "rush_hour",
                 "--b", "battery_saver", "--at-ms", "15000", "--dump-spec", str(path)]
            )
            == 0
        )
        assert "replay with" in capsys.readouterr().out
        assert main(["run", str(path)]) == 0
        assert "compose_splice" in capsys.readouterr().out

    def test_compose_run_reports_fingerprint(self, capsys):
        assert (
            main(
                ["scenarios", "compose", "--op", "scale", "--a", "steady",
                 "--arrival-factor", "0.5", "--run", "--manager", "governor_only"]
            )
            == 0
        )
        assert "trace fingerprint:" in capsys.readouterr().out

    def test_compose_unknown_operand_fails(self, capsys):
        assert main(["scenarios", "compose", "--a", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_compose_invalid_numeric_operand_fails_cleanly(self, capsys):
        assert (
            main(["scenarios", "compose", "--op", "splice", "--a", "steady",
                  "--b", "bursty", "--at-ms", "-5"])
            == 2
        )
        assert "invalid composition" in capsys.readouterr().err
        assert (
            main(["scenarios", "compose", "--op", "scale", "--a", "steady",
                  "--arrival-factor", "0"])
            == 2
        )
        assert "invalid composition" in capsys.readouterr().err

    def test_compose_rejects_flags_the_op_does_not_use(self, capsys):
        assert (
            main(["scenarios", "compose", "--op", "mix", "--a", "steady",
                  "--b", "bursty", "--at-ms", "5000"])
            == 2
        )
        err = capsys.readouterr().err
        assert "invalid composition" in err and "does not use params" in err

    def test_compose_dump_spec_conflicts_with_execution_outputs(self, capsys, tmp_path):
        assert (
            main(["scenarios", "compose", "--a", "steady", "--dump-spec", "-",
                  "--save-trace", str(tmp_path / "t.jsonl")])
            == 2
        )
        assert "--dump-spec replaces execution" in capsys.readouterr().err
        assert main(["scenarios", "compose", "--a", "steady", "--dump-spec", "-", "--run"]) == 2
        assert "--dump-spec replaces execution" in capsys.readouterr().err

    def test_compose_dump_spec_validates_before_writing(self, capsys, tmp_path):
        # A spec that could only fail at run time must not be emitted.
        path = tmp_path / "bad.toml"
        assert (
            main(["scenarios", "compose", "--op", "splice", "--a", "steady",
                  "--b", "bursty", "--at-ms", "-5", "--dump-spec", str(path)])
            == 2
        )
        assert "invalid composition" in capsys.readouterr().err
        assert not path.exists()


class TestTraceCommands:
    def test_record_then_replay_round_trips(self, capsys, tmp_path):
        path = tmp_path / "bursty.jsonl"
        assert (
            main(["trace", "record", "--scenario", "bursty", "--seed", "2", "--out", str(path)])
            == 0
        )
        recorded = capsys.readouterr().out
        assert "recorded" in recorded and str(path) in recorded
        assert main(["trace", "replay", str(path), "--manager", "governor_only"]) == 0
        output = capsys.readouterr().out
        assert "trace fingerprint:" in output
        assert "violation rate" in output

    def test_replay_dump_spec_carries_the_absolute_path(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "steady.jsonl"
        assert main(["trace", "record", "--scenario", "steady", "--out", str(path)]) == 0
        capsys.readouterr()
        # Dump from inside the trace's directory using a relative file name:
        # the emitted spec must still pin the absolute path, so it replays
        # from any working directory.
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "replay", "steady.jsonl", "--dump-spec", "-"]) == 0
        output = capsys.readouterr().out
        assert 'scenario = "trace"' in output
        assert str(path.resolve()) in output
        assert "replatform" not in output  # platform matches the recording

    def test_replay_dump_spec_marks_platform_overrides_deliberate(self, capsys, tmp_path):
        path = tmp_path / "steady.jsonl"
        assert main(["trace", "record", "--scenario", "steady", "--out", str(path)]) == 0
        capsys.readouterr()
        assert (
            main(["trace", "replay", str(path), "--platform", "jetson_nano",
                  "--dump-spec", "-"])
            == 0
        )
        output = capsys.readouterr().out
        assert 'platform = "jetson_nano"' in output
        assert "replatform = true" in output

    def test_replay_invalid_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["trace", "replay", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_replay_invalid_record_body_fails_cleanly(self, capsys, tmp_path):
        # Valid header and JSON, bad record content: still exit 2, no traceback.
        bad = tmp_path / "bad_body.jsonl"
        bad.write_text(
            '{"format": "repro-arrival-trace", "version": 1, "duration_ms": 1000.0}\n'
            '{"record": "application", "app_id": "x", "kind": "dnn_inference", '
            '"arrival_ms": 0.0, "departure_ms": null, "memory_footprint_mb": 1.0, '
            '"requirements": {"bogus": 1}}\n',
            encoding="utf-8",
        )
        assert main(["trace", "replay", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_record_unknown_scenario_fails(self, capsys, tmp_path):
        assert (
            main(["trace", "record", "--scenario", "nope", "--out", str(tmp_path / "x.jsonl")])
            == 2
        )
        assert "unknown scenario" in capsys.readouterr().err

    def test_stats_summarises_a_recorded_trace(self, capsys, tmp_path):
        path = tmp_path / "rush.jsonl"
        assert main(["trace", "record", "--scenario", "rush_hour", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert "rush_hour_seed0 on odroid_xu3" in output
        assert "5 application(s)" in output
        assert "dnn_inference" in output and "background" in output
        assert "inter-arrival ms:" in output and "p99" in output

    def test_stats_invalid_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["trace", "stats", str(bad)]) == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_stats_missing_arrival_key_is_not_a_traceback(self, capsys, tmp_path):
        # Regression: a record without arrival_ms used to escape as a raw
        # KeyError from deep inside the loader.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"format": "repro-arrival-trace", "version": 1, "duration_ms": 1000.0}\n'
            '{"record": "application", "app_id": "a1", "kind": "background"}\n',
            encoding="utf-8",
        )
        assert main(["trace", "stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err
        assert "missing required key 'arrival_ms'" in err
        assert "a1" in err

    def test_replay_duplicate_app_id_names_the_id(self, capsys, tmp_path):
        bad = tmp_path / "dup.jsonl"
        record = (
            '{"record": "application", "app_id": "dup", "kind": "background", '
            '"arrival_ms": %s, "departure_ms": null, "memory_footprint_mb": 1.0, '
            '"requirements": {"priority": 0}, '
            '"demand": {"core_type": "cpu_little", "cores": 1, "utilisation": 0.1}}\n'
        )
        bad.write_text(
            '{"format": "repro-arrival-trace", "version": 1, "duration_ms": 1000.0}\n'
            + record % "1.0"
            + record % "2.0",
            encoding="utf-8",
        )
        assert main(["trace", "replay", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err and "duplicate app_id 'dup'" in err

    def test_stats_missing_header_version_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "nover.jsonl"
        bad.write_text(
            '{"format": "repro-arrival-trace", "duration_ms": 1000.0}\n',
            encoding="utf-8",
        )
        assert main(["trace", "stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err and "missing required key 'version'" in err

    def test_generate_then_stats_and_replay(self, capsys, tmp_path):
        path = tmp_path / "diurnal.jsonl.gz"
        assert (
            main(
                ["trace", "generate", "--out", str(path), "--duration-ms", "30000",
                 "--param", "base_rate_per_s=1.0", "--seed", "3"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "generated" in output and str(path) in output
        assert main(["trace", "stats", str(path)]) == 0
        assert "application(s)" in capsys.readouterr().out
        assert main(["trace", "replay", str(path), "--manager", "governor_only"]) == 0
        assert "trace fingerprint:" in capsys.readouterr().out

    def test_generate_arrivals_target_is_a_lower_bound(self, capsys, tmp_path):
        path = tmp_path / "sized.jsonl"
        assert (
            main(
                ["trace", "generate", "--out", str(path), "--arrivals", "300",
                 "--duration-ms", "600000"]
            )
            == 0
        )
        match = re.search(r"generated (\d+) arrival", capsys.readouterr().out)
        assert match and int(match.group(1)) >= 300

    def test_generate_rejects_bad_config(self, capsys, tmp_path):
        assert (
            main(
                ["trace", "generate", "--out", str(tmp_path / "x.jsonl"),
                 "--param", "flash_magnitude=0.1"]
            )
            == 2
        )
        assert "invalid diurnal config" in capsys.readouterr().err

    def test_stats_max_peak_mb_enforced(self, capsys, tmp_path):
        path = tmp_path / "rush.jsonl"
        assert main(["trace", "record", "--scenario", "rush_hour", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "stats", str(path), "--max-peak-mb", "64"]) == 0
        assert "within --max-peak-mb" in capsys.readouterr().out
        assert main(["trace", "stats", str(path), "--max-peak-mb", "0.0001"]) == 1
        assert "exceeds --max-peak-mb" in capsys.readouterr().err

    def test_record_accepts_scenario_params(self, capsys, tmp_path):
        path = tmp_path / "d.jsonl"
        assert (
            main(
                ["trace", "record", "--scenario", "diurnal", "--out", str(path),
                 "--param", "duration_ms=20000", "--param", "base_rate_per_s=1.0"]
            )
            == 0
        )
        assert "recorded" in capsys.readouterr().out

    def test_record_rejects_unknown_scenario_params(self, capsys, tmp_path):
        assert (
            main(
                ["trace", "record", "--scenario", "diurnal",
                 "--out", str(tmp_path / "d.jsonl"), "--param", "bogus_knob=1"]
            )
            == 2
        )
        assert "invalid scenario parameters" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_unknown_scenario_fails(self, capsys):
        assert main(["bench", "--scenarios", "nope", "--repeats", "1"]) == 2
        assert "unknown scenarios" in capsys.readouterr().err

    def test_bench_unknown_manager_fails(self, capsys):
        assert main(["bench", "--managers", "nope", "--repeats", "1"]) == 2
        assert "unknown managers" in capsys.readouterr().err

    def test_bench_runs_and_writes_json(self, capsys, tmp_path):
        from repro.analysis import load_bench_file

        output_path = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--scenarios",
                    "steady",
                    "--managers",
                    "rtm",
                    "--repeats",
                    "1",
                    "--output",
                    str(output_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "steady/rtm" in output
        assert "decide ms (cached)" in output
        document = load_bench_file(str(output_path))
        results = document["results"]["steady/rtm"]
        assert results["decide_ms_per_epoch_cached"] > 0
        assert results["e2e_s"] > 0
        assert "decide_ms_per_epoch_uncached" not in results

    def test_bench_compare_gate_passes_against_self(self, capsys, tmp_path):
        output_path = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--scenarios",
                    "steady",
                    "--managers",
                    "rtm",
                    "--repeats",
                    "1",
                    "--output",
                    str(output_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # A generous tolerance against the just-written file must pass.
        assert (
            main(
                [
                    "bench",
                    "--scenarios",
                    "steady",
                    "--managers",
                    "rtm",
                    "--repeats",
                    "1",
                    "--no-write",
                    "--compare",
                    str(output_path),
                    "--max-regression",
                    "5.0",
                ]
            )
            == 0
        )
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_fails_on_regression(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "results": {
                        "steady/rtm": {"decide_ms_per_epoch_cached": 1e-9}
                    }
                }
            )
        )
        assert (
            main(
                [
                    "bench",
                    "--scenarios",
                    "steady",
                    "--managers",
                    "rtm",
                    "--repeats",
                    "1",
                    "--no-write",
                    "--compare",
                    str(baseline),
                ]
            )
            == 1
        )
        assert "regression" in capsys.readouterr().err

    def test_bench_dump_spec_exports_the_grid(self, capsys, tmp_path):
        from repro.experiments import load_specs

        path = tmp_path / "bench.toml"
        assert (
            main(
                ["bench", "--scenarios", "steady", "rush_hour", "--managers", "rtm",
                 "--dump-spec", str(path)]
            )
            == 0
        )
        assert "replay with" in capsys.readouterr().out
        specs = load_specs(path)
        assert [spec.label for spec in specs] == ["steady/rtm/seed0", "rush_hour/rtm/seed0"]

    def test_bench_compare_missing_baseline_fails(self, capsys, tmp_path):
        assert (
            main(
                [
                    "bench",
                    "--scenarios",
                    "steady",
                    "--managers",
                    "rtm",
                    "--repeats",
                    "1",
                    "--no-write",
                    "--compare",
                    str(tmp_path / "missing.json"),
                ]
            )
            == 2
        )
        assert "cannot load baseline" in capsys.readouterr().err

    def test_bench_output_keeps_the_reference_and_recomputes_speedups(self, capsys, tmp_path):
        import json

        from repro.analysis import load_bench_file

        output_path = tmp_path / "bench.json"
        reference = {"steady/rtm": {"decide_ms_per_epoch_cached": 1e3, "e2e_s": 1e3}}
        output_path.write_text(
            json.dumps({"reference": reference, "reference_note": "older kernel", "results": {}})
        )
        args = ["bench", "--scenarios", "steady", "--managers", "rtm", "--repeats", "1"]
        assert main([*args, "--output", str(output_path)]) == 0
        assert "faster cached decide" in capsys.readouterr().out
        document = load_bench_file(str(output_path))
        assert list(document)[-3:] == ["reference", "reference_note", "speedup_vs_reference"]
        assert document["reference"] == reference
        assert document["reference_note"] == "older kernel"
        speedup = document["speedup_vs_reference"]["steady/rtm"]
        fresh = document["results"]["steady/rtm"]
        assert speedup["decide_ms_per_epoch_cached"] == round(
            1e3 / fresh["decide_ms_per_epoch_cached"], 2
        )
        assert speedup["e2e_s"] == round(1e3 / fresh["e2e_s"], 2)


#: The two single-pass benches: their command line, the grid their baseline
#: must share for the gate to apply, and their gated metric.
SINGLE_PASS_BENCHES = {
    "batched": (["bench", "--backend", "batched", "--smoke"], {"specs": 8}, "batched_s"),
    "fleet": (
        ["fleet", "bench", "--devices", "5", "--no-serial-check"],
        {"devices": 5, "scenario": "fleet_mixed_platforms"},
        "orchestrated_s",
    ),
}


class TestSinglePassBenchGates:
    """``--compare`` of ``bench --backend batched`` and ``fleet bench``."""

    def _bench(self, tmp_path, bench, **baseline_results):
        import json

        command, grid, metric = SINGLE_PASS_BENCHES[bench]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"results": {**grid, metric: 1e-9, **baseline_results}}))
        return main([*command, "--no-write", "--compare", str(baseline)])

    @pytest.mark.parametrize("bench", sorted(SINGLE_PASS_BENCHES))
    def test_gate_fails_on_a_regression(self, capsys, tmp_path, bench):
        assert self._bench(tmp_path, bench) == 1
        err = capsys.readouterr().err
        assert "regression(s) beyond 25%" in err
        assert SINGLE_PASS_BENCHES[bench][2] in err

    @pytest.mark.parametrize(
        "bench, other_grid",
        [
            ("batched", {"specs": 9}),
            ("fleet", {"devices": 6}),
            ("fleet", {"scenario": "fleet_rush_hour_regional"}),
        ],
    )
    def test_gate_skips_a_baseline_of_another_grid(self, capsys, tmp_path, bench, other_grid):
        assert self._bench(tmp_path, bench, **other_grid) == 0
        assert "no regressions beyond 25%" in capsys.readouterr().out

    @pytest.mark.parametrize("bench", sorted(SINGLE_PASS_BENCHES))
    def test_missing_baseline_is_a_usage_error(self, capsys, tmp_path, bench):
        command = SINGLE_PASS_BENCHES[bench][0]
        missing = str(tmp_path / "missing.json")
        assert main([*command, "--no-write", "--compare", missing]) == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestStoreCommands:
    """The results-store surface: --store/--resume plus the ``store`` verbs."""

    def _sweep(self, db, extra=()):
        return main(
            ["sweep", "--scenarios", "steady", "--managers", "rtm", "--store", str(db), *extra]
        )

    def test_resume_without_store_fails(self, capsys):
        assert main(["sweep", "--scenarios", "steady", "--managers", "rtm", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_sweep_store_then_resume_skips_everything(self, capsys, tmp_path):
        db = tmp_path / "results.db"
        assert self._sweep(db) == 0
        first = capsys.readouterr().out
        assert "store: 1 result(s) streamed" in first
        assert self._sweep(db, ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resume: 1 skipped (already stored), 0 computed" in second

        def digest(output: str) -> str:
            for line in output.splitlines():
                if line.startswith("combined fingerprint digest"):
                    return line.split(":")[1].strip()
            raise AssertionError(f"no digest line in {output!r}")

        assert digest(first) == digest(second)

    def test_store_ls_show_and_diff(self, capsys, tmp_path):
        db = tmp_path / "results.db"
        assert self._sweep(db) == 0
        capsys.readouterr()

        assert main(["store", "ls", str(db)]) == 0
        listing = capsys.readouterr().out
        assert "steady/rtm/seed0" in listing and "1 result(s)" in listing
        spec_id = listing.splitlines()[2].split()[0]

        assert main(["store", "show", str(db), spec_id]) == 0
        shown = capsys.readouterr().out
        assert f"spec id:     {spec_id}" in shown
        assert 'scenario = "steady"' in shown and "violation_rate" in shown

        assert main(["store", "diff", str(db), spec_id]) == 0
        assert "fingerprints match" in capsys.readouterr().out

    def test_store_diff_detects_drift(self, capsys, tmp_path):
        import sqlite3

        db = tmp_path / "results.db"
        assert self._sweep(db) == 0
        connection = sqlite3.connect(db)
        connection.execute("UPDATE results SET fingerprint = 'deadbeefdeadbeef'")
        connection.commit()
        spec_id = connection.execute("SELECT spec_id FROM results").fetchone()[0]
        connection.close()
        capsys.readouterr()
        assert main(["store", "diff", str(db), spec_id]) == 1
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_store_show_unknown_spec_id_fails(self, capsys, tmp_path):
        db = tmp_path / "results.db"
        assert self._sweep(db) == 0
        capsys.readouterr()
        assert main(["store", "show", str(db), "0" * 16]) == 1
        assert "no result for spec id" in capsys.readouterr().err

    def test_store_verbs_refuse_missing_files(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.db")
        assert main(["store", "ls", missing]) == 2
        assert "no results store" in capsys.readouterr().err
        # Read verbs must not create an empty store as a side effect.
        assert not (tmp_path / "absent.db").exists()

    def test_store_export_toml_replays_through_run(self, capsys, tmp_path):
        db = tmp_path / "results.db"
        assert self._sweep(db) == 0
        out = tmp_path / "replay.toml"
        assert main(["store", "export", str(db), "--format", "toml", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(out), "--store", str(db), "--resume"]) == 0
        replay = capsys.readouterr().out
        assert "resume: 1 skipped (already stored), 0 computed" in replay

    def test_store_gc_prunes_to_keep_latest(self, capsys, tmp_path):
        db = tmp_path / "results.db"
        assert (
            main(
                ["sweep", "--scenarios", "steady", "--managers", "rtm", "governor_only",
                 "--store", str(db)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["store", "gc", str(db), "--keep-latest", "1"]) == 0
        assert "deleted 1 result(s), kept 1" in capsys.readouterr().out

    def test_run_store_reports_digest(self, capsys, tmp_path):
        spec = tmp_path / "spec.toml"
        spec.write_text('scenario = "steady"\n')
        db = tmp_path / "results.db"
        assert main(["run", str(spec), "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "store: 1 result(s) streamed" in out
        assert "combined fingerprint digest over this batch:" in out

    def test_bench_smoke_appends_to_store(self, capsys, tmp_path):
        db = tmp_path / "bench.db"
        args = ["bench", "--smoke", "--no-write", "--store", str(db)]
        assert main(args) == 0
        assert "appended" not in capsys.readouterr().out  # no JSON file, no document
        assert main([*args, "--resume"]) == 0
        assert "resume: 1 of 1 case(s) already timed" in capsys.readouterr().out

    def test_bench_batched_rejects_resume(self, capsys, tmp_path):
        assert (
            main(
                ["bench", "--backend", "batched", "--smoke", "--no-write",
                 "--store", str(tmp_path / "b.db"), "--resume"]
            )
            == 2
        )
        assert "single timed pass" in capsys.readouterr().err
