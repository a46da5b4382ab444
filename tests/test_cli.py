"""Tests for the command-line interface."""
import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_enumerate_small(capsys):
    assert main(["enumerate", "--size", "4"]) == 0
    out = capsys.readouterr().out
    assert "44" in out


def test_verify_two_robots(capsys):
    # With two robots every connected configuration is already gathered, so
    # the verification succeeds even for the trivial stay algorithm.
    assert main(["verify", "--algorithm", "stay", "--size", "2"]) == 0
    out = capsys.readouterr().out
    assert "configurations: 3" in out


def test_verify_json_output(capsys):
    main(["verify", "--algorithm", "stay", "--size", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["configurations"] == 3
    assert payload["gathered"] == 3


def test_trace_builtin_configuration(capsys):
    code = main(["trace", "--config", "line-e", "--ascii"])
    out = capsys.readouterr().out
    assert "outcome:" in out
    assert code in (0, 1)


def test_trace_json_configuration(capsys):
    spec = json.dumps([[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0], [6, 0]])
    code = main(["trace", "--config", spec, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] in {"gathered", "deadlock", "livelock", "disconnected", "collision", "round-limit"}
    assert code in (0, 1)


def test_trace_rejects_bad_configuration():
    with pytest.raises(SystemExit):
        main(["trace", "--config", "not-a-config"])


def test_range1_candidates_only(capsys):
    assert main(["range1", "--skip-search"]) == 0
    out = capsys.readouterr().out
    assert "east-pull" in out
    assert "fails on" in out


def test_sweep_small_grid(capsys):
    assert (
        main(
            [
                "sweep",
                "--algorithms",
                "stay",
                "--size",
                "3",
                "--max-rounds-grid",
                "50",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "stay" in out


def test_explore_output_file_holds_valid_json(tmp_path, capsys):
    output = tmp_path / "explore.json"
    code = main(
        [
            "explore",
            "--algorithm",
            "shibata-visibility2",
            "--size",
            "5",
            "--no-witnesses",
            "--output",
            str(output),
        ]
    )
    assert code in (0, 1)
    payload = json.loads(output.read_text())
    assert "root_census" in payload
    assert sum(payload["root_census"].values()) == 186
    # stdout keeps the human-readable summary, never the JSON payload.
    out = capsys.readouterr().out
    assert "root_census" in out
    assert not out.lstrip().startswith("{")


def test_explore_json_with_output_keeps_stdout_clean(tmp_path, capsys):
    output = tmp_path / "explore.json"
    code = main(
        [
            "explore",
            "--algorithm",
            "shibata-visibility2",
            "--size",
            "4",
            "--no-witnesses",
            "--json",
            "--output",
            str(output),
        ]
    )
    assert code in (0, 1)
    assert json.loads(output.read_text())
    assert capsys.readouterr().out == ""


def test_exit_codes_documented_in_help(capsys):
    for command in ("verify", "trace", "explore", "synth", "range1"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "exit codes:" in capsys.readouterr().out


def test_synth_cli_requires_checkpoint_for_resume():
    with pytest.raises(SystemExit):
        main(["synth", "--resume"])


def test_synth_cli_small_run(tmp_path, capsys):
    output = tmp_path / "synth.json"
    ruleset_path = tmp_path / "rules.json"
    code = main(
        [
            "synth",
            "--base",
            "shibata-visibility2[minus-R3c]",
            "--size",
            "5",
            "--max-iterations",
            "2",
            "--chain-budget",
            "100",
            "--max-depth",
            "12",
            "--branch",
            "4",
            "--quiet",
            "--output",
            str(output),
            "--save-ruleset",
            str(ruleset_path),
        ]
    )
    assert code in (0, 1, 2)
    payload = json.loads(output.read_text())
    assert payload["base"] == "shibata-visibility2[minus-R3c]"
    assert "progress" in payload
    assert "ruleset" in payload
    assert ruleset_path.exists()
    # stdout shows the progress table, not raw JSON.
    out = capsys.readouterr().out
    assert "final_ok" in out


def test_synth_algorithm_available_for_other_commands(capsys):
    # The registered synth algorithm plugs into every driver; a 3-robot
    # universe cannot gather (the predicate needs seven robots), so the exit
    # code reports failure while the report itself is complete.
    assert main(["verify", "--algorithm", "shibata-visibility2-synth", "--size", "3"]) == 1
    out = capsys.readouterr().out
    assert "configurations: 11" in out


def test_synth2_algorithm_available_for_other_commands(capsys):
    assert main(["verify", "--algorithm", "shibata-visibility2-synth2", "--size", "3"]) == 1
    out = capsys.readouterr().out
    assert "configurations: 11" in out


def test_synth_cli_allow_amend_small_run(tmp_path, capsys):
    output = tmp_path / "amend.json"
    code = main(
        [
            "synth",
            "--base",
            "shibata-visibility2[minus-R3c]",
            "--size",
            "5",
            "--max-iterations",
            "2",
            "--chain-budget",
            "100",
            "--max-depth",
            "12",
            "--branch",
            "4",
            "--allow-amend",
            "--amend-branch",
            "8",
            "--amend-budget",
            "4",
            "--quiet",
            "--output",
            str(output),
        ]
    )
    assert code in (0, 1, 2)
    payload = json.loads(output.read_text())
    assert payload["override_rules"] <= 4
    assert "override_rules" in payload["progress"]


def test_synth_cli_seed_ruleset(tmp_path, capsys):
    """--seed-ruleset learned starts from the committed additive repair."""
    output = tmp_path / "seeded.json"
    code = main(
        [
            "synth",
            "--base",
            "shibata-visibility2",
            "--size",
            "5",
            "--max-iterations",
            "0",
            "--seed-ruleset",
            "learned",
            "--no-ssync-validate",
            "--quiet",
            "--output",
            str(output),
        ]
    )
    assert code in (0, 1, 2)
    payload = json.loads(output.read_text())
    assert payload["rules"] == 35  # the seed survives a zero-iteration run


def test_synth_cli_rejects_unreadable_seed_ruleset(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "synth",
                "--size",
                "5",
                "--seed-ruleset",
                str(tmp_path / "missing.json"),
                "--quiet",
            ]
        )


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "repro-gathering" in out
    assert __version__.split(".")[0] in out  # metadata and source agree on major


def test_telemetry_manifest_trace_and_run_id_correlation(tmp_path, capsys):
    from repro import obs

    telemetry = tmp_path / "telemetry.json"
    trace = tmp_path / "trace.jsonl"
    obs.export_delta()  # isolate this invocation's counts
    assert (
        main(
            [
                "sweep",
                "--size",
                "4",
                "--max-rounds-grid",
                "200",
                "--telemetry",
                str(telemetry),
                "--trace",
                str(trace),
            ]
        )
        == 0
    )
    capsys.readouterr()

    payload = json.loads(telemetry.read_text())
    assert obs.validate_telemetry(payload) == []
    manifest = payload["manifest"]
    assert manifest["command"] == "sweep"
    assert manifest["args"]["size"] == 4
    assert manifest["exit_status"] == 0
    assert manifest["wall_seconds"] >= manifest["cpu_seconds"] >= 0
    # The snapshot reconciles with the ground truth: 44 connected
    # four-robot configurations, each swept exactly once.
    assert payload["metrics"]["counters"]["runner.configurations"] == 44
    # Every trace record carries the manifest's run id.
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records, "the sweep must emit at least the runner.batch span"
    assert {record["run"] for record in records} == {manifest["run_id"]}
    assert any(record["name"] == "runner.batch" for record in records)

    # An explore's telemetry covers all three of its stages.
    telemetry.unlink()
    trace.unlink()
    status = main(
        ["explore", "--size", "4", "--mode", "ssync",
         "--telemetry", str(telemetry), "--trace", str(trace)]
    )
    assert status in (0, 1)  # 1: not every root gathers
    capsys.readouterr()
    histograms = json.loads(telemetry.read_text())["metrics"]["histograms"]
    spans = {
        record["name"]: record
        for record in map(json.loads, trace.read_text().splitlines())
        if record["kind"] == "span"
    }
    for stage in ("explore.build", "explore.classify", "explore.witness"):
        assert histograms[f"span.{stage}.seconds"]["count"] >= 1
        assert stage in spans
    assert spans["explore.classify"]["attrs"]["vertices"] > 0
    assert spans["explore.witness"]["attrs"]["witnesses"] >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--size", "0"],
        ["verify", "--size", "0"],
        ["sweep", "--size", "-1"],
        ["explore", "--size", "0"],
        ["synth", "--size", "-3"],
        ["verify", "--workers", "-1"],
        ["sweep", "--workers", "0"],
        ["explore", "--workers", "0"],
        ["serve", "--workers", "0"],
    ],
)
def test_size_and_workers_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "must be at least 1" in err


def test_synth_has_no_workers_flag(capsys):
    # The chain search runs in one process: synth takes no --workers.
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-rounds"],
        ["trace", "--max-rounds"],
        ["explore", "--max-nodes"],
        ["sweep", "--sample"],
        ["sweep", "--max-rounds-grid"],
    ],
)
def test_budget_flags_must_be_positive(argv, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [value])
    assert excinfo.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_max_rounds_grid_checks_every_entry(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--max-rounds-grid", "50,x"])
    assert excinfo.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_kernel_choices_are_the_engine_kernels(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--kernel", "reference"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'reference'" in capsys.readouterr().err


def test_size_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--size", "seven"])
    assert excinfo.value.code == 2
    assert "invalid int value: 'seven'" in capsys.readouterr().err
