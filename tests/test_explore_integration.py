"""End-to-end explorer tests: the acceptance criterion of the subsystem.

The FSYNC transition graph is functional, so its root classification must
reconcile *exactly* with the exhaustive per-run sweep (experiment E2): 1895
configurations gather (1 already-gathered + 1894 safe), 1365 deadlock and 392
disconnect, out of the 3652 connected initial configurations.
"""
import json

import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.analysis.model_checking import reconcile_with_sweep, sweep_equivalent_census
from repro.cli import main
from repro.core.runner import run_many
from repro.enumeration.polyhex import enumerate_canonical_node_sets
from repro.explore import explore
from repro.viz.ascii_art import render_witness


@pytest.fixture(scope="module")
def fsync_report():
    return explore(algorithm_name="shibata-visibility2", size=7, mode="fsync")


@pytest.fixture(scope="module")
def exhaustive_sweep():
    return run_many(
        enumerate_canonical_node_sets(7),
        algorithm=ShibataGatheringAlgorithm(),
        max_rounds=600,
    )


def test_explorer_classifies_all_3652_roots(fsync_report):
    census = fsync_report.root_census
    assert sum(census.values()) == 3652
    assert census == {
        "gathered": 1,
        "safe": 1894,
        "deadlock": 1365,
        "disconnected": 392,
    }
    assert not fsync_report.graph.truncated


def test_explorer_reconciles_exactly_with_sweep(fsync_report, exhaustive_sweep):
    result = reconcile_with_sweep(fsync_report, exhaustive_sweep)
    assert result["matches"], result["differences"]
    assert result["explorer"] == {
        "gathered": 1895,
        "deadlock": 1365,
        "disconnected": 392,
    }
    assert result["configurations"] == 3652


def test_explorer_emits_witness_per_failing_class(fsync_report):
    failing = set(fsync_report.root_census) - {"gathered", "safe"}
    assert failing == {"deadlock", "disconnected"}
    for kind in failing:
        witness = fsync_report.witnesses[kind]
        text = render_witness(witness)
        assert f"outcome: {kind}" in text


def test_reconcile_rejects_ssync_reports():
    report = explore(algorithm_name="shibata-visibility2", size=4, mode="ssync")
    sweep = run_many(
        enumerate_canonical_node_sets(4),
        algorithm=ShibataGatheringAlgorithm(),
        max_rounds=200,
    )
    with pytest.raises(ValueError, match="FSYNC"):
        reconcile_with_sweep(report, sweep)


def test_sweep_equivalent_census_folds_safe_into_gathered():
    census = sweep_equivalent_census({"gathered": 1, "safe": 10, "deadlock": 2})
    assert census == {"deadlock": 2, "gathered": 11}


def test_explore_parallel_workers_match_serial():
    serial = explore(algorithm_name="shibata-visibility2", size=5, mode="ssync")
    parallel = explore(
        algorithm_name="shibata-visibility2",
        size=5,
        mode="ssync",
        workers=2,
        chunk_size=16,
    )
    assert serial.root_census == parallel.root_census
    assert serial.node_census == parallel.node_census


# -------------------------------------------------------------------- the CLI

def test_cli_explore_text_output(capsys):
    exit_code = main(
        ["explore", "--algorithm", "shibata-visibility2", "--size", "4", "--ascii"]
    )
    out = capsys.readouterr().out
    assert "root_census" in out
    assert exit_code == 1  # not all size-4 configurations gather


def test_cli_explore_json_output(capsys):
    exit_code = main(
        [
            "explore",
            "--algorithm",
            "shibata-visibility2",
            "--size",
            "4",
            "--mode",
            "ssync",
            "--json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["roots"] == 44
    assert payload["mode"] == "ssync"
    assert sum(payload["root_census"].values()) == 44
    assert set(payload["witnesses"]) == set(payload["witness_kinds"])
    assert exit_code == 1


def test_cli_explore_max_nodes_truncates(capsys):
    main(
        [
            "explore",
            "--algorithm",
            "shibata-visibility2",
            "--size",
            "5",
            "--max-nodes",
            "10",
            "--json",
            "--no-witnesses",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["truncated"] is True
    assert "witnesses" not in payload


def test_cli_explore_rejects_bad_max_nodes():
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--max-nodes", "0"])
    assert excinfo.value.code == 2
