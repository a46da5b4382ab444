"""End-to-end tests of the CEGIS loop: deleted-guard recovery, checkpointing
and the committed ``shibata-visibility2-synth`` rule set."""
import json

import pytest

from repro.algorithms import create_algorithm
from repro.analysis.synth_progress import THEOREM2_TARGET, synth_progress
from repro.explore import explore
from repro.io.serialization import (
    load_synthesis_checkpoint,
    synthesis_to_dict,
)
from repro.synth import (
    learned_ruleset,
    load_ruleset,
    overrides_to_ruleset,
    result_algorithm,
    ruleset_to_overrides,
    save_ruleset,
    synthesize,
)
from repro.grid.directions import Direction

#: The deleted-guard base of the recovery example: Algorithm 1 with the
#: printed anti-standstill rule R3c removed.
ABLATED = "shibata-visibility2[minus-R3c]"


@pytest.fixture(scope="module")
def recovery_result(recovery_roots):
    return synthesize(
        base_name=ABLATED,
        roots=recovery_roots,
        max_iterations=4,
        chain_budget=300,
        max_depth=20,
        branch=4,
    )


def test_recovers_deleted_guard(recovery_result, recovery_roots):
    """The CEGIS loop repairs every root the deleted guard broke."""
    result = recovery_result
    assert result.base_ok == 0  # every restricted root deadlocks at first
    assert result.improved
    assert result.final_ok == len(recovery_roots)
    assert set(result.final_census) <= {"gathered", "safe"}
    assert len(result.ruleset) > 0
    # Validation: exhaustively collision- and livelock-free under SSYNC too.
    assert result.validated is True
    assert result.ssync_census is not None
    assert result.ssync_census.get("collision", 0) == 0
    assert result.ssync_census.get("livelock", 0) == 0


def test_recovery_composes_and_replays(recovery_result, recovery_roots):
    algorithm = result_algorithm(recovery_result)
    report = explore(algorithm=algorithm, roots=recovery_roots, with_witnesses=False)
    assert set(report.root_census) <= {"gathered", "safe"}


def test_synthesis_summary_and_serialization(recovery_result):
    payload = synthesis_to_dict(recovery_result)
    assert payload["improved"] is True
    assert payload["rules"] == len(recovery_result.ruleset)
    assert payload["iteration_history"]
    text = json.dumps(payload)  # JSON-safe end to end
    assert "ruleset" in json.loads(text)


def test_synth_progress_reconciliation(recovery_result, recovery_roots):
    progress = synth_progress(recovery_result)
    assert progress["target"] == len(recovery_roots)
    assert progress["base_ok"] == 0
    assert progress["final_ok"] == len(recovery_roots)
    assert progress["rescued"] == len(recovery_roots)
    assert progress["remaining_gap"] == 0
    assert progress["theorem2_reached"] is True
    assert progress["ssync_safe"] is True


def test_workers_keyword_starts_no_pool(monkeypatch, recovery_roots, recovery_result):
    """``workers`` is accepted and ignored: the chain search runs in process."""
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("synthesize must not start a process pool")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    result = synthesize(
        base_name=ABLATED,
        roots=recovery_roots,
        max_iterations=4,
        chain_budget=300,
        max_depth=20,
        branch=4,
        workers=2,
    )
    timing = ("elapsed_seconds", "candidates_per_second")

    def untimed(summary):
        return {key: value for key, value in summary.items() if key not in timing}

    assert result.ruleset == recovery_result.ruleset
    assert untimed(result.summary()) == untimed(recovery_result.summary())


def test_ssync_gate_baseline_is_the_accepted_composition(monkeypatch, recovery_roots):
    """The SSYNC regression baseline judges what was accepted, not the trial.

    On the table path the gate's SSYNC verdicts are row verdicts
    (:meth:`SuccessorTable.ssync_verdict`); each is recorded by the move
    codes of the table it judges, i.e. by its composition.
    """
    np = pytest.importorskip("numpy")
    from repro.core.table_kernel import SuccessorTable

    judged = []
    real_verdict = SuccessorTable.ssync_verdict

    def recording_verdict(self, root_rows):
        judged.append(self.codes.copy())
        return real_verdict(self, root_rows)

    monkeypatch.setattr(SuccessorTable, "ssync_verdict", recording_verdict)
    result = synthesize(
        base_name=ABLATED,
        roots=recovery_roots,
        max_iterations=1,
        chain_budget=300,
        max_depth=20,
        branch=4,
    )
    assert result.improved
    # Nothing is accepted before the first gated trial, so the baseline is
    # the bare base; the trial it gates carries the chain.
    baseline, trial = judged[0], judged[1]
    assert np.array_equal(baseline, SuccessorTable.build(create_algorithm(ABLATED), 7).codes)
    assert not np.array_equal(trial, baseline)


def _colliding_seed():
    """A one-root state space and a seed rule set that fails SSYNC validation.

    The root is quiescent under the paper's algorithm.  The first rule walks
    one of its robots onto a neighbour that stays (a collision under every
    schedule); the second is a stay view of another configuration, which
    the root never reaches, so it never fires.
    """
    from repro.core.table_kernel import KIND_DEADLOCK, successor_table
    from repro.core.view import View
    from repro.grid.packing import view_bitmask

    np = pytest.importorskip("numpy")
    base = create_algorithm("shibata-visibility2")
    table = successor_table(base, 7)
    deadlocks = np.flatnonzero(table.kind == KIND_DEADLOCK)
    nodes, other = (
        [tuple(map(int, p)) for p in table.view.positions[int(row)]]
        for row in (deadlocks[0], deadlocks[-1])
    )
    colliding = view_bitmask(nodes, nodes[0], 2)
    idle = view_bitmask(other, other[0], 2)
    assert idle not in {view_bitmask(nodes, p, 2) for p in nodes}
    onto = next(d for d in Direction if View.from_bitmask(colliding, 2).occupied(d.value))
    away = next(d for d in Direction if not View.from_bitmask(idle, 2).occupied(d.value))
    seed = overrides_to_ruleset({colliding: onto, idle: away}, "colliding-seed", 2)
    return base, [nodes], seed, (colliding, onto.name)


def test_failing_ssync_validation_gets_witnesses_and_blames_a_rule(monkeypatch):
    """A validation whose row verdict finds a collision explores with witnesses
    (and only then), blames the rule that fired, and ends as the packed
    kernel does."""
    from repro.synth import cegis

    base, roots, seed, colliding = _colliding_seed()
    explored = []
    real_explore = cegis.explore

    def recording_explore(*args, **kwargs):
        explored.append((kwargs["mode"], kwargs["with_witnesses"]))
        return real_explore(*args, **kwargs)

    monkeypatch.setattr(cegis, "explore", recording_explore)
    results = {}
    for kernel in ("table", "packed"):
        explored.clear()
        results[kernel] = synthesize(
            base=base, roots=roots, max_iterations=0, seed_ruleset=seed, kernel=kernel
        )
        if kernel == "table":
            # Two validations; only the failing one builds a graph.
            assert explored == [("ssync", True)]
    table, packed = results["table"], results["packed"]
    assert table.blocked == packed.blocked == {colliding}
    assert table.ruleset.rules == packed.ruleset.rules
    assert len(table.ruleset) == 1  # the idle rule survives
    assert table.validated is packed.validated is True
    assert table.ssync_census == packed.ssync_census == {"deadlock": 1}
    assert table.explores == packed.explores == 5


def test_spent_refinement_budget_still_validates_the_returned_rules():
    """With only the colliding rule seeded there is one blame round.  It
    removes the rule; the bare base the run returns is then validated, so
    ``validated`` and ``ssync_census`` describe the returned (empty) rule
    set, not the composition the round removed."""
    base, roots, _, (colliding, onto) = _colliding_seed()
    seed = overrides_to_ruleset({colliding: Direction[onto]}, "colliding-only", 2)
    for kernel in ("table", "packed"):
        result = synthesize(
            base=base, roots=roots, max_iterations=0, seed_ruleset=seed, kernel=kernel
        )
        assert len(result.ruleset) == 0, kernel
        assert result.blocked == {(colliding, onto)}, kernel
        assert result.validated is True, kernel
        assert result.ssync_census == {"deadlock": 1}, kernel


def test_perfbench_synth_run_is_pinned(monkeypatch):
    """The benchmark's synth-cegis run (``perfbench/child.py``'s arguments)
    does exactly the work the benchmark checks for, and on the table path
    its gate builds no transition graph."""
    import hashlib

    from repro.core.engine import default_kernel
    from repro.synth import cegis

    explored = []
    real_explore = cegis.explore

    def recording_explore(*args, **kwargs):
        explored.append(kwargs["mode"])
        return real_explore(*args, **kwargs)

    monkeypatch.setattr(cegis, "explore", recording_explore)
    result = synthesize(
        base_name="shibata-visibility2",
        size=7,
        max_iterations=1,
        chain_budget=600,
        max_depth=30,
        branch=6,
        workers=1,
        ssync_validate=True,
        allow_amend=False,
        amend_branch=10,
        kernel="auto",
    )
    digest = hashlib.sha256(
        json.dumps(result.ruleset.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert result.explores == 117
    assert result.candidates_evaluated == 309
    assert result.final_ok == 2652
    assert result.extend_rules == 7
    assert result.validated is True
    assert digest == "a1fd7d748d596ae8c036034d416c42cc2a1f68049b4bdbc25d9f71a2eb442926"
    if default_kernel() == "table":
        assert explored == []


def test_checkpoint_round_trip_and_resume(tmp_path, recovery_roots):
    checkpoint = tmp_path / "synth.ckpt.json"
    first = synthesize(
        base_name=ABLATED,
        roots=recovery_roots,
        max_iterations=2,
        chain_budget=300,
        max_depth=20,
        branch=4,
        ssync_validate=False,
        checkpoint_path=checkpoint,
    )
    assert checkpoint.exists()
    state = load_synthesis_checkpoint(checkpoint)
    assert state["base"] == ABLATED
    assert len(state["assigned"]) == len(first.ruleset)
    assert state["iterations"]

    # Resuming with a zero-iteration budget reproduces the committed rule set
    # without redoing the search.
    resumed = synthesize(
        base_name=ABLATED,
        roots=recovery_roots,
        max_iterations=0,
        ssync_validate=False,
        checkpoint_path=checkpoint,
        resume=True,
    )
    assert resumed.ruleset.rules == first.ruleset.rules
    assert resumed.final_ok == first.final_ok


def test_checkpoint_base_mismatch_rejected(tmp_path, recovery_roots):
    checkpoint = tmp_path / "synth.ckpt.json"
    synthesize(
        base_name=ABLATED,
        roots=recovery_roots[:5],
        max_iterations=1,
        ssync_validate=False,
        checkpoint_path=checkpoint,
    )
    with pytest.raises(ValueError):
        synthesize(
            base_name="shibata-visibility2",
            roots=recovery_roots[:5],
            max_iterations=1,
            checkpoint_path=checkpoint,
            resume=True,
        )


def test_ruleset_save_load_round_trip(tmp_path, recovery_result):
    path = tmp_path / "rules.json"
    save_ruleset(recovery_result.ruleset, path)
    rebuilt = load_ruleset(path)
    assert rebuilt == recovery_result.ruleset
    assert ruleset_to_overrides(rebuilt) == ruleset_to_overrides(recovery_result.ruleset)


def test_overrides_ruleset_inverse():
    overrides = {33: Direction.E, 129: Direction.SW}
    ruleset = overrides_to_ruleset(overrides, "t")
    assert ruleset_to_overrides(ruleset) == overrides


# ---------------------------------------------------------------------------
# The committed learned rule set (the registered algorithm).
# ---------------------------------------------------------------------------

def test_learned_ruleset_loads():
    ruleset = learned_ruleset()
    assert len(ruleset) > 0
    for rule in ruleset.rules:
        assert rule.atoms[0][0] == "view_eq"


def test_registered_synth_algorithm_beats_the_base():
    """The PR 3 acceptance criterion: strictly more than 1895/3652 gathered,
    0 collision / 0 livelock under adversarial SSYNC exploration."""
    from repro.analysis.census_pins import pinned_census

    algorithm = create_algorithm("shibata-visibility2-synth")
    assert algorithm.name == "shibata-visibility2-synth"

    fsync = explore(algorithm=algorithm, mode="fsync", with_witnesses=False)
    census = fsync.root_census
    ok = census.get("gathered", 0) + census.get("safe", 0)
    assert sum(census.values()) == THEOREM2_TARGET
    assert ok > 1895
    # The census recorded in ROADMAP.md and repro.analysis.census_pins.
    assert census == pinned_census("shibata-visibility2-synth", "fsync")

    ssync = explore(algorithm=algorithm, mode="ssync", with_witnesses=False)
    assert ssync.root_census.get("collision", 0) == 0
    assert ssync.root_census.get("livelock", 0) == 0
    assert ssync.root_census == pinned_census("shibata-visibility2-synth", "ssync")


def test_registered_synth2_algorithm_reaches_theorem2():
    """The move-amending repair closes Theorem 2 exactly: every one of the
    3652 connected roots gathers — under FSYNC and under every adversarial
    activation schedule — and the won-root regression gate holds: synth2
    wins a strict superset of the roots synth wins."""
    from repro.analysis.census_pins import pinned_census

    algorithm = create_algorithm("shibata-visibility2-synth2")
    assert algorithm.name == "shibata-visibility2-synth2"

    fsync = explore(algorithm=algorithm, mode="fsync", with_witnesses=False)
    assert fsync.root_census == pinned_census("shibata-visibility2-synth2", "fsync")
    assert fsync.root_census == {"gathered": 1, "safe": 3651}  # Theorem 2, exactly
    assert fsync.all_roots_gather

    ssync = explore(algorithm=algorithm, mode="ssync", with_witnesses=False)
    assert ssync.root_census == pinned_census("shibata-visibility2-synth2", "ssync")
    assert ssync.all_roots_gather  # stronger than the paper: SSYNC-robust too

    # The regression gate, pinned: no root won by the additive repair is lost.
    synth_fsync = explore(
        algorithm=create_algorithm("shibata-visibility2-synth"),
        mode="fsync",
        with_witnesses=False,
    )
    won_synth = {
        packed
        for packed in synth_fsync.graph.roots
        if synth_fsync.classification.node_class[packed] in ("gathered", "safe")
    }
    won_synth2 = {
        packed
        for packed in fsync.graph.roots
        if fsync.classification.node_class[packed] in ("gathered", "safe")
    }
    assert won_synth < won_synth2
    assert len(won_synth2) == THEOREM2_TARGET


def test_learned_amend_ruleset_layers():
    """The committed amending artefact mixes both rule modes."""
    from repro.synth import learned_amend_ruleset

    ruleset = learned_amend_ruleset()
    assert ruleset.has_overrides
    assert len(ruleset.override_rules) > 0
    assert len(ruleset.extend_rules) > 0
    assert len(ruleset) == len(ruleset.override_rules) + len(ruleset.extend_rules)
    # Forced stays are part of the repair space and present in the artefact.
    assert any(rule.direction is None for rule in ruleset.override_rules)


def test_synth2_progress_reports_theorem2_reached():
    from repro.analysis.census_pins import pinned_census

    progress = synth_progress(
        {
            "base": "shibata-visibility2",
            "base_census": pinned_census("shibata-visibility2", "fsync"),
            "census": pinned_census("shibata-visibility2-synth2", "fsync"),
            "ssync_census": pinned_census("shibata-visibility2-synth2", "ssync"),
            "rules": 61,
            "override_rules": 26,
            "validated": True,
        }
    )
    assert progress["theorem2_reached"] is True
    assert progress["remaining_gap"] == 0
    assert progress["ssync_safe"] is True
    assert progress["override_rules"] == 26


def test_resume_with_missing_checkpoint_raises(tmp_path, recovery_roots):
    with pytest.raises(FileNotFoundError):
        synthesize(
            base_name=ABLATED,
            roots=recovery_roots[:5],
            max_iterations=1,
            checkpoint_path=tmp_path / "never-written.json",
            resume=True,
        )
