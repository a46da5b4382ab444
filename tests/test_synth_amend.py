"""Tests for the amending repair space: override rules, composition
semantics, the amend-capable chain search and the won-root regression gate."""
import json

import pytest

from repro.algorithms import create_algorithm
from repro.algorithms.composed import ComposedAlgorithm
from repro.core.view import View, view_of
from repro.enumeration.polyhex import enumerate_connected_configurations
from repro.explore import explore
from repro.grid.directions import Direction
from repro.grid.packing import unpack_nodes, view_bitmask
from repro.io.serialization import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointSchemaError,
    load_synthesis_checkpoint,
    save_synthesis_checkpoint,
)
from repro.synth import (
    GuardRule,
    OverrideAlgorithm,
    RuleSet,
    amend_candidates,
    learned_amend_ruleset,
    learned_ruleset,
    overrides_to_ruleset,
    repair_chain,
    ruleset_algorithm,
    ruleset_layers,
    ruleset_to_overrides,
    simulate_outcome,
    simulate_to_quiescence,
    split_decisions,
    synthesize,
    transform_view,
)


def make_view(*offsets):
    return View(offsets, visibility_range=2)


# ---------------------------------------------------------------------------
# DSL: override mode and forced stays.
# ---------------------------------------------------------------------------

def test_override_rule_modes_and_validation():
    rule = GuardRule("o", (("view_eq", 33),), Direction.E, mode="override")
    assert rule.is_override
    assert not GuardRule("e", (("view_eq", 33),), Direction.E).is_override
    with pytest.raises(ValueError):
        GuardRule("bad-mode", (("view_eq", 33),), Direction.E, mode="replace")


def test_forced_stay_requires_override_mode():
    GuardRule("ok", (("view_eq", 33),), None, mode="override")
    with pytest.raises(ValueError):
        GuardRule("bad", (("view_eq", 33),), None)  # extend + stay is a no-op


def test_forced_stay_rejects_directional_atoms():
    with pytest.raises(ValueError):
        GuardRule("bad", (("conn_safe",),), None, mode="override")
    with pytest.raises(ValueError):
        GuardRule("bad", (("toward_centroid",),), None, mode="override")


def test_override_rule_serialization_round_trip():
    ruleset = RuleSet(
        "amend",
        (
            GuardRule("stay", (("view_eq", 33),), None, mode="override"),
            GuardRule("redir", (("view_eq", 65),), Direction.SW, mode="override"),
            GuardRule("add", (("view_eq", 129),), Direction.NE),
        ),
    )
    rebuilt = RuleSet.from_dict(json.loads(json.dumps(ruleset.to_dict())))
    assert rebuilt == ruleset
    assert rebuilt.has_overrides
    assert len(rebuilt.override_rules) == 2
    assert len(rebuilt.extend_rules) == 1


def test_from_dict_defaults_to_extend_mode():
    """Rule dicts written by the pre-override DSL load as extension rules."""
    legacy = {
        "rule_id": "synth:view:0x21->E",
        "atoms": [["view_eq", 33]],
        "direction": "E",
        "visibility_range": 2,
    }
    rule = GuardRule.from_dict(legacy)
    assert rule.mode == "extend"
    assert not rule.is_override


@pytest.mark.parametrize("direction", [None, Direction.SW])
def test_override_rules_are_d6_equivariant(direction):
    rule = GuardRule(
        "o", (("view_eq", make_view((1, 0), (0, 1)).bitmask()),), direction, mode="override"
    )
    views = []
    for config in enumerate_connected_configurations(5)[::11]:
        for pos in config.sorted_nodes():
            views.append(view_of(config, pos, 2))
    assert views
    for rotation in range(6):
        for reflect in (False, True):
            moved = rule.transformed(rotation, reflect)
            assert moved.mode == "override"
            for view in views:
                assert rule.matches(view) == moved.matches(
                    transform_view(view, rotation, reflect)
                )
    # Forced stays are fixed points of the group action on directions.
    if direction is None:
        assert rule.transformed(3, True).direction is None


# ---------------------------------------------------------------------------
# RuleSet layered protocol.
# ---------------------------------------------------------------------------

def test_decide_override_distinguishes_stay_from_no_match():
    view = make_view((1, 0))
    bitmask = view.bitmask()
    ruleset = RuleSet(
        "t", (GuardRule("stay", (("view_eq", bitmask),), None, mode="override"),)
    )
    matched, rule_id, move = ruleset.decide_override(view)
    assert matched and rule_id == "stay" and move is None
    other = make_view((0, 1))
    assert ruleset.decide_override(other) == (False, None, None)


def test_compute_extend_skips_override_rules():
    view = make_view((1, 0))
    bitmask = view.bitmask()
    ruleset = RuleSet(
        "t",
        (
            GuardRule("ovr", (("view_eq", bitmask),), Direction.W, mode="override"),
            GuardRule("ext", (("view_eq", bitmask),), Direction.E),
        ),
    )
    assert ruleset.compute_extend(view) == Direction.E
    assert ruleset.decide_override(view) == (True, "ovr", Direction.W)


# ---------------------------------------------------------------------------
# Composition semantics (the amending property tests).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def base():
    return create_algorithm("shibata-visibility2")


@pytest.fixture(scope="module")
def sample_views(base):
    views = []
    for config in enumerate_connected_configurations(7)[::13]:
        for pos in config.sorted_nodes():
            views.append(view_of(config, pos, 2))
    return views


def test_override_wins_exactly_when_matched(base, sample_views):
    """The pinned amending contract: on every view, a matching override rule's
    move replaces the base decision, and a non-matching one changes nothing."""
    # Pick views where the base moves, and views where it stays.
    moving = next(v for v in sample_views if base.compute(v) is not None)
    staying = next(v for v in sample_views if base.compute(v) is None)
    ruleset = RuleSet(
        "t",
        (
            GuardRule("stay", (("view_eq", moving.bitmask()),), None, mode="override"),
            GuardRule(
                "ovr", (("view_eq", staying.bitmask()),), Direction.E, mode="override"
            ),
        ),
    )
    composed = ComposedAlgorithm(base, ruleset)
    for view in sample_views:
        matched, _, move = ruleset.decide_override(view)
        if matched:
            assert composed.compute(view) == move
        else:
            assert composed.compute(view) == base.compute(view)


def test_base_behaviour_byte_identical_without_override_match(base, sample_views):
    """A rule set whose override rules never match leaves every decision —
    and therefore every execution — byte-identical to the additive layer."""
    extends = learned_ruleset()
    never_matching = GuardRule(
        "never", (("view_eq", 0), ("robots_eq", 99)), None, mode="override"
    )
    with_dead_override = RuleSet("t", (never_matching,) + extends.rules)
    assert with_dead_override.has_overrides
    additive = ComposedAlgorithm(base, extends)
    amending = ComposedAlgorithm(base, with_dead_override)
    for view in sample_views:
        assert amending.compute(view) == additive.compute(view)
        assert amending.explain(view) == additive.explain(view)


def test_override_algorithm_matches_composed_ruleset(base, sample_views):
    """The raw search-time composition and the declarative rule set agree."""
    staying = [v for v in sample_views if base.compute(v) is None]
    moving = [v for v in sample_views if base.compute(v) is not None]
    overrides = {staying[0].bitmask(): Direction.E}
    amendments = {moving[0].bitmask(): None, moving[1].bitmask(): Direction.NW}
    raw = OverrideAlgorithm(base, overrides, amendments=amendments)
    declarative = ruleset_algorithm(
        base, overrides_to_ruleset(overrides, "t", amendments=amendments)
    )
    for view in sample_views:
        assert raw.compute(view) == declarative.compute(view)


def test_ruleset_layers_inverse():
    overrides = {33: Direction.E}
    amendments = {65: None, 129: Direction.SW}
    ruleset = overrides_to_ruleset(overrides, "t", amendments=amendments)
    assert ruleset_layers(ruleset) == (overrides, amendments)
    with pytest.raises(ValueError):
        ruleset_to_overrides(ruleset)  # mixed sets need ruleset_layers


def test_override_algorithm_fingerprint_distinguishes_amendments(base):
    plain = OverrideAlgorithm(base, {33: Direction.E})
    amended = OverrideAlgorithm(base, {33: Direction.E}, amendments={65: None})
    assert plain.cache_fingerprint != amended.cache_fingerprint


# ---------------------------------------------------------------------------
# Amend-capable search.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth_algorithm():
    return create_algorithm("shibata-visibility2-synth")


@pytest.fixture(scope="module")
def disconnect_roots(synth_algorithm):
    """Roots whose FSYNC run under the additive repair still disconnects."""
    report = explore(algorithm=synth_algorithm, mode="fsync", with_witnesses=False)
    roots = [
        packed
        for packed in report.graph.roots
        if report.classification.node_class[packed] == "disconnected"
    ]
    assert len(roots) == 318  # the pinned residual class of PR 3
    return roots


def test_simulate_outcome_reports_pre_failure_vertex(synth_algorithm, disconnect_roots):
    status, settled, pre_failure = simulate_outcome(disconnect_roots[0], synth_algorithm)
    assert status == "disconnected"
    assert pre_failure != settled
    # The pre-failure vertex is connected (it is a real graph vertex) and one
    # FSYNC round ahead of it lies the disconnected state.
    legacy_status, legacy_settled = simulate_to_quiescence(
        disconnect_roots[0], synth_algorithm
    )
    assert (legacy_status, legacy_settled) == (status, settled)


def test_amend_candidates_rank_forced_stays_first(synth_algorithm, disconnect_roots):
    from repro.core.engine import move_intents

    _, _, pre_failure = simulate_outcome(disconnect_roots[0], synth_algorithm)
    positions = unpack_nodes(pre_failure)
    intents = move_intents(positions, synth_algorithm)
    assert intents  # the failure happens mid-move
    options = amend_candidates(positions, intents, visibility_range=2)
    assert options
    stays = [i for i, (_, d) in enumerate(options) if d is None]
    moves = [i for i, (_, d) in enumerate(options) if d is not None]
    assert stays and moves
    assert max(stays) < min(moves)  # every stay ranks before every redirect
    # No candidate re-proposes a mover's current printed move.
    mover_views = {
        view_bitmask(positions, pos, 2): direction for pos, direction in intents.items()
    }
    for bitmask, direction in options:
        if direction is not None and bitmask in mover_views:
            assert direction != mover_views[bitmask]


def test_amend_candidates_respect_blocked_stays(synth_algorithm, disconnect_roots):
    from repro.core.engine import move_intents

    _, _, pre_failure = simulate_outcome(disconnect_roots[0], synth_algorithm)
    positions = unpack_nodes(pre_failure)
    intents = move_intents(positions, synth_algorithm)
    baseline = amend_candidates(positions, intents, visibility_range=2)
    blocked = {(bm, "STAY") for bm, d in baseline if d is None}
    filtered = amend_candidates(positions, intents, blocked, visibility_range=2)
    assert all(d is not None for _, d in filtered)


def test_repair_chain_amends_a_disconnect_root(base, disconnect_roots):
    from repro.synth.ruleset import ruleset_layers as layers

    assigned, _ = layers(learned_ruleset())
    packed = disconnect_roots[0]
    without_amend, _ = repair_chain(packed, base, assigned, allow_amend=False)
    assert without_amend is None  # additive space provably cannot reach it
    chain, expansions = repair_chain(packed, base, assigned, allow_amend=True)
    assert chain, "the amending chain search should find a repair"
    assert expansions >= 1
    status, _ = simulate_to_quiescence(
        packed, OverrideAlgorithm(base, assigned, amendments=chain)
    )
    assert status == "gathered"


def test_split_decisions_classifies_layers(base):
    staying_view = None
    moving_view = None
    for config in enumerate_connected_configurations(7)[::17]:
        for pos in config.sorted_nodes():
            view = view_of(config, pos, 2)
            if base.compute(view) is None and staying_view is None:
                staying_view = view
            if base.compute(view) is not None and moving_view is None:
                moving_view = view
        if staying_view is not None and moving_view is not None:
            break
    pending = {
        staying_view.bitmask(): Direction.E,  # base stays: additive
        moving_view.bitmask(): Direction.NW,  # base moves: amendment
        1 << 60: None,  # forced stay: always an amendment
    }
    additive, amendments = split_decisions(pending, base)
    assert additive == {staying_view.bitmask(): Direction.E}
    assert amendments == {moving_view.bitmask(): Direction.NW, 1 << 60: None}
    # A view already holding a committed additive rule re-classifies as an
    # amendment (the override layer shadows the old rule).
    additive2, amendments2 = split_decisions(
        pending, base, assigned={staying_view.bitmask(): Direction.W}
    )
    assert additive2 == {}
    assert staying_view.bitmask() in amendments2


# ---------------------------------------------------------------------------
# The won-root regression gate, end to end on a small universe.
# ---------------------------------------------------------------------------

def test_amending_synthesis_preserves_won_roots(disconnect_roots):
    """The acceptance property at test scale: seeded amending synthesis on a
    mixed slice strictly improves and loses nothing it started with."""
    synth = create_algorithm("shibata-visibility2-synth")
    report = explore(algorithm=synth, mode="fsync", with_witnesses=False)
    ok = [
        packed
        for packed in report.graph.roots
        if report.classification.node_class[packed] in ("gathered", "safe")
    ]
    roots = [unpack_nodes(p) for p in ok[:150] + disconnect_roots[:10]]
    result = synthesize(
        base_name="shibata-visibility2",
        roots=roots,
        max_iterations=6,
        allow_amend=True,
        seed_ruleset=learned_ruleset(),
    )
    assert result.improved
    assert result.override_rules > 0
    # Nothing previously won is lost: the composed algorithm still wins every
    # root the seed composition won on this universe.
    overrides, amendments = ruleset_layers(result.ruleset)
    composed = OverrideAlgorithm(
        create_algorithm("shibata-visibility2"), overrides, amendments=amendments
    )
    for packed in ok[:150]:
        status, _ = simulate_to_quiescence(packed, composed)
        assert status == "gathered", packed


def test_amend_budget_caps_override_rules(disconnect_roots):
    synth = create_algorithm("shibata-visibility2-synth")
    report = explore(algorithm=synth, mode="fsync", with_witnesses=False)
    ok = [
        packed
        for packed in report.graph.roots
        if report.classification.node_class[packed] in ("gathered", "safe")
    ]
    roots = [unpack_nodes(p) for p in ok[:100] + disconnect_roots[:8]]
    result = synthesize(
        base_name="shibata-visibility2",
        roots=roots,
        max_iterations=4,
        allow_amend=True,
        amend_budget=2,
        seed_ruleset=learned_ruleset(),
        ssync_validate=False,
    )
    assert result.override_rules <= 2


def test_readme_amending_run_reproduces_the_committed_rule_set():
    """The README's amending reproduction finds exactly the committed artefact.

    ``learned_visibility2_amend.json`` (``shibata-visibility2-synth2``) is the
    output of this run; the run must still find the same 61 rules in the
    same order, validated under SSYNC, with all 3652 roots gathered or safe.
    """
    result = synthesize(
        base_name="shibata-visibility2",
        seed_ruleset=learned_ruleset(),
        max_iterations=50,
        chain_budget=1500,
        branch=8,
        allow_amend=True,
        amend_branch=20,
    )
    committed = learned_amend_ruleset()
    assert len(committed.rules) == 61
    assert result.ruleset.rules == committed.rules
    assert result.validated is True
    assert result.final_census == {"gathered": 1, "safe": 3651}


# ---------------------------------------------------------------------------
# Checkpoint schema versioning (the satellite fix).
# ---------------------------------------------------------------------------

def test_checkpoint_round_trips_the_amended_layer(tmp_path):
    path = tmp_path / "ckpt.json"
    save_synthesis_checkpoint(
        path,
        base="shibata-visibility2",
        assigned={33: Direction.E},
        blocked={(65, "STAY")},
        iterations=[],
        candidates_evaluated=3,
        explores=2,
        base_census={"safe": 1},
        census={"safe": 2},
        amended={129: None, 257: Direction.SW},
    )
    state = load_synthesis_checkpoint(path)
    assert state["assigned"] == {33: Direction.E}
    assert state["amended"] == {129: None, 257: Direction.SW}
    assert state["blocked"] == {(65, "STAY")}
    payload = json.loads(path.read_text())
    assert payload["version"] == CHECKPOINT_SCHEMA_VERSION


def test_old_schema_checkpoint_fails_with_clear_error(tmp_path):
    """A checkpoint written by the additive-only DSL (schema 1) must raise a
    versioned-schema error, not a KeyError."""
    path = tmp_path / "old.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "base": "shibata-visibility2",
                "assigned": {"33": "E"},
                "blocked": [],
                "iterations": [],
                "candidates_evaluated": 0,
                "explores": 0,
                "base_census": {},
                "census": {},
            }
        )
    )
    with pytest.raises(CheckpointSchemaError) as excinfo:
        load_synthesis_checkpoint(path)
    message = str(excinfo.value)
    assert "schema version 1" in message
    assert str(CHECKPOINT_SCHEMA_VERSION) in message
    assert "--resume" in message


def test_versionless_checkpoint_fails_with_clear_error(tmp_path):
    path = tmp_path / "ancient.json"
    path.write_text(json.dumps({"base": "x", "assigned": {}}))
    with pytest.raises(CheckpointSchemaError):
        load_synthesis_checkpoint(path)


def test_seed_ruleset_and_resume_are_mutually_exclusive(tmp_path):
    """A checkpoint replaces the whole search state, so a seed passed with
    resume would be silently discarded; both layers reject the combination."""
    from repro.cli import main

    line = [(i, 0) for i in range(7)]
    with pytest.raises(ValueError, match="mutually exclusive"):
        synthesize(
            base_name="shibata-visibility2",
            roots=[line],
            max_iterations=0,
            seed_ruleset=learned_ruleset(),
            checkpoint_path=tmp_path / "c.json",
            resume=True,
        )
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(
            [
                "synth",
                "--size",
                "5",
                "--seed-ruleset",
                "learned",
                "--checkpoint",
                str(tmp_path / "c.json"),
                "--resume",
                "--quiet",
            ]
        )


def test_synthesize_resume_rejects_old_checkpoint(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 1, "base": "shibata-visibility2"}))
    line = [(i, 0) for i in range(7)]
    with pytest.raises(CheckpointSchemaError):
        synthesize(
            base_name="shibata-visibility2",
            roots=[line],
            max_iterations=0,
            checkpoint_path=path,
            resume=True,
            ssync_validate=False,
        )


def test_cli_synth_resume_rejects_old_checkpoint(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 1, "base": "shibata-visibility2"}))
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "synth",
                "--base",
                "shibata-visibility2",
                "--size",
                "5",
                "--max-iterations",
                "0",
                "--checkpoint",
                str(path),
                "--resume",
                "--quiet",
            ]
        )
    assert "schema version" in str(excinfo.value)
