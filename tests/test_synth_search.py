"""Tests for candidate generation, targeted replay and the chain search."""
import pytest

from repro.algorithms import create_algorithm
from repro.algorithms.guards import connectivity_safe
from repro.core.view import View
from repro.grid.directions import Direction
from repro.grid.packing import pack_nodes, unpack_nodes, view_bitmask
from repro.synth.search import (
    candidate_moves,
    propose_chain_list,
    repair_chain,
    simulate_to_quiescence,
)
from repro.synth.ruleset import OverrideAlgorithm

#: A line of seven robots: gathers under the full algorithm.
LINE7 = tuple((i, 0) for i in range(7))


@pytest.fixture(scope="module")
def base():
    return create_algorithm("shibata-visibility2")


@pytest.fixture(scope="module")
def ablated():
    return create_algorithm("shibata-visibility2[minus-R3c]")


def stuck_terminal(algorithm):
    """A terminal deadlock configuration of ``algorithm`` from the line root."""
    status, packed = simulate_to_quiescence(pack_nodes(LINE7), algorithm)
    return status, packed


# ---------------------------------------------------------------------------
# Candidate generation.
# ---------------------------------------------------------------------------

def test_candidate_moves_respect_safety_guards():
    positions = LINE7
    for bitmask, direction in candidate_moves(positions):
        view = View.from_bitmask(bitmask, 2)
        assert not view.occupied(direction.value)  # target is empty
        assert connectivity_safe(view, direction)


def test_candidate_moves_skip_blocked_pairs():
    positions = LINE7
    baseline = candidate_moves(positions)
    assert baseline
    blocked = {(bitmask, direction.name) for bitmask, direction in baseline}
    assert candidate_moves(positions, blocked) == []


def test_candidate_moves_prefer_centroid_approach():
    # The westmost robot of an east-pointing line: east approaches the
    # centroid and must be ranked before west-ish retreats for the same view.
    ranked = candidate_moves(LINE7)
    west_end_view = view_bitmask(LINE7, (0, 0), 2)
    directions = [d for bm, d in ranked if bm == west_end_view]
    assert directions, "west-end robot should have candidates"
    assert directions[0] in (Direction.E, Direction.NE, Direction.SE)


# ---------------------------------------------------------------------------
# Targeted replay.
# ---------------------------------------------------------------------------

def test_simulate_gathers_under_full_algorithm(base):
    status, packed = simulate_to_quiescence(pack_nodes(LINE7), base)
    assert status == "gathered"
    assert len(unpack_nodes(packed)) == 7


def test_simulate_detects_stuck_configuration(ablated):
    # Some root deadlocks once R3c is deleted; find one via the explorer.
    from repro.explore import explore

    report = explore(algorithm=ablated, mode="fsync", with_witnesses=False)
    deadlock_roots = [
        packed
        for packed in report.graph.roots
        if report.classification.node_class[packed] == "deadlock"
    ]
    assert deadlock_roots
    status, settled = simulate_to_quiescence(deadlock_roots[0], ablated)
    assert status == "stuck"


# ---------------------------------------------------------------------------
# Chain repair.
# ---------------------------------------------------------------------------

def test_repair_chain_trivial_when_already_gathering(base):
    chain, expansions = repair_chain(pack_nodes(LINE7), base, {})
    assert chain == {}  # nothing to add: the execution already gathers


def test_repair_chain_unsticks_an_ablated_deadlock(ablated, base):
    from repro.explore import explore

    report = explore(algorithm=ablated, mode="fsync", with_witnesses=False)
    deadlock_roots = [
        packed
        for packed in report.graph.roots
        if report.classification.node_class[packed] == "deadlock"
    ]
    packed = deadlock_roots[0]
    chain, expansions = repair_chain(packed, ablated, {})
    assert chain, "the chain search should find a repair"
    assert expansions >= 1
    # Replaying with the chain installed must now gather.
    status, _ = simulate_to_quiescence(packed, OverrideAlgorithm(ablated, chain))
    assert status == "gathered"


def test_repair_chain_respects_budget(ablated):
    from repro.explore import explore

    report = explore(algorithm=ablated, mode="fsync", with_witnesses=False)
    deadlock_roots = [
        packed
        for packed in report.graph.roots
        if report.classification.node_class[packed] == "deadlock"
    ]
    chain, expansions = repair_chain(deadlock_roots[0], ablated, {}, budget=0)
    assert chain is None
    assert expansions == 0


def test_propose_chain_list_serial(ablated):
    from repro.explore import explore
    from repro.explore.transitions import TERMINAL_DEADLOCK

    report = explore(algorithm=ablated, mode="fsync", with_witnesses=False)
    terminals = [
        packed
        for packed, kind in report.graph.terminal.items()
        if kind == TERMINAL_DEADLOCK
    ][:5]
    chains, expansions = propose_chain_list(terminals, ablated, {})
    assert chains
    assert expansions > 0
    for terminal, chain in chains:
        assert terminal in terminals
        for bitmask, direction in chain.items():
            assert isinstance(bitmask, int)
            assert isinstance(direction, Direction)


def test_propose_chain_list_shares_candidate_lists(base, monkeypatch):
    """One ``candidate_moves`` call per distinct stuck configuration, same chains.

    The searches of the base's deadlock terminals reach common stuck points;
    sharing their candidate lists must not change any chain or the
    expansion count, which still counts every expanded point.
    """
    from repro.explore import explore
    from repro.explore.transitions import TERMINAL_DEADLOCK
    from repro.synth import search

    report = explore(algorithm=base, mode="fsync", with_witnesses=False)
    terminals = sorted(
        packed
        for packed, kind in report.graph.terminal.items()
        if kind == TERMINAL_DEADLOCK
    )[:40]
    alone = [repair_chain(packed, base, {}, kernel="table") for packed in terminals]
    calls = []
    real = search.candidate_moves
    monkeypatch.setattr(
        search,
        "candidate_moves",
        lambda positions, *rest: calls.append(positions) or real(positions, *rest),
    )
    chains, expansions = propose_chain_list(terminals, base, {}, kernel="table")
    assert chains == [(packed, chain) for packed, (chain, _) in zip(terminals, alone) if chain]
    assert expansions == sum(count for _, count in alone)
    assert len(calls) == len(set(map(tuple, calls))) < expansions
