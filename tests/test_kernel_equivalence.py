"""The packed kernel must be an exact drop-in for the reference engine.

The memoized packed kernel (``kernel="packed"``) and the seed View-object
engine (the oracle :func:`oracles.reference_execution`) implement the same
semantics; these tests prove it empirically on random samples of the
enumerated connected configurations for **every registered algorithm**,
comparing outcome, round count, move totals, final configuration and (on a
subsample) the full per-round move sequence.  Collision semantics of the
packed path get direct unit tests in ``test_engine_packed_collisions.py``.
"""
import random

import pytest

from repro.algorithms import available_algorithms, create_algorithm
from repro.core.configuration import Configuration
from repro.core.engine import run_execution
from repro.core.scheduler import RoundRobinScheduler
from repro.enumeration.polyhex import enumerate_connected_configurations

from oracles import reference_execution, reference_moves


def _sample_configurations(size, count, seed):
    configurations = enumerate_connected_configurations(size)
    rng = random.Random(seed)
    if count >= len(configurations):
        return configurations
    return rng.sample(configurations, count)


def _trace_fingerprint(trace):
    return {
        "outcome": trace.outcome,
        "rounds": trace.num_rounds,
        "termination_round": trace.termination_round,
        "total_moves": trace.total_moves,
        "final": trace.final,
        "collision_kind": trace.collision_kind,
        "cycle_start": trace.cycle_start,
        "algorithm": trace.algorithm_name,
        "scheduler": trace.scheduler_name,
    }


#: Sample sizes per algorithm: the full-visibility baseline is expensive on
#: the reference path (126-node views), the others are cheap.
def _sample_size_for(name):
    return 8 if name == "full-visibility-greedy" else 24


@pytest.mark.parametrize("name", available_algorithms())
def test_packed_matches_reference_for_every_registered_algorithm(name):
    algorithm = create_algorithm(name)
    seed = sum(map(ord, name))  # stable across processes, distinct per algorithm
    for configuration in _sample_configurations(7, _sample_size_for(name), seed=seed):
        packed = run_execution(
            configuration, algorithm, max_rounds=600, record_rounds=False, kernel="packed"
        )
        reference = reference_execution(
            configuration, algorithm, max_rounds=600, record_rounds=False
        )
        assert _trace_fingerprint(packed) == _trace_fingerprint(reference), (
            f"kernel divergence for {name} from {configuration!r}"
        )


def test_packed_matches_reference_move_by_move():
    algorithm = create_algorithm("shibata-visibility2")
    for configuration in _sample_configurations(7, 12, seed=7):
        packed = run_execution(configuration, algorithm, max_rounds=600, kernel="packed")
        reference = reference_execution(configuration, algorithm, max_rounds=600)
        assert len(packed.rounds) == len(reference.rounds)
        for packed_round, reference_round in zip(packed.rounds, reference.rounds):
            assert packed_round.index == reference_round.index
            assert packed_round.configuration == reference_round.configuration
            assert packed_round.moves == reference_round.moves
            assert packed_round.activated == reference_round.activated


def test_packed_matches_reference_under_ssync_scheduler():
    algorithm = create_algorithm("shibata-visibility2")
    for configuration in _sample_configurations(7, 10, seed=11):
        packed = run_execution(
            configuration,
            algorithm,
            scheduler=RoundRobinScheduler(robots_per_round=2),
            max_rounds=80,
            record_rounds=False,
            kernel="packed",
        )
        reference = reference_execution(
            configuration,
            algorithm,
            scheduler=RoundRobinScheduler(robots_per_round=2),
            max_rounds=80,
            record_rounds=False,
        )
        assert _trace_fingerprint(packed) == _trace_fingerprint(reference)


def test_packed_matches_reference_on_small_sizes():
    for size in (2, 3, 4, 5):
        algorithm = create_algorithm("shibata-visibility2")
        for configuration in enumerate_connected_configurations(size):
            packed = run_execution(
                configuration, algorithm, max_rounds=200, record_rounds=False, kernel="packed"
            )
            reference = reference_execution(
                configuration, algorithm, max_rounds=200, record_rounds=False
            )
            assert _trace_fingerprint(packed) == _trace_fingerprint(reference)


def test_compute_moves_packed_matches_compute_moves():
    from repro.core.engine import compute_moves_packed
    from repro.grid.coords import Coord

    algorithm = create_algorithm("shibata-visibility2")
    for configuration in _sample_configurations(7, 15, seed=3):
        reference = reference_moves(configuration, algorithm)
        # Plain (q, r) tuples in, Coord keys out — same mapping either way.
        packed = compute_moves_packed(
            {(c.q, c.r) for c in configuration.nodes}, algorithm
        )
        assert packed == reference
        assert all(isinstance(key, Coord) for key in packed)


def test_compute_moves_packed_respects_activation():
    from repro.core.engine import compute_moves_packed

    algorithm = create_algorithm("shibata-visibility2")
    configuration = next(iter(_sample_configurations(7, 1, seed=5)))
    activated = set(configuration.sorted_nodes()[:3])
    assert compute_moves_packed(configuration.nodes, algorithm, activated) == (
        reference_moves(configuration, algorithm, activated)
    )


def test_unknown_kernel_rejected():
    algorithm = create_algorithm("stay")
    with pytest.raises(ValueError):
        run_execution(Configuration([(0, 0)]), algorithm, kernel="warp")


def test_function_algorithm_takes_no_determinism_flag():
    from repro.core.algorithm import FunctionAlgorithm

    # Every algorithm is a pure function of the view; the removed opt-out
    # fails loudly instead of being silently memoized.
    with pytest.raises(TypeError):
        FunctionAlgorithm(lambda view: None, visibility_range=1, deterministic=False)
