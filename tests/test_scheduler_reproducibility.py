"""Reproducibility of seeded scheduler specs across kernels and rebuilds.

Pins the contract of ``random-subset:P:SEED``: the same spec produces the
same activation sequence — and therefore byte-identical traces — whether the
execution runs on the packed kernel, on the reference engine (the oracle
:func:`oracles.reference_execution`), or on a scheduler instance rebuilt
from the spec string.
"""
import pytest

from repro.algorithms.visibility2 import ShibataGatheringAlgorithm
from repro.core.configuration import Configuration, line
from repro.core.engine import run_execution
from repro.core.scheduler import scheduler_from_spec
from repro.enumeration.polyhex import enumerate_connected_configurations

from oracles import reference_execution

SPEC = "random-subset:0.5:42"

_CONFIGS = {
    "line": line(7),
    "figure54": Configuration([(0, 0), (0, 1), (1, 1), (1, -1), (2, -1), (2, 0), (-1, 1)]),
    "zigzag": Configuration([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]),
}


def _trace_fingerprint(trace):
    return (
        trace.outcome,
        trace.termination_round,
        trace.total_moves,
        [
            (
                record.activated,
                tuple(sorted((pos, direction.name) for pos, direction in record.moves.items())),
                record.configuration.canonical_key(),
            )
            for record in trace.rounds
        ],
    )


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_same_seed_same_trace_across_kernels(name):
    initial = _CONFIGS[name]
    algorithm = ShibataGatheringAlgorithm()
    packed = run_execution(
        initial,
        algorithm,
        scheduler=scheduler_from_spec(SPEC),
        max_rounds=120,
        record_rounds=True,
        kernel="packed",
    )
    reference = reference_execution(
        initial,
        algorithm,
        scheduler=scheduler_from_spec(SPEC),
        max_rounds=120,
        record_rounds=True,
    )
    assert _trace_fingerprint(packed) == _trace_fingerprint(reference)


def test_same_seed_same_trace_across_instances():
    """Two schedulers built from the same spec draw identical subsets."""
    initial = _CONFIGS["figure54"]
    algorithm = ShibataGatheringAlgorithm()
    first = run_execution(
        initial, algorithm, scheduler=scheduler_from_spec(SPEC),
        max_rounds=120, record_rounds=True,
    )
    second = run_execution(
        initial, algorithm, scheduler=scheduler_from_spec(SPEC),
        max_rounds=120, record_rounds=True,
    )
    assert _trace_fingerprint(first) == _trace_fingerprint(second)


def test_scheduler_instance_resets_between_executions():
    """Reusing one instance gives the same trace: run_execution resets it."""
    initial = _CONFIGS["line"]
    algorithm = ShibataGatheringAlgorithm()
    scheduler = scheduler_from_spec(SPEC)
    first = run_execution(
        initial, algorithm, scheduler=scheduler, max_rounds=120, record_rounds=True
    )
    second = run_execution(
        initial, algorithm, scheduler=scheduler, max_rounds=120, record_rounds=True
    )
    assert _trace_fingerprint(first) == _trace_fingerprint(second)


def test_different_seeds_diverge():
    initial = _CONFIGS["zigzag"]
    algorithm = ShibataGatheringAlgorithm()
    fingerprints = set()
    for seed in (1, 2, 3):
        trace = run_execution(
            initial,
            algorithm,
            scheduler=scheduler_from_spec(f"random-subset:0.5:{seed}"),
            max_rounds=60,
            record_rounds=True,
        )
        activations = tuple(record.activated for record in trace.rounds)
        fingerprints.add(activations)
    assert len(fingerprints) > 1


def test_seeded_sweep_outcomes_stable_across_kernels():
    """Aggregate check over many initial configurations (size 5)."""
    algorithm_packed = ShibataGatheringAlgorithm()
    algorithm_reference = ShibataGatheringAlgorithm()
    for config in enumerate_connected_configurations(5)[::9]:
        packed = run_execution(
            config, algorithm_packed,
            scheduler=scheduler_from_spec(SPEC), max_rounds=200, kernel="packed",
        )
        reference = reference_execution(
            config, algorithm_reference,
            scheduler=scheduler_from_spec(SPEC), max_rounds=200,
        )
        assert packed.outcome == reference.outcome
        assert packed.termination_round == reference.termination_round
        assert packed.total_moves == reference.total_moves
