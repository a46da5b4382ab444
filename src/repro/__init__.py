"""repro: reproduction of "Gathering of seven autonomous mobile robots on triangular grids".

The package implements the full system of Shibata et al. (2021): the
triangular-grid substrate, the oblivious-robot Look--Compute--Move model, the
visibility-range-2 gathering algorithm of Theorem 2, the visibility-range-1
impossibility machinery of Theorem 1, exhaustive enumeration of the 3652
connected initial configurations, and the verification / benchmark harnesses
that regenerate the paper's evaluation.

Quickstart
----------
>>> from repro import Configuration, ShibataGatheringAlgorithm, run_execution
>>> trace = run_execution(Configuration([(i, 0) for i in range(7)]),
...                       ShibataGatheringAlgorithm())
>>> trace.outcome.value
'gathered'
"""
from .algorithms import (
    CachedAlgorithm,
    FullVisibilityGreedyAlgorithm,
    NaiveEastAlgorithm,
    RuleTable,
    RuleTableAlgorithm,
    ShibataGatheringAlgorithm,
    available_algorithms,
    create_algorithm,
    determine_base_label,
    register_algorithm,
)
from .analysis import (
    VerificationReport,
    verify_all_configurations,
    verify_configuration,
    verify_configurations,
)
from .core import (
    GATHERING_SIZE,
    Configuration,
    ExecutionBatch,
    ExecutionTrace,
    FullySynchronousScheduler,
    FunctionAlgorithm,
    GatheringAlgorithm,
    Outcome,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    StayAlgorithm,
    SweepCell,
    View,
    from_offsets,
    hexagon,
    line,
    run_execution,
    run_many,
    run_sweep,
    scheduler_from_spec,
    view_of,
)
from .enumeration import (
    FIXED_POLYHEX_COUNTS,
    count_connected_configurations,
    enumerate_connected_configurations,
)
from .explore import (
    ExplorationReport,
    TransitionGraph,
    Witness,
    build_transition_graph,
    replay_witness,
)
from .grid import Coord, Direction, distance, neighbors
from .synth import (
    GuardRule,
    RuleSet,
    SynthesisResult,
    learned_algorithm,
    synthesize,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "GATHERING_SIZE",
    "FIXED_POLYHEX_COUNTS",
    "CachedAlgorithm",
    "Configuration",
    "Coord",
    "Direction",
    "ExecutionBatch",
    "ExecutionTrace",
    "ExplorationReport",
    "FullVisibilityGreedyAlgorithm",
    "FullySynchronousScheduler",
    "FunctionAlgorithm",
    "GatheringAlgorithm",
    "GuardRule",
    "NaiveEastAlgorithm",
    "Outcome",
    "RandomSubsetScheduler",
    "RoundRobinScheduler",
    "RuleSet",
    "RuleTable",
    "RuleTableAlgorithm",
    "ShibataGatheringAlgorithm",
    "StayAlgorithm",
    "SweepCell",
    "SynthesisResult",
    "TransitionGraph",
    "VerificationReport",
    "View",
    "Witness",
    "available_algorithms",
    "build_transition_graph",
    "count_connected_configurations",
    "create_algorithm",
    "determine_base_label",
    "distance",
    "enumerate_connected_configurations",
    "from_offsets",
    "learned_algorithm",
    "replay_witness",
    "hexagon",
    "line",
    "synthesize",
    "neighbors",
    "register_algorithm",
    "run_execution",
    "run_many",
    "run_sweep",
    "scheduler_from_spec",
    "verify_all_configurations",
    "verify_configuration",
    "verify_configurations",
    "view_of",
]
