"""Robot-system core: configurations, views, algorithms, schedulers and the engine."""
from .algorithm import FunctionAlgorithm, GatheringAlgorithm, Move, StayAlgorithm
from .configuration import GATHERING_SIZE, Configuration, from_offsets, hexagon, line
from .engine import DEFAULT_MAX_ROUNDS, run_execution
from .errors import InvalidConfigurationError, ReproError
from .runner import (
    ConfigurationResult,
    ExecutionBatch,
    SweepCell,
    execute_configuration,
    iter_result_chunks,
    run_many,
    run_sweep,
)
from .scheduler import (
    FullySynchronousScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    Scheduler,
    scheduler_from_spec,
)
from .trace import ExecutionTrace, Outcome, RoundRecord
from .view import View, all_views_of, view_of

__all__ = [
    "GATHERING_SIZE",
    "DEFAULT_MAX_ROUNDS",
    "Configuration",
    "ConfigurationResult",
    "ExecutionBatch",
    "ExecutionTrace",
    "FullySynchronousScheduler",
    "FunctionAlgorithm",
    "GatheringAlgorithm",
    "InvalidConfigurationError",
    "Move",
    "Outcome",
    "RandomSubsetScheduler",
    "ReproError",
    "RoundRecord",
    "RoundRobinScheduler",
    "Scheduler",
    "StayAlgorithm",
    "SweepCell",
    "View",
    "all_views_of",
    "execute_configuration",
    "from_offsets",
    "hexagon",
    "iter_result_chunks",
    "line",
    "run_execution",
    "run_many",
    "run_sweep",
    "scheduler_from_spec",
    "view_of",
]
