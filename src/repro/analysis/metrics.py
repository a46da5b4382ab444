"""Per-execution metrics derived from traces.

The paper reports no quantitative metrics beyond "gathering is achieved"; the
functions here quantify executions (rounds, moves, diameter trajectory,
monotonicity of compaction) for the extension experiment E7 and for the
regression tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.trace import ExecutionTrace

__all__ = ["ExecutionMetrics", "compute_metrics", "diameter_trajectory"]


@dataclass(frozen=True)
class ExecutionMetrics:
    """Summary numbers for one execution."""

    #: Outcome name (``gathered``, ``deadlock``, ...).
    outcome: str
    #: Number of rounds until termination.
    rounds: int
    #: Total number of individual robot moves.
    total_moves: int
    #: Diameter of the initial configuration.
    initial_diameter: int
    #: Diameter of the final configuration (2 when gathered).
    final_diameter: int
    #: Largest number of robots that moved in a single round.
    max_parallel_moves: int
    #: Mean number of robots that moved per round (0 for an empty execution).
    mean_parallel_moves: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for tabulation."""
        return {
            "outcome": self.outcome,
            "rounds": self.rounds,
            "total_moves": self.total_moves,
            "initial_diameter": self.initial_diameter,
            "final_diameter": self.final_diameter,
            "max_parallel_moves": self.max_parallel_moves,
            "mean_parallel_moves": round(self.mean_parallel_moves, 3),
        }


def compute_metrics(trace: ExecutionTrace) -> ExecutionMetrics:
    """Compute :class:`ExecutionMetrics` for a trace recorded with per-round data."""
    per_round = [record.moved_count for record in trace.rounds]
    moving_rounds = [m for m in per_round if m > 0]
    total_moves = trace.total_moves or sum(per_round)
    return ExecutionMetrics(
        outcome=trace.outcome.value,
        rounds=trace.num_rounds,
        total_moves=total_moves,
        initial_diameter=trace.initial.diameter(),
        final_diameter=trace.final.diameter(),
        max_parallel_moves=max(per_round) if per_round else 0,
        mean_parallel_moves=(sum(moving_rounds) / len(moving_rounds)) if moving_rounds else 0.0,
    )


def diameter_trajectory(trace: ExecutionTrace) -> List[int]:
    """Diameter of every configuration visited, in order (initial first)."""
    return [config.diameter() for config in trace.configurations()]
