"""Exhaustive verification harness (experiment E2).

The paper validates Theorem 2 by simulating the algorithm "from all possible
connected initial configurations (3652 patterns in total)" under FSYNC.  This
module reruns exactly that experiment: it enumerates every connected initial
configuration of seven robots (up to translation), runs one execution per
configuration and aggregates the outcomes.

Execution itself — serial or fanned out over a multiprocessing pool — is
delegated to the unified batch runner (:mod:`repro.core.runner`), which the
CLI and the benchmark harness share; this module contributes the
report/aggregation layer on top.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..core.algorithm import GatheringAlgorithm
from ..core.configuration import Configuration
from ..core.engine import DEFAULT_MAX_ROUNDS
from ..core.runner import ConfigurationResult, execute_configuration, run_many
from ..enumeration.polyhex import enumerate_connected_configurations

__all__ = [
    "ConfigurationResult",
    "VerificationReport",
    "verify_configuration",
    "verify_configurations",
    "verify_all_configurations",
]


@dataclass
class VerificationReport:
    """Aggregate of an exhaustive verification run."""

    #: Name of the algorithm that was verified.
    algorithm_name: str
    #: Per-configuration results, in enumeration order.
    results: List[ConfigurationResult] = field(default_factory=list)

    # ------------------------------------------------------------- aggregates
    @property
    def total(self) -> int:
        """Number of initial configurations examined."""
        return len(self.results)

    @property
    def successes(self) -> int:
        """Number of configurations that gathered successfully."""
        return sum(1 for r in self.results if r.succeeded)

    @property
    def failures(self) -> List[ConfigurationResult]:
        """Results that did not gather."""
        return [r for r in self.results if not r.succeeded]

    @property
    def success_rate(self) -> float:
        """Fraction of configurations that gathered successfully."""
        return self.successes / self.total if self.total else 0.0

    @property
    def all_gathered(self) -> bool:
        """Whether every configuration gathered (the paper's Theorem 2 claim)."""
        return self.total > 0 and self.successes == self.total

    def outcome_counts(self) -> Dict[str, int]:
        """Histogram of outcomes by name."""
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.outcome.value] = counts.get(result.outcome.value, 0) + 1
        return dict(sorted(counts.items()))

    def max_rounds(self) -> int:
        """Largest number of rounds over the successful executions (0 if none)."""
        rounds = [r.rounds for r in self.results if r.succeeded]
        return max(rounds) if rounds else 0

    def mean_rounds(self) -> float:
        """Mean number of rounds over the successful executions (0.0 if none)."""
        rounds = [r.rounds for r in self.results if r.succeeded]
        return sum(rounds) / len(rounds) if rounds else 0.0

    def max_moves(self) -> int:
        """Largest total move count over the successful executions (0 if none)."""
        moves = [r.total_moves for r in self.results if r.succeeded]
        return max(moves) if moves else 0

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by the CLI and the benchmarks."""
        return {
            "algorithm": self.algorithm_name,
            "configurations": self.total,
            "gathered": self.successes,
            "success_rate": round(self.success_rate, 6),
            "outcomes": self.outcome_counts(),
            "max_rounds": self.max_rounds(),
            "mean_rounds": round(self.mean_rounds(), 3),
            "max_moves": self.max_moves(),
        }


def verify_configuration(
    configuration: Configuration,
    algorithm: GatheringAlgorithm,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    kernel: str = "packed",
) -> ConfigurationResult:
    """Run one execution from ``configuration`` and summarise its outcome."""
    return execute_configuration(
        configuration, algorithm, max_rounds=max_rounds, kernel=kernel
    )


def verify_configurations(
    configurations: Iterable[Configuration],
    algorithm: GatheringAlgorithm,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    progress: Optional[Callable[[int, int], None]] = None,
    kernel: str = "packed",
) -> VerificationReport:
    """Verify an explicit collection of initial configurations serially.

    ``kernel="table"`` answers the whole FSYNC batch from the successor
    table (:mod:`repro.core.table_kernel`) — byte-identical results, one
    vectorized build instead of thousands of simulations.
    """
    batch = run_many(
        configurations,
        algorithm=algorithm,
        max_rounds=max_rounds,
        progress=progress,
        kernel=kernel,
    )
    return VerificationReport(algorithm_name=algorithm.name, results=batch.results)


def verify_all_configurations(
    algorithm: Optional[GatheringAlgorithm] = None,
    algorithm_name: Optional[str] = None,
    size: int = 7,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    kernel: str = "packed",
) -> VerificationReport:
    """Run the paper's exhaustive verification (experiment E2).

    Exactly one of ``algorithm`` and ``algorithm_name`` must be provided; the
    named form is required when ``workers > 1`` because algorithm objects are
    reconstructed inside each worker process from the registry (cheap, and it
    avoids pickling algorithm instances).  ``kernel`` selects the simulation
    kernel (``"table"`` collapses the serial FSYNC sweep into one successor-
    table traversal).
    """
    if (algorithm is None) == (algorithm_name is None):
        raise ValueError("provide exactly one of algorithm / algorithm_name")
    if workers > 1 and algorithm_name is None:
        raise ValueError("parallel verification requires algorithm_name (registry lookup)")

    configurations = enumerate_connected_configurations(size)
    batch = run_many(
        configurations,
        algorithm=algorithm,
        algorithm_name=algorithm_name,
        max_rounds=max_rounds,
        workers=workers,
        chunk_size=chunk_size,
        kernel=kernel,
    )
    return VerificationReport(algorithm_name=batch.algorithm_name, results=batch.results)
