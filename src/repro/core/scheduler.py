"""Activation schedulers: FSYNC, SSYNC round-robin and randomized SSYNC.

The paper assumes the fully synchronous (FSYNC) model, where every robot is
activated in every round and the Look/Compute/Move phases of all robots are
aligned.  To support the extensions discussed in the paper's conclusion (and
to show experimentally where the algorithm's correctness argument relies on
FSYNC) the engine accepts pluggable schedulers that choose, for each round,
the subset of robots to activate (semi-synchronous, SSYNC).

A scheduler is a callable receiving the round number and the sorted list of
robot positions and returning the subset of positions activated this round.
Fairness (every robot is activated infinitely often) is guaranteed by
construction for the schedulers shipped here.
"""
from __future__ import annotations

import abc
import random
from typing import Sequence, Set, Union

from ..grid.coords import Coord

__all__ = [
    "Scheduler",
    "FullySynchronousScheduler",
    "RoundRobinScheduler",
    "RandomSubsetScheduler",
    "scheduler_from_spec",
]


class Scheduler(abc.ABC):
    """Chooses which robots are activated in each round."""

    #: Human-readable name for reports.
    name: str = "abstract"

    @abc.abstractmethod
    def activated(self, round_index: int, positions: Sequence[Coord]) -> Set[Coord]:
        """Return the subset of ``positions`` activated in round ``round_index``."""

    def reset(self) -> None:
        """Reset any internal bookkeeping before a fresh execution."""


class FullySynchronousScheduler(Scheduler):
    """The FSYNC scheduler of the paper: every robot is activated every round."""

    name = "fsync"

    def activated(self, round_index: int, positions: Sequence[Coord]) -> Set[Coord]:
        return set(positions)


class RoundRobinScheduler(Scheduler):
    """A deterministic SSYNC scheduler activating ``k`` robots per round.

    Robots are taken in lexicographic order of their current positions and the
    window advances by ``k`` every round, so every robot is activated at least
    once every ``ceil(n / k)`` rounds (fair by construction).
    """

    name = "round-robin"

    def __init__(self, robots_per_round: int = 1) -> None:
        if robots_per_round < 1:
            raise ValueError("robots_per_round must be at least 1")
        self.robots_per_round = robots_per_round

    def activated(self, round_index: int, positions: Sequence[Coord]) -> Set[Coord]:
        ordered = sorted(positions)
        n = len(ordered)
        if n == 0:
            return set()
        k = min(self.robots_per_round, n)
        start = (round_index * k) % n
        chosen = [(start + i) % n for i in range(k)]
        return {ordered[i] for i in chosen}


class RandomSubsetScheduler(Scheduler):
    """A randomized SSYNC scheduler activating each robot independently.

    Each robot is activated with probability ``p`` each round; if the draw
    activates nobody, one robot is activated at random so the execution makes
    progress (this also makes the scheduler fair with probability one).  The
    scheduler is seeded for reproducibility.
    """

    name = "random-subset"

    def __init__(self, probability: float = 0.5, seed: int = 0) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must lie in (0, 1]")
        self.probability = probability
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def activated(self, round_index: int, positions: Sequence[Coord]) -> Set[Coord]:
        ordered = sorted(positions)
        chosen = {pos for pos in ordered if self._rng.random() < self.probability}
        if not chosen and ordered:
            chosen = {ordered[self._rng.randrange(len(ordered))]}
        return chosen


def scheduler_from_spec(spec: Union[None, str, Scheduler]) -> Scheduler:
    """Build a scheduler from a compact textual specification.

    Specs are picklable strings, which lets the batch runner ship scheduler
    choices to multiprocessing workers and the CLI accept them as flags:

    * ``None`` or ``"fsync"`` — :class:`FullySynchronousScheduler`;
    * ``"round-robin"`` or ``"round-robin:K"`` — :class:`RoundRobinScheduler`
      activating ``K`` robots per round (default 1);
    * ``"random-subset"``, ``"random-subset:P"`` or ``"random-subset:P:SEED"``
      — :class:`RandomSubsetScheduler` with activation probability ``P``
      (default 0.5) and the given seed (default 0).

    A :class:`Scheduler` instance is passed through unchanged.
    """
    if spec is None:
        return FullySynchronousScheduler()
    if isinstance(spec, Scheduler):
        return spec
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    try:
        if name == "fsync":
            if args:
                raise ValueError("fsync takes no parameters")
            return FullySynchronousScheduler()
        if name == "round-robin":
            if len(args) > 1:
                raise ValueError("round-robin takes at most one parameter (K)")
            return RoundRobinScheduler(robots_per_round=int(args[0]) if args else 1)
        if name == "random-subset":
            if len(args) > 2:
                raise ValueError("random-subset takes at most two parameters (P, SEED)")
            probability = float(args[0]) if args else 0.5
            seed = int(args[1]) if len(args) > 1 else 0
            return RandomSubsetScheduler(probability=probability, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid scheduler spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown scheduler {name!r}; available: fsync, round-robin[:K], "
        f"random-subset[:P[:SEED]]"
    )
