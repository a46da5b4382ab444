"""The algorithm interface: a pure function from view to move.

Robots are uniform (identical algorithm), anonymous and oblivious.  An
algorithm is therefore completely described by a deterministic function that
maps a :class:`~repro.core.view.View` to a move: either one of the six
directions or ``None`` (stay).  The engine re-computes each robot's view every
cycle, which enforces obliviousness by construction — an algorithm object has
nowhere to stash per-robot state that would survive between cycles in a way
the model forbids (algorithm instances are shared by all robots).
"""
from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

from ..grid.directions import Direction
from .view import View

__all__ = ["Move", "GatheringAlgorithm", "FunctionAlgorithm", "StayAlgorithm"]

#: A move decision: a direction, or ``None`` to stay at the current node.
Move = Optional[Direction]


class GatheringAlgorithm(abc.ABC):
    """Base class for robot algorithms.

    Subclasses implement :meth:`compute`, the Compute phase of the
    Look–Compute–Move cycle.  ``visibility_range`` declares how far the robots
    running this algorithm can see; the engine builds views of exactly that
    range.

    :meth:`compute` must be a pure function of the view, as the paper's model
    of oblivious deterministic robots requires.  Every kernel relies on it:
    the packed kernel memoizes decisions per view bitmask, and the table
    kernel resolves each unique view once for a whole configuration space.

    :meth:`decide_bitmasks` is the batch form the table kernel's Compute pass
    calls once per build, on every view its decision cache misses.  It must
    return exactly ``compute(View.from_bitmask(b, visibility_range))`` for
    each bitmask ``b``, in order, and be as pure: no state that outlives the
    call, and no reads or writes of the decision cache (the caller fills it).
    The default loops :meth:`compute`; an algorithm whose rules are bit tests
    overrides it with an array pass (as
    :class:`~repro.algorithms.visibility2.ShibataGatheringAlgorithm` does).
    """

    #: Visibility range the algorithm is designed for.
    visibility_range: int = 2

    #: Human-readable name used by the registry, the CLI and benchmark reports.
    name: str = "abstract"

    @abc.abstractmethod
    def compute(self, view: View) -> Move:
        """Return the move of a robot whose Look phase produced ``view``."""

    def decide_bitmasks(self, bitmasks: Sequence[int]) -> List[Move]:
        """The :meth:`compute` decision of every view bitmask, in order."""
        visibility_range = self.visibility_range
        return [
            self.compute(View.from_bitmask(int(bitmask), visibility_range))
            for bitmask in bitmasks
        ]

    def __call__(self, view: View) -> Move:
        return self.compute(view)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} range={self.visibility_range}>"


class FunctionAlgorithm(GatheringAlgorithm):
    """Wrap a plain function ``View -> Move`` as an algorithm object."""

    def __init__(self, func: Callable[[View], Move], visibility_range: int,
                 name: str = "function") -> None:
        self._func = func
        self.visibility_range = visibility_range
        self.name = name

    def compute(self, view: View) -> Move:
        return self._func(view)


class StayAlgorithm(GatheringAlgorithm):
    """The trivial algorithm where every robot always stays.

    Useful as a control in tests: it never collides but gathers only when the
    initial configuration is already gathered.
    """

    visibility_range = 1
    name = "stay"

    def compute(self, view: View) -> Move:
        return None
