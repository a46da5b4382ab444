"""Shared, locally-checkable guards used by the visibility-2 algorithms.

Both the literal transcription of Algorithm 1 and the reconstructed variant
need the same low-level safety questions answered from a single robot's view:

* *connectivity*: if I move in this direction, does every robot currently
  adjacent to me stay in my connected component, judging only by the robots I
  can see?
* *uncontested entry*: could any other robot adjacent to my target plausibly
  enter it this round?

Because a robot sees two hops, every node adjacent to an adjacent node is
inside its view, which makes these checks exact at Look time (they remain
conservative with respect to simultaneous moves; the exhaustive verification
of experiment E2 is the final arbiter, exactly as in the paper).

Both guards work on the view's packed bitmask (:mod:`repro.grid.packing`):
per visibility range, one neighbour mask per disk bit is built once, and the
connectivity check is a bit-parallel flood fill over those masks — the same
window and the same answers as a node-by-node search, on integers only.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from ..core.view import View
from ..grid.directions import DIRECTIONS, Direction
from ..grid.packing import disk_offsets

__all__ = ["connectivity_safe", "entry_uncontested"]


class _GuardMasks(NamedTuple):
    """Neighbour masks of one visibility disk (the robot's own node excluded)."""

    #: ``neighbours[i]`` — bits of the in-disk neighbours of disk bit ``i``.
    neighbours: Tuple[int, ...]
    #: Bits of the six nodes adjacent to the robot.
    adjacent: int
    #: ``direction -> bit index`` of the adjacent node in that direction.
    target: Dict[Direction, int]


@lru_cache(maxsize=None)
def _guard_masks(visibility_range: int) -> _GuardMasks:
    offsets = disk_offsets(visibility_range)
    index = {(o.q, o.r): i for i, o in enumerate(offsets)}
    neighbours = tuple(
        sum(
            1 << index[(o.q + d.dq, o.r + d.dr)]
            for d in DIRECTIONS
            if (o.q + d.dq, o.r + d.dr) in index
        )
        for o in offsets
    )
    target = {d: index[d.value] for d in DIRECTIONS}
    return _GuardMasks(
        neighbours=neighbours,
        adjacent=sum(1 << i for i in target.values()),
        target=target,
    )


def connectivity_safe(view: View, direction: Direction) -> bool:
    """Whether moving in ``direction`` keeps all current neighbours reachable.

    The robot simulates its own move inside its visibility window and checks
    that every robot currently adjacent to it lies in the same connected
    component as the move target.  Robots connected only through nodes outside
    the window make the check fail, which postpones the move (conservative).

    The component is a flood fill over the occupied disk bits after the move
    (the robot's own node is vacated, the target is occupied), one frontier
    bit at a time through the precomputed neighbour masks.
    """
    masks = _guard_masks(view.visibility_range)
    bits = view.bitmask()
    old_neighbours = bits & masks.adjacent
    if not old_neighbours:
        return False
    neighbours = masks.neighbours
    start = 1 << masks.target[direction]
    after = bits | start
    component = frontier = start
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & after & ~component
        component |= frontier
    return not old_neighbours & ~component


def entry_uncontested(view: View, direction: Direction) -> bool:
    """Whether no other robot is adjacent to the move target.

    This is the strongest mutual-exclusion guard: with no other robot adjacent
    to the target, no simultaneous move can produce any of the three forbidden
    behaviours around it.  It is used by rules that are rare enough that
    waiting for the neighbourhood to clear does not hurt progress.

    One mask test: the target's in-disk neighbours (the robot's own node is
    not a disk bit) against the view's bits.
    """
    masks = _guard_masks(view.visibility_range)
    return not view.bitmask() & masks.neighbours[masks.target[direction]]
