"""Translations, rotations and reflections of node sets.

Robots in the paper agree on the x-axis *and* chirality, so two configurations
are equivalent for the algorithm exactly when they differ by a translation.
The enumeration of "all possible connected initial configurations (3652
patterns)" in Section IV-B therefore counts node sets up to translation only
(*fixed* polyhexes).  Rotations and reflections are still provided because the
analysis modules use them to study symmetry classes and to check mirror
symmetry of the algorithm's rules.
"""
from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

from .coords import Coord, as_coord

__all__ = [
    "translate_to_origin",
    "canonical_translation",
    "rotate60",
    "rotate",
    "reflect_x",
    "all_rotations",
    "all_symmetries",
    "canonical_up_to_symmetry",
    "symmetry_order",
]

NodeSet = FrozenSet[Coord]


def translate_to_origin(nodes: Iterable[Tuple[int, int]]) -> NodeSet:
    """Translate the node set so its lexicographically smallest node is the origin."""
    coords = [as_coord(n) for n in nodes]
    if not coords:
        return frozenset()
    anchor = min(coords)
    return frozenset(Coord(c.q - anchor.q, c.r - anchor.r) for c in coords)


def canonical_translation(nodes: Iterable[Tuple[int, int]]) -> Tuple[Coord, ...]:
    """Canonical, hashable representative of a node set up to translation.

    Two node sets have the same canonical translation if and only if one is a
    translate of the other.  The representative is the sorted tuple of the
    origin-anchored node set.
    """
    return tuple(sorted(translate_to_origin(nodes)))


def rotate60(node: Tuple[int, int]) -> Coord:
    """Rotate a single node 60 degrees counter-clockwise about the origin.

    In axial coordinates a 60-degree counter-clockwise rotation maps
    ``(q, r)`` to ``(-r, q + r)``.
    """
    q, r = node[0], node[1]
    return Coord(-r, q + r)


def rotate(node: Tuple[int, int], steps: int) -> Coord:
    """Rotate a node by ``steps`` sixths of a full counter-clockwise turn."""
    result = as_coord(node)
    for _ in range(steps % 6):
        result = rotate60(result)
    return result


def reflect_x(node: Tuple[int, int]) -> Coord:
    """Reflect a node across the x-axis (the E-W axis through the origin).

    In axial coordinates the reflection maps ``(q, r)`` to ``(q + r, -r)``.
    """
    q, r = node[0], node[1]
    return Coord(q + r, -r)


def all_rotations(nodes: Iterable[Tuple[int, int]]) -> List[NodeSet]:
    """The six rotations of a node set (each one translated to the origin)."""
    base = [as_coord(n) for n in nodes]
    results = []
    for steps in range(6):
        rotated = [rotate(n, steps) for n in base]
        results.append(translate_to_origin(rotated))
    return results


def all_symmetries(nodes: Iterable[Tuple[int, int]]) -> List[NodeSet]:
    """All twelve rotation/reflection images of a node set (dihedral group D6)."""
    base = [as_coord(n) for n in nodes]
    reflected = [reflect_x(n) for n in base]
    return all_rotations(base) + all_rotations(reflected)


def canonical_up_to_symmetry(nodes: Iterable[Tuple[int, int]]) -> Tuple[Coord, ...]:
    """Canonical representative of a node set up to translation, rotation and reflection.

    Used only for analysis (e.g. grouping the 3652 fixed configurations into
    free symmetry classes); the algorithm itself distinguishes rotated
    configurations because robots agree on the compass.
    """
    images = all_symmetries(nodes)
    return min(tuple(sorted(img)) for img in images)


def symmetry_order(nodes: Iterable[Tuple[int, int]]) -> int:
    """Number of symmetries of the dihedral group D6 that fix the node set.

    A return value of 1 means the configuration is fully asymmetric; 12 means
    it is invariant under every rotation and reflection (for example the
    gathered hexagon).
    """
    canonical = canonical_translation(nodes)
    images = all_symmetries(nodes)
    return sum(1 for img in images if tuple(sorted(img)) == canonical)
