"""Set-level operations on the infinite triangular grid.

The paper only ever reasons about *finite* sets of robot nodes embedded in the
infinite grid, so this module provides connectivity, components, adjacency and
hull utilities for arbitrary finite node sets rather than materialising a
bounded grid object.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .coords import Coord, as_coord, distance, neighbors

__all__ = [
    "is_connected",
    "connected_components",
    "occupied_neighbors",
    "empty_neighbors",
    "adjacency_degree",
    "boundary_nodes",
    "shortest_path",
    "diameter",
    "eccentricity",
    "nodes_within",
]


def is_connected(nodes: Iterable[Tuple[int, int]]) -> bool:
    """Whether the subgraph induced by ``nodes`` is connected.

    The empty set and singletons are considered connected, matching the
    convention of the paper (connectivity only matters for two or more
    robots).
    """
    node_set = {as_coord(n) for n in nodes}
    if len(node_set) <= 1:
        return True
    start = next(iter(node_set))
    seen = {start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for nb in neighbors(current):
            if nb in node_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(node_set)


def connected_components(nodes: Iterable[Tuple[int, int]]) -> List[FrozenSet[Coord]]:
    """Partition ``nodes`` into connected components of the induced subgraph."""
    remaining: Set[Coord] = {as_coord(n) for n in nodes}
    components: List[FrozenSet[Coord]] = []
    while remaining:
        start = next(iter(remaining))
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for nb in neighbors(current):
                if nb in remaining and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        components.append(frozenset(seen))
        remaining -= seen
    components.sort(key=lambda comp: sorted(comp))
    return components


def occupied_neighbors(node: Tuple[int, int], nodes: Set[Coord]) -> List[Coord]:
    """The neighbours of ``node`` that belong to ``nodes``."""
    return [nb for nb in neighbors(node) if nb in nodes]


def empty_neighbors(node: Tuple[int, int], nodes: Set[Coord]) -> List[Coord]:
    """The neighbours of ``node`` that do not belong to ``nodes``."""
    return [nb for nb in neighbors(node) if nb not in nodes]


def adjacency_degree(node: Tuple[int, int], nodes: Set[Coord]) -> int:
    """Number of occupied neighbours of ``node`` (its degree in the induced graph)."""
    return sum(1 for nb in neighbors(node) if nb in nodes)


def boundary_nodes(nodes: Iterable[Tuple[int, int]]) -> List[Coord]:
    """Nodes of the set that have at least one empty neighbour."""
    node_set = {as_coord(n) for n in nodes}
    return sorted(
        n for n in node_set if any(nb not in node_set for nb in neighbors(n))
    )


def shortest_path(
    start: Tuple[int, int],
    goal: Tuple[int, int],
    allowed: Optional[Set[Coord]] = None,
) -> Optional[List[Coord]]:
    """Breadth-first shortest path from ``start`` to ``goal``.

    If ``allowed`` is given, the path is restricted to nodes of that set
    (start and goal must belong to it); otherwise the path runs on the full
    grid, in which case it has length ``distance(start, goal)``.

    Returns ``None`` when no path exists inside ``allowed``.
    """
    start_c = as_coord(start)
    goal_c = as_coord(goal)
    if allowed is not None and (start_c not in allowed or goal_c not in allowed):
        return None
    if start_c == goal_c:
        return [start_c]
    parents: Dict[Coord, Coord] = {}
    seen = {start_c}
    frontier = deque([start_c])
    while frontier:
        current = frontier.popleft()
        for nb in neighbors(current):
            if nb in seen:
                continue
            if allowed is not None and nb not in allowed:
                continue
            # On the unbounded grid, prune nodes that stray needlessly far.
            if allowed is None and distance(nb, goal_c) > distance(start_c, goal_c):
                continue
            parents[nb] = current
            if nb == goal_c:
                path = [nb]
                while path[-1] != start_c:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            seen.add(nb)
            frontier.append(nb)
    return None


def eccentricity(node: Tuple[int, int], nodes: Sequence[Tuple[int, int]]) -> int:
    """Largest grid distance from ``node`` to any node of ``nodes``."""
    node_c = as_coord(node)
    return max(distance(node_c, other) for other in nodes)


def diameter(nodes: Sequence[Tuple[int, int]]) -> int:
    """Largest pairwise grid distance within ``nodes``.

    This is the quantity the gathering problem minimises; for seven robots the
    minimum achievable value is 2 (the filled hexagon).
    """
    coords = [as_coord(n) for n in nodes]
    if not coords:
        raise ValueError("diameter of an empty node set is undefined")
    best = 0
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            d = distance(a, b)
            if d > best:
                best = d
    return best


def nodes_within(nodes: Iterable[Tuple[int, int]], center: Tuple[int, int], radius: int) -> List[Coord]:
    """Nodes of the set within graph distance ``radius`` of ``center``."""
    center_c = as_coord(center)
    return sorted(
        as_coord(n) for n in nodes if distance(center_c, n) <= radius
    )
