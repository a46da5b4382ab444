"""Robot configurations: occupancy sets on the triangular grid.

A *configuration* (Section II-A of the paper) is the set of robot nodes.
Robots are anonymous, so a configuration carries no identities — it is purely
a finite set of grid nodes.  The class below wraps a frozenset of
:class:`~repro.grid.Coord` with the predicates the paper cares about:
connectivity, the gathering condition, degrees and canonical forms.
"""
from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..grid.coords import Coord, as_coord, neighbors
from ..grid.directions import DIRECTIONS, Direction
from ..grid.lattice import adjacency_degree, diameter, is_connected
from ..grid.symmetry import canonical_translation, translate_to_origin
from .errors import InvalidConfigurationError

__all__ = ["Configuration", "GATHERING_SIZE", "hexagon", "line", "from_offsets"]

#: The number of robots considered by the paper.
GATHERING_SIZE = 7


class Configuration:
    """An immutable set of robot nodes.

    Parameters
    ----------
    nodes:
        Iterable of ``(q, r)`` pairs or :class:`~repro.grid.Coord` objects.
        Duplicates are rejected because two robots may never share a node.
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Iterable[Tuple[int, int]]) -> None:
        coords: List[Coord] = [as_coord(n) for n in nodes]
        node_set = frozenset(coords)
        if len(node_set) != len(coords):
            raise InvalidConfigurationError(
                "a configuration cannot contain the same node twice "
                "(several robots on one node is a collision)"
            )
        self._nodes: FrozenSet[Coord] = node_set

    # ------------------------------------------------------------------ set API
    @property
    def nodes(self) -> FrozenSet[Coord]:
        """The robot nodes as a frozenset."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Coord]:
        return iter(sorted(self._nodes))

    def __contains__(self, node: Tuple[int, int]) -> bool:
        return as_coord(node) in self._nodes

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._nodes == other._nodes
        if isinstance(other, (set, frozenset)):
            return self._nodes == {as_coord(n) for n in other}
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"({c.q},{c.r})" for c in sorted(self._nodes))
        return f"Configuration({{{inner}}})"

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "Configuration":
        """Build a configuration from ``(q, r)`` pairs (alias of the constructor)."""
        return cls(pairs)

    # ---------------------------------------------------------------- geometry
    def occupied(self, node: Tuple[int, int]) -> bool:
        """Whether ``node`` is a robot node."""
        return as_coord(node) in self._nodes

    def degree(self, node: Tuple[int, int]) -> int:
        """Number of occupied neighbours of ``node``."""
        return adjacency_degree(node, self._nodes)

    def occupied_directions(self, node: Tuple[int, int]) -> List[Direction]:
        """Directions from ``node`` towards adjacent robot nodes."""
        base = as_coord(node)
        return [d for d in DIRECTIONS if base.step(d) in self._nodes]

    def is_connected(self) -> bool:
        """Whether the subgraph induced by the robot nodes is connected."""
        return is_connected(self._nodes)

    def diameter(self) -> int:
        """Maximum pairwise distance between robot nodes."""
        return diameter(sorted(self._nodes))

    def gathering_center(self) -> Optional[Coord]:
        """The node whose six neighbours are all robot nodes, if any.

        For seven robots this node exists exactly when the configuration is
        the filled hexagon required by Definition 1.
        """
        for node in self._nodes:
            if all(nb in self._nodes for nb in neighbors(node)):
                return node
        return None

    #: Minimum achievable diameter for n robots on the triangular grid:
    #: a single node, an edge, a triangle, subsets of the filled hexagon, and
    #: (for 8..12 robots) the hexagon plus adjacent cells.  Diameter 2 maxes
    #: out at the 7-cell filled hexagon, and the 19-cell filled hexagon of
    #: radius 2 has diameter 4, so every count from 8 through 19 admits a
    #: diameter-3 packing and nothing tighter.  The 8/9/10 values are
    #: verified against the exhaustive enumeration in the tests.
    _MIN_DIAMETER = {
        1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2,
        8: 3, 9: 3, 10: 3, 11: 3, 12: 3,
    }

    def is_gathered(self) -> bool:
        """Whether the gathering condition of Definition 1 holds.

        For seven robots the condition is that one robot node has six adjacent
        robot nodes, i.e. the robots form a filled hexagon.  For other robot
        counts with a known minimum diameter (used by the tests, small-scale
        experiments and the n>7 scale-out) the condition is that the maximum
        pairwise distance equals the minimum achievable for that number of
        robots.  Sizes beyond the known table are rejected.
        """
        n = len(self._nodes)
        if n == 0:
            return False
        if n == GATHERING_SIZE:
            return self.gathering_center() is not None
        if n in self._MIN_DIAMETER:
            return self.diameter() == self._MIN_DIAMETER[n]
        raise InvalidConfigurationError(
            f"the gathering predicate is defined for at most {max(self._MIN_DIAMETER)} "
            f"robots, got {n}"
        )

    # ------------------------------------------------------------- transforms
    def translated(self, offset: Tuple[int, int]) -> "Configuration":
        """The configuration translated by ``offset``."""
        dq, dr = offset[0], offset[1]
        return Configuration(Coord(c.q + dq, c.r + dr) for c in self._nodes)

    def normalized(self) -> "Configuration":
        """Translate so the lexicographically smallest robot node is the origin."""
        return Configuration(translate_to_origin(self._nodes))

    def canonical_key(self) -> Tuple[Coord, ...]:
        """Hashable representative up to translation (used for cycle detection)."""
        return canonical_translation(self._nodes)

    def moved(self, source: Tuple[int, int], target: Tuple[int, int]) -> "Configuration":
        """The configuration after the robot at ``source`` moves to ``target``.

        This is a purely set-theoretic operation; collision legality is the
        engine's responsibility.
        """
        src = as_coord(source)
        dst = as_coord(target)
        if src not in self._nodes:
            raise InvalidConfigurationError(f"no robot at {src}")
        if dst in self._nodes and dst != src:
            raise InvalidConfigurationError(f"target node {dst} is already occupied")
        nodes = set(self._nodes)
        nodes.discard(src)
        nodes.add(dst)
        return Configuration(nodes)

    # --------------------------------------------------------------- summaries
    def sorted_nodes(self) -> List[Coord]:
        """The robot nodes in lexicographic order."""
        return sorted(self._nodes)

    def degrees(self) -> List[int]:
        """Sorted list of robot-node degrees (an easy structural fingerprint)."""
        return sorted(self.degree(n) for n in self._nodes)

    def max_x_nodes(self) -> List[Coord]:
        """Robot nodes with the globally largest doubled x-coordinate.

        The doubled x-coordinate of a node ``(q, r)`` is ``2q + r``, i.e. the
        x-element of the paper's label system measured from the origin.  The
        rightmost robots play the role of the (global) base candidates.
        """
        best = max(2 * c.q + c.r for c in self._nodes)
        return sorted(c for c in self._nodes if 2 * c.q + c.r == best)


def hexagon(center: Tuple[int, int] = (0, 0)) -> Configuration:
    """The gathered configuration: ``center`` plus its six neighbours."""
    center_c = as_coord(center)
    return Configuration([center_c, *neighbors(center_c)])


def line(length: int = GATHERING_SIZE, direction: Direction = Direction.SE,
         start: Tuple[int, int] = (0, 0)) -> Configuration:
    """A straight line of ``length`` robots in ``direction`` starting at ``start``.

    The NW–SE line of seven robots is the configuration of Fig. 4 used
    throughout the impossibility proof of Theorem 1.
    """
    node = as_coord(start)
    nodes = [node]
    for _ in range(length - 1):
        node = node.step(direction)
        nodes.append(node)
    return Configuration(nodes)


def from_offsets(anchor: Tuple[int, int], offsets: Sequence[Tuple[int, int]]) -> Configuration:
    """Configuration consisting of ``anchor + offset`` for every offset."""
    anchor_c = as_coord(anchor)
    return Configuration(Coord(anchor_c.q + o[0], anchor_c.r + o[1]) for o in offsets)
