"""Robot views: what a robot observes during its Look phase.

The paper (Section II-A) defines the view of a robot as the set of robot
nodes within its visibility range, expressed relative to the robot's own
position (robots do not know global coordinates, only the shared compass).
Robots are transparent, so a robot behind another robot on the same axis is
still visible.

A :class:`View` is its packed bitmask over the visibility disk (see
:mod:`repro.grid.packing`) plus the range.  The algorithm modules query
views either by axial offset, by direction, or by the paper's Fig. 48 labels;
every query is a bit test against per-range tables built once.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from ..grid.coords import Coord, as_coord, disk, distance
from ..grid.directions import DIRECTIONS, Direction
from ..grid.labels import Label, label_of_offset
from ..grid.packing import offset_bit_table, pack_offsets, unpack_offsets, view_bit_count

__all__ = ["View", "view_of", "all_views_of"]


class _DiskTables(NamedTuple):
    """Bit lookups of one visibility disk, shared by every view of that range."""

    #: ``offset -> bit value`` and ``label -> bit value``.
    offset_bit: Dict[Tuple[int, int], int]
    label_bit: Dict[Label, int]
    #: Bits of the six adjacent nodes.
    adjacent: int
    #: ``(x, mask, ((label, bit), ...))`` of every x-element column, largest x
    #: first, members in label order.  Column 0 is always present.
    columns: Tuple[Tuple[int, int, Tuple[Tuple[Label, int], ...]], ...]


@lru_cache(maxsize=None)
def _disk_tables(visibility_range: int) -> _DiskTables:
    offset_bit = offset_bit_table(visibility_range)
    label_bit = {label_of_offset(o): bit for o, bit in offset_bit.items()}
    columns: Dict[int, List[Tuple[Label, int]]] = {0: []}
    for label, bit in label_bit.items():
        columns.setdefault(label[0], []).append((label, bit))
    return _DiskTables(
        offset_bit=offset_bit,
        label_bit=label_bit,
        adjacent=sum(offset_bit[d.value] for d in DIRECTIONS),
        columns=tuple(
            (x, sum(bit for _, bit in members), tuple(sorted(members)))
            for x, members in sorted(columns.items(), reverse=True)
        ),
    )


def _popcount(bits: int) -> int:
    return bin(bits).count("1")


class View:
    """The local observation of one robot.

    Parameters
    ----------
    occupied_offsets:
        Relative positions (axial offsets from the observing robot) of all
        robot nodes within the visibility range, *excluding* the robot's own
        node (which is always occupied).
    visibility_range:
        The visibility range of the robot (1 or 2 in the paper).
    """

    __slots__ = ("_bits", "_range", "_disk", "_offsets", "_labels")

    def __init__(self, occupied_offsets: Iterable[Tuple[int, int]], visibility_range: int) -> None:
        visibility_range = int(visibility_range)
        self._bits = pack_offsets(occupied_offsets, visibility_range)
        self._range = visibility_range
        self._disk = _disk_tables(visibility_range)
        self._offsets: Optional[FrozenSet[Coord]] = None
        self._labels: Optional[FrozenSet[Label]] = None

    # ------------------------------------------------------------ packed form
    @classmethod
    def from_bitmask(cls, bitmask: int, visibility_range: int) -> "View":
        """The view encoded by ``bitmask`` (see :mod:`repro.grid.packing`).

        Constant time: the view keeps the bitmask itself, and the offset and
        label sets are derived only if :attr:`occupied_offsets` or
        :attr:`occupied_labels` is read.

        Raises
        ------
        ValueError
            If ``bitmask`` has bits outside the visibility disk.
        """
        disk_tables = _disk_tables(visibility_range)
        if bitmask < 0 or bitmask >> len(disk_tables.offset_bit):
            raise ValueError(
                f"bitmask {bitmask:#x} has bits outside visibility range {visibility_range}"
            )
        view = cls.__new__(cls)
        view._bits = bitmask
        view._range = visibility_range
        view._disk = disk_tables
        view._offsets = None
        view._labels = None
        return view

    def bitmask(self) -> int:
        """Packed bitmask of this view over the canonical visibility disk."""
        return self._bits

    # ----------------------------------------------------------------- basics
    @property
    def visibility_range(self) -> int:
        """The visibility range this view was taken with."""
        return self._range

    @property
    def occupied_offsets(self) -> FrozenSet[Coord]:
        """Relative positions of visible robot nodes (excluding the robot itself)."""
        if self._offsets is None:
            self._offsets = frozenset(unpack_offsets(self._bits, self._range))
        return self._offsets

    @property
    def occupied_labels(self) -> FrozenSet[Label]:
        """Fig. 48 labels of visible robot nodes (excluding the robot itself)."""
        if self._labels is None:
            self._labels = frozenset(label_of_offset(o) for o in self.occupied_offsets)
        return self._labels

    def __eq__(self, other: object) -> bool:
        if isinstance(other, View):
            return self._bits == other._bits and self._range == other._range
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._bits, self._range))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        labels = ", ".join(str(l) for l in sorted(self.occupied_labels))
        return f"View(range={self._range}, robots=[{labels}])"

    def __len__(self) -> int:
        return _popcount(self._bits)

    # ---------------------------------------------------------------- queries
    def occupied(self, offset: Tuple[int, int]) -> bool:
        """Whether the node at the given axial ``offset`` holds a robot.

        The robot's own node (offset ``(0, 0)``) is always occupied.
        """
        key = (offset[0], offset[1])
        if key == (0, 0):
            return True
        return bool(self._bits & self._disk.offset_bit.get(key, 0))

    def occupied_label(self, label: Label) -> bool:
        """Whether the node with the given Fig. 48 ``label`` holds a robot."""
        key = (label[0], label[1])
        if key == (0, 0):
            return True
        return bool(self._bits & self._disk.label_bit.get(key, 0))

    def empty_label(self, label: Label) -> bool:
        """Whether the node with the given Fig. 48 ``label`` is an empty node."""
        return not self.occupied_label(label)

    def occupied_direction(self, direction: Direction) -> bool:
        """Whether the adjacent node in ``direction`` holds a robot."""
        return bool(self._bits & self._disk.offset_bit[direction.value])

    def adjacent_robot_directions(self) -> List[Direction]:
        """Directions of adjacent robot nodes, in canonical order."""
        return [d for d in DIRECTIONS if self.occupied_direction(d)]

    def adjacent_degree(self) -> int:
        """Number of adjacent robot nodes (the robot's degree)."""
        return _popcount(self._bits & self._disk.adjacent)

    def robots_at_distance(self, dist: int) -> List[Coord]:
        """Visible robot offsets at exactly ``dist`` from the robot."""
        return sorted(o for o in self.occupied_offsets if distance((0, 0), o) == dist)

    def _max_x_column(self) -> Tuple[int, int, Tuple[Tuple[Label, int], ...]]:
        bits = self._bits
        return next(c for c in self._disk.columns if c[0] <= 0 or bits & c[1])

    def max_x_element(self) -> int:
        """Largest x-element among visible robot nodes *including* the robot itself."""
        return self._max_x_column()[0]

    def labels_with_max_x(self) -> List[Label]:
        """Visible robot labels (including ``(0, 0)``) with the largest x-element."""
        x, _, members = self._max_x_column()
        bits = self._bits
        result = [label for label, bit in members if bits & bit]
        return result if x else sorted(result + [(0, 0)])

    def restricted(self, visibility_range: int) -> "View":
        """This view truncated to a smaller visibility range.

        The disk of a smaller range is a prefix of the larger one's bit order
        (:func:`repro.grid.packing.disk_offsets`), so this is a mask.
        """
        if visibility_range > self._range:
            raise ValueError("cannot enlarge a view; re-observe the configuration")
        keep = (1 << view_bit_count(visibility_range)) - 1
        return View.from_bitmask(self._bits & keep, visibility_range)


def view_of(configuration, position: Tuple[int, int], visibility_range: int) -> View:
    """Compute the view of the robot standing at ``position``.

    Parameters
    ----------
    configuration:
        A :class:`~repro.core.configuration.Configuration` (or any object with
        ``occupied``) describing the robot nodes.
    position:
        The robot's own node; it must be occupied.
    visibility_range:
        How far the robot can see (1 or 2 in the paper).
    """
    pos = as_coord(position)
    if not configuration.occupied(pos):
        raise ValueError(f"no robot at {pos}")
    offsets = []
    for node in disk(pos, visibility_range):
        if node == pos:
            continue
        if configuration.occupied(node):
            offsets.append(Coord(node.q - pos.q, node.r - pos.r))
    return View(offsets, visibility_range)


def all_views_of(configuration, visibility_range: int) -> List[Tuple[Coord, View]]:
    """The views of every robot of a configuration, keyed by robot position."""
    return [
        (pos, view_of(configuration, pos, visibility_range))
        for pos in configuration.sorted_nodes()
    ]
