"""Packed integer encodings of configurations and robot views.

The simulation kernel spends its life answering two questions, millions of
times: *"what does this robot see?"* and *"have we been in this configuration
before?"*.  Both answers are small, and this module encodes them as plain
Python integers so they can be computed, hashed and compared without
allocating frozensets or tuples:

* **View bitmasks** — the nodes a robot can see form the visibility disk
  around it (6 nodes for range 1, 18 for range 2, ``3r(r+1)`` in general,
  excluding the robot's own node).  Fixing a canonical enumeration of those
  offsets turns a view into a bitmask with one bit per disk node.  Because a
  gathering algorithm is a deterministic function of the view, the bitmask is
  a perfect memoisation key for the Compute phase (see
  :mod:`repro.core.engine`).
* **Packed configurations** — a configuration up to translation is the sorted
  tuple of node offsets from its lexicographically smallest node.  Bit-packing
  those offsets into one integer gives a canonical, cheaply hashable key with
  exactly the equality semantics of
  :meth:`repro.core.configuration.Configuration.canonical_key`: two node sets
  pack to the same integer if and only if one is a translate of the other.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .coords import Coord, as_coord, disk

__all__ = [
    "disk_offsets",
    "offset_bit_table",
    "view_bit_count",
    "pack_offsets",
    "unpack_offsets",
    "view_bitmask",
    "all_view_bitmasks",
    "pack_nodes",
    "pack_rows",
    "unpack_nodes",
    "packed_count",
    "COORD_BITS",
]

#: Bits per packed coordinate component.  Components must lie strictly within
#: ``(-2**20, 2**20)``; executions bounded by the engine's round budget stay
#: many orders of magnitude below this.
COORD_BITS = 21
_COORD_OFFSET = 1 << (COORD_BITS - 1)
_COORD_MASK = (1 << COORD_BITS) - 1
_NODE_BITS = 2 * COORD_BITS
_NODE_MASK = (1 << _NODE_BITS) - 1
#: Bits reserved for the node count (supports up to 63 robots).
_COUNT_BITS = 6
_COUNT_MASK = (1 << _COUNT_BITS) - 1

@lru_cache(maxsize=None)
def disk_offsets(visibility_range: int) -> Tuple[Coord, ...]:
    """Canonical enumeration of the visibility disk, excluding the origin.

    Offsets are listed ring by ring (distance 1 first), each ring in the
    deterministic walk order of :func:`repro.grid.coords.ring`.  Bit ``i`` of a
    view bitmask refers to ``disk_offsets(range)[i]``.  Memoized per range —
    every engine, explorer and table-kernel invocation shares one table.
    """
    if visibility_range < 1:
        raise ValueError("visibility_range must be at least 1")
    return tuple(o for o in disk((0, 0), visibility_range) if o != (0, 0))


@lru_cache(maxsize=None)
def offset_bit_table(visibility_range: int) -> Dict[Tuple[int, int], int]:
    """Mapping ``offset -> bit value`` (``1 << i``) for the visibility disk.

    The table stores bit *values* rather than indices so the hot loop can OR
    them directly without a shift.  Memoized per range; callers treat the
    returned mapping as read-only.
    """
    return {
        (off.q, off.r): 1 << index
        for index, off in enumerate(disk_offsets(visibility_range))
    }


def view_bit_count(visibility_range: int) -> int:
    """Number of bits in a view bitmask: ``3 r (r + 1)`` for range ``r``."""
    return len(disk_offsets(visibility_range))


def pack_offsets(offsets: Iterable[Tuple[int, int]], visibility_range: int) -> int:
    """Bitmask of the given relative ``offsets`` (the robot's own node excluded).

    Raises
    ------
    ValueError
        If an offset lies outside the visibility disk.
    """
    table = offset_bit_table(visibility_range)
    bitmask = 0
    for offset in offsets:
        key = (offset[0], offset[1])
        if key == (0, 0):
            continue
        try:
            bitmask |= table[key]
        except KeyError:
            raise ValueError(
                f"offset {key} lies outside visibility range {visibility_range}"
            ) from None
    return bitmask


def unpack_offsets(bitmask: int, visibility_range: int) -> Tuple[Coord, ...]:
    """The relative offsets encoded by ``bitmask``, in canonical disk order."""
    offsets = disk_offsets(visibility_range)
    if bitmask < 0 or bitmask >> len(offsets):
        raise ValueError(
            f"bitmask {bitmask:#x} has bits outside visibility range {visibility_range}"
        )
    return tuple(off for index, off in enumerate(offsets) if bitmask & (1 << index))


def view_bitmask(
    occupied: Iterable[Tuple[int, int]],
    position: Tuple[int, int],
    visibility_range: int,
) -> int:
    """Bitmask view of the robot at ``position`` over the ``occupied`` nodes."""
    table = offset_bit_table(visibility_range)
    pq, pr = position[0], position[1]
    bitmask = 0
    for node in occupied:
        bit = table.get((node[0] - pq, node[1] - pr))
        if bit is not None:
            bitmask |= bit
    return bitmask


def all_view_bitmasks(
    occupied: Iterable[Tuple[int, int]], visibility_range: int
) -> List[Tuple[Coord, int]]:
    """``(position, bitmask)`` for every robot, in lexicographic position order.

    This is the one-pass Look phase of the packed kernel: every pairwise
    displacement is looked up once in the offset table.
    """
    table = offset_bit_table(visibility_range)
    positions = sorted(as_coord(n) for n in occupied)
    results: List[Tuple[Coord, int]] = []
    for pos in positions:
        pq, pr = pos
        bitmask = 0
        for other in positions:
            bit = table.get((other[0] - pq, other[1] - pr))
            if bit is not None:
                bitmask |= bit
        results.append((pos, bitmask))
    return results


def pack_nodes(nodes: Iterable[Tuple[int, int]]) -> int:
    """Canonical packed integer of a node set, up to translation.

    The nodes are translated so the lexicographically smallest node becomes
    the origin, sorted, and bit-packed (21 bits per signed component, node
    count in the low 6 bits).  Two node sets pack to the same integer exactly
    when they are translates of each other, so the result is a drop-in,
    faster replacement for
    :meth:`~repro.core.configuration.Configuration.canonical_key` keys.
    """
    pairs = [(n[0], n[1]) for n in nodes]
    if not pairs:
        return 0
    if len(pairs) > _COUNT_MASK:
        raise ValueError(f"cannot pack more than {_COUNT_MASK} nodes")
    aq, ar = min(pairs)
    deltas = sorted((q - aq, r - ar) for q, r in pairs)
    packed = 0
    for dq, dr in deltas:
        cq = dq + _COORD_OFFSET
        cr = dr + _COORD_OFFSET
        if not (0 <= cq <= _COORD_MASK and 0 <= cr <= _COORD_MASK):
            raise ValueError(f"node offset ({dq}, {dr}) exceeds the packing range")
        packed = (packed << _NODE_BITS) | (cq << COORD_BITS) | cr
    return (packed << _COUNT_BITS) | len(deltas)


def pack_rows(positions) -> List[int]:
    """:func:`pack_nodes` of every row of a canonical ``(N, n, 2)`` array.

    The rows must already be canonical (sorted, anchored at their smallest
    node), as the enumeration's are.  Each row's integer is then laid out as
    a big-endian bit string (the node codes, then the count) and read back
    with ``int.from_bytes``: one array pass per block of rows instead of a
    Python loop over every node.  Blocks of 2048 rows keep the bit arrays
    to a few megabytes.
    """
    import numpy as np  # late: the scalar packers do not need numpy

    count, n = positions.shape[0], positions.shape[1]
    width = n * _NODE_BITS + _COUNT_BITS
    pad = -width % 8
    step = (pad + width) // 8
    count_bits = (n >> np.arange(_COUNT_BITS - 1, -1, -1)) & 1
    packed: List[int] = []
    block = 2048
    for first in range(0, count, block):
        rows = positions[first : first + block].astype(np.int64) + _COORD_OFFSET
        codes = (rows[..., 0] << COORD_BITS) | rows[..., 1]  # (B, n), 42 bits each
        # The low 42 of each code's 64 big-endian bits, node after node.
        code_bits = np.unpackbits(
            codes.astype(">u8").view(np.uint8).reshape(len(rows), n, 8), axis=2
        )[:, :, 64 - _NODE_BITS :]
        bits = np.zeros((len(rows), pad + width), dtype=np.uint8)
        bits[:, pad : pad + n * _NODE_BITS] = code_bits.reshape(len(rows), -1)
        bits[:, pad + n * _NODE_BITS :] = count_bits
        raw = np.packbits(bits, axis=1).tobytes()
        packed.extend(
            int.from_bytes(raw[i : i + step], "big") for i in range(0, len(raw), step)
        )
    return packed


def packed_count(packed: int) -> int:
    """Node count of a packed configuration (the layout's low count bits)."""
    return packed & _COUNT_MASK


def unpack_nodes(packed: int) -> Tuple[Coord, ...]:
    """Invert :func:`pack_nodes`: the canonical (origin-anchored) node tuple."""
    if packed < 0:
        raise ValueError("packed configuration must be non-negative")
    count = packed & _COUNT_MASK
    packed >>= _COUNT_BITS
    nodes: List[Coord] = []
    for _ in range(count):
        cr = packed & _COORD_MASK
        cq = (packed >> COORD_BITS) & _COORD_MASK
        packed >>= _NODE_BITS
        nodes.append(Coord(cq - _COORD_OFFSET, cr - _COORD_OFFSET))
    if packed:
        raise ValueError("packed configuration has trailing bits")
    return tuple(reversed(nodes))
