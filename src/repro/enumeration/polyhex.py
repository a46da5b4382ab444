"""Exhaustive enumeration of connected robot configurations.

Section IV-B of the paper validates the visibility-2 algorithm by simulating
it "from all possible connected initial configurations (3652 patterns in
total)".  A connected configuration of seven robots, counted up to
translation only (robots agree on the compass, so rotated or reflected
configurations are genuinely different inputs), is exactly a *fixed polyhex*
with seven cells: the triangular-grid nodes are the cells of the hexagonal
tiling and grid adjacency is cell adjacency.  The number of fixed polyhexes
(OEIS A001207) is

====  =======
n     count
====  =======
1     1
2     3
3     11
4     44
5     186
6     814
7     3652
8     16689
9     77359
10    362671
====  =======

so the paper's 3652 is recovered exactly by this enumeration, and the n>7
scale-out of the state-space engine uses the same machinery.

Every connected ``n``-node set is a connected ``(n-1)``-node set plus one
adjacent node, so :func:`canonical_positions` grows each level from the
memoized level below it as one NumPy array: all six neighbours of every
cell of every shape, minus repeats and occupied cells, each inserted at its
sort position in its (already sorted) parent row and re-anchored on the
first cell.  Each grown row packs into a few ``uint64`` words whose integer
order is the rows' lexicographic order, so one ``lexsort`` plus a
first-of-each-run mask deduplicates the level *and* leaves it in the order
``sorted()`` gives over canonical tuples — the row order every table uses.
The previous level is processed in blocks, so the transient arrays stay
small at ``n = 10``.  ``n = 9`` takes a fraction of a second and ``n = 10``
about a second on a 2-core host.

The tuple views (:func:`enumerate_canonical_node_sets`,
:func:`iter_canonical_node_sets`) read that array; one memoized tuple copy
per size (:func:`canonical_shapes`) serves every tuple consumer in a process.
"""
from __future__ import annotations

import time
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..core.configuration import Configuration
from ..grid.coords import Coord
from ..grid.directions import DIRECTIONS
from ..grid.symmetry import canonical_up_to_symmetry
from ..obs import metrics as _obs
from ..obs import record_span as _obs_record_span

__all__ = [
    "FIXED_POLYHEX_COUNTS",
    "FREE_POLYHEX_COUNTS",
    "canonical_positions",
    "canonical_shapes",
    "enumerate_canonical_node_sets",
    "enumerate_connected_configurations",
    "count_connected_configurations",
    "count_free_configurations",
    "iter_canonical_node_sets",
    "iter_connected_configurations",
]

#: Known counts of connected n-node configurations up to translation
#: (fixed polyhexes, OEIS A001207).  Used by the tests, the E1 benchmark and
#: the table kernel's state-space size estimates.
FIXED_POLYHEX_COUNTS: Dict[int, int] = {
    1: 1,
    2: 3,
    3: 11,
    4: 44,
    5: 186,
    6: 814,
    7: 3652,
    8: 16689,
    9: 77359,
    10: 362671,
}

#: Known counts of connected n-node configurations up to translation, rotation
#: and reflection (free polyhexes, OEIS A000228).  Used only by the analysis
#: modules for grouping into symmetry classes.
FREE_POLYHEX_COUNTS: Dict[int, int] = {
    1: 1,
    2: 1,
    3: 3,
    4: 7,
    5: 22,
    6: 82,
    7: 333,
}

#: Axial neighbour displacements, as an ``(6, 2)`` array.
_DELTAS = np.array([direction.value for direction in DIRECTIONS], dtype=np.int32)

#: Rows per block, both of the previous level while growing (bounding the
#: neighbour arrays and the grown rows to a few tens of MB at ``n = 10``)
#: and of a level while converting it to tuples.
_BLOCK_ROWS = 8192


def _pack_keys(cells: "np.ndarray", bits: int) -> "np.ndarray":
    """``(M, k)`` non-negative cell keys -> ``(M, words)`` uint64 sort keys.

    Cells fill each word from the most significant end, so comparing the
    words in order compares the rows lexicographically.
    """
    per_word = 64 // bits
    words = []
    for start in range(0, cells.shape[1], per_word):
        word = np.zeros(len(cells), dtype=np.uint64)
        for column in range(start, min(start + per_word, cells.shape[1])):
            word <<= np.uint64(bits)
            word |= cells[:, column].astype(np.uint64)
        words.append(word)
    return np.stack(words, axis=1)


def _unpack_keys(keys: "np.ndarray", cells: int, bits: int) -> "np.ndarray":
    """Invert :func:`_pack_keys`: ``(M, words)`` -> ``(M, cells)`` int16."""
    per_word = 64 // bits
    out = np.empty((len(keys), cells), dtype=np.int16)
    mask = np.uint64((1 << bits) - 1)
    for index, start in enumerate(range(0, cells, per_word)):
        word = keys[:, index].copy()
        for column in reversed(range(start, min(start + per_word, cells))):
            out[:, column] = word & mask
            word >>= np.uint64(bits)
    return out


def _grow_block(cells: "np.ndarray", width: int, bits: int) -> "np.ndarray":
    """Packed sort keys of every child of one block of parent rows.

    ``cells`` is ``(B, k)`` sorted cell keys with ``cells[:, 0] == 0``; the
    result has one row per distinct free neighbour of each parent.
    """
    rows, k = cells.shape
    neighbours = (cells[:, :, None] + (_DELTAS[:, 0] * width + _DELTAS[:, 1])).reshape(rows, -1)
    neighbours.sort(axis=1)
    fresh = np.ones(neighbours.shape, dtype=bool)
    fresh[:, 1:] = neighbours[:, 1:] != neighbours[:, :-1]
    # Row b's keys plus b * stride sort after row b-1's: one flat sorted array.
    stride = (k + 2) * width
    offsets = np.arange(rows, dtype=np.int32)[:, None] * stride
    occupied = (cells + offsets).ravel()
    shifted = neighbours + offsets
    hit = np.minimum(np.searchsorted(occupied, shifted), len(occupied) - 1)
    fresh &= occupied[hit] != shifted
    parent, slot = np.nonzero(fresh)
    added = neighbours[parent, slot]
    base = cells[parent]
    # Insert each new cell at its sort position in its parent row and
    # re-anchor on the first cell, which is the new cell when it sorts first
    # and the parent's (0, 0) otherwise.  Column 0 is then always 0 and is
    # not stored.
    at = (base < added[:, None]).sum(axis=1)
    grown = np.empty((len(added), k), dtype=np.int32)
    for column in range(1, k + 1):
        value = np.where(at == column, added, base[:, column - 1])
        if column < k:
            value = np.where(at > column, base[:, column], value)
        grown[:, column - 1] = value
    grown -= np.where(at == 0, added, 0)[:, None]
    return _pack_keys(grown, bits)


def _grow_positions(previous: "np.ndarray") -> Tuple["np.ndarray", int]:
    """The sorted ``k+1``-cell level grown from the sorted ``k``-cell level.

    Returns ``(positions, candidates)``: the ``(N, k+1, 2)`` int16 level and
    the number of grown rows (one per distinct free neighbour of each parent)
    before deduplication.
    """
    rows, k, _ = previous.shape
    size = k + 1
    if rows and int(np.abs(previous).max()) > k - 1:
        raise ValueError(
            f"level {k} has a coordinate outside |q|, |r| <= {k - 1}: "
            "not a canonical connected level"
        )
    # Cell key q * width + r.  A connected k-cell shape anchored at its
    # smallest cell has |r| <= k - 1, so parents, their neighbours and the
    # re-anchored children all keep |r| <= size - 1: with this width the key
    # increases with (q, r) and translating a shape subtracts one key.
    width = 2 * size - 1
    bits = (size * width - 1).bit_length()
    packed = []
    for start in range(0, rows, _BLOCK_ROWS):
        block = previous[start : start + _BLOCK_ROWS].astype(np.int32)
        packed.append(_grow_block(block[:, :, 0] * width + block[:, :, 1], width, bits))
    keys = np.concatenate(packed)
    candidates = len(keys)
    del packed
    keys = keys[np.lexsort(keys.T[::-1])]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys = keys[first]
    cells = np.zeros((len(keys), size), dtype=np.int16)
    cells[:, 1:] = _unpack_keys(keys, k, bits)
    del keys
    positions = np.empty(cells.shape + (2,), dtype=np.int16)
    positions[:, :, 0] = (cells + (size - 1)) // width
    positions[:, :, 1] = cells - positions[:, :, 0] * width
    return positions, candidates


@lru_cache(maxsize=None)
def canonical_positions(size: int) -> "np.ndarray":
    """Every canonical ``size``-node shape as one read-only ``(N, n, 2)`` array.

    Row ``i`` lists the nodes of shape ``i`` as ``(q, r)`` pairs, sorted and
    anchored so the first is ``(0, 0)``; rows are in the order ``sorted()``
    gives over the canonical tuples.  Memoized per size (each level grows
    from the memoized one below it); every table build, census and
    exploration in a process shares the one array.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    start = time.perf_counter()
    if size == 1:
        positions, candidates = np.zeros((1, 1, 2), dtype=np.int16), 0
    else:
        positions, candidates = _grow_positions(canonical_positions(size - 1))
    expected = FIXED_POLYHEX_COUNTS.get(size, len(positions))
    if len(positions) != expected:
        raise RuntimeError(
            f"enumerated {len(positions)} shapes of n={size}, expected {expected}"
        )
    positions.setflags(write=False)
    from ..core.table_kernel import record_peak_rss  # late: avoids an import cycle

    _obs.counter("enumeration.shapes").inc(len(positions))
    record_peak_rss()
    _obs_record_span(
        "enumeration.grow",
        time.perf_counter() - start,
        size=size,
        candidates=candidates,
        shapes=len(positions),
    )
    return positions


def _shape_tuples(positions: "np.ndarray") -> Iterator[Tuple[Coord, ...]]:
    """Stream the rows of a canonical level as tuples of shared ``Coord``\\ s."""
    size = positions.shape[1]
    width = 2 * size - 1  # the cell-key radix of _grow_positions
    # One Coord per reachable (q, r), shared by every shape that contains it.
    coords = [Coord(q, r) for q in range(size) for r in range(1 - size, size)]
    index = positions[:, :, 0].astype(np.int32) * width + positions[:, :, 1] + (size - 1)
    lookup = coords.__getitem__
    for start in range(0, len(index), _BLOCK_ROWS):
        for row in index[start : start + _BLOCK_ROWS].tolist():
            yield tuple(map(lookup, row))


@lru_cache(maxsize=None)
def canonical_shapes(size: int) -> Tuple[Tuple[Coord, ...], ...]:
    """The memoized tuple view of :func:`canonical_positions` (row for row).

    The one tuple copy of a level per process: the fixtures, the packed
    explorer's root set and the sweep grid share it.
    """
    return tuple(_shape_tuples(canonical_positions(size)))


def iter_canonical_node_sets(size: int) -> Iterator[Tuple[Coord, ...]]:
    """Stream the canonical node sets of one size, in sorted order.

    Converts the memoized array block by block without keeping the tuples —
    the memory-lean path for one-pass consumers at ``n >= 9``.
    """
    return _shape_tuples(canonical_positions(size))


def enumerate_canonical_node_sets(size: int) -> List[Tuple[Coord, ...]]:
    """All connected node sets of ``size`` nodes, canonical up to translation.

    The result is a sorted list of canonical keys (sorted coordinate tuples
    whose lexicographically smallest node is the origin), suitable both for
    building :class:`Configuration` objects and for hashing.  The underlying
    enumeration is memoized per size; the returned list is a fresh copy, so
    callers may slice or mutate it freely.
    """
    return list(canonical_shapes(size))


def enumerate_connected_configurations(size: int = 7) -> List[Configuration]:
    """All connected configurations of ``size`` robots up to translation.

    For ``size = 7`` this returns the 3652 initial configurations of the
    paper's exhaustive simulation, each anchored so that its lexicographically
    smallest robot node is the origin.
    """
    return [Configuration(shape) for shape in enumerate_canonical_node_sets(size)]


def iter_connected_configurations(size: int = 7) -> Iterator[Configuration]:
    """Iterate over the connected configurations of ``size`` robots lazily."""
    for shape in enumerate_canonical_node_sets(size):
        yield Configuration(shape)


def count_connected_configurations(size: int) -> int:
    """Number of connected configurations of ``size`` robots up to translation."""
    return len(canonical_positions(size))


def count_free_configurations(size: int) -> int:
    """Number of connected configurations up to translation, rotation and reflection."""
    shapes = enumerate_canonical_node_sets(size)
    return len({canonical_up_to_symmetry(shape) for shape in shapes})
