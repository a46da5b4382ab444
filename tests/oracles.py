"""Slow reference implementations the property tests hold the fast paths to.

* :func:`collision_flags_pairwise` — the ``(M, n, n)`` pairwise-tensor
  collision predicates, the oracle of the table kernel's sort +
  adjacent-compare ``_collision_flags_sorted``;
* :func:`byte_index_lookup` — a scalar dictionary lookup of canonical blocks,
  the oracle of the vectorized ``CanonicalIndex``;
* :func:`expand_packed_combinations` — the ``itertools.combinations`` SSYNC
  expansion, the oracle of the bitset ``expand_packed``;
* :func:`grow_level_sets` / :func:`sorted_levels` — the set-based polyhex
  grower (one packed int per seen shape), the oracle of the NumPy level
  grower ``canonical_positions``.
"""
from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.configuration import Configuration
from repro.core.engine import (
    _is_connected_nodes,
    apply_moves_nodes,
    detect_collision_nodes,
    move_intents,
)
from repro.explore.transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    MODES,
    TERMINAL_DEADLOCK,
    TERMINAL_GATHERED,
)
from repro.grid.coords import Coord, neighbors
from repro.grid.packing import pack_nodes, unpack_nodes


def collision_flags_pairwise(pos_key, target_key, movers):
    """Per-row swap / move-onto-staying / same-target via pairwise tensors."""
    n = movers.shape[1]
    hits = (target_key[:, :, None] == pos_key[:, None, :]) & movers[:, :, None]
    swap = (hits & hits.transpose(0, 2, 1)).any(axis=(1, 2))
    onto_staying = (hits & ~movers[:, None, :]).any(axis=(1, 2))
    same = target_key[:, :, None] == target_key[:, None, :]
    same &= movers[:, :, None] & movers[:, None, :]
    same &= ~np.eye(n, dtype=bool)[None, :, :]
    same_target = same.any(axis=(1, 2))
    return swap, onto_staying, same_target


def byte_index_lookup(positions):
    """A scalar ``bytes -> row`` lookup over a view table's canonical rows."""
    canonical8 = np.ascontiguousarray(positions.astype(np.int8))
    index: Dict[bytes, int] = {canonical8[i].tobytes(): i for i in range(len(canonical8))}

    def lookup(canonical):
        return np.array([index.get(block.tobytes(), -1) for block in canonical], dtype=np.int64)

    return lookup


def expand_packed_combinations(
    packed: int,
    algorithm,
    mode: str = "fsync",
    require_connectivity: bool = True,
) -> Tuple[Tuple[Tuple[int, int], ...], Optional[str]]:
    """The ``itertools.combinations`` expansion of one vertex.

    The engine's own ``detect_collision_nodes`` / ``apply_moves_nodes`` are
    consulted per activation subset.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; available: {MODES}")
    positions = unpack_nodes(packed)
    position_set = frozenset(positions)
    intents = move_intents(position_set, algorithm)
    if not intents:
        kind = (
            TERMINAL_GATHERED
            if Configuration(positions).is_gathered()
            else TERMINAL_DEADLOCK
        )
        return (), kind

    index_of = {pos: index for index, pos in enumerate(positions)}
    movers = sorted(intents)
    if mode == "fsync":
        subsets: Iterable[Tuple] = (tuple(movers),)
    else:
        subsets = (
            subset
            for size in range(1, len(movers) + 1)
            for subset in combinations(movers, size)
        )

    targets: Dict[int, int] = {}
    for subset in subsets:
        bits = 0
        for pos in subset:
            bits |= 1 << index_of[pos]
        moves = {pos: intents[pos] for pos in subset}
        if detect_collision_nodes(position_set, moves) is not None:
            destination = COLLISION_SINK
        else:
            next_nodes = apply_moves_nodes(position_set, moves)
            if require_connectivity and not _is_connected_nodes(next_nodes):
                destination = DISCONNECT_SINK
            else:
                destination = pack_nodes(next_nodes)
        if destination not in targets:
            targets[destination] = bits
    return tuple((bits, destination) for destination, bits in targets.items()), None


def grow_level_sets(previous: Sequence[Tuple[Coord, ...]]) -> Iterator[Tuple[Coord, ...]]:
    """Stream the canonical ``k+1``-node shapes grown from the ``k``-node level.

    Every connected set is a smaller connected set plus one adjacent node;
    deduplication keys on the packed canonical integer.  Emission order is
    growth order (unspecified).
    """
    seen: Set[int] = set()
    for shape in previous:
        shape_set = set(shape)
        candidates: Set[Coord] = set()
        for node in shape:
            for nb in neighbors(node):
                if nb not in shape_set:
                    candidates.add(nb)
        for candidate in candidates:
            key = pack_nodes(shape_set | {candidate})
            if key not in seen:
                seen.add(key)
                yield unpack_nodes(key)


def sorted_levels(size: int) -> List[List[Tuple[Coord, ...]]]:
    """The sorted canonical levels ``1..size``, each grown from the one below."""
    levels = [[(Coord(0, 0),)]]
    while len(levels) < size:
        levels.append(sorted(grow_level_sets(levels[-1])))
    return levels
