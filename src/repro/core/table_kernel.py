"""The vectorized successor-table simulation kernel (``kernel="table"``).

The reachable world of the paper is tiny and *closed*: every connected
configuration of ``n <= 7`` robots is (up to translation) one of the fixed
polyhexes enumerated by :mod:`repro.enumeration.polyhex` — 3652 of them for
seven robots — and a synchronous round maps a connected configuration either
to another member of that same set or to a failure (collision /
disconnection).  Instead of replaying Look–Compute–Move one robot-dict at a
time, this kernel materializes the whole transition function once, as NumPy
arrays, in one pipeline — enumerate → geometry → decisions → resolve — that
both tiers run (the in-RAM :class:`SuccessorTable` here, the out-of-core
shard store in :mod:`repro.core.sharded_tables`); only where the arrays go
differs:

* **Look, batched** (:func:`_geometry_pass`, span ``table.geometry``) — all
  ``n x N`` view bitmasks are computed in one vectorized pass: a small LUT
  over pairwise displacements (derived from
  :func:`repro.grid.packing.offset_bit_table`) is gathered for every robot
  pair of every configuration and OR-reduced per robot.
* **Compute, gathered** (:func:`_decision_pass`, span ``table.compute``) —
  the distinct view bitmasks (about 5.2k for the full seven-robot space) are
  resolved once through the algorithm's decision cache, the misses in one
  call to the algorithm's batch method (an array pass for
  ``shibata-visibility2``); every robot's move is then a single array
  gather ``codes[view_slot]``.
* **Move, resolved** (:func:`_resolve_pass`, span ``table.resolve``) — the
  full-activation successor of every configuration is computed vectorized
  with one sort per row (:func:`resolve_rows_arrays`): sorting the robots'
  landing keys finds the move-onto-staying and same-target collisions and
  orders the successor's canonical block, one batch-wide ``searchsorted``
  finds the swaps (precedence swap > move-onto-staying > same-target, as in
  the engine), and connectivity is read off the index lookup — the space
  holds every connected configuration, so only the blocks the index misses
  are checked, and a connected miss raises.
  The result is a *functional graph* ``succ[i]`` plus a per-row kind (step /
  gathered / deadlock / collision / disconnect) and the per-row mover
  bitmask that feeds the SSYNC explorer's activation-subset enumeration.

FSYNC execution then reduces to one pointer-doubling pass over ``succ``
(:func:`_summary_pass`) that resolves the outcome of every row at once, in
``O(N log N)`` vectorized work instead of a Python walk per row.
Adversarial SSYNC expansion reuses the resolve core
(:meth:`SuccessorTable.expand_level`): activating a subset of a row's movers
is the full-activation round with the other movers' codes zeroed, so every
subset of every row resolves in one array pass.

**Delta-aware invalidation** is what makes the kernel pay off inside the
CEGIS loop (:mod:`repro.synth`): a candidate rule set touches a known set of
exact views, so :meth:`SuccessorTable.derive` recomputes only the rows whose
view multiset intersects the changed views and re-resolves those rows
vectorized, sharing every untouched array with the parent table.  The tables
derived from one built table share a memo of resolved row states (a row
plus its move codes), so a search that revisits a decision resolves each
such state once.

The kernel is exact, not approximate: every query answered from the table is
byte-identical to the packed kernel (``tests/test_table_kernel.py`` checks
outcomes, traces and censuses over the full state space).  It requires NumPy
and is restricted to connected configurations with connectivity enforced and
a size within :func:`max_table_size` — a **soft, memory-estimated bound**
(n=9 with the default budget; ``REPRO_TABLE_MEMORY_BUDGET`` adjusts it).
Tables are built in chunked passes over row blocks so peak memory stays
bounded, and the engine falls back to the packed kernel for genuinely
out-of-scope inputs.
"""
from __future__ import annotations

import os
import sys
import time

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..grid.directions import Direction
from ..grid.packing import offset_bit_table, pack_nodes, pack_rows, view_bit_count
from ..obs import get_logger
from ..obs import metrics as _obs
from ..obs import record_span as _obs_record_span
from .algorithm import GatheringAlgorithm
from .bitsets import subset_masks
from .configuration import Configuration
from .trace import Outcome

_LOG = get_logger("core.table_kernel")

__all__ = [
    "HARD_MAX_TABLE_SIZE",
    "DEFAULT_TABLE_MEMORY_BUDGET",
    "ViewTable",
    "SuccessorTable",
    "TableFsyncVerdict",
    "TableSsyncVerdict",
    "CanonicalIndex",
    "estimate_table_bytes",
    "estimate_sharded_bytes",
    "max_table_size",
    "table_in_scope",
    "view_in_scope",
    "sharded_max_table_size",
    "sharded_in_scope",
    "record_peak_rss",
    "subset_masks",
    "view_table",
    "register_view_table",
    "clear_table_caches",
    "successor_table",
    "scoped_table",
    "VIEW_ARRAY_FIELDS",
    "SUCC_ARRAY_FIELDS",
]

#: The paper's own scope (and the size where the gathering predicate switches
#: to the filled-hexagon test of Definition 1).
GATHERING_SIZE = 7

#: Absolute ceiling of the table kernel, independent of the memory budget.
#: Beyond it the state-space size is extrapolated rather than known and the
#: packed fallback takes over unconditionally.
HARD_MAX_TABLE_SIZE = 12

#: Default memory budget (bytes) for materialized state-space tables.  The
#: soft size bound :func:`max_table_size` admits every size whose estimated
#: table footprint fits; override with ``REPRO_TABLE_MEMORY_BUDGET``.
DEFAULT_TABLE_MEMORY_BUDGET = 1 << 30

#: Empirical growth ratio of fixed-polyhex counts (OEIS A001207), used to
#: extrapolate state-space sizes beyond the known table.
_STATE_SPACE_GROWTH = 4.7

#: Rows per chunked construction / resolution pass: bounds the transient
#: ``(block, n, n)`` arrays of the view build and the successor resolution so
#: peak memory stays a small multiple of the resident table, whatever `n` is.
_BUILD_BLOCK = 8192

#: Environment variable naming the default table-store directory.
_TABLE_CACHE_ENV = "REPRO_TABLE_CACHE"

#: The arrays of one table, by attribute name: the :class:`ViewTable` arrays,
#: then the :class:`SuccessorTable` arrays.  A table store with no shards
#: holds exactly these (:mod:`repro.core.sharded_tables`).
VIEW_ARRAY_FIELDS = (
    "positions",
    "views",
    "unique_views",
    "view_slot",
    "_rows_by_slot",
    "_slot_bounds",
    "diameters",
    "gathered",
)
#: The per-row arrays :func:`resolve_rows_arrays` returns, in its order.
RESOLVED_FIELDS = ("mover_bits", "mover_count", "kind", "succ", "collision_code")
SUCC_ARRAY_FIELDS = ("codes", "move_code") + RESOLVED_FIELDS


def state_space_size(size: int) -> int:
    """(Estimated) number of connected ``size``-robot configurations."""
    from ..enumeration.polyhex import FIXED_POLYHEX_COUNTS  # late: cycle

    known = FIXED_POLYHEX_COUNTS.get(size)
    if known is not None:
        return known
    top = max(FIXED_POLYHEX_COUNTS)
    count = FIXED_POLYHEX_COUNTS[top]
    for _ in range(size - top):
        count = int(count * _STATE_SPACE_GROWTH)
    return count


def estimate_table_bytes(size: int) -> int:
    """Approximate resident footprint of one ``ViewTable`` + ``SuccessorTable``.

    Per row: the numpy arrays (positions/views/slots/successors, ~``11n + 20``
    bytes) plus a pessimistic allowance for the lazily-built Python-side
    structures — the process-wide ``canonical_shapes`` tuples and the packed
    lookup list and dictionary — which dominate at Python object prices (a
    tuple-keyed row index alone once measured ~1.3 kB/row at n=9).  The
    chunked builds keep transients below this resident cost.  Sizes that
    fail this bound may still be served out of core by the sharded tier
    (:func:`sharded_in_scope`), which never builds the Python-side
    structures.
    """
    rows = state_space_size(size)
    per_row = (11 * size + 20) + (280 * size + 400)
    return rows * per_row


def estimate_sharded_bytes(size: int) -> int:
    """Approximate *resident* footprint of one sharded table's global arrays.

    The sharded tier (:mod:`repro.core.sharded_tables`) keeps only the narrow
    per-row graph arrays in RAM — kind/succ/movers/collision/gathered/
    diameters, ~19 bytes per row — plus the memmapped canonical-index arrays
    (hash + order + int8 position block, ``16 + 2n`` bytes per row, paged in
    on demand).  The wide per-shard payloads (positions, views, move codes)
    stream from disk with a bounded LRU and never count against the budget.
    """
    rows = state_space_size(size)
    return rows * (35 + 2 * size)


def _memory_budget(budget: Optional[int]) -> int:
    """``budget``, else ``REPRO_TABLE_MEMORY_BUDGET``, else the default."""
    if budget is not None:
        return budget
    env = os.environ.get("REPRO_TABLE_MEMORY_BUDGET")
    return int(env) if env else DEFAULT_TABLE_MEMORY_BUDGET


def max_table_size(budget: Optional[int] = None) -> int:
    """The soft size bound: the largest size whose table fits the budget.

    The bound is also capped by the largest robot count whose gathering
    predicate is known (``Configuration._MIN_DIAMETER``) and by
    :data:`HARD_MAX_TABLE_SIZE`; extending the predicate table lifts it.
    """
    budget = _memory_budget(budget)
    best = 0
    for size in range(1, HARD_MAX_TABLE_SIZE + 1):
        if estimate_table_bytes(size) > budget:
            break
        best = size
    return min(best, max(_MIN_DIAMETER))


def table_in_scope(size: int) -> bool:
    """Whether the table kernel covers ``size``-robot configurations."""
    return 1 <= size <= max_table_size()


def view_in_scope(visibility_range: int) -> bool:
    """Whether range-``r`` views (``3 r (r + 1)`` bits) fit the int32 view column.

    Range 2 (18 bits) does; range 3 (36) and the full-visibility baselines
    (range 6, 126) do not and run on the packed kernel instead.
    """
    return view_bit_count(visibility_range) <= 31


def sharded_max_table_size(budget: Optional[int] = None) -> int:
    """The sharded tier's size bound: out-of-core tables past the RAM bound.

    A size is admitted when (a) its exact state-space size is known
    (``FIXED_POLYHEX_COUNTS`` — the sharded tier never builds against an
    extrapolated count, so a multi-hour build can't be triggered by a scope
    check alone), (b) the gathering predicate covers it, and (c) the
    *resident* slice of the sharded layout (:func:`estimate_sharded_bytes`)
    fits the same ``REPRO_TABLE_MEMORY_BUDGET`` the in-RAM bound uses.
    With the default budget this is n=10 (362,671 rows).
    """
    from ..enumeration.polyhex import FIXED_POLYHEX_COUNTS  # late: cycle

    budget = _memory_budget(budget)
    best = 0
    for size in range(1, HARD_MAX_TABLE_SIZE + 1):
        if size not in FIXED_POLYHEX_COUNTS or estimate_sharded_bytes(size) > budget:
            break
        best = size
    return min(best, max(_MIN_DIAMETER))


def sharded_in_scope(size: int) -> bool:
    """Whether the out-of-core sharded tier covers ``size``-robot spaces."""
    return 1 <= size <= sharded_max_table_size()


def record_peak_rss() -> int:
    """Record this process's lifetime peak RSS into ``table.peak_rss_bytes``.

    Reads ``resource.getrusage`` (``ru_maxrss`` is KiB on Linux, bytes on
    macOS); returns the peak in bytes, 0 where ``resource`` is unavailable.
    Enumeration, the decision pass, both table builds and serve start-up call
    it, so the gauge covers every stage that can set the peak and benchmarks
    can assert the n=10 sharded build stayed under
    ``REPRO_TABLE_MEMORY_BUDGET``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    peak_bytes = peak if sys.platform == "darwin" else peak * 1024
    _obs.gauge("table.peak_rss_bytes").set(peak_bytes)
    return peak_bytes


@lru_cache(maxsize=None)
def _subset_masks_array(m: int) -> "np.ndarray":
    """:func:`subset_masks` as an int32 array (the SSYNC expander's order)."""
    return np.fromiter(subset_masks(m), dtype=np.int32, count=(1 << m) - 1)

#: Move codes: 0 = stay, ``i + 1`` = the i-th member of :class:`Direction`.
_DIRECTIONS: Tuple[Direction, ...] = tuple(Direction)
_CODE_OF: Dict[Direction, int] = {d: i + 1 for i, d in enumerate(_DIRECTIONS)}
_MOVE_CODE: Dict[Optional[Direction], int] = {None: 0, **_CODE_OF}
_DELTAS = np.array([(0, 0)] + [d.value for d in _DIRECTIONS], dtype=np.int16)

#: Per-row kinds of the resolved successor function.
KIND_STEP = 0
KIND_GATHERED = 1
KIND_DEADLOCK = 2
KIND_COLLISION = 3
KIND_DISCONNECT = 4

#: Collision kind codes (match the strings of ``detect_collision_nodes``).
_COLLISION_KINDS = (None, "swap", "move-onto-staying", "same-target")
#: Collision code of each severity rank of :func:`resolve_rows_arrays`
#: (0 none, 1 same-target, 2 move-onto-staying, 3 swap).
_COLLISION_OF_RANK = np.array([0, 3, 2, 1], dtype=np.int8)

#: Outcome codes of the functional-graph summary, convertible to
#: :class:`~repro.core.trace.Outcome`; the round limit is only ever applied
#: per query (:meth:`SuccessorTable.batch_outcomes`).
OUT_GATHERED = 0
OUT_DEADLOCK = 1
OUT_LIVELOCK = 2
OUT_COLLISION = 3
OUT_DISCONNECTED = 4
_OUT_ROUND_LIMIT = 5
_OUTCOMES = (
    Outcome.GATHERED,
    Outcome.DEADLOCK,
    Outcome.LIVELOCK,
    Outcome.COLLISION,
    Outcome.DISCONNECTED,
    Outcome.ROUND_LIMIT,
)

#: Minimum achievable diameter per robot count — the engine's gathering
#: predicate for fewer than seven robots (one shared definition).
_MIN_DIAMETER = Configuration._MIN_DIAMETER


def _sort_key(coords: "np.ndarray") -> "np.ndarray":
    """Monotone scalar key for lexicographic ``(q, r)`` ordering."""
    return coords[..., 0].astype(np.int64) * 65536 + coords[..., 1]


#: :func:`_sort_key` of each move code's displacement.  The key is linear, so
#: a robot's landing key is its position key plus its move's key.
_DELTA_KEYS = _sort_key(_DELTAS)

#: Width of one row's band in :func:`resolve_rows_arrays`' batch-wide landing
#: search; every node key of a table-sized configuration lies well inside
#: ``±_ROW_BAND / 2``, so the bands never overlap.
_ROW_BAND = np.int64(1) << 26


#: FNV-1a style multiplier for the polynomial canonical-block hash.
_HASH_MULT = 0x100000001B3


@lru_cache(maxsize=None)
def _hash_powers(width: int) -> "np.ndarray":
    """``_HASH_MULT ** (width-1-j) mod 2**64`` per column, highest power first."""
    powers = np.empty(width, dtype=np.uint64)
    value = 1
    for j in range(width - 1, -1, -1):
        powers[j] = value & 0xFFFFFFFFFFFFFFFF
        value = (value * _HASH_MULT) & 0xFFFFFFFFFFFFFFFF
    return powers


def _canonical_hash(flat: "np.ndarray") -> "np.ndarray":
    """uint64 polynomial hash per row of a flat int8 canonical block array.

    Each digit is the byte plus 128 (its top bit flipped); the product with
    the powers wraps modulo ``2**64``.
    """
    digits = (flat.view(np.uint8) ^ np.uint8(0x80)).astype(np.uint64)
    return digits @ _hash_powers(flat.shape[1])


class CanonicalIndex:
    """Vectorized canonical-position-block -> row lookup.

    Replaces a per-row ``dict.get(block.tobytes())`` scalar loop —
    the last Python inner loop of the table build — with a batched hash /
    ``searchsorted`` / verify pipeline: hash every query block, binary-search
    the sorted row hashes, and confirm the candidate row's int8 block matches
    byte for byte (so a hash collision can slow a lookup down but never
    corrupt it).  The three backing arrays are plain (or memmapped) ndarrays,
    which is what lets the sharded tier serve the same lookup from disk.
    """

    def __init__(
        self,
        blocks: "np.ndarray",
        hashes: Optional["np.ndarray"] = None,
        order: Optional["np.ndarray"] = None,
    ) -> None:
        #: (count, 2n) int8 canonical coordinate blocks, row order.
        self.blocks = blocks
        if hashes is None or order is None:
            raw = _canonical_hash(np.asarray(blocks))
            order = np.argsort(raw, kind="stable")
            hashes = raw[order]
        #: Row hashes sorted ascending, and the row order that sorts them.
        self.hashes = hashes
        self.order = order

    def lookup(self, queries: "np.ndarray") -> "np.ndarray":
        """Rows of the query blocks (int64; -1 where a block is unknown).

        ``queries`` is ``(M, n, 2)`` or ``(M, 2n)`` int8.
        """
        if len(queries) == 0:
            return np.empty(0, dtype=np.int64)
        flat = np.ascontiguousarray(queries).reshape(len(queries), -1)
        h = _canonical_hash(flat)
        hashes = self.hashes
        lo = np.searchsorted(hashes, h, side="left")
        safe = np.minimum(lo, len(hashes) - 1)
        candidate = np.asarray(self.order)[safe].astype(np.int64)
        ok = (lo < len(hashes)) & (np.asarray(hashes)[safe] == h)
        ok &= (np.asarray(self.blocks)[candidate] == flat).all(axis=1)
        rows = np.where(ok, candidate, np.int64(-1))
        if not bool(ok.all()):
            # A miss is an unknown block unless several rows share its hash
            # (a hash collision): scan only those tied ranges, row by row.
            missed = np.flatnonzero(~ok)
            hi = np.searchsorted(hashes, h[missed], side="right")
            tied = hi - lo[missed] >= 2
            blocks = np.asarray(self.blocks)
            order = np.asarray(self.order)
            for i, stop in zip(missed[tied].tolist(), hi[tied].tolist()):
                for j in range(int(lo[i]), stop):
                    row = int(order[j])
                    if (blocks[row] == flat[i]).all():
                        rows[i] = row
                        break
        return rows


def _canonical_blocks(keys: "np.ndarray") -> "np.ndarray":
    """int8 canonical blocks of node sets given as row-sorted :func:`_sort_key` keys.

    Each row is anchored at its first (smallest) node, as the enumeration's
    canonical form is; a relative key splits back into ``(q, r)``.
    """
    rel = keys - keys[:, :1]
    q = (rel + 32768) >> 16
    blocks = np.empty(rel.shape + (2,), dtype=np.int8)
    blocks[..., 0] = q
    blocks[..., 1] = rel - (q << 16)
    return blocks


# ---------------------------------------------------------------------------
# The algorithm-independent half: geometry, views and indexes.
# ---------------------------------------------------------------------------

class ViewTable:
    """Everything about the ``size``-robot state space that no algorithm owns.

    Built once per ``(size, visibility_range)`` and shared by every
    :class:`SuccessorTable` (see :func:`view_table`): canonical positions,
    batched view bitmasks, the unique-view index used by the Compute gather
    and the delta-invalidation reverse index, the gathering predicate and
    diameters, plus the canonical-form lookups.
    """

    def __init__(self, size: int, visibility_range: int) -> None:
        limit = max_table_size()
        if not 1 <= size <= limit:
            raise ValueError(
                f"the table kernel supports 1..{limit} robots within the current "
                f"memory budget, got {size}"
            )
        from ..enumeration.polyhex import canonical_positions  # late: cycle

        build_start = time.perf_counter()
        self.size = size
        self.visibility_range = visibility_range
        positions = canonical_positions(size)
        n = size
        count = len(positions)
        self.count = count
        self.positions = positions

        #: The packed lookup list and dictionary are built lazily: they
        #: dominate the resident footprint at larger sizes and attached
        #: tables often never touch them.
        self._packed: Optional[List[int]] = None
        self._packed_index: Optional[Dict[int, int]] = None
        self._canonical_index: Optional[CanonicalIndex] = None
        self._slot_index: Optional[Dict[int, int]] = None

        self.views, self.diameters, self.gathered = _geometry_pass(
            positions, visibility_range
        )

        # Unique-view index: the Compute phase is one gather through it, and
        # the reverse index drives delta-aware invalidation.
        unique_views, inverse = np.unique(self.views, return_inverse=True)
        self.unique_views = unique_views
        self.view_slot = inverse.reshape(count, n).astype(np.int32)
        flat = self.view_slot.ravel()
        order = np.argsort(flat, kind="stable")
        self._rows_by_slot = (order // n).astype(np.int32)
        self._slot_bounds = np.searchsorted(flat[order], np.arange(len(unique_views) + 1))

        _obs.counter("table.view_builds").inc()
        _obs_record_span(
            "table.view_build",
            time.perf_counter() - build_start,
            size=size,
            rows=count,
            unique_views=len(unique_views),
        )

    def array_bytes(self) -> int:
        """Resident bytes of the NumPy arrays (lazy lookup dicts excluded)."""
        return sum(getattr(self, field).nbytes for field in VIEW_ARRAY_FIELDS)

    @classmethod
    def _from_arrays(
        cls, size: int, visibility_range: int, arrays: Mapping[str, "np.ndarray"]
    ) -> "ViewTable":
        """Rehydrate a table around its :data:`VIEW_ARRAY_FIELDS` arrays.

        No enumeration, no numpy passes: the arrays are adopted as-is (they
        may be read-only views of a mapped table store) and the Python-side
        lookup structures are rebuilt lazily on first use.
        """
        vt = cls.__new__(cls)
        vt.size = size
        vt.visibility_range = visibility_range
        vt.count = len(arrays["positions"])
        for field in VIEW_ARRAY_FIELDS:
            setattr(vt, field, arrays[field])
        vt._packed = None
        vt._packed_index = None
        vt._canonical_index = None
        vt._slot_index = None
        return vt

    # ------------------------------------------------------------------ lookup
    @property
    def packed(self) -> List[int]:
        """Row index -> canonical packed integer (lazy: graph slicing only)."""
        if self._packed is None:
            self._packed = pack_rows(self.positions)
        return self._packed

    @property
    def packed_index(self) -> Dict[int, int]:
        """Canonical packed integer -> row index (lazy)."""
        if self._packed_index is None:
            self._packed_index = {p: i for i, p in enumerate(self.packed)}
        return self._packed_index

    @property
    def canonical_index(self) -> CanonicalIndex:
        """The vectorized canonical-block -> row index (lazy, array-backed)."""
        if self._canonical_index is None:
            blocks = np.ascontiguousarray(
                self.positions.astype(np.int8).reshape(self.count, -1)
            )
            self._canonical_index = CanonicalIndex(blocks)
        return self._canonical_index

    def rows_of_canonical(self, blocks: "np.ndarray") -> "np.ndarray":
        """Rows of a batch of int8 canonical blocks (-1 where unknown)."""
        return self.canonical_index.lookup(blocks)

    def rows_of_positions(self, positions: "np.ndarray") -> "np.ndarray":
        """Table rows of a batch of ``(M, n, 2)`` node sets, any translates.

        The batch twin of :meth:`row_of_nodes`: one canonicalization and one
        index lookup for the whole batch; -1 where a set is no row.
        """
        positions = np.asarray(positions, dtype=np.int64)
        rows = np.full(len(positions), -1, dtype=np.int64)
        if len(positions) == 0 or positions.shape[1:] != (self.size, 2):
            return rows
        # A set wider than the int8 canonical block could wrap and alias a
        # real row; no connected set of ``size <= 127`` nodes is that wide.
        fits = (positions.max(axis=1) - positions.min(axis=1) <= 127).all(axis=1)
        if fits.any():
            keys = np.sort(_sort_key(positions[fits]), axis=1)
            rows[fits] = self.rows_of_canonical(_canonical_blocks(keys))
        return rows

    def slot_of_view(self, bitmask: int) -> Optional[int]:
        """Unique-view slot of ``bitmask`` (``None`` if it never occurs)."""
        if self._slot_index is None:
            self._slot_index = {b: s for s, b in enumerate(self.unique_views.tolist())}
        return self._slot_index.get(bitmask)

    def rows_of_slots(self, slots: "np.ndarray") -> "np.ndarray":
        """All rows whose view multiset contains any of the given slots, sorted."""
        mark = np.zeros(self.count, dtype=bool)
        bounds = self._slot_bounds
        for s in slots.tolist():
            mark[self._rows_by_slot[bounds[s] : bounds[s + 1]]] = True
        return np.flatnonzero(mark)

    def row_of_nodes(self, nodes: Iterable[Tuple[int, int]]) -> Optional[int]:
        """Table row of an arbitrary translate of a canonical shape.

        Answered through the array-backed canonical index, so single lookups
        never force the Python packed dictionary into existence (at n>=9 a
        dictionary over every row costs hundreds of megabytes).
        """
        pairs = sorted((int(n[0]), int(n[1])) for n in nodes)
        if len(pairs) != self.size:
            return None
        aq, ar = pairs[0]
        deltas = [(q - aq, r - ar) for q, r in pairs]
        # A genuine translate of a canonical shape has every delta within the
        # shape's extent (< size); anything wider cannot be in the space, and
        # letting it wrap through the int8 cast could alias a real row.
        if any(not (-128 <= q <= 127 and -128 <= r <= 127) for q, r in deltas):
            return None
        block = np.array(deltas, dtype=np.int8).reshape(1, -1)
        row = int(self.canonical_index.lookup(block)[0])
        return row if row >= 0 else None


#: Process-wide view-table registry (the old unbounded ``lru_cache``, made
#: explicit so :func:`clear_table_caches` can empty it and opening a table
#: store can seed it).
_VIEW_TABLES: Dict[Tuple[int, int], ViewTable] = {}


def view_table(size: int, visibility_range: int = 2) -> ViewTable:
    """The shared, memoized :class:`ViewTable` for a state-space size."""
    key = (size, visibility_range)
    table = _VIEW_TABLES.get(key)
    if table is None:
        table = _VIEW_TABLES[key] = ViewTable(size, visibility_range)
    return table


def register_view_table(table: ViewTable) -> ViewTable:
    """Seed the registry with a rehydrated table; returns the canonical one.

    Used when a table store is opened, so workers answer
    :func:`view_table` queries from the attached arrays instead of
    re-enumerating the state space.  A table already registered for the same
    ``(size, visibility_range)`` wins (both derive from the same
    deterministic enumeration, so they are interchangeable).
    """
    return _VIEW_TABLES.setdefault((table.size, table.visibility_range), table)


def clear_table_caches(algorithm: Optional[GatheringAlgorithm] = None) -> None:
    """Drop memoized state-space tables so large sizes don't accumulate.

    Empties the process-wide view-table registry and, when ``algorithm`` is
    given, that instance's successor tables of both tiers too (and with them
    the row memos of their derivation lineages).  Successor
    tables otherwise live exactly as long as their algorithm instance; the
    view tables are global and survive until this call.  Benchmarks and tests
    that build n>=8 tables call this afterwards to return the memory.
    """
    _VIEW_TABLES.clear()
    if algorithm is not None:
        for attribute in ("_successor_tables", "_sharded_tables"):
            tables = getattr(algorithm, attribute, None)
            if tables:
                tables.clear()


# ---------------------------------------------------------------------------
# The build passes, shared by the in-RAM table and the sharded builder in
# :mod:`repro.core.sharded_tables`: geometry, decisions, resolution.
# ---------------------------------------------------------------------------

def _geometry_pass(
    positions: "np.ndarray", visibility_range: int
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(views, diameters, gathered)`` of every row of ``(N, n, 2)`` positions.

    Batched Look through a displacement bit LUT, and the geometry (hex
    distances -> diameters, gathering predicate), both computed in chunked
    passes over row blocks: the transient ``(block, n, n)`` arrays stay
    bounded however large the state space is.  Both table builds reach it
    first, so it rejects views too wide for the view column.
    """
    if not view_in_scope(visibility_range):
        raise ValueError(f"visibility range {visibility_range} views overflow the view column")
    start_time = time.perf_counter()
    count, n = positions.shape[:2]
    span = max(2 * int(np.abs(positions).max(initial=0)), visibility_range)
    lut = np.zeros((2 * span + 1, 2 * span + 1), dtype=np.int32)
    for (oq, orr), bit in offset_bit_table(visibility_range).items():
        if abs(oq) <= span and abs(orr) <= span:
            lut[oq + span, orr + span] = bit
    views = np.empty((count, n), dtype=np.int32)
    diameters = np.empty(count, dtype=np.int64)
    gathered = np.empty(count, dtype=bool)
    for start in range(0, count, _BUILD_BLOCK):
        stop = min(start + _BUILD_BLOCK, count)
        block = positions[start:stop]
        dq = block[:, None, :, 0] - block[:, :, None, 0]
        dr = block[:, None, :, 1] - block[:, :, None, 1]
        views[start:stop] = np.bitwise_or.reduce(lut[dq + span, dr + span], axis=2)
        hexdist = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
        diameters[start:stop] = hexdist.max(axis=(1, 2))
        if n == GATHERING_SIZE:
            gathered[start:stop] = ((hexdist == 1).sum(axis=2) == 6).any(axis=1)
        else:
            gathered[start:stop] = diameters[start:stop] == _MIN_DIAMETER[n]
    _obs_record_span("table.geometry", time.perf_counter() - start_time, size=n, rows=count)
    return views, diameters, gathered


def _decision_pass(algorithm: GatheringAlgorithm, bitmasks: Sequence[int]) -> "np.ndarray":
    """Move code (int8) of every distinct view bitmask, through the decision cache.

    Views already in the algorithm's decision cache are answered from it; the
    rest are decided by one call to the algorithm's batch method
    (:meth:`~repro.core.algorithm.GatheringAlgorithm.decide_bitmasks`), in
    process, and written back, each counted once in
    ``decision_cache.misses``.  For ``shibata-visibility2`` that call is one
    masked array pass per rule of Algorithm 1: on a 2-core host a cold pass
    takes ~4 ms at n=7 (5,188 views), ~8 ms at n=8 (12,381) and ~15 ms at
    n=9 (26,112), where deciding view by view through ``compute`` took
    50–70 ms, 130–190 ms and 320–410 ms.
    """
    from .engine import decision_cache_for  # late: avoids an import cycle

    start_time = time.perf_counter()
    cache = decision_cache_for(algorithm)
    keys = np.asarray(bitmasks).tolist()
    missed = [key for key in keys if key not in cache]
    if missed:
        cache.update(zip(missed, algorithm.decide_bitmasks(missed)))
        _obs.counter("decision_cache.misses").inc(len(missed))
    decisions = map(cache.__getitem__, keys)
    codes = np.fromiter(map(_MOVE_CODE.__getitem__, decisions), dtype=np.int8, count=len(keys))
    _obs.counter("decision_cache.lookups").inc(len(keys))
    _obs_record_span("table.compute", time.perf_counter() - start_time, views=len(keys))
    record_peak_rss()
    return codes


def _connected_mask(new_pos: "np.ndarray") -> "np.ndarray":
    """Connectivity per position set, via boolean matmul frontier expansion.

    :func:`resolve_rows_arrays` runs it only on successors its index misses.
    """
    n = new_pos.shape[1]
    ndq = new_pos[:, None, :, 0] - new_pos[:, :, None, 0]
    ndr = new_pos[:, None, :, 1] - new_pos[:, :, None, 1]
    adjacent = (
        ((np.abs(ndq) + np.abs(ndr) + np.abs(ndq + ndr)) // 2) == 1
    ).astype(np.uint8)
    reach = np.zeros((len(new_pos), 1, n), dtype=np.uint8)
    reach[:, 0, 0] = 1
    for _ in range(n - 1):
        reach = np.minimum(reach + np.matmul(reach, adjacent), 1)
    return reach[:, 0, :].all(axis=1)


def resolve_rows_arrays(
    pos: "np.ndarray",
    move_code: "np.ndarray",
    gathered: "np.ndarray",
    lookup,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Resolve the full-activation round of a batch of rows, arrays in/out.

    The shared core of the in-RAM ``SuccessorTable`` build and the
    out-of-core sharded build: ``pos`` is ``(M, n, 2)`` canonical positions,
    ``move_code`` the ``(M, n)`` per-robot move codes and ``gathered`` the
    ``(M,)`` gathering predicate.  ``lookup`` maps a batch of int8 canonical
    successor blocks to rows of whatever index the caller owns — the in-RAM
    view table or the sharded global index (which is how cross-shard
    successor pointers resolve to *global* row numbers).  Returns
    ``(mover_bits, mover_count, kind, succ, collision_code)``.

    Precondition: every row of ``pos`` is sorted by :func:`_sort_key`, as the
    enumeration's canonical rows are.  One sort of each row's landing keys
    then finds the move-onto-staying and same-target collisions (equal
    neighbours) and orders the successor's canonical block; the rows' keys,
    each offset into its own band, are sorted across the batch, so one
    ``searchsorted`` says which robot each mover lands on (a stayer, or a
    robot landing back on it: a swap).  The space holds every connected
    ``n``-set, so a successor the index finds is connected; only the misses
    are checked with :func:`_connected_mask`, and a connected one raises.
    """
    count, n = move_code.shape
    movers = move_code > 0
    mover_count = movers.sum(axis=1, dtype=np.int16)
    mover_bits = movers @ (1 << np.arange(n, dtype=np.int16))

    kind = np.where(gathered, KIND_GATHERED, KIND_DEADLOCK).astype(np.int8)
    succ = np.full(count, -1, dtype=np.int32)
    collision_code = np.zeros(count, dtype=np.int8)
    active = np.flatnonzero(mover_count)
    if len(active) == 0:
        return mover_bits, mover_count, kind, succ, collision_code
    if len(active) < count:
        pos, move_code, movers = pos[active], move_code[active], movers[active]
    m = len(active)

    pos_key = _sort_key(pos)  # (m, n), ascending along each row
    land_key = pos_key + _DELTA_KEYS[move_code]
    landed = np.sort(land_key, axis=1)
    clash = (landed[:, 1:] == landed[:, :-1]).any(axis=1)

    band = np.arange(m, dtype=np.int64)[:, None] * _ROW_BAND
    flat_pos = (pos_key + band).ravel()
    flat_land = (land_key + band).ravel()
    flat_movers = movers.ravel()
    at = np.minimum(np.searchsorted(flat_pos, flat_land), flat_pos.size - 1)
    # Per mover: 3 if it swaps with the robot it lands on, 2 if it lands on
    # a stayer.  A row's largest lane, or 1 for any other clash of equal
    # landing keys (same-target), is its collision in the engine's order.
    lands_on = flat_movers & (flat_pos[at] == flat_land)
    lane = np.where(flat_movers[at], (flat_land[at] == flat_pos) * 3, 2) * lands_on
    rank = np.maximum(lane.reshape(m, n).max(axis=1), clash)
    collision_code[active] = _COLLISION_OF_RANK[rank]
    kind[active] = np.where(rank > 0, KIND_COLLISION, KIND_STEP)

    moved = np.flatnonzero(rank == 0)
    if len(moved):
        blocks = _canonical_blocks(landed[moved] if len(moved) < m else landed)
        found = np.asarray(lookup(blocks))
        rows = active[moved]
        hit = found >= 0
        succ[rows[hit]] = found[hit]
        if not bool(hit.all()):
            missed = ~hit
            if bool(_connected_mask(blocks[missed].astype(np.int16)).any()):
                raise RuntimeError("successor configuration missing from the state space")
            kind[rows[missed]] = KIND_DISCONNECT
    return mover_bits, mover_count, kind, succ, collision_code


def _resolve_pass(
    positions: "np.ndarray",
    move_code: "np.ndarray",
    gathered: "np.ndarray",
    lookup,
    out: Tuple["np.ndarray", ...],
    rows: Optional["np.ndarray"] = None,
) -> None:
    """Resolve ``rows`` (``None`` = every row) into the ``out`` arrays.

    ``out`` holds the :data:`RESOLVED_FIELDS` arrays, indexed like
    ``positions``.  Resolution runs in chunked passes over row blocks: the
    collision and connectivity intermediates stay bounded however many rows
    there are.
    """
    start_time = time.perf_counter()
    count = len(gathered) if rows is None else len(rows)
    for start in range(0, count, _BUILD_BLOCK):
        stop = start + _BUILD_BLOCK
        block = slice(start, stop) if rows is None else rows[start:stop]
        resolved = resolve_rows_arrays(
            positions[block], move_code[block], gathered[block], lookup
        )
        for array, values in zip(out, resolved):
            array[block] = values
    _obs_record_span("table.resolve", time.perf_counter() - start_time, rows=count)


# ---------------------------------------------------------------------------
# The per-algorithm half: decisions and the successor function.
# ---------------------------------------------------------------------------

@dataclass
class _FsyncSummary:
    """The FSYNC execution of every row of a table, resolved in one pass."""

    #: Raw outcome code per row (round-limit capping is applied per query).
    outcome: "np.ndarray"
    #: Rounds until the outcome is detected (the engine's ``termination_round``).
    rounds: "np.ndarray"
    #: Total robot moves until detection.
    moves: "np.ndarray"
    #: The row at which the execution settles / fails (self for terminals,
    #: the first revisited cycle row for livelocks).
    final: "np.ndarray"


#: The summary outcome of each row kind (``-1``: a step row inherits one).
_OUTCOME_OF_KIND = np.array(
    [-1, OUT_GATHERED, OUT_DEADLOCK, OUT_COLLISION, OUT_DISCONNECTED], dtype=np.int8
)


def _summary_pass(
    kind: "np.ndarray", succ: "np.ndarray", mover_count: "np.ndarray"
) -> _FsyncSummary:
    """The FSYNC summary of every row, by pointer doubling over ``succ``.

    Terminal and disconnect rows summarize themselves.  Following ``succ``
    ``2**ceil(log2 N)`` times from any row lands on a cycle, so the step rows
    those jumps reach are exactly the cycle rows; each cycle is labelled by
    its smallest row (a doubled running minimum) and ``bincount`` gives its
    length and moves.  Every other step row then jumps, by doubling again,
    to the first terminal, disconnect or cycle row it reaches, summing rounds
    and moves on the way, and inherits that row's outcome and settling row.
    """
    start_time = time.perf_counter()
    count = len(kind)
    rows = np.arange(count, dtype=np.int32)
    step = kind == KIND_STEP
    disconnect = kind == KIND_DISCONNECT
    outcome = _OUTCOME_OF_KIND[kind]
    rounds = disconnect.astype(np.int32)
    moves = np.where(disconnect, mover_count, 0).astype(np.int64)
    final = rows.copy()

    doublings = max(count - 1, 0).bit_length()
    jump = np.where(step, succ, rows)
    for _ in range(doublings):
        jump = jump[jump]
    on_cycle = np.zeros(count, dtype=bool)
    on_cycle[jump] = True
    on_cycle &= step
    cycle = np.nonzero(on_cycle)[0]
    local = np.zeros(count, dtype=np.int32)
    local[cycle] = np.arange(len(cycle), dtype=np.int32)
    nxt = local[succ[cycle]]
    label = local[cycle]
    for _ in range(max(len(cycle) - 1, 0).bit_length()):
        label = np.minimum(label, label[nxt])
        nxt = nxt[nxt]
        doublings += 1
    outcome[cycle] = OUT_LIVELOCK
    rounds[cycle] = np.bincount(label)[label]
    moves[cycle] = np.bincount(label, weights=mover_count[cycle]).astype(np.int64)[label]

    anchor = ~step | on_cycle
    hop = np.where(anchor, rows, succ)
    distance = (~anchor).astype(np.int32)
    walked = np.where(anchor, 0, mover_count).astype(np.int32)
    while True:
        further = hop[hop]
        if np.array_equal(further, hop):
            break
        distance += distance[hop]
        walked += walked[hop]
        hop = further
        doublings += 1
    tail = np.nonzero(~anchor)[0]
    target = hop[tail]
    outcome[tail] = outcome[target]
    rounds[tail] = rounds[target] + distance[tail]
    moves[tail] = moves[target] + walked[tail]
    final[tail] = final[target]
    seconds = time.perf_counter() - start_time
    _obs_record_span("table.fsync_summary", seconds, rows=count, doublings=doublings)
    return _FsyncSummary(outcome=outcome, rounds=rounds, moves=moves, final=final)


class _EdgeMemo:
    """Memoized SSYNC expansions: each row's edges are a slice of one pool.

    Rows are stored and read back a whole batch at a time, as arrays; the
    per-row index is allocated on the first store.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.clear()

    def clear(self) -> None:
        self._start: Optional["np.ndarray"] = None
        self._length: Optional["np.ndarray"] = None
        self._chunks: List[Tuple["np.ndarray", "np.ndarray"]] = []
        self._size = 0

    def known(self, rows: "np.ndarray") -> "np.ndarray":
        """Which of ``rows`` are memoized."""
        if self._start is None:
            return np.zeros(len(rows), dtype=bool)
        return self._start[rows] >= 0

    def store(
        self, rows: "np.ndarray", lengths: "np.ndarray", bits: "np.ndarray", dst: "np.ndarray"
    ) -> None:
        """Memoize ``rows``, whose edges are ``bits`` / ``dst`` in row order."""
        if self._start is None:
            self._start = np.full(self.count, -1, dtype=np.int64)
            self._length = np.zeros(self.count, dtype=np.int64)
        self._start[rows] = self._size + np.cumsum(lengths) - lengths
        self._length[rows] = lengths
        self._chunks.append((bits, dst))
        self._size += len(bits)

    def gather(self, rows: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """``(lengths, bits, dst)`` of memoized ``rows``, edges in row order."""
        from ..explore.transitions import segment_index  # late: avoids an import cycle

        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(part) for part in zip(*self._chunks))]
        lengths = self._length[rows]
        index = segment_index(self._start[rows], lengths)
        bits, dst = self._chunks[0]
        return lengths, bits[index], dst[index]


class _RowMemo:
    """Resolved rows of one derivation lineage, keyed by row state.

    A row state is a row plus its per-robot move codes.  Its
    :data:`RESOLVED_FIELDS` values are a pure function of that state and the
    shared :class:`ViewTable`, so a lineage need resolve each state only
    once.  The int64 key is ``row * 7**n + sum(code_i * 7**i)``; the keys are
    kept sorted, with each field's values in a parallel array, so a batch of
    states is looked up with one ``searchsorted``.
    """

    def __init__(self, count: int, size: int) -> None:
        self._radix = 7**size
        assert count * self._radix < 1 << 63, "row-state keys overflow int64"
        self._powers = 7 ** np.arange(size, dtype=np.int64)
        self._keys = np.empty(0, dtype=np.int64)
        self._values: List["np.ndarray"] = []

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self, rows: "np.ndarray", move_code: "np.ndarray") -> "np.ndarray":
        """The state keys of ``rows`` whose move codes are ``move_code``."""
        return rows.astype(np.int64) * self._radix + move_code.astype(np.int64) @ self._powers

    def find(self, keys: "np.ndarray") -> "np.ndarray":
        """The memo position of each key (-1 where the state is not memoized)."""
        found = np.full(len(keys), -1, dtype=np.int64)
        if len(self._keys):
            at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            hit = self._keys[at] == keys
            found[hit] = at[hit]
        return found

    def gather(self, found: "np.ndarray") -> Tuple["np.ndarray", ...]:
        """The :data:`RESOLVED_FIELDS` values at memo positions ``found``."""
        return tuple(values[found] for values in self._values)

    def store(self, keys: "np.ndarray", resolved: Sequence["np.ndarray"]) -> None:
        """Memoize new, distinct ``keys`` with their resolved field values."""
        if not self._values:
            self._values = [np.empty(0, dtype=values.dtype) for values in resolved]
        order = np.argsort(keys)
        at = np.searchsorted(self._keys, keys[order])
        self._keys = np.insert(self._keys, at, keys[order])
        self._values = [
            np.insert(values, at, new[order]) for values, new in zip(self._values, resolved)
        ]


class SuccessorTable:
    """The materialized transition function of one algorithm.

    Arrays (``N`` rows, ``n`` robots):

    * ``codes`` — move code per *unique view* (the Compute table);
    * ``move_code`` — move code per robot per row (``codes`` gathered);
    * ``mover_bits`` / ``mover_count`` — bit ``i`` set iff the ``i``-th robot
      of the row's canonical sorted position tuple intends to move;
    * ``kind`` — what the full-activation round does to the row;
    * ``succ`` — successor row for ``kind == KIND_STEP`` (-1 otherwise);
    * ``collision_code`` — which forbidden behaviour a ``KIND_COLLISION``
      row commits.

    A built table is the root of a derivation lineage: every table
    :meth:`derive` makes from it, directly or in a chain, shares its SSYNC
    expansion memo and its row memo of resolved row states.
    """

    def __init__(
        self,
        view: ViewTable,
        codes: "np.ndarray",
        move_code: "np.ndarray",
        mover_bits: "np.ndarray",
        mover_count: "np.ndarray",
        kind: "np.ndarray",
        succ: "np.ndarray",
        collision_code: "np.ndarray",
    ) -> None:
        self.view = view
        self.codes = codes
        self.move_code = move_code
        self.mover_bits = mover_bits
        self.mover_count = mover_count
        self.kind = kind
        self.succ = succ
        self.collision_code = collision_code
        #: The table store this table was persisted to or opened from, if any
        #: (:mod:`repro.core.sharded_tables`); publishing reuses it.
        self.directory: Optional[str] = None
        self._summary: Optional[_FsyncSummary] = None
        #: Memoized SSYNC expansions of moving rows.  The memo is *shared*
        #: along a derivation lineage: a derived table reuses every expansion
        #: of a row its delta chain never touched, and the rows of
        #: ``_ssync_dirty`` (dirty relative to the lineage root, sorted) go to
        #: the table-local overlay instead.
        self._ssync_cache = _EdgeMemo(view.count)
        self._ssync_dirty = np.empty(0, dtype=np.int64)
        self._ssync_local = _EdgeMemo(view.count)
        #: Resolved row states, shared along the derivation lineage like
        #: ``_ssync_cache``: :meth:`derive` resolves only the states no table
        #: of the lineage has resolved before (made by the first derive).
        self._row_memo: Optional[_RowMemo] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, algorithm: GatheringAlgorithm, size: int) -> "SuccessorTable":
        """Materialize the table for ``algorithm`` over the ``size``-robot space.

        Every pass runs in this process, the Compute pass included (see
        :func:`_decision_pass`).
        """
        build_start = time.perf_counter()
        vt = view_table(size, algorithm.visibility_range)
        codes = _decision_pass(algorithm, vt.unique_views)
        table = cls._from_codes(vt, codes)
        estimated = estimate_table_bytes(size)
        actual = table.array_bytes()
        _obs.counter("table.succ_builds").inc()
        _obs.gauge("table.estimated_bytes").set(estimated)
        _obs.gauge("table.actual_bytes").set(actual)
        record_peak_rss()
        _obs_record_span(
            "table.succ_build",
            time.perf_counter() - build_start,
            size=size,
            rows=vt.count,
            estimated_bytes=estimated,
            actual_bytes=actual,
        )
        return table

    def array_bytes(self) -> int:
        """Resident bytes of the table arrays, view table included."""
        own = sum(getattr(self, field).nbytes for field in SUCC_ARRAY_FIELDS)
        return own + self.view.array_bytes()

    @classmethod
    def _from_codes(cls, vt: ViewTable, codes: "np.ndarray") -> "SuccessorTable":
        move_code = codes[vt.view_slot]
        table = cls(
            view=vt,
            codes=codes,
            move_code=move_code,
            mover_bits=np.zeros(vt.count, dtype=np.int16),
            mover_count=np.zeros(vt.count, dtype=np.int16),
            kind=np.zeros(vt.count, dtype=np.int8),
            succ=np.full(vt.count, -1, dtype=np.int32),
            collision_code=np.zeros(vt.count, dtype=np.int8),
        )
        table._resolve_rows(None)
        return table

    def derive(
        self,
        overrides: Mapping[int, Direction],
        amendments: Mapping[int, Optional[Direction]],
    ) -> "SuccessorTable":
        """Delta-aware invalidation: the table of ``base + overlay`` layers.

        ``overrides`` are additive assignments (consulted only where this
        table's own code says *stay*); ``amendments`` replace the printed
        decision unconditionally (``None`` forces a stay) — exactly the
        layering of :class:`repro.synth.ruleset.OverrideAlgorithm`.  Only the
        rows containing a changed view are re-derived; every untouched array
        is shared with the parent.

        A derived row is resolved at most once per lineage (the tables derived,
        directly or in a chain, from one built table): the lineage's row memo
        answers every dirty row whose state — row plus move codes — an earlier
        derive already resolved, and only the misses go through the resolve
        pass — one :func:`resolve_rows_arrays` call per ``_BUILD_BLOCK`` rows,
        none when every dirty row hits.  The memo lives as long as the
        lineage's tables do.
        """
        vt = self.view
        codes = self.codes.copy()
        for bitmask, direction in overrides.items():
            slot = vt.slot_of_view(bitmask)
            if slot is not None and self.codes[slot] == 0:
                codes[slot] = _CODE_OF[direction]
        for bitmask, direction in amendments.items():
            slot = vt.slot_of_view(bitmask)
            if slot is not None:
                codes[slot] = 0 if direction is None else _CODE_OF[direction]
        changed = np.nonzero(codes != self.codes)[0]
        if len(changed) == 0:
            return self
        dirty = vt.rows_of_slots(changed)
        _obs.counter("table.derives").inc()
        _obs.counter("table.rows_rederived").inc(len(dirty))
        dirty_codes = codes[vt.view_slot[dirty]]
        move_code = self.move_code.copy()
        move_code[dirty] = dirty_codes
        table = SuccessorTable(
            view=vt,
            codes=codes,
            move_code=move_code,
            mover_bits=self.mover_bits.copy(),
            mover_count=self.mover_count.copy(),
            kind=self.kind.copy(),
            succ=self.succ.copy(),
            collision_code=self.collision_code.copy(),
        )
        if self._row_memo is None:
            self._row_memo = _RowMemo(vt.count, vt.size)
        memo = table._row_memo = self._row_memo
        keys = memo.keys(dirty, dirty_codes)
        found = memo.find(keys)
        hit = found >= 0
        for field, values in zip(RESOLVED_FIELDS, memo.gather(found[hit])):
            getattr(table, field)[dirty[hit]] = values
        missed = dirty[~hit]
        if len(missed):
            table._resolve_rows(missed)
            memo.store(keys[~hit], [getattr(table, field)[missed] for field in RESOLVED_FIELDS])
        _obs.counter("table.derive_memo_hits").inc(len(dirty) - len(missed))
        _obs.gauge("table.derive_memo_entries").set(len(memo))
        # Share the lineage's SSYNC expansion cache; only the rows this
        # delta chain touched must be re-expanded (into the local overlay).
        table._ssync_cache = self._ssync_cache
        mark = np.zeros(vt.count, dtype=bool)
        mark[self._ssync_dirty] = True
        mark[dirty] = True
        table._ssync_dirty = np.flatnonzero(mark).astype(np.int64, copy=False)
        return table

    # -------------------------------------------------- vectorized resolution
    def _resolve_rows(self, rows: Optional["np.ndarray"]) -> None:
        """(Re)compute kind/succ/movers for ``rows`` (``None`` = every row)."""
        vt = self.view
        _resolve_pass(
            vt.positions,
            self.move_code,
            vt.gathered,
            vt.rows_of_canonical,
            tuple(getattr(self, field) for field in RESOLVED_FIELDS),
            rows,
        )
        self._summary = None

    # --------------------------------------------------- functional traversal
    def fsync_summary(self) -> _FsyncSummary:
        """Outcome / rounds / moves / settling row of every row, memoized.

        One :func:`_summary_pass` resolves them all at once; every FSYNC
        query on this table (sweeps, censuses, CEGIS verdicts) reads them.
        """
        if self._summary is None:
            self._summary = _summary_pass(self.kind, self.succ, self.mover_count)
        return self._summary

    def batch_outcomes(
        self, rows: "np.ndarray", max_rounds: int
    ) -> Tuple[List[Outcome], "np.ndarray", "np.ndarray", List[Optional[str]]]:
        """FSYNC sweep results for many roots at once, off :meth:`fsync_summary`.

        Returns ``(outcomes, rounds, total_moves, collision_kinds)``,
        byte-identical to running the packed kernel from each root with the
        given round budget: quiescence and collisions must be *detected*
        within the budget (round index < ``max_rounds``), disconnections and
        livelocks are detected one round after their last applied move
        (round index + 1 <= ``max_rounds``); everything later is a
        round-limit.
        """
        summary = self.fsync_summary()
        raw = summary.outcome[rows]
        cnt = summary.rounds[rows]
        mvs = summary.moves[rows].copy()
        collision = np.where(raw == OUT_COLLISION, self.collision_code[summary.final[rows]], 0)

        detected_at = np.isin(raw, (OUT_GATHERED, OUT_DEADLOCK, OUT_COLLISION))
        over = (detected_at & (cnt >= max_rounds)) | (~detected_at & (cnt > max_rounds))
        for i in np.nonzero(over)[0].tolist():
            mvs[i] = self._prefix_moves(int(rows[i]), max_rounds)
        outcomes = [_OUTCOMES[code] for code in np.where(over, _OUT_ROUND_LIMIT, raw).tolist()]
        kinds = [_COLLISION_KINDS[code] for code in np.where(over, 0, collision).tolist()]
        return outcomes, np.where(over, max_rounds, cnt), mvs, kinds

    def _prefix_moves(self, row: int, limit: int) -> int:
        """Total moves over the first ``limit`` rounds from ``row`` (round-limit)."""
        total = 0
        current = row
        for _ in range(limit):
            total += int(self.mover_count[current])
            current = int(self.succ[current])
        return total

    # ------------------------------------------------------------------ walks
    def packed_of_row(self, row: int) -> int:
        """Canonical packed integer of a row (the sharded facade overrides)."""
        return self.view.packed[row]

    def row_of_packed(self, packed: int) -> Optional[int]:
        """Row of a canonical packed integer (the sharded facade overrides)."""
        return self.view.packed_index.get(packed)

    def _row_positions(self, row: int) -> "np.ndarray":
        """Canonical ``(n, 2)`` positions of a row (overridable storage hook)."""
        return self.view.positions[row]

    def disconnected_packed(self, row: int) -> int:
        """Packed form of the (disconnected) full-activation successor of ``row``."""
        positions = [(int(q), int(r)) for q, r in self._row_positions(row)]
        mc = self.move_code[row]
        nodes = []
        for i, (q, r) in enumerate(positions):
            code = int(mc[i])
            if code:
                dq, dr = _DIRECTIONS[code - 1].value
                nodes.append((q + dq, r + dr))
            else:
                nodes.append((q, r))
        return pack_nodes(nodes)

    def walk_outcome(self, row: int, max_rounds: int) -> Tuple[str, int, int]:
        """Table twin of :func:`repro.synth.search.simulate_outcome`.

        Returns ``(status, settled_packed, pre_failure_packed)`` with exactly
        the engine's semantics — the statuses, the settled configuration and
        the pre-failure vertex all match the targeted-replay walk.
        """
        packed = self.packed_of_row
        current = row
        seen = {row}
        for _ in range(max_rounds):
            k = int(self.kind[current])
            if k == KIND_GATHERED:
                return "gathered", packed(current), packed(current)
            if k == KIND_DEADLOCK:
                return "stuck", packed(current), packed(current)
            if k == KIND_COLLISION:
                return "collision", packed(current), packed(current)
            if k == KIND_DISCONNECT:
                return "disconnected", self.disconnected_packed(current), packed(current)
            nxt = int(self.succ[current])
            if nxt in seen:
                return "livelock", packed(nxt), packed(current)
            seen.add(nxt)
            current = nxt
        return "round-limit", packed(current), packed(current)

    # --------------------------------------------------------- graph slicing
    def _gather_rows(self, rows: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        """Canonical positions and move codes of ``rows`` (overridable storage hook)."""
        return self.view.positions[rows], self.move_code[rows]

    def expand_row(
        self, row: int, mode: str
    ) -> Tuple[Tuple[Tuple[int, int], ...], Optional[str]]:
        """:meth:`expand_rows` for one row."""
        return self.expand_rows([row], mode)[0]

    def expand_rows(
        self, rows: Iterable[int], mode: str
    ) -> List[Tuple[Tuple[Tuple[int, int], ...], Optional[str]]]:
        """Table twin of :func:`repro.explore.transitions.expand_packed`, per row.

        Returns ``(edges, terminal)`` for every row of ``rows``, in order:
        byte-identical edges (packed destinations) and terminal kinds.  The
        tuple form of :meth:`expand_level`.
        """
        from ..explore.transitions import (  # late: avoids an import cycle
            TERMINAL_DEADLOCK,
            TERMINAL_GATHERED,
        )

        rows = np.asarray(rows, dtype=np.int64)
        kind, src, bits, dst = self.expand_level(rows, mode)
        packed = self.packed_of_row
        edges = [
            (b, d if d < 0 else packed(d)) for b, d in zip(bits.tolist(), dst.tolist())
        ]
        bounds = np.searchsorted(src, np.arange(len(rows) + 1)).tolist()
        terminal = {KIND_GATHERED: TERMINAL_GATHERED, KIND_DEADLOCK: TERMINAL_DEADLOCK}
        return [
            (tuple(edges[bounds[i] : bounds[i + 1]]), terminal.get(k))
            for i, k in enumerate(kind.tolist())
        ]

    def expand_level(
        self, rows: Iterable[int], mode: str
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """The edges of a batch of rows (a BFS level), in row space.

        Returns ``(kind, src, bits, dst)``.  ``kind[i]`` is ``KIND_STEP`` for
        a moving ``rows[i]`` and ``KIND_GATHERED`` / ``KIND_DEADLOCK`` for a
        quiescent one.  Edge ``j`` leaves ``rows[src[j]]``, activates the
        robots of ``bits[j]`` and ends in row ``dst[j]`` or a negative sink
        code.  Edges come in source order, then subset order, exactly as
        :func:`~repro.explore.transitions.expand_packed` lists them.  FSYNC
        edges are read off ``kind`` / ``succ``; SSYNC rows not yet in the
        lineage memo are expanded together by :meth:`_ssync_pass`.
        """
        from ..explore.transitions import COLLISION_SINK, DISCONNECT_SINK  # late: cycle

        rows = np.asarray(rows, dtype=np.int64)
        moving = self.mover_count[rows] > 0
        gathered = np.asarray(self.view.gathered[rows], dtype=bool)
        kind = np.where(
            moving, KIND_STEP, np.where(gathered, KIND_GATHERED, KIND_DEADLOCK)
        ).astype(np.int8)
        position = np.nonzero(moving)[0]
        if mode == "fsync":
            step = rows[position]
            k = self.kind[step]
            dst = np.where(
                k == KIND_COLLISION,
                COLLISION_SINK,
                np.where(k == KIND_DISCONNECT, DISCONNECT_SINK, self.succ[step]),
            ).astype(np.int64)
            return kind, position, self.mover_bits[step].astype(np.int64), dst

        step = rows[position]
        unique = np.unique(step)
        local = np.isin(unique, self._ssync_dirty)
        memos = ((self._ssync_cache, ~local), (self._ssync_local, local))
        todo_mask = np.zeros(len(unique), dtype=bool)
        for memo, mine in memos:
            todo_mask[mine] = ~memo.known(unique[mine])
        todo = unique[todo_mask]
        if len(unique) > len(todo):
            _obs.counter("ssync.expand_cache_hits").inc(len(unique) - len(todo))
        if len(todo):
            _obs.counter("ssync.expand_cache_misses").inc(len(todo))
            src_row, bits, dst = self._ssync_pass(todo)
            owner = np.searchsorted(todo, src_row)
            lengths = np.bincount(owner, minlength=len(todo))
            for memo, mine in memos:
                keep = mine[todo_mask]
                if keep.any():
                    edge_keep = keep[owner]
                    memo.store(todo[keep], lengths[keep], bits[edge_keep], dst[edge_keep])

        step_local = np.isin(step, self._ssync_dirty)
        parts = []
        for memo, mine in ((self._ssync_cache, ~step_local), (self._ssync_local, step_local)):
            if mine.any():
                lengths, bits, dst = memo.gather(step[mine])
                parts.append((np.repeat(position[mine], lengths), bits, dst))
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return kind, empty, empty, empty
        src, bits, dst = (np.concatenate(part) for part in zip(*parts))
        if len(parts) > 1:
            order = np.argsort(src, kind="stable")
            src, bits, dst = src[order], bits[order], dst[order]
        return kind, src, bits.astype(np.int64), dst.astype(np.int64)

    def _ssync_pass(
        self, rows: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """SSYNC edges of moving ``rows``: every activation subset in one array pass.

        Activating a subset of a row's movers is the full-activation round
        with the other movers' codes zeroed: they become stayers, so landing
        on one is the move-onto-staying collision.  Each row is repeated once
        per subset, in :func:`subset_masks` order, and the copies are
        resolved by :func:`resolve_rows_arrays` in blocks of whole rows; the
        first subset reaching each destination is kept, which is the
        fewest-movers edge.  Returns ``(src_row, bits, dst)`` arrays, edges
        in the order of ``rows``, then subset order; ``dst`` is a row or a
        negative sink code.
        """
        from ..explore.transitions import COLLISION_SINK, DISCONNECT_SINK  # late: cycle

        start_time = time.perf_counter()
        n = self.view.size
        width = self.view.count + 2  # destinations: the sinks (-2, -1), then rows
        robot = np.arange(n, dtype=np.int32)
        counts = self.mover_count[rows]
        owners: List["np.ndarray"] = []
        bits_parts: List["np.ndarray"] = []
        dst_parts: List["np.ndarray"] = []
        subsets = 0
        for m in np.unique(counts).tolist():
            group = np.nonzero(counts == m)[0]  # positions in ``rows``
            masks = _subset_masks_array(m)
            member = (masks[:, None] >> np.arange(m, dtype=np.int32)) & 1  # (K, m)
            per_block = max(1, _BUILD_BLOCK // len(masks))
            for first in range(0, len(group), per_block):
                block = group[first : first + per_block]
                pos, codes = self._gather_rows(rows[block])
                mover_of = np.nonzero(codes)[1].reshape(len(block), m)  # ascending robots
                subset_bits = (member[None] << mover_of[:, None, :]).sum(axis=2)  # (B, K)
                active = ((subset_bits[:, :, None] >> robot) & 1).astype(bool)
                sub_codes = np.where(active, codes[:, None, :], 0).reshape(-1, n)
                bits, _, kind, succ, _ = resolve_rows_arrays(
                    np.repeat(pos, len(masks), axis=0),
                    sub_codes,
                    np.zeros(len(sub_codes), dtype=bool),
                    self.view.rows_of_canonical,
                )
                destination = np.where(
                    kind == KIND_COLLISION,
                    COLLISION_SINK,
                    np.where(kind == KIND_DISCONNECT, DISCONNECT_SINK, succ),
                ).astype(np.int64)
                owner = np.arange(len(sub_codes), dtype=np.int64) // len(masks)
                _, kept = np.unique(owner * width + destination + 2, return_index=True)
                kept.sort()  # back to (row, subset) order
                owners.append(block[owner[kept]])
                bits_parts.append(bits[kept])
                dst_parts.append(destination[kept])
                subsets += len(sub_codes)
        if owners:
            owner = np.concatenate(owners)
            order = np.argsort(owner, kind="stable")
            src_row = rows[owner[order]]
            bits = np.concatenate(bits_parts)[order].astype(np.int64)
            dst = np.concatenate(dst_parts)[order]
        else:
            src_row = bits = dst = np.empty(0, dtype=np.int64)
        _obs_record_span(
            "table.ssync_expand",
            time.perf_counter() - start_time,
            rows=len(rows),
            subsets=subsets,
            edges=len(dst),
        )
        return src_row, bits, dst

    # ------------------------------------------------------- cegis fast path
    def fsync_verdict(self, root_rows: "np.ndarray") -> "TableFsyncVerdict":
        """The FSYNC model-checking verdict over a root set, without a graph.

        Like the explorer, the verdict is budget-free (exhaustive); use
        :meth:`batch_outcomes` when round-limit capping matters.
        """
        return TableFsyncVerdict(self, np.asarray(root_rows, dtype=np.int32))

    def ssync_verdict(self, root_rows: "np.ndarray") -> "TableSsyncVerdict":
        """The adversarial-SSYNC model-checking verdict over a root set, in row space.

        The explorer's answer without its graph: the vertex id is the table
        row.  A breadth-first search from ``root_rows`` (distinct rows)
        expands each level with one :meth:`expand_level` call, so the
        lineage's SSYNC memos serve every edge they already hold, and a
        visited mask decides which destinations are new.  The edges go into
        one :class:`~repro.explore.transitions.GraphArrays` over all rows
        (``STATE_ABSENT`` for the rows never reached), which
        :func:`~repro.explore.analyzer.classify_arrays` classifies in one
        pass.  No vertex is named by packed configuration.
        """
        from ..explore.analyzer import classify_arrays  # late: avoids an import cycle
        from ..explore.transitions import STATE_ABSENT, GraphArrays

        start_time = time.perf_counter()
        root_rows = np.asarray(root_rows, dtype=np.int64)
        count = self.view.count
        state = np.full(count, STATE_ABSENT, dtype=np.int8)
        reached = np.zeros(count, dtype=bool)
        reached[root_rows] = True
        frontier = np.flatnonzero(reached)
        sources: List["np.ndarray"] = []
        bits_parts: List["np.ndarray"] = []
        dst_parts: List["np.ndarray"] = []
        levels = 0
        while len(frontier):
            kind, src, bits, dst = self.expand_level(frontier, "ssync")
            state[frontier] = kind
            sources.append(frontier[src])
            bits_parts.append(bits)
            dst_parts.append(dst)
            target = dst[dst >= 0]
            fresh = np.unique(target[~reached[target]])
            reached[fresh] = True
            frontier = fresh
            levels += 1
        src = np.concatenate(sources)
        order = np.argsort(src, kind="stable")  # CSR: by source row, subset order kept
        arrays = GraphArrays(
            state=state,
            indptr=np.concatenate(([0], np.cumsum(np.bincount(src, minlength=count)))),
            bits=np.concatenate(bits_parts)[order],
            dst=np.concatenate(dst_parts)[order],
            roots=root_rows,
        )
        verdict = TableSsyncVerdict(classify_arrays(arrays), root_rows)
        _obs_record_span(
            "table.ssync_verdict",
            time.perf_counter() - start_time,
            roots=len(root_rows),
            rows=int(reached.sum()),
            edges=len(src),
            levels=levels,
        )
        return verdict


#: Sentinel distinguishing "memoized as None" from "not yet settled".
_UNSETTLED = object()


class TableFsyncVerdict:
    """A graph-free FSYNC exploration verdict, served straight from the table.

    Exposes exactly what the CEGIS loop asks an FSYNC
    :class:`~repro.explore.report.ExplorationReport` for — the root census,
    the won-root set and the mass-ordered counterexample list — computed from
    the table's :meth:`SuccessorTable.fsync_summary` (resolved once per table,
    for every row) instead of a materialized transition graph, and guaranteed
    to match the explorer's answers.
    """

    def __init__(self, table: SuccessorTable, root_rows: "np.ndarray") -> None:
        self.table = table
        self.root_rows = root_rows
        self._outcome = table.fsync_summary().outcome[root_rows]

    @cached_property
    def root_census(self) -> Dict[str, int]:
        """Class histogram over the roots, in the analyzer's reporting order."""
        table = self.table
        outcome = self._outcome
        gathered = int(
            ((outcome == OUT_GATHERED) & (table.kind[self.root_rows] == KIND_GATHERED)).sum()
        )
        safe = int((outcome == OUT_GATHERED).sum()) - gathered
        counts = {
            "gathered": gathered,
            "safe": safe,
            "deadlock": int((outcome == OUT_DEADLOCK).sum()),
            "livelock": int((outcome == OUT_LIVELOCK).sum()),
            "collision": int((outcome == OUT_COLLISION).sum()),
            "disconnected": int((outcome == OUT_DISCONNECTED).sum()),
        }
        return {name: count for name, count in counts.items() if count}

    def won_roots(self) -> FrozenSet[int]:
        """Packed roots whose execution gathers (classified gathered or safe)."""
        packed = self.table.view.packed
        won = self.root_rows[self._outcome == OUT_GATHERED]
        return frozenset(packed[row] for row in won.tolist())

    def won_mask(self) -> "np.ndarray":
        """:meth:`won_roots` as a mask over the table's rows."""
        return _row_mask(self.table.view.count, self.root_rows[self._outcome == OUT_GATHERED])

    def counterexamples_by_mass(self, include_failures: bool = False) -> List[int]:
        """The explorer's counterexample ordering, straight from the table.

        Replays the graph walker's ``settles_in`` memoization exactly: the
        first root to walk into a livelock cycle stamps every node it visited
        — cycle members included — with *its* entry point, so later roots
        entering the same cycle elsewhere attribute to that first entry.
        This keeps the counterexample ordering (and hence the CEGIS search
        trajectory) byte-identical to the packed kernel's even for cycles
        with several entry points.  Every deadlock row a root reaches is that
        root's settling row, so no reachable deadlock is left without mass.
        """
        table = self.table
        packed = table.view.packed
        kind = table.kind
        succ = table.succ
        settles: Dict[int, Optional[int]] = {}
        mass: Dict[int, int] = {}
        for root in self.root_rows:
            row = self._settle(int(root), settles, kind, succ, include_failures)
            if row is not None:
                counterexample = packed[row]
                mass[counterexample] = mass.get(counterexample, 0) + 1
        return sorted(mass, key=lambda item: (-mass[item], item))

    @staticmethod
    def _settle(
        row: int,
        settles: Dict[int, Optional[int]],
        kind: "np.ndarray",
        succ: "np.ndarray",
        include_failures: bool,
    ) -> Optional[int]:
        """One root's counterexample, memoized like the graph walker's."""
        path: List[int] = []
        on_path: set = set()
        current = row
        while True:
            memoized = settles.get(current, _UNSETTLED)
            if memoized is not _UNSETTLED:
                result = memoized
                break
            k = int(kind[current])
            if k == KIND_GATHERED:
                result = None
                break
            if k == KIND_DEADLOCK:
                result = current
                break
            path.append(current)
            on_path.add(current)
            if k in (KIND_COLLISION, KIND_DISCONNECT):
                # The fatal move is computed here: the amending counterexample.
                result = current if include_failures else None
                break
            current = int(succ[current])
            if current in on_path:
                result = current if include_failures else None  # cycle entry
                break
        for visited in path:
            settles[visited] = result
        return result


def _row_mask(count: int, rows: "np.ndarray") -> "np.ndarray":
    mask = np.zeros(count, dtype=bool)
    mask[rows] = True
    return mask


class TableSsyncVerdict:
    """A graph-free adversarial-SSYNC exploration verdict, in row space.

    What the CEGIS loop asks an SSYNC
    :class:`~repro.explore.report.ExplorationReport` for — the root census
    and the won roots — read off the per-row classes of
    :meth:`SuccessorTable.ssync_verdict`.  The classes are the explorer's,
    root for root.
    """

    def __init__(self, classes: "np.ndarray", root_rows: "np.ndarray") -> None:
        #: Index into :data:`~repro.explore.analyzer.CLASSES` per table row
        #: (-1 for the rows no root reaches).
        self.classes = classes
        self.root_rows = root_rows

    @cached_property
    def root_census(self) -> Dict[str, int]:
        """Class histogram over the roots, in the analyzer's reporting order."""
        from ..explore.analyzer import Classification  # late: avoids an import cycle

        return Classification._histogram(self.classes[self.root_rows])

    def won_mask(self) -> "np.ndarray":
        """Mask over the table's rows of the roots classified gathered or safe."""
        from ..explore.analyzer import CLASSES  # late: avoids an import cycle

        won_classes = (CLASSES.index("gathered"), CLASSES.index("safe"))
        won = np.isin(self.classes[self.root_rows], won_classes)
        return _row_mask(len(self.classes), self.root_rows[won])


# ---------------------------------------------------------------------------
# The per-algorithm table registry.
# ---------------------------------------------------------------------------

def _codes_chunk(payload: Tuple[str, List[int]]) -> Tuple["np.ndarray", Dict]:
    """Views -> codes for one chunk of unique view bitmasks, by registry name.

    Nothing in the package calls it: every table build runs its Compute pass
    serially.  It stays only as a named target of the benchmark tracer.
    Returns the int8 move codes of :func:`_decision_pass` plus the drained
    metrics delta (see :mod:`repro.obs.metrics`).
    """
    algorithm_name, bitmasks = payload
    from .runner import worker_algorithm  # late: avoids an import cycle

    codes = _decision_pass(worker_algorithm(algorithm_name), bitmasks)
    return codes, _obs.export_delta()


def successor_table(
    algorithm: GatheringAlgorithm,
    size: int,
    disk_cache: Optional[str] = None,
) -> SuccessorTable:
    """The memoized successor table of ``algorithm`` over the ``size`` space.

    Tables attach to the algorithm instance (like the decision cache), so an
    exhaustive sweep, an exploration and a synthesis run sharing one
    algorithm object pay for one build.  Compositions that expose the
    ``table_kernel_layers`` protocol — ``(base, overrides, amendments)``, as
    :class:`repro.synth.ruleset.OverrideAlgorithm` does — are **derived**
    from their base algorithm's table via delta-aware invalidation instead of
    being rebuilt, which is what makes per-candidate CEGIS evaluation cheap:
    all the tables derived from one base table resolve each row state once
    (see :meth:`SuccessorTable.derive`), and the memo of those states goes
    with the base table when :func:`clear_table_caches` drops it.

    A cold build runs in this process (see :meth:`SuccessorTable.build`).

    ``disk_cache`` (or the ``REPRO_TABLE_CACHE`` environment variable when
    the argument is omitted) names a directory of table stores
    (:mod:`repro.core.sharded_tables`): a cold call opens the stored arrays
    instead of rebuilding, and a genuine build is written back — the
    warm-CI path behind the service's ``--table-cache`` flag.  A store that
    fails validation is rebuilt, never trusted.
    """
    tables = getattr(algorithm, "_successor_tables", None)
    if tables is None:
        tables = {}
        algorithm._successor_tables = tables  # type: ignore[attr-defined]
    table = tables.get(size)
    if table is None:

        def build() -> SuccessorTable:
            layers = getattr(algorithm, "table_kernel_layers", None)
            if layers is None:
                return SuccessorTable.build(algorithm, size)
            base, overrides, amendments = layers
            return successor_table(base, size, disk_cache=disk_cache).derive(
                overrides, amendments
            )

        cache_dir = disk_cache if disk_cache is not None else os.environ.get(_TABLE_CACHE_ENV)
        if cache_dir:
            from .sharded_tables import (  # late: avoids an import cycle
                _open_or_build,
                open_table_store,
                table_store_dir,
                write_table_store,
            )

            store = table_store_dir(algorithm, size, cache_dir)

            def build_and_write() -> SuccessorTable:
                built = build()
                built.directory = write_table_store(built, store)
                return built

            table = _open_or_build(store, size, open_table_store, build_and_write)
        else:
            table = build()
        tables[size] = table
    return table


def scoped_table(
    algorithm: GatheringAlgorithm,
    size: int,
    build: bool = True,
    disk_cache: Optional[str] = None,
) -> Optional[SuccessorTable]:
    """The table of whichever tier covers ``size``-robot spaces, or ``None``.

    The one place the in-RAM / sharded / none choice is made: the in-RAM
    :func:`successor_table` within :func:`table_in_scope`, else the
    out-of-core :func:`~repro.core.sharded_tables.sharded_successor_table`
    within :func:`sharded_in_scope`, else ``None``.  ``build=False`` returns
    only a table already memoized on ``algorithm`` (a single execution never
    pays for a build).  Either tier builds in this process; ``disk_cache``
    is the store root of both.  Algorithms
    whose views do not fit the view column (:func:`view_in_scope`) get
    ``None`` at every size.
    """
    if not view_in_scope(algorithm.visibility_range):
        return None
    if table_in_scope(size):
        if not build:
            return (getattr(algorithm, "_successor_tables", None) or {}).get(size)
        return successor_table(algorithm, size, disk_cache=disk_cache)
    if sharded_in_scope(size):
        if not build:
            return (getattr(algorithm, "_sharded_tables", None) or {}).get(size)
        from .sharded_tables import sharded_successor_table  # late: import cycle

        return sharded_successor_table(algorithm, size, cache_dir=disk_cache)
    return None
