"""Transition-graph construction over packed canonical configurations.

The state space of the gathering problem is finite: every reachable
configuration of ``n`` connected robots is (up to translation) one of the
fixed polyhexes with ``n`` cells, and :func:`repro.grid.packing.pack_nodes`
gives each of them a canonical integer name.  This module builds the directed
graph whose vertices are those integers and whose edges are the rounds the
engine could execute:

* under **FSYNC** every robot is activated, so each vertex has exactly one
  outgoing edge (the graph is functional);
* under **SSYNC** the adversary activates any non-empty subset of robots.
  Because an algorithm is a deterministic function of each robot's view
  (:func:`repro.core.engine.move_intents`), the moves under activation subset
  ``A`` are exactly the full-activation intents restricted to ``A`` — so the
  distinct successors are indexed by the *subsets of the mover set*, at most
  ``2^n - 1`` instead of one per activation subset, and usually far fewer.

Edges that violate one of the paper's three forbidden behaviours end in the
virtual :data:`COLLISION_SINK`; edges that split the swarm end in
:data:`DISCONNECT_SINK`.  Several activation subsets frequently produce the
same successor; the builder keeps one representative edge per successor, the
one with the fewest movers (subsets are enumerated in increasing-cardinality
order), which later gives the shortest possible per-round witnesses.

The builder expands the BFS frontier one level at a time, over vertex ids
numbered in discovery order, and stores the graph as CSR arrays
(:class:`GraphArrays`).  Those arrays are the only form of a graph: the
classifier, the witness search and the CEGIS gate all walk them, and a
vertex is named by its packed configuration only when something reports it
(:meth:`TransitionGraph.packed_of_vertices`).  The table kernel works in row space from
end to end: the roots become table rows in one array pass, and a level is one
:meth:`repro.core.table_kernel.SuccessorTable.expand_level` call per table,
whose ``(src, bits, dst)`` arrays go into the graph as they are.  The packed
kernel expands vertex by vertex and fans chunks of a level out through
:func:`repro.core.runner.run_chunked_tasks`, the same primitive the batch
runner uses for exhaustive sweeps.
"""
from __future__ import annotations

import time
from itertools import chain
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.bitsets import subset_masks
from ..core.configuration import Configuration
from ..core.engine import _is_connected_nodes, move_intents
from ..core.runner import ConfigurationLike, run_chunked_tasks, worker_algorithm
from ..grid.coords import Coord
from ..grid.packing import pack_nodes, packed_count, unpack_nodes
from ..obs import DEFAULT_COUNT_BUCKETS, get_logger
from ..obs import metrics as _obs
from ..obs import record_span as _obs_record_span

_LOG = get_logger("explore.transitions")

__all__ = [
    "COLLISION_SINK",
    "DISCONNECT_SINK",
    "MODES",
    "TERMINAL_GATHERED",
    "TERMINAL_DEADLOCK",
    "GraphArrays",
    "TransitionGraph",
    "expand_packed",
    "build_transition_graph",
]

#: Virtual sink vertex for edges that would commit a forbidden behaviour
#: (swap, move-onto-staying or same-target; Section II-A of the paper).
COLLISION_SINK = -1
#: Virtual sink vertex for edges whose successor configuration is disconnected.
DISCONNECT_SINK = -2

#: The supported edge semantics.
MODES = ("fsync", "ssync")

#: Terminal kinds of quiescent vertices.
TERMINAL_GATHERED = "gathered"
TERMINAL_DEADLOCK = "deadlock"

#: Vertex states of :class:`GraphArrays`.  The first three equal the table
#: kernel's ``KIND_STEP`` / ``KIND_GATHERED`` / ``KIND_DEADLOCK`` codes, so a
#: table level's row kinds are vertex states as they stand.
STATE_EDGES = 0
STATE_GATHERED = 1
STATE_DEADLOCK = 2
STATE_UNEXPLORED = 3
#: Not a vertex: an id the search never reached.  A graph the builder makes
#: has none; the row-space search of
#: :meth:`~repro.core.table_kernel.SuccessorTable.ssync_verdict`, whose ids
#: are all the table's rows, marks every row no root reaches with it.
STATE_ABSENT = 4

_STATE_OF_TERMINAL = {TERMINAL_GATHERED: STATE_GATHERED, TERMINAL_DEADLOCK: STATE_DEADLOCK}

#: An edge: ``(mover_bits, destination)``.  Bit ``i`` of ``mover_bits`` refers
#: to the ``i``-th robot of the source vertex's canonical sorted position
#: tuple; the destination is a packed configuration or one of the sinks.
Edge = Tuple[int, int]


class GraphArrays(NamedTuple):
    """A transition graph as arrays over vertex ids (CSR adjacency)."""

    #: Per-vertex state: one of the ``STATE_*`` codes.
    state: "np.ndarray"
    #: Vertex ``v``'s edges are ``bits[indptr[v]:indptr[v + 1]]`` /
    #: ``dst[indptr[v]:indptr[v + 1]]``.
    indptr: "np.ndarray"
    #: Mover bits of every edge (see :data:`Edge`).
    bits: "np.ndarray"
    #: Destination vertex id of every edge, or a negative sink code.
    dst: "np.ndarray"
    #: Vertex ids of the roots, deduplicated, in first-seen order.
    roots: "np.ndarray"


class TransitionGraph:
    """The explored portion of the configuration transition graph.

    The graph is its :class:`GraphArrays` over vertex ids (the BFS discovery
    order, roots first); :meth:`vertex_packed` names every vertex by its
    packed configuration and :meth:`packed_of_vertices` names a few, on
    demand.  Nothing else is kept per vertex: readers walk the CSR arrays and
    name only the vertices they report.
    """

    def __init__(
        self,
        algorithm_name: str,
        mode: str,
        arrays: GraphArrays,
        packed_of: Callable[..., List[int]],
        require_connectivity: bool = True,
        elapsed_seconds: float = 0.0,
    ) -> None:
        #: Name of the algorithm whose rules define the edges.
        self.algorithm_name = algorithm_name
        #: Edge semantics: ``"fsync"`` or ``"ssync"``.
        self.mode = mode
        #: The CSR form of the graph.
        self.arrays = arrays
        #: Whether connectivity was enforced (disconnecting edges end in the sink).
        self.require_connectivity = require_connectivity
        #: Wall-clock seconds spent building the graph.
        self.elapsed_seconds = elapsed_seconds
        # ``packed_of()`` names every vertex, ``packed_of(vids)`` some.
        self._packed_of: Optional[Callable[..., List[int]]] = packed_of
        self._vertex_packed: Optional[List[int]] = None
        self._vertex_index: Optional[Dict[int, int]] = None
        self._roots: Optional[Tuple[int, ...]] = None

    def vertex_packed(self) -> List[int]:
        """Packed configuration of every vertex id."""
        if self._vertex_packed is None:
            self._vertex_packed = self._packed_of()
            self._packed_of = None  # releases the BFS state and its tables
        return self._vertex_packed

    def packed_of_vertices(self, vids: "np.ndarray") -> List[int]:
        """Packed configurations of some vertex ids, naming no other vertex."""
        if self._vertex_packed is None:
            return self._packed_of(vids)
        packed = self._vertex_packed
        return [packed[v] for v in vids.tolist()]

    def vertex_index(self) -> Dict[int, int]:
        """Packed configuration -> vertex id."""
        if self._vertex_index is None:
            self._vertex_index = {p: v for v, p in enumerate(self.vertex_packed())}
        return self._vertex_index

    def node_order(self) -> "np.ndarray":
        """The discovered vertex ids: expanded movers, then terminals, then
        the unexplored vertices, each group in id order."""
        state = self.arrays.state
        return np.concatenate(
            (
                np.flatnonzero(state == STATE_EDGES),
                np.flatnonzero((state == STATE_GATHERED) | (state == STATE_DEADLOCK)),
                np.flatnonzero(state == STATE_UNEXPLORED),
            )
        )

    @property
    def roots(self) -> Tuple[int, ...]:
        """The packed root configurations the exploration started from."""
        if self._roots is None:
            self._roots = tuple(self.packed_of_vertices(self.arrays.roots))
        return self._roots

    @property
    def truncated(self) -> bool:
        """Whether the node budget cut the exploration short."""
        return bool((self.arrays.state == STATE_UNEXPLORED).any())

    @property
    def num_nodes(self) -> int:
        """Number of discovered vertices (expanded plus unexplored)."""
        return int((self.arrays.state != STATE_ABSENT).sum())

    @property
    def num_edges(self) -> int:
        """Number of stored (deduplicated) edges, sink edges included."""
        return len(self.arrays.dst)

    @staticmethod
    def positions(packed: int) -> Tuple[Coord, ...]:
        """Canonical sorted robot positions of a vertex."""
        return unpack_nodes(packed)

    @staticmethod
    def movers_of(packed: int, mover_bits: int) -> Tuple[Coord, ...]:
        """The robots an edge activates, as positions of the source vertex."""
        positions = unpack_nodes(packed)
        return tuple(
            pos for index, pos in enumerate(positions) if mover_bits & (1 << index)
        )

    def throughput(self) -> float:
        """Expanded vertices per second (0.0 when no time was recorded)."""
        state = self.arrays.state
        expanded = int((state <= STATE_DEADLOCK).sum())
        return expanded / self.elapsed_seconds if self.elapsed_seconds else 0.0


def expand_packed(
    packed: int,
    algorithm,
    mode: str = "fsync",
    require_connectivity: bool = True,
) -> Tuple[Tuple[Edge, ...], Optional[str]]:
    """Expand one vertex: its outgoing edges, or its terminal kind.

    Returns ``(edges, terminal)``.  Quiescent vertices (no robot intends to
    move) have no edges and a terminal kind; every other vertex has at least
    one edge and ``terminal is None``.

    SSYNC activation subsets are enumerated as machine-word bitmasks over the
    sorted mover list (:func:`repro.core.bitsets.subset_masks`), with the
    collision predicate precomputed once per vertex as per-mover interaction
    masks — byte-identical edges to a per-subset ``detect_collision_nodes``
    enumeration (the property tests keep one as their oracle), but the
    inner loop is pure bit arithmetic.
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
    m = len(movers)
    targets_of = [mover.step(intents[mover]) for mover in movers]

    # Per-mover interaction masks: mover ``a`` (active under subset ``s``)
    # collides iff its target holds a non-mover (``onto_stayer``), a co-active
    # mover shares the target (``same & s``), it swaps with a co-active mover
    # (``swap & s``), or it lands on an *inactive* mover (``onto & ~s``) —
    # the same three forbidden behaviours ``detect_collision_nodes`` checks.
    mover_slot = {pos: a for a, pos in enumerate(movers)}
    onto_stayer = 0
    onto = [0] * m
    swap = [0] * m
    same = [0] * m
    for a, target in enumerate(targets_of):
        if target in position_set:
            b = mover_slot.get(target)
            if b is None:
                onto_stayer |= 1 << a
            else:
                onto[a] |= 1 << b
                if targets_of[b] == movers[a]:
                    swap[a] |= 1 << b
        for b in range(m):
            if b != a and targets_of[b] == target:
                same[a] |= 1 << b
    robot_bit = [1 << index_of[pos] for pos in movers]

    if mode == "fsync":
        masks: Iterable[int] = ((1 << m) - 1,)
    else:
        # Increasing cardinality, so the first edge reaching a successor is
        # the one with the fewest movers.
        masks = subset_masks(m)

    full = (1 << m) - 1
    targets: Dict[int, int] = {}
    for s in masks:
        collided = bool(s & onto_stayer)
        if not collided:
            rem = s
            while rem:
                low = rem & -rem
                a = low.bit_length() - 1
                rem ^= low
                if (same[a] & s) or (swap[a] & s) or (onto[a] & ~s & full):
                    collided = True
                    break
        if collided:
            destination = COLLISION_SINK
        else:
            # Two passes (clear every activated source, then add every
            # target) so a mover stepping into a co-active mover's vacated
            # node survives whatever order the bits come off the word.
            next_nodes = set(position_set)
            rem = s
            while rem:
                low = rem & -rem
                next_nodes.discard(movers[low.bit_length() - 1])
                rem ^= low
            rem = s
            while rem:
                low = rem & -rem
                next_nodes.add(targets_of[low.bit_length() - 1])
                rem ^= low
            if require_connectivity and not _is_connected_nodes(next_nodes):
                destination = DISCONNECT_SINK
            else:
                destination = pack_nodes(next_nodes)
        if destination not in targets:
            bits = 0
            rem = s
            while rem:
                low = rem & -rem
                bits |= robot_bit[low.bit_length() - 1]
                rem ^= low
            targets[destination] = bits
    return tuple((bits, destination) for destination, bits in targets.items()), None


def _packed_expander(algorithm, mode: str, require_connectivity: bool):
    """Expand a batch of vertices one :func:`expand_packed` call at a time."""

    def expand(batch: List[int]) -> List[Tuple[int, Tuple[Edge, ...], Optional[str]]]:
        return [
            (packed, *expand_packed(packed, algorithm, mode, require_connectivity))
            for packed in batch
        ]

    return expand


# ---------------------------------------------------------------------------
# Graph construction: breadth-first, one array pass per level.
# ---------------------------------------------------------------------------

_ExpandPayload = Tuple[str, str, List[int], bool]


def _expand_chunk(
    payload: _ExpandPayload,
) -> Tuple[List[Tuple[int, Tuple[Edge, ...], Optional[str]]], Dict]:
    """Worker entry point: expand one chunk of packed vertices.

    Returns the expansions plus the worker registry's drained metrics delta
    (:func:`repro.obs.metrics.export_delta`) for the parent to merge.
    The algorithm, and with it its decision cache, is the worker process's
    shared instance (:func:`repro.core.runner.worker_algorithm`), so every
    chunk a process expands reuses the decisions of its earlier chunks.
    """
    algorithm_name, mode, packed_list, require_connectivity = payload
    algorithm = worker_algorithm(algorithm_name)
    results = _packed_expander(algorithm, mode, require_connectivity)(packed_list)
    return results, _obs.export_delta()


def segment_index(starts: "np.ndarray", lengths: "np.ndarray") -> "np.ndarray":
    """The concatenated ``arange(start, start + length)`` of every pair."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    offsets = np.asarray(starts, dtype=np.int64) - (ends - lengths)
    return np.repeat(offsets, lengths) + np.arange(total, dtype=np.int64)


#: Vertex identities are packed into one int64 key as ``space << 40 | ident``.
_IDENT_BITS = 40


class _Vertices:
    """The discovered vertices, numbered in discovery order: the BFS queue.

    Every vertex lives in one *space*.  Space 0 holds packed integers: every
    vertex of the packed kernel, and the few vertices no table covers.  Each
    space ``s > 0`` holds the rows of one successor table (one per robot
    count).  A vertex is the pair ``(space, ident)``, where ``ident`` is its
    table row or its index into :attr:`packed`.
    """

    def __init__(self, table_of: Callable[[int], Optional[object]]) -> None:
        self._table_of = table_of
        self._space_of_size: Dict[int, int] = {}
        #: The table of every space (``None`` for space 0).
        self.tables: List[Optional[object]] = [None]
        #: Space 0's packed integers, by ident.
        self.packed: List[int] = []
        self._packed_ident: Dict[int, int] = {}
        #: Per space: ident -> vertex id (-1 until discovered).
        self._vid: List["np.ndarray"] = [np.empty(0, dtype=np.int64)]
        #: Space and ident of every vertex id.
        self.space = np.empty(0, dtype=np.int64)
        self.ident = np.empty(0, dtype=np.int64)

    @property
    def count(self) -> int:
        return len(self.space)

    def space_of_size(self, size: int) -> int:
        space = self._space_of_size.get(size)
        if space is None:
            table = self._table_of(size) if size > 0 else None
            space = 0
            if table is not None:
                space = len(self.tables)
                self.tables.append(table)
                self._vid.append(np.full(table.view.count, -1, dtype=np.int64))
            self._space_of_size[size] = space
        return space

    def packed_ident(self, packed: int) -> int:
        ident = self._packed_ident.get(packed)
        if ident is None:
            ident = self._packed_ident[packed] = len(self.packed)
            self.packed.append(packed)
        return ident

    def locate(self, packed: int) -> Tuple[int, int]:
        """``(space, ident)`` of a packed configuration."""
        space = self.space_of_size(packed_count(packed))
        if space:
            row = self.tables[space].row_of_packed(packed)
            if row is not None:
                return space, row
        return 0, self.packed_ident(packed)

    def _lookup(self, space: "np.ndarray", ident: "np.ndarray") -> "np.ndarray":
        if len(self._vid[0]) < len(self.packed):  # space 0 grows as it is met
            grown = np.full(len(self.packed), -1, dtype=np.int64)
            grown[: len(self._vid[0])] = self._vid[0]
            self._vid[0] = grown
        vids = np.full(len(space), -1, dtype=np.int64)
        for s in np.unique(space).tolist():
            where = space == s
            vids[where] = self._vid[s][ident[where]]
        return vids

    def discover(self, space: "np.ndarray", ident: "np.ndarray") -> "np.ndarray":
        """Vertex ids of ``(space, ident)`` pairs; unseen ones are numbered
        in order of first occurrence.  A negative space marks a sink, whose
        ident (the sink code) passes through."""
        real = space >= 0
        vids = ident.copy()
        found = self._lookup(space[real], ident[real])
        unseen = found < 0
        if unseen.any():
            keys = space[real][unseen] << _IDENT_BITS | ident[real][unseen]
            unique, first = np.unique(keys, return_index=True)
            keys = unique[np.argsort(first)]
            new_space = keys >> _IDENT_BITS
            new_ident = keys & ((1 << _IDENT_BITS) - 1)
            new_vids = np.arange(self.count, self.count + len(keys), dtype=np.int64)
            for s in np.unique(new_space).tolist():
                where = new_space == s
                self._vid[s][new_ident[where]] = new_vids[where]
            self.space = np.concatenate((self.space, new_space))
            self.ident = np.concatenate((self.ident, new_ident))
            found = self._lookup(space[real], ident[real])
        vids[real] = found
        return vids

    def add_roots(self, roots: Iterable[ConfigurationLike]) -> None:
        """Discover the roots, deduplicated in first-seen order.

        Roots a table covers become rows in one array pass per robot count
        (:meth:`~repro.core.table_kernel.ViewTable.rows_of_positions`); the
        rest are packed.  An ``(N, n, 2)`` int array of node sets (such as
        :func:`~repro.enumeration.polyhex.canonical_positions`) that a table
        covers maps to rows with no round-trip through tuples.
        """
        if isinstance(roots, np.ndarray):
            space = self.space_of_size(roots.shape[1])
            rows = self.tables[space].view.rows_of_positions(roots) if space else None
            if rows is not None and bool((rows >= 0).all()):
                self.discover(np.full(len(rows), space, dtype=np.int64), rows)
                return
            roots = roots.tolist()
        node_sets = [
            tuple(item.nodes if isinstance(item, Configuration) else item)
            for item in roots
        ]
        space = np.zeros(len(node_sets), dtype=np.int64)
        ident = np.zeros(len(node_sets), dtype=np.int64)
        by_size: Dict[int, List[int]] = {}
        for index, nodes in enumerate(node_sets):
            by_size.setdefault(len(nodes), []).append(index)
        for size, members in by_size.items():
            members_array = np.array(members, dtype=np.int64)
            rows = np.full(len(members), -1, dtype=np.int64)
            s = self.space_of_size(size)
            if s:
                flat = np.fromiter(
                    chain.from_iterable(chain.from_iterable(node_sets[i] for i in members)),
                    dtype=np.int64,
                )
                if len(flat) == len(members) * size * 2:  # every node a pair
                    positions = flat.reshape(len(members), size, 2)
                    rows = self.tables[s].view.rows_of_positions(positions)
            found = rows >= 0
            space[members_array[found]] = s
            ident[members_array[found]] = rows[found]
            for index in members_array[~found].tolist():
                ident[index] = self.packed_ident(pack_nodes(node_sets[index]))
        self.discover(space, ident)

    def vertex_packed(self, vids: Optional["np.ndarray"] = None) -> List[int]:
        """Packed configuration of every vertex id, or of ``vids`` only."""
        space_of = self.space if vids is None else self.space[vids]
        ident_of = self.ident if vids is None else self.ident[vids]
        packed: List[int] = [0] * len(space_of)
        for space, table in enumerate(self.tables):
            where = np.nonzero(space_of == space)[0]
            name = self.packed.__getitem__ if table is None else table.packed_of_row
            for position, ident in zip(where.tolist(), ident_of[where].tolist()):
                packed[position] = name(ident)
        return packed


def build_transition_graph(
    roots: Iterable[ConfigurationLike],
    algorithm=None,
    algorithm_name: Optional[str] = None,
    mode: str = "fsync",
    max_nodes: Optional[int] = None,
    workers: int = 1,
    chunk_size: int = 256,
    require_connectivity: bool = True,
    kernel: str = "packed",
) -> TransitionGraph:
    """Explore the transition graph reachable from ``roots`` exhaustively.

    Breadth-first frontier expansion: every discovered vertex is expanded
    exactly once; ``max_nodes`` bounds the number of *expanded* vertices (the
    remainder of the frontier keeps the state ``STATE_UNEXPLORED`` and the
    graph is marked truncated).  Exactly one of ``algorithm`` /
    ``algorithm_name`` must be given; ``workers > 1`` requires the named
    form, mirroring :func:`repro.core.runner.run_many`.

    Vertices are numbered in discovery order (source order, then subset
    order within a source), so the queue is a range of vertex ids and each
    level's edges are appended to the graph's CSR arrays as they come.

    ``kernel="packed"`` re-runs Look–Compute per vertex; ``workers > 1``
    fans the levels out over one spawn pool for the whole build.  Each worker
    builds the algorithm (and its decision cache) once, so the pool pays off
    only on large graphs: the serial n=7 build takes about half a second,
    which spawn start-up alone can exceed.

    ``kernel="table"`` runs in row space from end to end and ignores
    ``workers``: the roots become table rows in one array pass, and each level
    is one :meth:`~repro.core.table_kernel.SuccessorTable.expand_level` call
    per table, whose ``(src, bits, dst)`` arrays go into the graph as they
    are.  The graph is byte-identical to the packed kernel's.  It requires
    ``require_connectivity=True`` (the table treats disconnection as a sink)
    and falls back to the packed expansion for vertices outside the table's
    scope.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; available: {MODES}")
    if kernel not in ("packed", "table"):
        raise ValueError(f"unknown explorer kernel {kernel!r}; available: packed, table")
    if kernel == "table" and not require_connectivity:
        raise ValueError("kernel='table' requires require_connectivity=True")
    if (algorithm is None) == (algorithm_name is None):
        raise ValueError("provide exactly one of algorithm / algorithm_name")
    if workers > 1 and algorithm_name is None:
        raise ValueError("parallel exploration requires algorithm_name (registry lookup)")
    if algorithm is None:
        from ..algorithms.registry import create_algorithm  # late: avoids an import cycle

        algorithm = create_algorithm(algorithm_name)
    resolved_name = algorithm_name or algorithm.name

    start = time.perf_counter()
    if kernel == "table":
        from ..core.table_kernel import scoped_table  # late: avoids an import cycle

        vertices = _Vertices(lambda size: scoped_table(algorithm, size))
    else:
        vertices = _Vertices(lambda size: None)
    vertices.add_roots(roots)
    root_count = vertices.count
    expand_serial = _packed_expander(algorithm, mode, require_connectivity)
    budget = max_nodes if max_nodes is not None else float("inf")
    # One pool for the whole build: the BFS fans out once per level, and a
    # fresh spawn pool per level would dominate the build.
    pool = None
    if workers > 1 and kernel == "packed":
        import multiprocessing
        import os

        pool = multiprocessing.get_context("spawn").Pool(
            processes=min(workers, os.cpu_count() or 1)
        )

    def expand_packed_batch(batch: List[int]):
        if pool is None or len(batch) <= chunk_size:
            return expand_serial(batch)
        payloads: List[_ExpandPayload] = [
            (resolved_name, mode, batch[i : i + chunk_size], require_connectivity)
            for i in range(0, len(batch), chunk_size)
        ]
        results = []
        for chunk, delta in run_chunked_tasks(payloads, _expand_chunk, pool=pool):
            _obs.merge(delta)
            results.extend(chunk)
        return results

    states: List["np.ndarray"] = []
    counts: List["np.ndarray"] = []
    bits_parts: List["np.ndarray"] = []
    dst_parts: List["np.ndarray"] = []
    expanded = 0
    try:
        while expanded < vertices.count and expanded < budget:
            end = int(min(vertices.count, budget))
            level_space = vertices.space[expanded:end]
            level_ident = vertices.ident[expanded:end]
            state = np.empty(end - expanded, dtype=np.int8)
            pieces = []  # per space, rows: src position, bits, dst space, dst ident
            for space in np.unique(level_space).tolist():
                where = np.nonzero(level_space == space)[0]
                if space:
                    kind, src, bits, dst = vertices.tables[space].expand_level(
                        level_ident[where], mode
                    )
                    state[where] = kind
                    pieces.append(np.stack((where[src], bits, np.where(dst >= 0, space, -1), dst)))
                    continue
                batch = [vertices.packed[i] for i in level_ident[where].tolist()]
                located: List[Tuple[int, ...]] = []
                for position, (_, edges, terminal_kind) in zip(
                    where.tolist(), expand_packed_batch(batch)
                ):
                    state[position] = _STATE_OF_TERMINAL.get(terminal_kind, STATE_EDGES)
                    located.extend(
                        (position, b, *((-1, d) if d < 0 else vertices.locate(d)))
                        for b, d in edges
                    )
                pieces.append(np.array(located, dtype=np.int64).reshape(-1, 4).T)
            level = np.concatenate(pieces, axis=1)
            if len(pieces) > 1:  # back to source order across spaces
                level = level[:, np.argsort(level[0], kind="stable")]
            src, bits, dst_space, dst_ident = level
            dst = vertices.discover(dst_space, dst_ident)
            states.append(state)
            counts.append(np.bincount(src, minlength=end - expanded))
            bits_parts.append(bits)
            dst_parts.append(dst)
            _obs.counter("explore.vertices_expanded").inc(end - expanded)
            _obs.histogram("explore.frontier_size", DEFAULT_COUNT_BUCKETS).observe(
                end - expanded
            )
            _obs.counter("explore.edges_discovered").inc(len(dst))
            expanded = end
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    state = np.full(vertices.count, STATE_UNEXPLORED, dtype=np.int8)
    edge_counts = np.zeros(vertices.count, dtype=np.int64)
    if states:
        state[:expanded] = np.concatenate(states)
        edge_counts[:expanded] = np.concatenate(counts)
    empty = np.empty(0, dtype=np.int64)
    arrays = GraphArrays(
        state=state,
        indptr=np.concatenate(([0], np.cumsum(edge_counts))).astype(np.int64),
        bits=np.concatenate(bits_parts) if bits_parts else empty,
        dst=np.concatenate(dst_parts) if dst_parts else empty,
        roots=np.arange(root_count, dtype=np.int64),
    )
    graph = TransitionGraph(
        resolved_name, mode, arrays, vertices.vertex_packed, require_connectivity
    )
    graph.elapsed_seconds = time.perf_counter() - start
    _obs_record_span(
        "explore.build",
        graph.elapsed_seconds,
        algorithm=resolved_name,
        mode=mode,
        kernel=kernel,
        vertices=expanded,
        truncated=graph.truncated,
    )
    _LOG.info(
        "explored %s/%s kernel=%s: %d vertices in %.3fs (%.0f/s)",
        resolved_name, mode, kernel, expanded, graph.elapsed_seconds,
        expanded / graph.elapsed_seconds if graph.elapsed_seconds else 0.0,
    )
    return graph
