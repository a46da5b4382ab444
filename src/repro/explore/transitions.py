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

The builder expands the BFS frontier one level at a time.  The packed kernel
expands vertex by vertex and fans chunks of a level out through
:func:`repro.core.runner.run_chunked_tasks`, the same primitive the batch
runner uses for exhaustive sweeps.  The table kernel expands a whole level
with one array pass per successor table
(:meth:`repro.core.table_kernel.SuccessorTable.expand_rows`), in process.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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

#: An edge: ``(mover_bits, destination)``.  Bit ``i`` of ``mover_bits`` refers
#: to the ``i``-th robot of the source vertex's canonical sorted position
#: tuple; the destination is a packed configuration or one of the sinks.
Edge = Tuple[int, int]


@dataclass
class TransitionGraph:
    """The explored portion of the configuration transition graph."""

    #: Name of the algorithm whose rules define the edges.
    algorithm_name: str
    #: Edge semantics: ``"fsync"`` or ``"ssync"``.
    mode: str
    #: Outgoing edges of every expanded non-terminal vertex.
    edges: Dict[int, Tuple[Edge, ...]] = field(default_factory=dict)
    #: Expanded quiescent vertices and their terminal kind.
    terminal: Dict[int, str] = field(default_factory=dict)
    #: The packed root configurations the exploration started from.
    roots: Tuple[int, ...] = ()
    #: Discovered but never expanded vertices (node budget exhausted).
    unexplored: FrozenSet[int] = frozenset()
    #: Whether connectivity was enforced (disconnecting edges end in the sink).
    require_connectivity: bool = True
    #: Wall-clock seconds spent building the graph.
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ access
    @property
    def truncated(self) -> bool:
        """Whether the node budget cut the exploration short."""
        return bool(self.unexplored)

    @property
    def num_nodes(self) -> int:
        """Number of discovered vertices (expanded plus unexplored)."""
        return len(self.edges) + len(self.terminal) + len(self.unexplored)

    @property
    def num_edges(self) -> int:
        """Number of stored (deduplicated) edges, sink edges included."""
        return sum(len(e) for e in self.edges.values())

    def nodes(self) -> Iterable[int]:
        """All discovered vertices."""
        yield from self.edges
        yield from self.terminal
        yield from self.unexplored

    def successors(self, packed: int) -> Tuple[Edge, ...]:
        """Outgoing edges of a vertex (empty for terminal/unexplored vertices)."""
        return self.edges.get(packed, ())

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
        expanded = len(self.edges) + len(self.terminal)
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


def _table_expander(algorithm, mode: str, require_connectivity: bool):
    """Expand a batch of vertices by slicing the successor tables.

    Vertices inside a table tier's scope (in RAM, or streamed from the disk
    tier past the in-RAM bound) are answered from the materialized arrays —
    one :meth:`~repro.core.table_kernel.SuccessorTable.expand_rows` call per
    table, no views, no ``algorithm.compute``.  Anything else — oversized or
    disconnected vertices — falls back to :func:`expand_packed`, so the
    resulting graph is byte-identical either way.
    """
    from ..core.table_kernel import scoped_table  # late: avoids an import cycle

    #: Table per vertex size (``None`` = no tier covers it), resolved once.
    tables: Dict[int, object] = {}

    def expand(batch: List[int]) -> List[Tuple[int, Tuple[Edge, ...], Optional[str]]]:
        expansions: Dict[int, Tuple[Tuple[Edge, ...], Optional[str]]] = {}
        by_size: Dict[int, Tuple[List[int], List[int]]] = {}
        for packed in batch:
            size = packed_count(packed)
            if size not in tables:
                tables[size] = scoped_table(algorithm, size)
            table = tables[size]
            row = None if table is None else table.row_of_packed(packed)
            if row is None:
                expansions[packed] = expand_packed(packed, algorithm, mode, require_connectivity)
            else:
                vertices, rows = by_size.setdefault(size, ([], []))
                vertices.append(packed)
                rows.append(row)
        for size, (vertices, rows) in by_size.items():
            expansions.update(zip(vertices, tables[size].expand_rows(rows, mode)))
        return [(packed, *expansions[packed]) for packed in batch]

    return expand


def _packed_expander(algorithm, mode: str, require_connectivity: bool):
    """Expand a batch of vertices one :func:`expand_packed` call at a time."""

    def expand(batch: List[int]) -> List[Tuple[int, Tuple[Edge, ...], Optional[str]]]:
        return [
            (packed, *expand_packed(packed, algorithm, mode, require_connectivity))
            for packed in batch
        ]

    return expand


# ---------------------------------------------------------------------------
# Graph construction (serial or parallel frontier expansion).
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


def _pack_roots(roots: Iterable[ConfigurationLike]) -> Tuple[int, ...]:
    packed_roots: List[int] = []
    seen: Set[int] = set()
    for item in roots:
        nodes = item.nodes if isinstance(item, Configuration) else item
        packed = pack_nodes(nodes)
        if packed not in seen:
            seen.add(packed)
            packed_roots.append(packed)
    return tuple(packed_roots)


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
    remainder of the frontier is recorded as :attr:`TransitionGraph.unexplored`
    and the graph is marked truncated).  Exactly one of ``algorithm`` /
    ``algorithm_name`` must be given; ``workers > 1`` requires the named
    form, mirroring :func:`repro.core.runner.run_many`.

    ``kernel="packed"`` re-runs Look–Compute per vertex; ``workers > 1``
    fans the levels out over one spawn pool for the whole build.  Each worker
    builds the algorithm (and its decision cache) once, so the pool pays off
    only on large graphs: the serial n=7 build takes about half a second,
    which spawn start-up alone can exceed.

    ``kernel="table"`` expands each level by slicing the materialized
    successor tables (:mod:`repro.core.table_kernel`) in this process and
    ignores ``workers``: byte-identical graphs, and the whole adversarial
    SSYNC n=8 build, table included, in about a second.  It requires
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
    packed_roots = _pack_roots(roots)
    graph = TransitionGraph(
        algorithm_name=resolved_name,
        mode=mode,
        roots=packed_roots,
        require_connectivity=require_connectivity,
    )
    seen: Set[int] = set(packed_roots)
    frontier: List[int] = list(packed_roots)
    expanded = 0
    budget = max_nodes if max_nodes is not None else float("inf")
    expander = _table_expander if kernel == "table" else _packed_expander
    expand = expander(algorithm, mode, require_connectivity)
    # One pool for the whole build: the BFS fans out once per level, and a
    # fresh spawn pool per level would dominate the build.
    pool = None
    if workers > 1 and kernel == "packed":
        import multiprocessing
        import os

        pool = multiprocessing.get_context("spawn").Pool(
            processes=min(workers, os.cpu_count() or 1)
        )
    try:
        while frontier and expanded < budget:
            take = int(min(len(frontier), budget - expanded))
            batch, frontier = frontier[:take], frontier[take:]
            if pool is not None and len(batch) > chunk_size:
                payloads: List[_ExpandPayload] = [
                    (
                        resolved_name,
                        mode,
                        batch[i : i + chunk_size],
                        require_connectivity,
                    )
                    for i in range(0, len(batch), chunk_size)
                ]
                results = []
                for chunk, delta in run_chunked_tasks(
                    payloads, _expand_chunk, pool=pool
                ):
                    _obs.merge(delta)
                    results.extend(chunk)
            else:
                results = expand(batch)
            expanded += len(results)
            _obs.counter("explore.vertices_expanded").inc(len(results))
            _obs.histogram("explore.frontier_size", DEFAULT_COUNT_BUCKETS).observe(
                len(batch)
            )
            edge_total = 0
            for packed, edges, terminal_kind in results:
                if terminal_kind is not None:
                    graph.terminal[packed] = terminal_kind
                    continue
                graph.edges[packed] = edges
                edge_total += len(edges)
                for _, destination in edges:
                    if destination >= 0 and destination not in seen:
                        seen.add(destination)
                        frontier.append(destination)
            _obs.counter("explore.edges_discovered").inc(edge_total)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    graph.unexplored = frozenset(frontier)
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
