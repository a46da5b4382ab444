"""Minimal counterexample traces extracted from a transition graph.

Once the analyzer has classified the graph, each failing class is witnessed by
an explicit schedule: the activation sequence and per-round configurations of
a shortest execution exhibiting the failure.  Witnesses turn the abstract
census ("1365 configurations deadlock") into concrete, replayable evidence —
the counterexample-driven loop the rule-reconstruction effort iterates on.

The shortest paths are searched on the graph's CSR arrays
(:attr:`~repro.explore.transitions.TransitionGraph.arrays`): a level BFS keeps
a distance and a first-found parent edge per vertex id, and a vertex is named
by its packed configuration only to break a tie between the nearest
candidates or to start a witness's replay.

Edges store activation choices relative to the *canonical* (translated)
source vertex, but a readable trace should stay in one coordinate frame.  The
extractor therefore replays the canonical edge path from the root with the
actual engine primitives: lexicographic order is translation-invariant, so
the ``i``-th robot of the canonical vertex is the ``i``-th robot of the
replayed configuration, and the decision cache supplies the move directions.
:func:`replay_witness` re-executes a (possibly deserialized) witness against
the engine and verifies every round, making traces self-checking artefacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import step_nodes
from ..grid.coords import Coord
from ..grid.packing import unpack_nodes
from .analyzer import Classification
from .transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    STATE_DEADLOCK,
    GraphArrays,
    TransitionGraph,
    segment_index,
)

__all__ = ["WitnessStep", "Witness", "find_witnesses", "replay_witness"]

NodePair = Tuple[int, int]

#: The classes a witness can be extracted for.
WITNESS_KINDS = ("deadlock", "livelock", "collision", "disconnected")


@dataclass(frozen=True)
class WitnessStep:
    """One round of a witness trace (all coordinates in the replay frame)."""

    #: Sorted robot nodes at the beginning of the round.
    configuration: Tuple[NodePair, ...]
    #: Robots the adversary activates this round (all of them move).
    activated: Tuple[NodePair, ...]
    #: The moves they perform: ``(source node, direction name)``.
    moves: Tuple[Tuple[NodePair, str], ...]


@dataclass(frozen=True)
class Witness:
    """A minimal failing execution: activation sequence plus configurations."""

    #: Failing class this trace witnesses (see :data:`WITNESS_KINDS`).
    kind: str
    #: Algorithm whose rules produced the trace.
    algorithm_name: str
    #: Edge semantics the trace was extracted under (``"fsync"``/``"ssync"``).
    mode: str
    #: The rounds of the trace, in order.
    steps: Tuple[WitnessStep, ...]
    #: Sorted robot nodes after the last round.  For collisions this equals
    #: the last round's starting configuration (the forbidden round never
    #: happens); for livelocks it is a translate of the cycle-start frame.
    final: Tuple[NodePair, ...]
    #: For livelocks: index of the step whose configuration the final
    #: configuration revisits (up to translation).
    cycle_start: Optional[int] = None
    #: For collisions: which forbidden behaviour the last round commits.
    collision_kind: Optional[str] = None

    @property
    def initial(self) -> Tuple[NodePair, ...]:
        """Sorted robot nodes of the initial configuration."""
        return self.steps[0].configuration if self.steps else self.final

    @property
    def num_rounds(self) -> int:
        """Number of rounds in the trace."""
        return len(self.steps)


# ---------------------------------------------------------------------------
# Shortest paths over the graph's CSR arrays.
# ---------------------------------------------------------------------------

def _sources(arrays: GraphArrays, edges: "np.ndarray") -> "np.ndarray":
    """The source vertex id of each edge index."""
    return np.searchsorted(arrays.indptr, edges, side="right") - 1


def _first_occurrences(edges: "np.ndarray", targets: "np.ndarray"):
    """``(edges, targets)`` keeping each target's first edge, in first-edge order."""
    _, first = np.unique(targets, return_index=True)
    first.sort()
    return edges[first], targets[first]


def _bfs_parents(arrays: GraphArrays) -> Tuple["np.ndarray", "np.ndarray"]:
    """Multi-source BFS from the roots over real (non-sink) edges.

    Returns ``(distance, parent)`` over vertex ids: ``distance`` is -1 where
    no root reaches, and ``parent[v]`` is the index of the edge into ``v`` of
    a shortest path from some root (-1 for the roots).  A level expands its
    frontier in order, each vertex's edges in order, and the first edge into
    a new vertex is its parent, as a FIFO queue would pick it.
    """
    count = len(arrays.state)
    degree = np.diff(arrays.indptr)
    distance = np.full(count, -1, dtype=np.int64)
    parent = np.full(count, -1, dtype=np.int64)
    frontier = arrays.roots
    distance[frontier] = 0
    level = 0
    while len(frontier):
        edges = segment_index(arrays.indptr[frontier], degree[frontier])
        targets = arrays.dst[edges]
        fresh = targets >= 0
        fresh[fresh] = distance[targets[fresh]] < 0
        edges, frontier = _first_occurrences(edges[fresh], targets[fresh])
        level += 1
        distance[frontier] = level
        parent[frontier] = edges
    return distance, parent


def _path_to(arrays: GraphArrays, parent: "np.ndarray", target: int) -> Tuple[int, List[int]]:
    """``(origin, bits)``: where the parent chain into ``target`` starts, and
    the mover bits of its edges in order."""
    bits: List[int] = []
    vertex = target
    while parent[vertex] >= 0:
        edge = int(parent[vertex])
        bits.append(int(arrays.bits[edge]))
        vertex = int(_sources(arrays, edge))
    bits.reverse()
    return vertex, bits


def _nearest(
    graph: TransitionGraph, candidates: "np.ndarray", distance: "np.ndarray"
) -> Optional[int]:
    """The candidate id closest to the roots, ties broken by packed value.

    Only the candidates tied at the minimum distance are named.
    """
    candidates = candidates[distance[candidates] >= 0]
    if not len(candidates):
        return None
    nearest = distance[candidates]
    tied = candidates[nearest == nearest.min()]
    packed = graph.packed_of_vertices(tied)
    return int(tied[packed.index(min(packed))])


def _find_cycle(arrays: GraphArrays, start: int, allowed: "np.ndarray") -> List[int]:
    """The mover bits of a shortest cycle of real edges from ``start`` back
    to itself, the first one met in the BFS order of :func:`_bfs_parents`.

    The search is restricted to ``allowed`` (the cyclic vertices); only paths
    inside ``start``'s own SCC can return, so the restriction is safe.
    """
    degree = np.diff(arrays.indptr)
    parent = np.full(len(arrays.state), -1, dtype=np.int64)
    seen = np.zeros(len(arrays.state), dtype=bool)
    seen[start] = True
    frontier = np.array([start], dtype=np.int64)
    while len(frontier):
        edges = segment_index(arrays.indptr[frontier], degree[frontier])
        targets = arrays.dst[edges]
        closing = np.flatnonzero(targets == start)
        if len(closing):
            edge = int(edges[closing[0]])
            return _path_to(arrays, parent, int(_sources(arrays, edge)))[1] + [
                int(arrays.bits[edge])
            ]
        fresh = targets >= 0
        fresh[fresh] = allowed[targets[fresh]] & ~seen[targets[fresh]]
        edges, frontier = _first_occurrences(edges[fresh], targets[fresh])
        seen[frontier] = True
        parent[frontier] = edges
    raise ValueError(f"no cycle through vertex {start} (not a cyclic vertex?)")


# ---------------------------------------------------------------------------
# Replay: canonical edge paths -> coherent-frame traces.
# ---------------------------------------------------------------------------

def _materialize(
    rounds: Sequence[int],
    root: int,
    kind: str,
    algorithm,
    mode: str,
    cycle_start: Optional[int] = None,
) -> Witness:
    """Replay the mover bits of a canonical edge path from the packed ``root``
    in one coordinate frame.

    For a collision or disconnection the last round is the sink edge.
    """
    current: Tuple[Coord, ...] = unpack_nodes(root)
    steps: List[WitnessStep] = []
    collision_kind: Optional[str] = None

    for index, bits in enumerate(rounds):
        positions = sorted(current)
        movers = [pos for i, pos in enumerate(positions) if bits & (1 << i)]
        next_nodes, moves, collision = step_nodes(
            positions, algorithm, activated=set(movers)
        )
        steps.append(
            WitnessStep(
                configuration=tuple((c[0], c[1]) for c in positions),
                activated=tuple((c[0], c[1]) for c in movers),
                moves=tuple(
                    ((pos[0], pos[1]), direction.name)
                    for pos, direction in sorted(moves.items())
                ),
            )
        )
        if collision is not None:
            if index != len(rounds) - 1 or kind != "collision":
                raise ValueError(f"unexpected mid-trace collision: {collision}")
            collision_kind = collision[0]
            break
        current = tuple(sorted(next_nodes))

    return Witness(
        kind=kind,
        algorithm_name=algorithm.name,
        mode=mode,
        steps=tuple(steps),
        final=tuple((c[0], c[1]) for c in sorted(current)),
        cycle_start=cycle_start,
        collision_kind=collision_kind,
    )


def find_witnesses(
    graph: TransitionGraph,
    classification: Classification,
    algorithm=None,
    algorithm_name: Optional[str] = None,
) -> Dict[str, Witness]:
    """One minimal witness per failing class present in the graph.

    Minimality is in rounds: the witness for a class ends at the closest
    possible vertex to the roots (multi-source BFS), and for livelocks the
    appended cycle is itself a shortest cycle through that vertex.  The
    search runs on the graph's CSR arrays; the candidates are read off the
    vertex states, the sink edges and the classification's cyclic mask, and
    only the candidates tied at the minimum distance and the witness roots
    are named by packed configuration.
    """
    if (algorithm is None) == (algorithm_name is None):
        raise ValueError("provide exactly one of algorithm / algorithm_name")
    if algorithm is None:
        from ..algorithms.registry import create_algorithm  # late: avoids an import cycle

        algorithm = create_algorithm(algorithm_name)

    arrays = graph.arrays
    distance, parent = _bfs_parents(arrays)
    witnesses: Dict[str, Witness] = {}

    def witness(
        kind: str, target: int, extra: Sequence[int] = (), cycle_start: Optional[int] = None
    ) -> Witness:
        origin, rounds = _path_to(arrays, parent, target)
        (root,) = graph.packed_of_vertices(np.array([origin], dtype=np.int64))
        return _materialize(
            rounds + list(extra), root, kind, algorithm, graph.mode, cycle_start
        )

    # Deadlock: shortest path into a quiescent non-gathered vertex.
    target = _nearest(graph, np.flatnonzero(arrays.state == STATE_DEADLOCK), distance)
    if target is not None:
        witnesses["deadlock"] = witness("deadlock", target)

    # Collision / disconnection: shortest path to a vertex with a sink edge,
    # plus that sink edge (the one with the fewest mover bits) as the final
    # round.
    for kind, sink in (("collision", COLLISION_SINK), ("disconnected", DISCONNECT_SINK)):
        sink_edges = np.flatnonzero(arrays.dst == sink)
        sources = _sources(arrays, sink_edges)
        target = _nearest(graph, np.unique(sources), distance)
        if target is not None:
            final_bits = int(arrays.bits[sink_edges[sources == target]].min())
            witnesses[kind] = witness(kind, target, (final_bits,))

    # Livelock: shortest path to a cyclic vertex, plus a shortest cycle back.
    target = _nearest(graph, np.flatnonzero(classification.cyclic), distance)
    if target is not None:
        cycle = _find_cycle(arrays, target, classification.cyclic)
        witnesses["livelock"] = witness(
            "livelock", target, cycle, cycle_start=int(distance[target])
        )

    return witnesses


def replay_witness(witness: Witness, algorithm) -> Tuple[NodePair, ...]:
    """Re-execute a witness against the engine, verifying every round.

    Returns the final sorted node tuple.  Raises :class:`ValueError` when the
    trace does not reproduce — the guarantee that serialized witnesses stay
    faithful to the algorithm that produced them.
    """
    if not witness.steps:
        return witness.final
    current = tuple(Coord(q, r) for q, r in witness.steps[0].configuration)
    for index, step in enumerate(witness.steps):
        recorded = tuple((c[0], c[1]) for c in sorted(current))
        if recorded != step.configuration:
            raise ValueError(
                f"round {index}: configuration diverged: {recorded} != {step.configuration}"
            )
        activated = {Coord(q, r) for q, r in step.activated}
        next_nodes, moves, collision = step_nodes(current, algorithm, activated=activated)
        recorded_moves = tuple(
            ((pos[0], pos[1]), direction.name) for pos, direction in sorted(moves.items())
        )
        if recorded_moves != step.moves:
            raise ValueError(
                f"round {index}: moves diverged: {recorded_moves} != {step.moves}"
            )
        if collision is not None:
            if witness.kind != "collision" or index != len(witness.steps) - 1:
                raise ValueError(f"round {index}: unexpected collision {collision}")
            if collision[0] != witness.collision_kind:
                raise ValueError(
                    f"collision kind diverged: {collision[0]} != {witness.collision_kind}"
                )
            break
        current = tuple(sorted(next_nodes))
    final = tuple((c[0], c[1]) for c in sorted(current))
    if final != witness.final:
        raise ValueError(f"final configuration diverged: {final} != {witness.final}")
    return final
