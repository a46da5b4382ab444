"""Reachability and SCC analysis of a transition graph.

Given an explored :class:`~repro.explore.transitions.TransitionGraph`, this
module answers the model-checking questions per vertex:

* **gathered** — the vertex is quiescent and satisfies the gathering
  condition (terminal success);
* **deadlock** — the vertex is quiescent but not gathered, or some schedule
  reaches such a vertex (no progress is possible once there);
* **livelock** — some schedule reaches a cycle of genuine moves that avoids
  every gathered vertex (the execution can be driven around it forever);
* **collision** / **disconnected** — some schedule commits a forbidden
  behaviour / splits the swarm;
* **safe** — none of the above: every maximal path reaches a gathered vertex;
* **unknown** — the verdict depends on vertices beyond the exploration budget
  (only present in truncated graphs).

Under FSYNC the graph is functional (one successor per vertex), every flag is
exclusive and the classification of an initial configuration coincides with
the engine's per-run outcome — which is exactly what the reconciliation test
against the exhaustive sweep checks.  Under SSYNC several flags can hold at
once; the reported class is the most severe one in the order collision >
disconnected > deadlock > livelock.

The pass runs on the graph's CSR arrays
(:attr:`~repro.explore.transitions.TransitionGraph.arrays`), for both
kernels; :func:`classify_arrays` runs it on bare arrays, which is how the
CEGIS gate classifies a table's rows without a graph.  Every "can reach" set
is a backward closure over the reverse CSR, computed in frontier rounds.
Livelocks come from **Kahn peeling**: remove the vertices left with no
successor vertex until none is left to remove;
the survivors are exactly the vertices with an infinite path, that is, those
that reach a cycle.  Terminal vertices have no outgoing edges, so such a
cycle never contains a gathered vertex.  The iterative Tarjan SCC pass then
runs only on the survivors (none, in every pinned census) to name the
vertices on a cycle: an SCC is cyclic when it has more than one vertex or a
self-loop.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    STATE_ABSENT,
    STATE_DEADLOCK,
    STATE_GATHERED,
    STATE_UNEXPLORED,
    GraphArrays,
    TransitionGraph,
    segment_index,
)

__all__ = [
    "CLASSES",
    "Classification",
    "strongly_connected_components",
    "classify",
    "classify_arrays",
]

#: All possible vertex classes, in report order.
CLASSES = (
    "gathered",
    "safe",
    "deadlock",
    "livelock",
    "collision",
    "disconnected",
    "unknown",
)

#: Severity order used to pick the reported class when several failure modes
#: are reachable from one vertex (SSYNC only; FSYNC flags are exclusive).
_FAILURE_PRIORITY = ("collision", "disconnected", "deadlock", "livelock", "unknown")


class Classification:
    """Per-vertex verdicts of one analysis pass, as arrays over vertex ids.

    :attr:`classes` and :attr:`cyclic` are the verdicts; :attr:`node_class`,
    :attr:`can_reach`, :attr:`can_gather` and :attr:`cyclic_nodes` name
    vertices by packed configuration, and each is built from the arrays on
    first access.
    """

    def __init__(
        self,
        graph: TransitionGraph,
        classes: "np.ndarray",
        reach: Dict[str, "np.ndarray"],
        gather: "np.ndarray",
        cyclic: "np.ndarray",
    ) -> None:
        #: Mode the graph was built under (``"fsync"`` or ``"ssync"``).
        self.mode = graph.mode
        #: Whether the underlying graph was truncated by the node budget.
        self.truncated = graph.truncated
        #: Index into :data:`CLASSES` of every vertex id (-1: not a vertex).
        self.classes = classes
        #: Mask of the vertex ids lying on a cycle of genuine moves.
        self.cyclic = cyclic
        self._graph = graph
        self._reach = reach
        self._gather = gather

    def _packed(self, mask: "np.ndarray") -> FrozenSet[int]:
        packed = self._graph.vertex_packed()
        return frozenset(packed[v] for v in np.nonzero(mask)[0].tolist())

    @cached_property
    def node_class(self) -> Dict[int, str]:
        """The reported class of every discovered vertex."""
        packed = self._graph.vertex_packed()
        order = self._graph.node_order()
        return {
            packed[v]: CLASSES[c] for v, c in zip(order.tolist(), self.classes[order].tolist())
        }

    @cached_property
    def can_reach(self) -> Dict[str, FrozenSet[int]]:
        """Vertices from which each failure kind is reachable (superset of the
        vertices reported as that class)."""
        return {name: self._packed(mask) for name, mask in self._reach.items()}

    @cached_property
    def can_gather(self) -> FrozenSet[int]:
        """Vertices from which a gathered terminal is reachable."""
        return self._packed(self._gather)

    @cached_property
    def cyclic_nodes(self) -> FrozenSet[int]:
        """Vertices lying on a cycle of genuine moves (members of cyclic SCCs)."""
        return self._packed(self.cyclic)

    def counts(self, nodes: Optional[Iterable[int]] = None) -> Dict[str, int]:
        """Histogram of classes, over all vertices or a given subset.

        The graph's own :attr:`~repro.explore.transitions.TransitionGraph.roots`
        are answered by :meth:`root_counts`, without a packed -> id lookup.
        """
        if nodes is None:
            classes = self.classes[self.classes >= 0]
        elif nodes is self._graph._roots:
            return self.root_counts()
        else:
            index = self._graph.vertex_index()
            classes = self.classes[[index[packed] for packed in nodes]]
        return self._histogram(classes)

    def root_counts(self) -> Dict[str, int]:
        """Histogram of classes over the graph's roots."""
        return self._histogram(self.classes[self._graph.arrays.roots])

    @staticmethod
    def _histogram(classes: "np.ndarray") -> Dict[str, int]:
        tally = np.bincount(classes, minlength=len(CLASSES)).tolist()
        return {name: count for name, count in zip(CLASSES, tally) if count}


def strongly_connected_components(
    vertices: Iterable[int], adjacency: Dict[int, Tuple[int, ...]]
) -> List[Tuple[int, ...]]:
    """Tarjan's SCC algorithm, iterative (explicit stack, no recursion)."""
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[Tuple[int, ...]] = []
    counter = 0

    for root in vertices:
        if root in index_of:
            continue
        # Each work item is (vertex, iteration position into its successors).
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            vertex, position = work.pop()
            if position == 0:
                index_of[vertex] = lowlink[vertex] = counter
                counter += 1
                stack.append(vertex)
                on_stack.add(vertex)
            successors = adjacency.get(vertex, ())
            recurse = False
            while position < len(successors):
                successor = successors[position]
                position += 1
                if successor not in index_of:
                    work.append((vertex, position))
                    work.append((successor, 0))
                    recurse = True
                    break
                if successor in on_stack:
                    lowlink[vertex] = min(lowlink[vertex], index_of[successor])
            if recurse:
                continue
            if lowlink[vertex] == index_of[vertex]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == vertex:
                        break
                components.append(tuple(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
    return components


class _ReverseEdges:
    """The real edges of a graph (those ending in a vertex), reversed."""

    def __init__(self, arrays: GraphArrays) -> None:
        count = len(arrays.state)
        #: The source of every edge, and which edges end in a vertex.
        self.src = np.repeat(np.arange(count, dtype=np.int64), np.diff(arrays.indptr))
        self.real = arrays.dst >= 0
        targets = arrays.dst[self.real]
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(targets, minlength=count))))
        self._sources = self.src[self.real][np.argsort(targets, kind="stable")]

    def predecessors(self, vertices: "np.ndarray") -> "np.ndarray":
        """The sources of the real edges into ``vertices`` (with repeats)."""
        first = self._indptr[vertices]
        return self._sources[segment_index(first, self._indptr[vertices + 1] - first)]

    def closure(self, seeds: "np.ndarray") -> "np.ndarray":
        """Mask of the vertices from which a seed is reachable (seeds
        included), one frontier round per BFS level."""
        reached = seeds.copy()
        slot = np.empty(len(reached), dtype=np.int64)
        frontier = np.nonzero(reached)[0]
        while len(frontier):
            predecessors = self.predecessors(frontier)
            frontier = _distinct(predecessors[~reached[predecessors]], slot)
            reached[frontier] = True
        return reached

    def survivors(self) -> "np.ndarray":
        """Mask of the vertices that survive Kahn peeling: repeatedly remove
        the vertices left with no successor vertex.  They are exactly the
        vertices with an infinite path, i.e. those that can reach a cycle.

        A level costs O(its edges): the removed vertices' predecessors lose
        one out-degree per edge, and those left with none, each named once,
        are the next level."""
        count = len(self._indptr) - 1
        out_degree = np.bincount(self.src[self.real], minlength=count)
        alive = np.ones(count, dtype=bool)
        slot = np.empty(count, dtype=np.int64)
        frontier = np.nonzero(out_degree == 0)[0]
        while len(frontier):
            alive[frontier] = False
            predecessors = self.predecessors(frontier)
            np.subtract.at(out_degree, predecessors, 1)
            frontier = _distinct(predecessors[out_degree[predecessors] == 0], slot)
        return alive


def _distinct(vertices: "np.ndarray", slot: "np.ndarray") -> "np.ndarray":
    """``vertices`` with each repeated id kept once, in O(len(vertices)).

    ``slot`` is scratch space over the vertex ids: every occurrence writes
    its position there, and the one occurrence whose write is left standing
    is kept.
    """
    position = np.arange(len(vertices), dtype=np.int64)
    slot[vertices] = position
    return vertices[slot[vertices] == position]


def classify(graph: TransitionGraph) -> Classification:
    """Classify every discovered vertex of ``graph``.

    One array pass over the graph's CSR form: a backward closure over the
    reversed edges per failure kind, Kahn peeling for the livelocks, and
    Tarjan only over the peeling's survivors, to name the cyclic vertices.
    """
    arrays = graph.arrays
    classes, reach, cyclic, reverse = _analyze(arrays)
    return Classification(
        graph, classes, reach, reverse.closure(arrays.state == STATE_GATHERED), cyclic
    )


def classify_arrays(arrays: GraphArrays) -> "np.ndarray":
    """The class of every vertex id of ``arrays``, without a graph.

    The verdicts of :func:`classify` as one array: an index into
    :data:`CLASSES` per vertex id, -1 for an id whose state is
    ``STATE_ABSENT``.  Nothing is named by packed configuration, so a caller
    whose vertex ids are table rows gets its answers in row space.
    """
    return _analyze(arrays)[0]


def _analyze(
    arrays: GraphArrays,
) -> Tuple["np.ndarray", Dict[str, "np.ndarray"], "np.ndarray", _ReverseEdges]:
    """``(classes, reach, cyclic, reverse)`` of the graph ``arrays``."""
    state, dst = arrays.state, arrays.dst
    reverse = _ReverseEdges(arrays)
    src, real = reverse.src, reverse.real

    def sources_of(sink: int) -> "np.ndarray":
        seeds = np.zeros(len(state), dtype=bool)
        seeds[src[dst == sink]] = True
        return seeds

    livelock = reverse.survivors()
    inner = real & livelock[src] & livelock[np.where(real, dst, 0)]
    adjacency: Dict[int, List[int]] = {}
    for source, target in zip(src[inner].tolist(), dst[inner].tolist()):
        adjacency.setdefault(source, []).append(target)
    cyclic = np.zeros(len(state), dtype=bool)
    survivors = np.nonzero(livelock)[0].tolist()
    for component in strongly_connected_components(survivors, adjacency):
        if len(component) > 1 or component[0] in adjacency.get(component[0], ()):
            cyclic[list(component)] = True

    reach = {
        "collision": reverse.closure(sources_of(COLLISION_SINK)),
        "disconnected": reverse.closure(sources_of(DISCONNECT_SINK)),
        "deadlock": reverse.closure(state == STATE_DEADLOCK),
        "livelock": livelock,
        "unknown": reverse.closure(state == STATE_UNEXPLORED),
    }
    classes = np.full(len(state), CLASSES.index("safe"), dtype=np.int8)
    for name in reversed(_FAILURE_PRIORITY):  # the most severe class wins
        classes[reach[name]] = CLASSES.index(name)
    classes[state == STATE_GATHERED] = CLASSES.index("gathered")
    classes[state == STATE_DEADLOCK] = CLASSES.index("deadlock")
    classes[state == STATE_UNEXPLORED] = CLASSES.index("unknown")
    classes[state == STATE_ABSENT] = -1
    return classes, reach, cyclic, reverse
