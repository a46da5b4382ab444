"""The exploration report: graph census, root classification and witnesses.

:func:`explore` is the one-call driver the CLI, the tests and the benchmark
harness share: build the transition graph from a root set (the exhaustive
enumeration by default), classify every vertex, and extract one minimal
witness per failing class.  Each stage records a span (``explore.build``,
``explore.classify``, ``explore.witness``).

An :class:`ExplorationReport` answers the CEGIS gate as the table kernel's
verdicts do (``root_census``, :meth:`~ExplorationReport.won_mask`,
:meth:`~ExplorationReport.counterexamples_by_mass`), so the gate has one
verdict interface on both kernels.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..core.runner import ConfigurationLike
from ..obs import record_span as _obs_record_span
from .analyzer import CLASSES, Classification, classify
from .transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    STATE_EDGES,
    STATE_UNEXPLORED,
    TransitionGraph,
    build_transition_graph,
)
from .witness import Witness, find_witnesses

__all__ = ["ExplorationReport", "explore"]


@dataclass
class ExplorationReport:
    """Everything one exploration produced, ready for reporting."""

    #: The explored graph.
    graph: TransitionGraph
    #: Per-vertex verdicts.
    classification: Classification
    #: One minimal counterexample per failing class (may be empty).
    witnesses: Dict[str, Witness] = field(default_factory=dict)
    #: Wall-clock seconds for the classification pass.
    classify_seconds: float = 0.0
    #: Wall-clock seconds for the witness extraction pass.
    witness_seconds: float = 0.0

    @property
    def root_census(self) -> Dict[str, int]:
        """Class histogram over the root (initial) configurations."""
        return self.classification.root_counts()

    @property
    def node_census(self) -> Dict[str, int]:
        """Class histogram over every discovered vertex."""
        return self.classification.counts()

    def won_mask(self) -> "np.ndarray":
        """Mask over the roots, in root order, of those classified gathered
        or safe (what the CEGIS gate compares between two explorations)."""
        classes = self.classification.classes[self.graph.arrays.roots]
        return (classes == CLASSES.index("gathered")) | (classes == CLASSES.index("safe"))

    def counterexamples_by_mass(self, include_failures: bool = False) -> List[int]:
        """The counterexamples of an FSYNC exploration, heaviest first.

        The functional graph maps onto the table's walker
        (:func:`~repro.core.table_kernel.counterexamples_by_mass`): a vertex's
        state is its kind, and its one edge gives its successor or, into a
        sink, the collision/disconnect kind.  An unexplored vertex (a
        truncated graph) has no successor, so it ends a walk as a sink does.
        """
        from ..core.table_kernel import (  # late: `import repro` loads no table kernel
            KIND_COLLISION,
            KIND_DISCONNECT,
            counterexamples_by_mass,
        )

        if self.graph.mode != "fsync":
            raise ValueError("counterexamples are read off an FSYNC exploration")
        arrays = self.graph.arrays
        kind = arrays.state.copy()
        succ = np.zeros(len(kind), dtype=np.int64)
        moving = np.flatnonzero(arrays.state == STATE_EDGES)
        successor = arrays.dst[arrays.indptr[moving]]
        succ[moving] = successor
        kind[moving[successor == COLLISION_SINK]] = KIND_COLLISION
        kind[moving[successor == DISCONNECT_SINK]] = KIND_DISCONNECT
        kind[arrays.state == STATE_UNEXPLORED] = KIND_COLLISION
        return counterexamples_by_mass(
            kind,
            succ,
            arrays.roots,
            lambda vids: self.graph.packed_of_vertices(np.array(vids, dtype=np.int64)),
            include_failures,
        )

    @property
    def all_roots_gather(self) -> bool:
        """Whether every root is gathered or provably safe (Theorem 2 shape)."""
        census = self.root_census
        return set(census) <= {"gathered", "safe"} and bool(census)

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by the CLI and the benchmarks."""
        return {
            "algorithm": self.graph.algorithm_name,
            "mode": self.graph.mode,
            "roots": len(self.graph.roots),
            "nodes": self.graph.num_nodes,
            "edges": self.graph.num_edges,
            "truncated": self.graph.truncated,
            "root_census": self.root_census,
            "node_census": self.node_census,
            "all_roots_gather": self.all_roots_gather,
            "witness_kinds": sorted(self.witnesses),
            "build_seconds": round(self.graph.elapsed_seconds, 4),
            "classify_seconds": round(self.classify_seconds, 4),
            "witness_seconds": round(self.witness_seconds, 4),
            "nodes_per_second": round(self.graph.throughput(), 1),
        }


def explore(
    algorithm_name: Optional[str] = None,
    algorithm=None,
    roots: Optional[Iterable[ConfigurationLike]] = None,
    size: int = 7,
    mode: str = "fsync",
    max_nodes: Optional[int] = None,
    workers: int = 1,
    chunk_size: int = 256,
    require_connectivity: bool = True,
    with_witnesses: bool = True,
    kernel: str = "packed",
) -> ExplorationReport:
    """Explore, classify and witness in one call.

    ``roots`` defaults to the exhaustive enumeration of connected ``size``-robot
    configurations (3652 for seven robots); the table kernel takes it as the
    enumeration's ``(N, n, 2)`` position array and maps it to rows in one
    pass, the packed kernel as the memoized node tuples it packs.  Other
    parameters mirror
    :func:`~repro.explore.transitions.build_transition_graph`; in particular
    ``kernel="table"`` builds the graph by slicing the vectorized successor
    table instead of re-simulating every vertex.
    """
    if roots is None:
        from ..enumeration.polyhex import (  # late: avoids an import cycle
            canonical_positions,
            enumerate_canonical_node_sets,
        )

        roots = (
            canonical_positions(size) if kernel == "table" else enumerate_canonical_node_sets(size)
        )
    graph = build_transition_graph(
        roots,
        algorithm=algorithm,
        algorithm_name=algorithm_name,
        mode=mode,
        max_nodes=max_nodes,
        workers=workers,
        chunk_size=chunk_size,
        require_connectivity=require_connectivity,
        kernel=kernel,
    )
    start = time.perf_counter()
    classification = classify(graph)
    classify_seconds = time.perf_counter() - start
    _obs_record_span("explore.classify", classify_seconds, vertices=graph.num_nodes)

    witnesses: Dict[str, Witness] = {}
    witness_seconds = 0.0
    if with_witnesses:
        start = time.perf_counter()
        witnesses = find_witnesses(
            graph,
            classification,
            algorithm=algorithm,
            algorithm_name=None if algorithm is not None else graph.algorithm_name,
        )
        witness_seconds = time.perf_counter() - start
        _obs_record_span(
            "explore.witness",
            witness_seconds,
            vertices=graph.num_nodes,
            witnesses=len(witnesses),
        )

    return ExplorationReport(
        graph=graph,
        classification=classification,
        witnesses=witnesses,
        classify_seconds=classify_seconds,
        witness_seconds=witness_seconds,
    )
