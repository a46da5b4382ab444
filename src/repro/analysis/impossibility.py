"""Computational reproduction of Theorem 1 (visibility range 1 is not enough).

Theorem 1 states that no collision-free algorithm with visibility range 1
solves the gathering problem from every connected initial configuration, even
under FSYNC with full axis and chirality agreement.  The paper proves this by
a long manual case analysis over candidate local rules (Lemmas 1–6).

Because a visibility-range-1 algorithm is nothing but a finite table mapping
each of the 63 non-empty adjacency patterns to one of seven moves, the theorem
can be checked mechanically: explore the space of rule tables *lazily*,
assigning a move to a view only when an execution actually encounters that
view, and prune a partial table as soon as it provably fails on some initial
configuration (collision, disconnection, a non-gathered quiescent
configuration, or a repeated configuration, i.e. a livelock).  If every branch
of the search is pruned, no full table can succeed on all the tested initial
configurations — which is exactly the statement of Theorem 1 restricted to
that test suite.

The default test suite is the set of straight-line configurations of Fig. 4
(the gadget the paper's proof starts from) plus all connected configurations
of seven robots up to a configurable cap.  The search is exact but bounded by
a node budget so the benchmark stays fast; the result object reports whether
the refutation is complete within the budget.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.range1 import RuleTable, ViewKey, line_configuration
from ..core.configuration import Configuration
from ..core.engine import apply_moves_nodes, detect_collision_nodes
from ..grid.coords import Coord
from ..grid.directions import DIRECTIONS, Direction, direction_from_vector
from ..grid.packing import disk_offsets, offset_bit_table, pack_nodes

__all__ = [
    "SearchResult",
    "SimulationProbe",
    "simulate_with_partial_table",
    "search_rule_space",
    "default_gadget_suite",
]

#: Moves a rule table may assign to a view: stay or one of the six directions.
_MOVE_CHOICES: Tuple[Optional[Direction], ...] = (None,) + tuple(DIRECTIONS)

#: Range-1 view bitmask -> adjacency-pattern view key.  A range-1 view is a
#: subset of the six neighbours, so all 64 bitmasks are enumerated up front
#: and the simulation loop maps packed views to table keys with one lookup.
_MASK_TO_VIEW_KEY: Tuple[ViewKey, ...] = tuple(
    frozenset(
        direction_from_vector(offset)
        for index, offset in enumerate(disk_offsets(1))
        if mask & (1 << index)
    )
    for mask in range(64)
)


@dataclass
class SimulationProbe:
    """Outcome of simulating one initial configuration under a partial table."""

    #: ``"failed"``, ``"gathered"`` or ``"needs"``.
    status: str
    #: The first undefined view encountered (only for ``"needs"``).
    missing_view: Optional[ViewKey] = None
    #: Reason for failure (only for ``"failed"``).
    reason: str = ""


@dataclass
class SearchResult:
    """Result of the lazy rule-space search."""

    #: ``True`` when every branch was pruned: no rule table (within the budget)
    #: gathers from every configuration of the suite — Theorem 1 reproduced.
    refuted: bool
    #: ``True`` when the node budget was exhausted before the search finished.
    budget_exhausted: bool
    #: Number of partial tables explored.
    nodes_explored: int
    #: A surviving rule table if one was found (None when ``refuted``).
    surviving_table: Optional[RuleTable] = None
    #: Failure reasons encountered, histogrammed.
    failure_reasons: Dict[str, int] = field(default_factory=dict)


def default_gadget_suite(extra_size: int = 0) -> List[Configuration]:
    """The initial configurations used to refute range-1 rule tables.

    The suite always contains the three straight lines of seven robots (the
    NW–SE line of Fig. 4 plus its two rotations); ``extra_size`` > 0 appends
    every connected configuration of that many robots (use 7 for the full
    exhaustive suite — slower but strongest).
    """
    suite = [
        line_configuration(Direction.SE),
        line_configuration(Direction.E),
        line_configuration(Direction.NE),
    ]
    if extra_size:
        from ..enumeration.polyhex import enumerate_connected_configurations

        suite.extend(enumerate_connected_configurations(extra_size))
    return suite


def simulate_with_partial_table(
    initial: Configuration,
    table: Dict[ViewKey, Optional[Direction]],
    max_rounds: int = 200,
) -> SimulationProbe:
    """Run one FSYNC execution using a partially defined rule table.

    The simulation stops as soon as it needs a view the table does not define
    (returning that view), as soon as it fails (collision, disconnection,
    non-gathered quiescence, revisited configuration or round exhaustion), or
    when it reaches a gathered quiescent configuration.
    """
    # The packed Look-Compute loop of the engine kernel, specialised to
    # range-1 adjacency patterns: a view is one of 64 neighbour bitmasks,
    # mapped straight to the partial table's frozenset keys.
    bit_table = offset_bit_table(1)
    bit_table_get = bit_table.get
    configuration = initial
    seen = {pack_nodes(configuration.nodes): 0}
    for _ in range(max_rounds):
        moves: Dict[Coord, Direction] = {}
        positions = configuration.sorted_nodes()
        for position in positions:
            pq, pr = position
            bitmask = 0
            for other in positions:
                bit = bit_table_get((other[0] - pq, other[1] - pr))
                if bit is not None:
                    bitmask |= bit
            key = _MASK_TO_VIEW_KEY[bitmask]
            if key not in table:
                return SimulationProbe(status="needs", missing_view=key)
            decision = table[key]
            if decision is not None:
                moves[position] = decision
        if not moves:
            if configuration.is_gathered():
                return SimulationProbe(status="gathered")
            return SimulationProbe(status="failed", reason="deadlock")
        collision = detect_collision_nodes(configuration.nodes, moves)
        if collision is not None:
            return SimulationProbe(status="failed", reason=f"collision:{collision[0]}")
        configuration = Configuration(apply_moves_nodes(configuration.nodes, moves))
        if not configuration.is_connected():
            return SimulationProbe(status="failed", reason="disconnected")
        key2 = pack_nodes(configuration.nodes)
        if key2 in seen:
            return SimulationProbe(status="failed", reason="livelock")
        seen[key2] = 1
    return SimulationProbe(status="failed", reason="round-limit")


def search_rule_space(
    suite: Optional[Sequence[Configuration]] = None,
    max_nodes: int = 200_000,
    max_rounds: int = 200,
) -> SearchResult:
    """Lazy depth-first search over visibility-range-1 rule tables.

    Parameters
    ----------
    suite:
        Initial configurations every candidate table must solve.  Defaults to
        :func:`default_gadget_suite`.
    max_nodes:
        Budget on the number of partial tables explored.
    max_rounds:
        Round bound per simulated execution.

    Returns
    -------
    SearchResult
        ``refuted=True`` means no table in the search space gathers from every
        configuration of the suite, which reproduces Theorem 1 (restricted to
        the suite and budget).
    """
    suite = list(suite) if suite is not None else default_gadget_suite()
    result = SearchResult(refuted=True, budget_exhausted=False, nodes_explored=0)

    def table_survives(table: Dict[ViewKey, Optional[Direction]]) -> bool:
        """Whether some completion of ``table`` solves every configuration."""
        result.nodes_explored += 1
        if result.nodes_explored > max_nodes:
            result.budget_exhausted = True
            return False
        for configuration in suite:
            probe = simulate_with_partial_table(configuration, table, max_rounds)
            if probe.status == "failed":
                result.failure_reasons[probe.reason] = (
                    result.failure_reasons.get(probe.reason, 0) + 1
                )
                return False
            if probe.status == "needs":
                missing = probe.missing_view
                for choice in _MOVE_CHOICES:
                    table[missing] = choice
                    if table_survives(table):
                        return True
                    if result.budget_exhausted:
                        del table[missing]
                        return False
                del table[missing]
                return False
            # gathered: continue with the next configuration of the suite
        return True

    working_table: Dict[ViewKey, Optional[Direction]] = {}
    survived = table_survives(working_table)
    if survived:
        # Only reachable when the suite is too weak to force a contradiction
        # (e.g. it contains a single already-gathered configuration); the
        # surviving table is returned for inspection.
        result.surviving_table = RuleTable(dict(working_table), name="survivor")
    result.refuted = (not survived) and (not result.budget_exhausted)
    return result
