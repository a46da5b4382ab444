"""The Look–Compute–Move execution engine.

This module simulates executions of a gathering algorithm under a scheduler,
enforcing the collision rules of Section II-A of the paper:

* **(a)** two robots may not traverse the same edge in opposite directions,
* **(b)** a robot may not move onto a node whose occupant stays put,
* **(c)** several robots may not move onto the same node.

Moving onto a node that its occupant vacates in the same round ("following")
is explicitly allowed, as in the paper.

Executions terminate with one of the :class:`~repro.core.trace.Outcome`
values.  Under the deterministic FSYNC scheduler, revisiting a configuration
(up to translation) proves a livelock, and quiescence (no robot wants to move)
is a permanent fixpoint; the engine uses both facts for exact termination
detection.

Two kernels implement the same semantics:

* ``kernel="packed"`` runs on plain coordinate sets and packed integers from
  :mod:`repro.grid.packing`.  The Look phase computes one view bitmask per
  robot in a single pass over the occupancy set, and the Compute phase
  resolves each bitmask through a per-algorithm **decision cache** — every
  algorithm is a deterministic function of the view, as the paper's model
  requires, so the cache is exact and makes Compute amortized O(1) across an
  exhaustive sweep.
* ``kernel="table"`` answers from the precomputed successor table of
  :mod:`repro.core.table_kernel` and falls back to ``"packed"`` outside the
  table's scope.

The View-object engine both kernels are held to (a fresh
:class:`~repro.core.view.View` and ``algorithm.compute`` call per robot per
round) lives in the test suite as an oracle, ``tests/oracles.py``.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..grid.coords import Coord
from ..grid.directions import Direction
from ..grid.packing import offset_bit_table, pack_nodes
from ..obs import metrics as _obs
from .algorithm import GatheringAlgorithm
from .configuration import Configuration
from .scheduler import FullySynchronousScheduler, Scheduler
from .trace import ExecutionTrace, Outcome, RoundRecord
from .view import View

__all__ = [
    "compute_moves_packed",
    "move_intents",
    "detect_collision_nodes",
    "apply_moves_nodes",
    "decision_cache_for",
    "default_kernel",
    "step_nodes",
    "run_execution",
    "DEFAULT_MAX_ROUNDS",
    "KERNELS",
]

#: Default round budget.  All successful executions over the 3652 connected
#: initial configurations terminate far below this bound; the budget only
#: exists to cut off pathological algorithms under non-FSYNC schedulers where
#: exact livelock detection is not available.
DEFAULT_MAX_ROUNDS = 1000

#: The available simulation kernels.
KERNELS = ("packed", "table")


def default_kernel() -> str:
    """The fastest kernel: ``"table"``, the vectorized successor-table kernel.

    See :mod:`repro.core.table_kernel`; it is byte-identical to ``"packed"``.
    """
    return "table"

_NEIGHBOR_DELTAS: Tuple[Tuple[int, int], ...] = tuple(d.value for d in Direction)


# ---------------------------------------------------------------------------
# Decision cache: memoized Compute phase.
# ---------------------------------------------------------------------------

def decision_cache_for(algorithm: GatheringAlgorithm) -> Dict[int, Optional[Direction]]:
    """The decision cache of ``algorithm``: ``view bitmask -> move``.

    The cache is attached to the algorithm instance so it persists across
    executions (an exhaustive sweep reuses one algorithm object for thousands
    of executions, and most views repeat).  Keys are view bitmasks for the
    algorithm's own ``visibility_range``, so the mapping is exact: the same
    key always denotes the same view.
    """
    cache = getattr(algorithm, "_decision_cache", None)
    if cache is None:
        cache = {}
        algorithm._decision_cache = cache
    return cache


def compute_moves_packed(
    occupied: Iterable[Tuple[int, int]],
    algorithm: GatheringAlgorithm,
    activated: Optional[Set[Coord]] = None,
) -> Dict[Coord, Direction]:
    """The moves of the activated robots of a plain node set for one round.

    Returns a mapping ``position -> direction`` containing only the robots
    that decided to move; robots that stay (or are not activated) are absent.
    Computes all view bitmasks in one pass over the occupancy set and resolves
    each through the algorithm's decision cache.
    """
    positions = sorted(Coord(n[0], n[1]) for n in occupied)
    return _packed_moves(positions, algorithm, decision_cache_for(algorithm), activated)


def _packed_moves(
    positions: List[Tuple[int, int]],
    algorithm: GatheringAlgorithm,
    cache: Dict[int, Optional[Direction]],
    activated: Optional[Set[Coord]] = None,
) -> Dict[Coord, Direction]:
    """The hot Look–Compute loop: bitmask views + memoized decisions.

    ``positions`` must be sorted; ``activated=None`` means every robot is
    activated (the FSYNC fast path).
    """
    visibility_range = algorithm.visibility_range
    table = offset_bit_table(visibility_range)
    table_get = table.get
    compute = algorithm.compute
    moves: Dict[Coord, Direction] = {}
    lookups = 0
    misses = 0
    for pos in positions:
        if activated is not None and pos not in activated:
            continue
        pq, pr = pos
        bitmask = 0
        for other in positions:
            bit = table_get((other[0] - pq, other[1] - pr))
            if bit is not None:
                bitmask |= bit
        lookups += 1
        try:
            decision = cache[bitmask]
        except KeyError:
            misses += 1
            decision = compute(View.from_bitmask(bitmask, visibility_range))
            cache[bitmask] = decision
        if decision is not None:
            moves[pos] = decision
    # One aggregated update per call, never per robot: the enabled-path cost
    # stays invisible next to the Look loop above.
    if lookups:
        _obs.counter("decision_cache.lookups").inc(lookups)
        if misses:
            _obs.counter("decision_cache.misses").inc(misses)
    return moves


def move_intents(
    occupied: Iterable[Tuple[int, int]], algorithm: GatheringAlgorithm
) -> Dict[Coord, Direction]:
    """The full-activation move intents of a configuration.

    Because an algorithm is a deterministic function of each robot's view, the
    moves under *any* activation subset ``A`` are exactly the restriction of
    this mapping to ``A``: a robot outside ``A`` stays, a robot inside ``A``
    does what it would do under full activation.  This is the foundation of the
    transition-graph explorer (:mod:`repro.explore`), which enumerates SSYNC
    successors as subsets of the intent set rather than all ``2^n`` activation
    subsets.
    """
    return compute_moves_packed(occupied, algorithm)


def step_nodes(
    occupied: Iterable[Tuple[int, int]],
    algorithm: GatheringAlgorithm,
    activated: Optional[Set[Coord]] = None,
) -> Tuple[FrozenSet[Coord], Dict[Coord, Direction], Optional[Tuple[str, Tuple[Coord, ...]]]]:
    """One synchronous round on a plain node set under an activation subset.

    The step-by-activation-set API of the packed kernel: no
    :class:`~repro.core.configuration.Configuration` objects, no scheduler.
    Returns ``(next_nodes, moves, collision)``; when ``collision`` is not
    ``None`` the move set is forbidden and ``next_nodes`` is the *unchanged*
    occupancy set (the round does not happen).
    """
    nodes = frozenset(Coord(n[0], n[1]) for n in occupied)
    moves = compute_moves_packed(nodes, algorithm, activated)
    collision = detect_collision_nodes(nodes, moves)
    if collision is not None:
        return nodes, moves, collision
    return apply_moves_nodes(nodes, moves), moves, None


# ---------------------------------------------------------------------------
# Collision detection and move application.
# ---------------------------------------------------------------------------

def detect_collision_nodes(
    occupied: Iterable[Tuple[int, int]], moves: Dict[Coord, Direction]
) -> Optional[Tuple[str, Tuple[Coord, ...]]]:
    """Check the three forbidden behaviours for a simultaneous move set.

    Returns ``None`` if the move set is collision-free, otherwise a pair
    ``(kind, nodes)`` where ``kind`` is ``"swap"``, ``"move-onto-staying"`` or
    ``"same-target"`` and ``nodes`` identifies the offending nodes.
    """
    occupied_set = occupied if isinstance(occupied, (set, frozenset)) else set(occupied)
    targets: Dict[Coord, Coord] = {
        source: Coord(source[0] + direction.value[0], source[1] + direction.value[1])
        for source, direction in moves.items()
    }
    # (a) swap along an edge.
    for source, target in targets.items():
        reverse = targets.get(target)
        if reverse is not None and reverse == source:
            return ("swap", (source, target))
    # (b) moving onto a node whose occupant stays.
    for source, target in targets.items():
        if target in occupied_set and target not in targets:
            return ("move-onto-staying", (source, target))
    # (c) several robots moving onto the same node.
    seen: Dict[Coord, Coord] = {}
    for source, target in targets.items():
        if target in seen:
            return ("same-target", (seen[target], source, target))
        seen[target] = source
    return None


def apply_moves_nodes(
    occupied: Iterable[Tuple[int, int]], moves: Dict[Coord, Direction]
) -> FrozenSet[Coord]:
    """The occupancy set after simultaneously applying a collision-free move set."""
    nodes = set(occupied)
    arrivals: List[Coord] = []
    for source, direction in moves.items():
        nodes.discard(source)
        arrivals.append(Coord(source[0] + direction.value[0], source[1] + direction.value[1]))
    nodes.update(arrivals)
    return frozenset(nodes)


def _is_connected_nodes(nodes: FrozenSet[Coord]) -> bool:
    """Connectivity of a plain occupancy set (allocation-light DFS)."""
    if len(nodes) <= 1:
        return True
    iterator = iter(nodes)
    start = next(iterator)
    seen = {start}
    stack = [start]
    while stack:
        q, r = stack.pop()
        for dq, dr in _NEIGHBOR_DELTAS:
            nb = (q + dq, r + dr)
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(nodes)


# ---------------------------------------------------------------------------
# Full executions.
# ---------------------------------------------------------------------------

def run_execution(
    initial: Configuration,
    algorithm: GatheringAlgorithm,
    scheduler: Optional[Scheduler] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_rounds: bool = True,
    require_connectivity: bool = True,
    kernel: str = "packed",
) -> ExecutionTrace:
    """Run one full execution and classify its outcome.

    Parameters
    ----------
    initial:
        The initial configuration (the paper requires it to be connected; the
        engine itself accepts any configuration).
    algorithm:
        The gathering algorithm every robot runs.
    scheduler:
        Activation scheduler; defaults to FSYNC as in the paper.
    max_rounds:
        Hard bound on the number of rounds.
    record_rounds:
        If ``False``, per-round records are not kept (the trace still carries
        counters); this keeps exhaustive verification memory-light.
    require_connectivity:
        If ``True``, an execution stops with :attr:`Outcome.DISCONNECTED` as
        soon as the configuration splits into several components.
    kernel:
        ``"packed"`` (memoized bitmask kernel, the default) or ``"table"``
        (successor-table lookups, falling back to ``"packed"`` outside the
        table's scope).  Both produce identical traces.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; available: {KERNELS}")
    if kernel == "table":
        # The table covers connected initial configurations within the soft
        # memory-estimated size bound, with connectivity enforced and views
        # that fit its view column; everything else falls back to the packed
        # kernel (byte-identical).  Scope is checked against the
        # algorithm-independent (and globally memoized) view table first, so
        # out-of-scope inputs never pay for a per-algorithm successor-table
        # build.  A *single* execution only triggers a build up to the
        # paper's seven-robot space: at n>=8 the build costs far more than
        # one run, so the table path is taken there only when a batch caller
        # (runner, explorer, table attach) already materialized the table —
        # in RAM or as a shard store — on this algorithm instance.
        from .table_kernel import (
            GATHERING_SIZE,
            scoped_table,
            successor_table,
            table_in_scope,
            view_in_scope,
            view_table,
        )

        size = len(initial.nodes)
        if require_connectivity and view_in_scope(algorithm.visibility_range):
            table = scoped_table(algorithm, size, build=False)
            row = None if table is None else table.view.row_of_nodes(initial.nodes)
            if table is None and size <= GATHERING_SIZE and table_in_scope(size):
                row = view_table(size, algorithm.visibility_range).row_of_nodes(initial.nodes)
                if row is not None:
                    table = successor_table(algorithm, size)
            if row is not None:
                return _run_execution_table(
                    initial, algorithm, scheduler, max_rounds, record_rounds, table, row
                )
    return _run_execution_packed(
        initial, algorithm, scheduler, max_rounds, record_rounds, require_connectivity
    )


def _run_execution_packed(
    initial: Configuration,
    algorithm: GatheringAlgorithm,
    scheduler: Optional[Scheduler],
    max_rounds: int,
    record_rounds: bool,
    require_connectivity: bool,
) -> ExecutionTrace:
    """The packed-state hot path (see the module docstring)."""
    scheduler = scheduler or FullySynchronousScheduler()
    scheduler.reset()
    is_fsync = isinstance(scheduler, FullySynchronousScheduler)

    cache = decision_cache_for(algorithm)

    nodes: FrozenSet[Coord] = initial.nodes
    rounds: List[RoundRecord] = []
    seen: Dict[int, int] = {pack_nodes(nodes): 0}
    outcome = Outcome.ROUND_LIMIT
    collision_kind: Optional[str] = None
    cycle_start: Optional[int] = None
    termination_round = max_rounds
    total_moves = 0

    for round_index in range(max_rounds):
        positions = sorted(nodes)
        if is_fsync:
            activated: Optional[Set[Coord]] = None
            moves = _packed_moves(positions, algorithm, cache)
        else:
            activated = scheduler.activated(round_index, positions)
            moves = _packed_moves(positions, algorithm, cache, activated)

        if record_rounds:
            rounds.append(
                RoundRecord(
                    index=round_index,
                    configuration=Configuration(positions),
                    moves=dict(moves),
                    activated=tuple(positions) if activated is None else tuple(sorted(activated)),
                )
            )

        if not moves:
            # Quiescence.  Under FSYNC this is permanent; under SSYNC it is
            # only permanent when every robot was activated this round.
            if is_fsync or activated == set(positions):
                outcome = (
                    Outcome.GATHERED
                    if Configuration(positions).is_gathered()
                    else Outcome.DEADLOCK
                )
                termination_round = round_index
                break
            continue

        collision = detect_collision_nodes(nodes, moves)
        if collision is not None:
            outcome = Outcome.COLLISION
            collision_kind = collision[0]
            termination_round = round_index
            break

        nodes = apply_moves_nodes(nodes, moves)
        total_moves += len(moves)

        if require_connectivity and not _is_connected_nodes(nodes):
            outcome = Outcome.DISCONNECTED
            termination_round = round_index + 1
            break

        if is_fsync:
            key = pack_nodes(nodes)
            if key in seen:
                outcome = Outcome.LIVELOCK
                cycle_start = seen[key]
                termination_round = round_index + 1
                break
            seen[key] = round_index + 1

    return ExecutionTrace(
        initial=initial,
        final=Configuration(nodes),
        outcome=outcome,
        rounds=rounds,
        termination_round=termination_round,
        collision_kind=collision_kind,
        cycle_start=cycle_start,
        algorithm_name=algorithm.name,
        scheduler_name=scheduler.name,
        total_moves=total_moves,
    )


def _run_execution_table(
    initial: Configuration,
    algorithm: GatheringAlgorithm,
    scheduler: Optional[Scheduler],
    max_rounds: int,
    record_rounds: bool,
    table,
    row: int,
) -> ExecutionTrace:
    """One execution driven entirely by the successor table.

    The Look and Compute phases are table lookups (no views are built, no
    ``algorithm.compute`` is called); under FSYNC even the Move phase is a
    single ``succ`` pointer chase per round.  Absolute coordinates are
    tracked alongside the canonical row so traces — including per-round
    records and the final configuration — are byte-identical to the packed
    kernel's.
    """
    from .table_kernel import (
        _COLLISION_KINDS,
        KIND_COLLISION,
        KIND_DISCONNECT,
    )

    scheduler = scheduler or FullySynchronousScheduler()
    scheduler.reset()
    is_fsync = isinstance(scheduler, FullySynchronousScheduler)

    view_table = table.view
    directions = tuple(Direction)

    nodes: FrozenSet[Coord] = initial.nodes
    rounds: List[RoundRecord] = []
    seen: Dict[int, int] = {row: 0}
    outcome = Outcome.ROUND_LIMIT
    collision_kind: Optional[str] = None
    cycle_start: Optional[int] = None
    termination_round = max_rounds
    total_moves = 0

    for round_index in range(max_rounds):
        positions = sorted(nodes)
        move_codes = table.move_code[row]
        if is_fsync:
            activated: Optional[Set[Coord]] = None
            moves = {
                positions[i]: directions[code - 1]
                for i, code in enumerate(move_codes)
                if code
            }
        else:
            activated = scheduler.activated(round_index, positions)
            moves = {
                positions[i]: directions[code - 1]
                for i, code in enumerate(move_codes)
                if code and positions[i] in activated
            }

        if record_rounds:
            rounds.append(
                RoundRecord(
                    index=round_index,
                    configuration=Configuration(positions),
                    moves=dict(moves),
                    activated=tuple(positions) if activated is None else tuple(sorted(activated)),
                )
            )

        if not moves:
            if is_fsync or activated == set(positions):
                outcome = (
                    Outcome.GATHERED if view_table.gathered[row] else Outcome.DEADLOCK
                )
                termination_round = round_index
                break
            continue

        if is_fsync:
            kind = int(table.kind[row])
            if kind == KIND_COLLISION:
                outcome = Outcome.COLLISION
                collision_kind = _COLLISION_KINDS[int(table.collision_code[row])]
                termination_round = round_index
                break
            nodes = apply_moves_nodes(nodes, moves)
            total_moves += len(moves)
            if kind == KIND_DISCONNECT:
                outcome = Outcome.DISCONNECTED
                termination_round = round_index + 1
                break
            row = int(table.succ[row])
            if row in seen:
                outcome = Outcome.LIVELOCK
                cycle_start = seen[row]
                termination_round = round_index + 1
                break
            seen[row] = round_index + 1
        else:
            collision = detect_collision_nodes(nodes, moves)
            if collision is not None:
                outcome = Outcome.COLLISION
                collision_kind = collision[0]
                termination_round = round_index
                break
            nodes = apply_moves_nodes(nodes, moves)
            total_moves += len(moves)
            if not _is_connected_nodes(nodes):
                outcome = Outcome.DISCONNECTED
                termination_round = round_index + 1
                break
            row = view_table.row_of_nodes(nodes)
            assert row is not None  # connected n-robot sets stay in the space

    return ExecutionTrace(
        initial=initial,
        final=Configuration(nodes),
        outcome=outcome,
        rounds=rounds,
        termination_round=termination_round,
        collision_kind=collision_kind,
        cycle_start=cycle_start,
        algorithm_name=algorithm.name,
        scheduler_name=scheduler.name,
        total_moves=total_moves,
    )
