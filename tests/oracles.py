"""Slow reference implementations the property tests hold the fast paths to.

* :func:`reference_execution` / :func:`reference_moves` — the View-object
  engine (a fresh ``view_of`` + ``algorithm.compute`` per robot per round,
  ``Configuration.is_connected()`` and ``canonical_key()`` livelock
  detection), the oracle of the packed and table kernels of
  :func:`repro.core.engine.run_execution`;
* :func:`reference_resolve_rows` — the resolve round with the
  ``(M, n, n)`` pairwise-tensor collision predicates of
  :func:`collision_flags_pairwise`, matmul connectivity on every moving row
  and an argmin + argsort canonicalization, the oracle of the table kernel's
  one-sort ``resolve_rows_arrays``;
* :func:`byte_index_lookup` — a scalar dictionary lookup of canonical blocks,
  the oracle of the vectorized ``CanonicalIndex``;
* :func:`expand_packed_combinations` — the ``itertools.combinations`` SSYNC
  expansion, the oracle of the bitset ``expand_packed``;
* :func:`grow_level_sets` / :func:`sorted_levels` — the set-based polyhex
  grower (one packed int per seen shape), the oracle of the NumPy level
  grower ``canonical_positions``;
* :class:`FrozensetView` — a view held as frozensets of offsets and labels,
  the oracle of the bit-backed :class:`repro.core.view.View`;
* :func:`reference_connectivity_safe` / :func:`reference_entry_uncontested`
  — the breadth-first search over ``Coord`` offsets and the per-neighbour
  scan, the oracles of the bit-parallel guards of
  :mod:`repro.algorithms.guards`;
* :func:`reference_shibata_explain` — Algorithm 1 as the hand-written
  if-chain over occupied/empty label tests and the base-node choice, the
  oracle of the rule table of :mod:`repro.algorithms.visibility2`
  (``explain`` and the array pass ``decide_bitmasks``);
* :func:`first_firing_rule` — the linear scan over a rule list, the oracle of
  the exact-view index of :class:`repro.synth.dsl.RuleSet`;
* :func:`lazy_fsync_summary` — the memoized per-row walk of the successor
  function, the oracle of the pointer-doubling
  :meth:`repro.core.table_kernel.SuccessorTable.fsync_summary`;
* :func:`rowwise_expansion` — the word-at-a-time walk over one row's
  activation subsets, the oracle of the array-pass
  :meth:`repro.core.table_kernel.SuccessorTable.expand_rows`;
* :func:`reference_exploration` — the dict BFS (one ``expand_packed`` per
  vertex, a Python queue and seen-set over packed integers), the oracle of
  the row-space breadth-first search of
  :func:`repro.explore.transitions.build_transition_graph`;
* :func:`reference_classify` — the dict classifier (reverse-adjacency dicts,
  a set-based backward closure per failure kind, Tarjan over every vertex),
  the oracle of the array pass :func:`repro.explore.analyzer.classify`;
* :class:`DictGraph` / :func:`dict_graph` / :func:`graph_from_dicts` — a
  transition graph as packed-integer dicts (``edges``, ``terminal``,
  ``roots``, ``unexplored``), the form the graph oracles walk, read off a
  graph's CSR arrays or turned into one; :func:`assert_same_graph` holds two
  graphs' arrays and vertex names equal;
* :func:`reference_witnesses` — the queue BFS and cycle search over packed
  integers, the oracle of the CSR witness search
  :func:`repro.explore.witness.find_witnesses`;
* :func:`reference_counterexamples_by_mass` — the memoized walk over an
  FSYNC graph's dicts, the oracle of
  :func:`repro.core.table_kernel.counterexamples_by_mass` on both kernels;
  :func:`won_roots` names the roots a won mask stands for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.algorithms.guards import connectivity_safe
from repro.core.algorithm import GatheringAlgorithm
from repro.core.bitsets import subset_masks
from repro.core.configuration import Configuration
from repro.core.engine import (
    DEFAULT_MAX_ROUNDS,
    _is_connected_nodes,
    apply_moves_nodes,
    detect_collision_nodes,
    move_intents,
)
from repro.core.scheduler import FullySynchronousScheduler, Scheduler
from repro.core.table_kernel import (
    _DELTAS,
    _DIRECTIONS,
    KIND_COLLISION,
    KIND_DEADLOCK,
    KIND_DISCONNECT,
    KIND_GATHERED,
    KIND_STEP,
    OUT_COLLISION,
    OUT_DEADLOCK,
    OUT_DISCONNECTED,
    OUT_GATHERED,
    OUT_LIVELOCK,
    _FsyncSummary,
    _connected_mask,
    _sort_key,
)
from repro.core.trace import ExecutionTrace, Outcome, RoundRecord
from repro.core.view import view_of
from repro.explore.analyzer import CLASSES, strongly_connected_components
from repro.explore.transitions import (
    COLLISION_SINK,
    DISCONNECT_SINK,
    MODES,
    STATE_ABSENT,
    STATE_DEADLOCK,
    STATE_EDGES,
    STATE_GATHERED,
    STATE_UNEXPLORED,
    TERMINAL_DEADLOCK,
    TERMINAL_GATHERED,
    GraphArrays,
    TransitionGraph,
    expand_packed,
)
from repro.explore.witness import Witness, _materialize
from repro.grid.coords import Coord, as_coord, distance, neighbors
from repro.grid.directions import DIRECTIONS, Direction
from repro.grid.labels import VISIBILITY_2_LABELS, Label, label_of_offset, offset_of_label
from repro.grid.packing import pack_nodes, pack_offsets, unpack_nodes, unpack_offsets


def reference_moves(
    configuration: Configuration,
    algorithm: GatheringAlgorithm,
    activated: Optional[Set[Coord]] = None,
) -> Dict[Coord, Direction]:
    """The moves of the activated robots, one View object and compute call each.

    Returns a mapping ``position -> direction`` containing only the robots
    that decided to move; robots that stay (or are not activated) are absent.
    """
    moves: Dict[Coord, Direction] = {}
    for position in configuration.sorted_nodes():
        if activated is not None and position not in activated:
            continue
        view = view_of(configuration, position, algorithm.visibility_range)
        decision = algorithm.compute(view)
        if decision is not None:
            moves[position] = decision
    return moves


def reference_execution(
    initial: Configuration,
    algorithm: GatheringAlgorithm,
    scheduler: Optional[Scheduler] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_rounds: bool = True,
    require_connectivity: bool = True,
) -> ExecutionTrace:
    """One execution on Configuration objects: the seed engine's semantics."""
    scheduler = scheduler or FullySynchronousScheduler()
    scheduler.reset()
    is_fsync = isinstance(scheduler, FullySynchronousScheduler)

    configuration = initial
    rounds: List[RoundRecord] = []
    seen: Dict[Tuple[Coord, ...], int] = {initial.canonical_key(): 0}
    outcome = Outcome.ROUND_LIMIT
    collision_kind: Optional[str] = None
    cycle_start: Optional[int] = None
    termination_round = max_rounds
    total_moves = 0

    for round_index in range(max_rounds):
        positions = configuration.sorted_nodes()
        activated = scheduler.activated(round_index, positions)
        moves = reference_moves(configuration, algorithm, activated)

        if record_rounds:
            rounds.append(
                RoundRecord(
                    index=round_index,
                    configuration=configuration,
                    moves=dict(moves),
                    activated=tuple(sorted(activated)),
                )
            )

        if not moves:
            # Quiescence.  Under FSYNC this is permanent; under SSYNC it is
            # only permanent when every robot was activated this round.
            if is_fsync or activated == set(positions):
                outcome = (
                    Outcome.GATHERED if configuration.is_gathered() else Outcome.DEADLOCK
                )
                termination_round = round_index
                break
            continue

        collision = detect_collision_nodes(configuration.nodes, moves)
        if collision is not None:
            outcome = Outcome.COLLISION
            collision_kind = collision[0]
            termination_round = round_index
            break

        configuration = Configuration(apply_moves_nodes(configuration.nodes, moves))
        total_moves += len(moves)

        if require_connectivity and not configuration.is_connected():
            outcome = Outcome.DISCONNECTED
            termination_round = round_index + 1
            break

        if is_fsync:
            key = configuration.canonical_key()
            if key in seen:
                outcome = Outcome.LIVELOCK
                cycle_start = seen[key]
                termination_round = round_index + 1
                break
            seen[key] = round_index + 1

    return ExecutionTrace(
        initial=initial,
        final=configuration,
        outcome=outcome,
        rounds=rounds,
        termination_round=termination_round,
        collision_kind=collision_kind,
        cycle_start=cycle_start,
        algorithm_name=algorithm.name,
        scheduler_name=scheduler.name,
        total_moves=total_moves,
    )


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


def canonicalize_positions(cpos):
    """Translate-and-sort a batch of position sets to int8 canonical blocks.

    Each row is anchored at its lexicographically smallest node (argmin),
    then sorted (argsort).
    """
    key = _sort_key(cpos)
    anchor = cpos[np.arange(len(cpos)), key.argmin(axis=1)]
    rel = cpos - anchor[:, None, :]
    order = _sort_key(rel).argsort(axis=1)
    return np.take_along_axis(rel, order[:, :, None], axis=1).astype(np.int8)


def reference_resolve_rows(pos, move_code, gathered, lookup):
    """The full-activation round of a batch of rows, one predicate at a time.

    Same arguments and outputs as ``resolve_rows_arrays``; the rows of
    ``pos`` need not be sorted.
    """
    count, n = move_code.shape
    movers = move_code > 0
    mover_count = movers.sum(axis=1).astype(np.int16)
    weights = 1 << np.arange(n, dtype=np.int16)
    mover_bits = (movers * weights).sum(axis=1).astype(np.int16)

    kind = np.full(count, KIND_STEP, dtype=np.int8)
    succ = np.full(count, -1, dtype=np.int32)
    collision_code = np.zeros(count, dtype=np.int8)

    quiescent = mover_count == 0
    kind[quiescent] = np.where(gathered[quiescent], KIND_GATHERED, KIND_DEADLOCK)

    targets = pos + _DELTAS[move_code]
    swap, onto_staying, same_target = collision_flags_pairwise(
        _sort_key(pos), _sort_key(targets), movers
    )
    collided = ~quiescent & (swap | onto_staying | same_target)
    kind[collided] = KIND_COLLISION
    collision_code[collided] = np.select(
        [swap[collided], onto_staying[collided]], [1, 2], default=3
    )

    moving = ~quiescent & ~collided
    if moving.any():
        midx = np.nonzero(moving)[0]
        new_pos = np.where(movers[midx, :, None], targets[midx], pos[midx])
        connected = _connected_mask(new_pos)
        kind[midx[~connected]] = KIND_DISCONNECT
        cidx = midx[connected]
        if len(cidx) > 0:
            found = np.asarray(lookup(canonicalize_positions(new_pos[connected])))
            if bool((found < 0).any()):
                raise RuntimeError("successor configuration missing from the state space")
            succ[cidx] = found
    return mover_bits, mover_count, kind, succ, collision_code


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


class FrozensetView:
    """A robot view held as frozensets of occupied offsets and Fig. 48 labels.

    Every query answers by set membership or a scan over the sets, with the
    same public surface as :class:`repro.core.view.View`.
    """

    __slots__ = ("_offsets", "_range", "_labels")

    def __init__(self, occupied_offsets: Iterable[Tuple[int, int]], visibility_range: int) -> None:
        offsets = frozenset(as_coord(o) for o in occupied_offsets if tuple(o) != (0, 0))
        for off in offsets:
            if distance((0, 0), off) > visibility_range:
                raise ValueError(
                    f"offset {off} lies outside visibility range {visibility_range}"
                )
        self._offsets: FrozenSet[Coord] = offsets
        self._range = int(visibility_range)
        self._labels: FrozenSet[Label] = frozenset(label_of_offset(o) for o in offsets)

    @classmethod
    def from_bitmask(cls, bitmask: int, visibility_range: int) -> "FrozensetView":
        return cls(unpack_offsets(bitmask, visibility_range), visibility_range)

    def bitmask(self) -> int:
        return pack_offsets(self._offsets, self._range)

    @property
    def visibility_range(self) -> int:
        return self._range

    @property
    def occupied_offsets(self) -> FrozenSet[Coord]:
        return self._offsets

    @property
    def occupied_labels(self) -> FrozenSet[Label]:
        return self._labels

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozensetView):
            return self._offsets == other._offsets and self._range == other._range
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._offsets, self._range))

    def __len__(self) -> int:
        return len(self._offsets)

    def occupied(self, offset: Tuple[int, int]) -> bool:
        if tuple(offset) == (0, 0):
            return True
        return as_coord(offset) in self._offsets

    def occupied_label(self, label: Label) -> bool:
        if tuple(label) == (0, 0):
            return True
        return tuple(label) in self._labels

    def empty_label(self, label: Label) -> bool:
        return not self.occupied_label(label)

    def occupied_direction(self, direction: Direction) -> bool:
        return as_coord(direction.value) in self._offsets

    def adjacent_robot_directions(self) -> List[Direction]:
        return [d for d in DIRECTIONS if self.occupied_direction(d)]

    def adjacent_degree(self) -> int:
        return sum(1 for d in DIRECTIONS if self.occupied_direction(d))

    def robots_at_distance(self, dist: int) -> List[Coord]:
        return sorted(o for o in self._offsets if distance((0, 0), o) == dist)

    def max_x_element(self) -> int:
        best = 0  # the robot's own label (0, 0)
        for label in self._labels:
            if label[0] > best:
                best = label[0]
        return best

    def labels_with_max_x(self) -> List[Label]:
        best = self.max_x_element()
        result = [label for label in self._labels if label[0] == best]
        if best == 0:
            result.append((0, 0))
        return sorted(result)

    def restricted(self, visibility_range: int) -> "FrozensetView":
        if visibility_range > self._range:
            raise ValueError("cannot enlarge a view; re-observe the configuration")
        kept = [o for o in self._offsets if distance((0, 0), o) <= visibility_range]
        return FrozensetView(kept, visibility_range)


def reference_connectivity_safe(view, direction: Direction) -> bool:
    """Whether every current neighbour stays connected to the move target.

    A breadth-first search from the target over the occupied offsets after
    the move (the robot's own node vacated), by ``Coord`` steps in every
    direction; nodes outside the window are never entered.
    """
    me = Coord(0, 0)
    target = Coord(*direction.value)
    old_neighbors: List[Coord] = [
        Coord(*d.value) for d in DIRECTIONS if view.occupied(Coord(*d.value))
    ]
    if not old_neighbors:
        return False
    after: Set[Coord] = set(view.occupied_offsets)
    after.discard(me)
    after.add(target)
    component = {target}
    frontier = [target]
    while frontier:
        node = frontier.pop()
        for d in DIRECTIONS:
            nb = node.step(d)
            if nb in after and nb not in component:
                component.add(nb)
                frontier.append(nb)
    return all(neighbor in component for neighbor in old_neighbors)


def reference_entry_uncontested(view, direction: Direction) -> bool:
    """Whether no robot other than the mover is adjacent to the move target."""
    me = Coord(0, 0)
    target = Coord(*direction.value)
    for d in DIRECTIONS:
        neighbor = target.step(d)
        if neighbor == me:
            continue
        if view.occupied(neighbor):
            return False
    return True


# ---------------------------------------------------------------------------
# Algorithm 1 as printed: the if-chain oracle of the visibility-2 rule table.
# ---------------------------------------------------------------------------

def _label_sets(bit_labels):
    """``[occupied labels of every bit pattern]`` over ``(bit, label)`` pairs."""
    return [
        frozenset(label for index, (_, label) in enumerate(bit_labels) if pattern >> index & 1)
        for pattern in range(1 << len(bit_labels))
    ]


#: Labels of the low and high nine bits of a range-2 view bitmask, by pattern.
_BIT_LABELS = sorted(
    (pack_offsets([offset_of_label(label)], 2), label) for label in VISIBILITY_2_LABELS
)
_LOW_LABELS = _label_sets(_BIT_LABELS[:9])
_HIGH_LABELS = _label_sets(_BIT_LABELS[9:])

#: Labels with x-element > 0 except (1,1) and (1,-1) (the R1 east check).
_EAST_OF_R1_FLANKS = tuple(
    label for label in VISIBILITY_2_LABELS if label[0] > 0 and label not in ((1, 1), (1, -1))
)


def reference_shibata_explain(
    view,
    disabled_rules: Iterable[str] = (),
    include_reconstructed: bool = True,
) -> Tuple[str, Optional[Direction]]:
    """``(rule id, move)`` of Algorithm 1 for ``view``, guard by guard.

    The literal guards run first; when they leave the robot idle and
    ``include_reconstructed`` holds, the two ``recon:*`` rules are tried,
    each also requiring :func:`~repro.algorithms.guards.connectivity_safe`.
    """
    if view.visibility_range != 2:
        raise ValueError("the algorithm requires visibility range 2")
    bits = view.bitmask()
    occupied = _LOW_LABELS[bits & 511] | _HIGH_LABELS[bits >> 9]
    o = occupied.__contains__
    e = VISIBILITY_2_LABELS.difference(occupied).__contains__

    def on(rule_id):
        return rule_id not in disabled_rules

    # Base node (Section IV-A): the empty (4,0) flanked by robots at (3,1)
    # and (3,-1), else the robot label with the largest x-element if unique.
    if e((4, 0)) and o((3, 1)) and o((3, -1)):
        base = (4, 0)
    else:
        top = max([x for x, _ in occupied if x > 0], default=0)
        tied = [label for label in occupied if label[0] == top] + ([(0, 0)] if top == 0 else [])
        base = tied[0] if len(tied) == 1 else None

    def literal():
        if (
            on("R1")
            and e((2, 0))
            and o((1, 1))
            and o((1, -1))
            and all(e(label) for label in _EAST_OF_R1_FLANKS)
        ):
            if e((-2, 0)) or (o((-2, 0)) and (o((-1, 1)) or o((-1, -1)))):
                return ("R1", Direction.E)
            return ("R1:hold", None)
        if base == (4, 0):
            if on("R2a") and e((2, 0)) and (
                (e((-1, 1)) and e((-2, 0)) and e((-1, -1)))
                or (o((1, -1)) and e((-2, 0)) and e((-1, 1)))
                or (o((1, 1)) and e((-2, 0)) and e((-1, -1)))
                or (o((1, -1)) and o((-1, -1)) and o((-2, 0)) and e((-1, 1)))
                or (o((-2, 0)) and o((-1, 1)) and o((1, 1)) and e((-1, -1)))
            ):
                return ("R2a", Direction.E)
            if (
                on("R2b") and o((2, 0)) and e((1, 1)) and e((-2, 0)) and e((-1, 1))
                and (
                    (e((-1, -1)) and e((2, 2)))
                    or (o((2, 2)) and o((3, 1)) and o((3, -1)) and o((-2, -2)))
                )
            ):
                return ("R2b", Direction.NE)
            if (
                on("R2c") and o((2, 0)) and o((1, 1)) and e((1, -1)) and e((-1, -1))
                and e((-2, 0)) and e((-1, 1)) and e((2, -2)) and (o((1, 1)) or o((2, 2)))
            ):
                return ("R2c", Direction.SE)
            return ("stay:4,0", None)
        if base == (3, -1):
            if on("R3a") and e((1, -1)) and e((-1, -1)) and e((0, -2)) and (
                (e((-2, 0)) and e((-1, 1))) or (o((-1, 1)) and o((1, 1)) and e((0, 2)))
            ):
                return ("R3a", Direction.SE)
            if on("R3b") and o((1, -1)) and e((2, 0)) and e((-1, 1)) and (
                e((-2, 0)) or (o((-2, 0)) and o((-1, -1)))
            ):
                return ("R3b", Direction.E)
            if (
                on("R3c") and o((1, -1)) and o((2, 0)) and o((1, 1))
                and e((-1, -1)) and e((-2, 0)) and e((-2, -2))
            ):
                return ("R3c", Direction.SW)
            return ("stay:3,-1", None)
        if base == (2, -2):
            if on("R4") and e((-1, -1)) and e((-2, 0)) and e((-3, -1)) and e((-1, 1)):
                return ("R4", Direction.SW)
            return ("stay:2,-2", None)
        if base == (3, 1):
            if on("R5a") and e((1, 1)) and (
                (e((-1, 1)) and e((-2, 0)) and e((-1, -1)))
                or (o((1, -1)) and o((-1, -1)) and e((0, -2)) and e((-1, 1)))
            ):
                return ("R5a", Direction.NE)
            if on("R5b") and o((1, 1)) and e((2, 0)) and (
                (e((-2, 0)) and e((-1, -1))) or (e((-1, -1)) and o((-2, 0)) and o((-1, 1)))
            ):
                return ("R5b", Direction.E)
            if (
                on("R5c") and o((1, 1)) and o((2, 0)) and o((1, -1))
                and e((-1, 1)) and e((-2, 0)) and e((-2, 2))
            ):
                return ("R5c", Direction.NW)
            return ("stay:3,1", None)
        if base == (2, 2):
            if on("R6") and e((-1, 1)) and e((-3, 1)) and e((-2, 0)) and e((-1, -1)):
                return ("R6", Direction.NW)
            return ("stay:2,2", None)
        return ("stay", None)

    rule, move = literal()
    if not include_reconstructed or move is not None:
        return (rule, move)
    if (
        base == (2, -2) and o((-2, 0)) and e((-1, -1)) and e((-3, -1)) and e((-1, 1))
        and e((1, -1)) and e((0, -2)) and e((2, 0)) and connectivity_safe(view, Direction.SW)
    ):
        return ("recon:R4-west", Direction.SW)
    if (
        base == (2, 2) and o((-2, 0)) and e((-1, 1)) and e((-3, 1)) and e((-1, -1))
        and e((1, 1)) and e((0, 2)) and e((2, 0)) and connectivity_safe(view, Direction.NW)
    ):
        return ("recon:R6-west", Direction.NW)
    return (rule, move)


def first_firing_rule(rules, view, mode: Optional[str] = None):
    """The first rule of ``rules`` (of ``mode``, if given) whose atoms all hold."""
    for rule in rules:
        if (mode is None or rule.mode == mode) and rule.matches(view):
            return rule
    return None


def lazy_fsync_summary(table, starts: Iterable[int]) -> _FsyncSummary:
    """The FSYNC summary of the rows reachable from ``starts``, one walk each.

    Each row is resolved exactly once, cycles are detected exactly (matching
    the engine's seen-set livelock semantics) and shared suffixes are shared
    work.  Rows no start reaches keep outcome ``-1``.
    """
    count = table.view.count
    summary = _FsyncSummary(
        outcome=np.full(count, -1, dtype=np.int8),
        rounds=np.zeros(count, dtype=np.int32),
        moves=np.zeros(count, dtype=np.int64),
        final=np.arange(count, dtype=np.int32),
    )
    outcome = summary.outcome
    rounds = summary.rounds
    moves = summary.moves
    final = summary.final
    kind = table.kind
    succ = table.succ
    mover_count = table.mover_count

    terminal_outcome = {
        KIND_GATHERED: OUT_GATHERED,
        KIND_DEADLOCK: OUT_DEADLOCK,
        KIND_COLLISION: OUT_COLLISION,
    }
    for start in starts:
        if outcome[start] >= 0:
            continue
        path: List[int] = []
        path_pos: Dict[int, int] = {}
        current = start
        while True:
            if outcome[current] >= 0:
                break
            k = int(kind[current])
            if k in terminal_outcome:
                outcome[current] = terminal_outcome[k]
                break
            if k == KIND_DISCONNECT:
                outcome[current] = OUT_DISCONNECTED
                rounds[current] = 1
                moves[current] = int(mover_count[current])
                break
            position = path_pos.get(current)
            if position is not None:
                cycle = path[position:]
                length = len(cycle)
                cycle_moves = int(sum(int(mover_count[c]) for c in cycle))
                for member in cycle:
                    outcome[member] = OUT_LIVELOCK
                    rounds[member] = length
                    moves[member] = cycle_moves
                    final[member] = member
                path = path[:position]
                current = cycle[0]
                break
            path_pos[current] = len(path)
            path.append(current)
            current = int(succ[current])
        for node in reversed(path):
            nxt = int(succ[node])
            outcome[node] = outcome[nxt]
            rounds[node] = rounds[nxt] + 1
            moves[node] = moves[nxt] + int(mover_count[node])
            final[node] = final[nxt]
    return summary


def rowwise_expansion(
    table, row: int, mode: str
) -> Tuple[Tuple[Tuple[int, int], ...], Optional[str]]:
    """One row's edges, walking its activation subsets one machine word at a time.

    Per-mover interaction bitmasks are precomputed once; each activation
    subset is then a single machine word ``s`` and the collision predicate
    is pure bit arithmetic: mover ``a`` (active) collides iff its target
    holds a non-mover (``onto_stayer``), a co-active mover targets the
    same node (``same & s``), it swaps with a co-active mover
    (``swap & s``), or it lands on an *inactive* mover (``onto & ~s``).
    Subsets run in :func:`subset_masks` order and the first subset reaching
    each destination is kept.  Works on either table tier: ``pack_nodes``
    canonicalizes, so it equals the row's packed form.
    """
    if table.mover_count[row] == 0:
        gathered = table.view.gathered[row]
        return (), TERMINAL_GATHERED if gathered else TERMINAL_DEADLOCK
    bits = int(table.mover_bits[row])
    if mode == "fsync":
        k = int(table.kind[row])
        if k == KIND_COLLISION:
            destination = COLLISION_SINK
        elif k == KIND_DISCONNECT:
            destination = DISCONNECT_SINK
        else:
            destination = table.packed_of_row(int(table.succ[row]))
        return ((bits, destination),), None

    n = table.view.size
    positions = [(int(q), int(r)) for q, r in table._row_positions(row)]
    mc = table.move_code[row]
    mover_idx: List[int] = []
    targets: List[Tuple[int, int]] = []
    for i in range(n):
        code = int(mc[i])
        if code:
            dq, dr = _DIRECTIONS[code - 1].value
            mover_idx.append(i)
            targets.append((positions[i][0] + dq, positions[i][1] + dr))
    m = len(mover_idx)
    slot_of = {i: a for a, i in enumerate(mover_idx)}
    index_of_pos = {pos: i for i, pos in enumerate(positions)}
    onto_stayer = 0
    onto = [0] * m
    swap = [0] * m
    same = [0] * m
    for a in range(m):
        target = targets[a]
        occupant = index_of_pos.get(target)
        if occupant is not None:
            b = slot_of.get(occupant)
            if b is None:
                onto_stayer |= 1 << a
            else:
                onto[a] |= 1 << b
                if targets[b] == positions[mover_idx[a]]:
                    swap[a] |= 1 << b
        for b in range(m):
            if b != a and targets[b] == target:
                same[a] |= 1 << b
    robot_bit = [1 << i for i in mover_idx]
    full = (1 << m) - 1
    targets_seen: Dict[int, int] = {}
    for s in subset_masks(m):
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
            nodes_list = list(positions)
            rem = s
            while rem:
                low = rem & -rem
                a = low.bit_length() - 1
                rem ^= low
                nodes_list[mover_idx[a]] = targets[a]
            nodes = frozenset(nodes_list)
            if not _is_connected_nodes(nodes):
                destination = DISCONNECT_SINK
            else:
                destination = pack_nodes(nodes)
        if destination not in targets_seen:
            subset_bits = 0
            rem = s
            while rem:
                low = rem & -rem
                subset_bits |= robot_bit[low.bit_length() - 1]
                rem ^= low
            targets_seen[destination] = subset_bits
    return tuple((bits, destination) for destination, bits in targets_seen.items()), None


#: An edge of a dict graph: ``(mover_bits, destination)``, the destination a
#: packed configuration or a sink code.
Edge = Tuple[int, int]


@dataclass
class DictGraph:
    """A transition graph as packed-integer dicts: the form the oracles walk.

    ``edges`` holds every expanded mover's edges and ``terminal`` every
    quiescent vertex's kind, both in vertex-id (discovery) order;
    ``unexplored`` lists the vertices a node budget left unexpanded, in that
    order too.
    """

    algorithm_name: str
    mode: str
    edges: Dict[int, Tuple[Edge, ...]]
    terminal: Dict[int, str]
    roots: Tuple[int, ...]
    unexplored: Tuple[int, ...] = ()

    def successors(self, packed: int) -> Tuple[Edge, ...]:
        """Outgoing edges of a vertex (empty for terminal/unexplored vertices)."""
        return self.edges.get(packed, ())

    def nodes(self) -> List[int]:
        """Every discovered vertex: movers, terminals, then unexplored."""
        return [*self.edges, *self.terminal, *self.unexplored]

    @property
    def truncated(self) -> bool:
        return bool(self.unexplored)

    @property
    def num_nodes(self) -> int:
        return len(self.edges) + len(self.terminal) + len(self.unexplored)

    @property
    def num_edges(self) -> int:
        return sum(len(out) for out in self.edges.values())


def dict_graph(graph) -> DictGraph:
    """The packed-integer dict views of a :class:`TransitionGraph`'s arrays
    (a :class:`DictGraph` passes through)."""
    if isinstance(graph, DictGraph):
        return graph
    arrays = graph.arrays
    packed = graph.vertex_packed()
    destinations = [d if d < 0 else packed[d] for d in arrays.dst.tolist()]
    pairs = list(zip(arrays.bits.tolist(), destinations))
    bounds = arrays.indptr.tolist()
    edges: Dict[int, Tuple[Edge, ...]] = {}
    terminal: Dict[int, str] = {}
    unexplored: List[int] = []
    for vertex, state in enumerate(arrays.state.tolist()):
        if state == STATE_EDGES:
            edges[packed[vertex]] = tuple(pairs[bounds[vertex] : bounds[vertex + 1]])
        elif state == STATE_GATHERED:
            terminal[packed[vertex]] = TERMINAL_GATHERED
        elif state == STATE_DEADLOCK:
            terminal[packed[vertex]] = TERMINAL_DEADLOCK
        elif state == STATE_UNEXPLORED:
            unexplored.append(packed[vertex])
    return DictGraph(
        graph.algorithm_name, graph.mode, edges, terminal, graph.roots, tuple(unexplored)
    )


def graph_from_dicts(
    algorithm_name: str,
    mode: str,
    edges: Dict[int, Tuple[Edge, ...]],
    terminal: Dict[int, str],
    roots: Sequence[int],
    unexplored: Iterable[int] = (),
) -> TransitionGraph:
    """A :class:`TransitionGraph` over hand-made packed-integer dicts.

    Vertex ids go to the names in order: ``edges``, ``terminal``,
    ``unexplored``, ``roots``, then the other edge destinations, which are
    named but are not vertices (``STATE_ABSENT``).
    """
    unexplored = tuple(unexplored)
    index: Dict[int, int] = {}
    for packed in chain(edges, terminal, unexplored, roots):
        index.setdefault(packed, len(index))
    for out in edges.values():
        for _, destination in out:
            if destination >= 0:
                index.setdefault(destination, len(index))
    state = np.full(len(index), STATE_ABSENT, dtype=np.int8)
    state[[index[p] for p in edges]] = STATE_EDGES
    for packed, kind in terminal.items():
        state[index[packed]] = STATE_GATHERED if kind == TERMINAL_GATHERED else STATE_DEADLOCK
    state[[index[p] for p in unexplored]] = STATE_UNEXPLORED
    out = [edges.get(packed, ()) for packed in index]
    pairs = np.array(
        [(b, index[d] if d >= 0 else d) for vertex_edges in out for b, d in vertex_edges],
        dtype=np.int64,
    ).reshape(-1, 2)
    arrays = GraphArrays(
        state=state,
        indptr=np.cumsum([0] + [len(vertex_edges) for vertex_edges in out], dtype=np.int64),
        bits=pairs[:, 0],
        dst=pairs[:, 1],
        roots=np.array([index[p] for p in roots], dtype=np.int64),
    )
    names = list(index)

    def packed_of(vids=None) -> List[int]:
        return list(names) if vids is None else [names[v] for v in np.asarray(vids).tolist()]

    return TransitionGraph(algorithm_name, mode, arrays, packed_of)


def assert_same_graph(got: TransitionGraph, want: TransitionGraph) -> None:
    """Two graphs are one: equal CSR arrays, field by field (so one vertex
    numbering), and equal packed names for every vertex id."""
    for name, got_array, want_array in zip(GraphArrays._fields, got.arrays, want.arrays):
        assert np.array_equal(got_array, want_array), name
    assert got.vertex_packed() == want.vertex_packed()


def reference_exploration(
    roots: Iterable, algorithm, mode: str, max_nodes: Optional[int] = None
) -> DictGraph:
    """Breadth-first exploration over packed integers, one vertex at a time.

    Roots are packed and deduplicated in first-seen order; every level is
    the whole queue (cut at ``max_nodes`` expanded vertices), and each
    vertex's successors join the queue in edge order.
    """
    packed_roots: List[int] = []
    for item in roots:
        packed = pack_nodes(item.nodes if isinstance(item, Configuration) else item)
        if packed not in packed_roots:
            packed_roots.append(packed)
    edges: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    terminal: Dict[int, str] = {}
    seen = set(packed_roots)
    frontier = list(packed_roots)
    expanded = 0
    budget = max_nodes if max_nodes is not None else float("inf")
    while frontier and expanded < budget:
        take = int(min(len(frontier), budget - expanded))
        batch, frontier = frontier[:take], frontier[take:]
        expanded += len(batch)
        for packed in batch:
            out, kind = expand_packed(packed, algorithm, mode)
            if kind is not None:
                terminal[packed] = kind
                continue
            edges[packed] = out
            for _, destination in out:
                if destination >= 0 and destination not in seen:
                    seen.add(destination)
                    frontier.append(destination)
    return DictGraph(
        algorithm_name=algorithm.name,
        mode=mode,
        edges=edges,
        terminal=terminal,
        roots=tuple(packed_roots),
        unexplored=tuple(frontier),
    )


#: Severity order of :func:`reference_classify` (collision first).
_FAILURE_PRIORITY = ("collision", "disconnected", "deadlock", "livelock", "unknown")


@dataclass
class ReferenceClassification:
    """What :func:`reference_classify` computes, named by packed vertex."""

    node_class: Dict[int, str] = field(default_factory=dict)
    can_reach: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    can_gather: FrozenSet[int] = frozenset()
    cyclic_nodes: FrozenSet[int] = frozenset()


def _backward_closure(
    sources: Iterable[int], reverse: Dict[int, List[int]]
) -> FrozenSet[int]:
    """All vertices from which some vertex of ``sources`` is reachable."""
    seen: Set[int] = set(sources)
    frontier: List[int] = list(seen)
    while frontier:
        vertex = frontier.pop()
        for predecessor in reverse.get(vertex, ()):
            if predecessor not in seen:
                seen.add(predecessor)
                frontier.append(predecessor)
    return frozenset(seen)


def reference_classify(graph) -> ReferenceClassification:
    """Classify every vertex over the graph's dict views.

    One reverse-adjacency build, one set-based backward closure per failure
    kind, and Tarjan over every vertex with edges for the cycles (an SCC is
    cyclic when it has two vertices or a self-loop); livelock is the
    backward closure of the cyclic vertices.
    """
    graph = dict_graph(graph)
    unexplored = set(graph.unexplored)
    reverse: Dict[int, List[int]] = {}
    forward: Dict[int, Tuple[int, ...]] = {}
    collision_sources: List[int] = []
    disconnect_sources: List[int] = []
    for source, edges in graph.edges.items():
        real_targets: List[int] = []
        for _, destination in edges:
            if destination == COLLISION_SINK:
                collision_sources.append(source)
            elif destination == DISCONNECT_SINK:
                disconnect_sources.append(source)
            else:
                real_targets.append(destination)
                reverse.setdefault(destination, []).append(source)
        forward[source] = tuple(real_targets)

    terminal_gathered = [p for p, kind in graph.terminal.items() if kind == TERMINAL_GATHERED]
    terminal_deadlock = [p for p, kind in graph.terminal.items() if kind == TERMINAL_DEADLOCK]

    cyclic: Set[int] = set()
    for component in strongly_connected_components(graph.edges.keys(), forward):
        if len(component) > 1:
            cyclic.update(component)
        elif component[0] in forward.get(component[0], ()):
            cyclic.add(component[0])

    can_reach = {
        "collision": _backward_closure(collision_sources, reverse),
        "disconnected": _backward_closure(disconnect_sources, reverse),
        "deadlock": _backward_closure(terminal_deadlock, reverse),
        "livelock": _backward_closure(cyclic, reverse),
        "unknown": _backward_closure(graph.unexplored, reverse),
    }
    result = ReferenceClassification(
        can_reach=can_reach,
        can_gather=_backward_closure(terminal_gathered, reverse),
        cyclic_nodes=frozenset(cyclic),
    )
    for packed in graph.nodes():
        kind = graph.terminal.get(packed)
        if kind == TERMINAL_GATHERED:
            cls = "gathered"
        elif kind == TERMINAL_DEADLOCK:
            cls = "deadlock"
        elif packed in unexplored:
            cls = "unknown"
        else:
            for candidate in _FAILURE_PRIORITY:
                if packed in can_reach[candidate]:
                    cls = candidate
                    break
            else:
                cls = "safe"
        result.node_class[packed] = cls
    return result


def reference_counterexamples_by_mass(graph, include_failures: bool = False) -> List[int]:
    """Counterexample vertices of an FSYNC graph, heaviest first, over its
    dict views: a walk from every root along the one edge per vertex,
    memoized per vertex, the oracle of
    :func:`repro.core.table_kernel.counterexamples_by_mass`.

    A counterexample is a terminal deadlock vertex or — with
    ``include_failures`` — the vertex whose edge enters a sink or closes a
    cycle; its mass is the number of roots whose path settles in it.
    """
    graph = dict_graph(graph)
    settles_in: Dict[int, Optional[int]] = {}

    def settle(vertex: int) -> Optional[int]:
        path: List[int] = []
        current = vertex
        while True:
            if current in settles_in:
                result = settles_in[current]
                break
            kind = graph.terminal.get(current)
            if kind is not None:
                result = current if kind == TERMINAL_DEADLOCK else None
                break
            path.append(current)
            successors = [dst for _, dst in graph.successors(current) if dst >= 0]
            if not successors:
                result = current if include_failures else None  # sink edge
                break
            if current in successors:
                result = current if include_failures else None  # self-loop
                break
            current = successors[0]
            if current in path:
                result = current if include_failures else None  # cycle (livelock)
                break
        for vertex_on_path in path:
            settles_in[vertex_on_path] = result
        return result

    mass: Dict[int, int] = {}
    for root in graph.roots:
        counterexample = settle(root)
        if counterexample is not None:
            mass[counterexample] = mass.get(counterexample, 0) + 1
    for packed, kind in graph.terminal.items():
        if kind == TERMINAL_DEADLOCK:
            mass.setdefault(packed, 0)
    return sorted(mass, key=lambda packed: (-mass[packed], packed))


def won_roots(report) -> FrozenSet[int]:
    """The packed roots an exploration classifies gathered or safe: the set
    the CEGIS gate's won masks encode."""
    roots = report.graph.arrays.roots
    classes = report.classification.classes[roots]
    won = (classes == CLASSES.index("gathered")) | (classes == CLASSES.index("safe"))
    return frozenset(report.graph.packed_of_vertices(roots[won]))


def _bfs_parents(
    graph: DictGraph,
) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
    """Multi-source BFS from the roots over real (non-sink) edges: a queue
    over packed integers.  ``parent[v] = (predecessor, bits)``."""
    distance: Dict[int, int] = {root: 0 for root in graph.roots}
    parent: Dict[int, Tuple[int, int]] = {}
    frontier: List[int] = list(graph.roots)
    while frontier:
        next_frontier: List[int] = []
        for vertex in frontier:
            for bits, destination in graph.successors(vertex):
                if destination >= 0 and destination not in distance:
                    distance[destination] = distance[vertex] + 1
                    parent[destination] = (vertex, bits)
                    next_frontier.append(destination)
        frontier = next_frontier
    return distance, parent


def _edge_path(parent: Dict[int, Tuple[int, int]], target: int) -> List[Tuple[int, int]]:
    """The edge path root → target: a list of ``(source, bits)``."""
    path: List[Tuple[int, int]] = []
    vertex = target
    while vertex in parent:
        predecessor, bits = parent[vertex]
        path.append((predecessor, bits))
        vertex = predecessor
    path.reverse()
    return path


def _nearest(candidates: Iterable[int], distance: Dict[int, int]) -> Optional[int]:
    """The candidate closest to the roots (ties broken by packed value)."""
    best: Optional[int] = None
    for packed in candidates:
        if packed not in distance:
            continue
        if best is None or (distance[packed], packed) < (distance[best], best):
            best = packed
    return best


def _find_cycle(
    graph: DictGraph, start: int, allowed: FrozenSet[int]
) -> List[Tuple[int, int]]:
    """A shortest cycle of real edges from ``start`` back to itself, inside
    ``allowed``."""
    parent: Dict[int, Tuple[int, int]] = {}
    seen: Set[int] = {start}
    frontier: List[int] = [start]
    while frontier:
        next_frontier: List[int] = []
        for vertex in frontier:
            for bits, destination in graph.successors(vertex):
                if destination < 0:
                    continue
                if destination == start:
                    path = _edge_path(parent, vertex)
                    path.append((vertex, bits))
                    return path
                if destination in allowed and destination not in seen:
                    seen.add(destination)
                    parent[destination] = (vertex, bits)
                    next_frontier.append(destination)
        frontier = next_frontier
    raise ValueError(f"no cycle through vertex {start} (not a cyclic vertex?)")


def reference_witnesses(graph, classification, algorithm) -> Dict[str, Witness]:
    """One minimal witness per failing class, searched over the dict views:
    the oracle of the CSR search of :func:`repro.explore.witness.find_witnesses`.

    A queue BFS over packed integers gives distances and parents; each class
    ends at its candidate nearest to the roots (ties to the smallest packed
    value), and a livelock appends a shortest cycle back.  The traces are
    replayed by the same engine step as the fast path.
    """
    graph = dict_graph(graph)
    distance, parent = _bfs_parents(graph)
    witnesses: Dict[str, Witness] = {}

    def materialize(path, target, kind, extra=(), cycle_start=None) -> Witness:
        root = path[0][0] if path else target
        rounds = [bits for _, bits in path] + list(extra)
        return _materialize(rounds, root, kind, algorithm, graph.mode, cycle_start)

    target = _nearest(
        (p for p, kind in graph.terminal.items() if kind == TERMINAL_DEADLOCK), distance
    )
    if target is not None:
        witnesses["deadlock"] = materialize(_edge_path(parent, target), target, "deadlock")

    for kind, sink in (("collision", COLLISION_SINK), ("disconnected", DISCONNECT_SINK)):
        sources = {
            source: min(bits for bits, dst in edges if dst == sink)
            for source, edges in graph.edges.items()
            if any(dst == sink for _, dst in edges)
        }
        target = _nearest(sources, distance)
        if target is not None:
            witnesses[kind] = materialize(
                _edge_path(parent, target), target, kind, (sources[target],)
            )

    cyclic = classification.cyclic_nodes
    target = _nearest(cyclic, distance)
    if target is not None:
        path = _edge_path(parent, target)
        cycle = _find_cycle(graph, target, cyclic)
        witnesses["livelock"] = materialize(
            path + cycle, target, "livelock", cycle_start=len(path)
        )
    return witnesses
