"""Candidate generation and chain repair search for the CEGIS loop.

The explorer census is the seed: every terminal deadlock vertex of the
transition graph is a concrete counterexample where *every* robot's rule says
stay.  For each such configuration the finite set of DSL rules that could
unstick it is enumerable — one candidate per (robot view, empty adjacent
node) pair that passes the local safety guards — and because a deterministic
algorithm is exactly a function ``view bitmask -> move``, a candidate can be
expressed as an exact-view :class:`~repro.synth.dsl.GuardRule` that provably
affects no other view.

A single rule is rarely enough: the rescued configuration usually walks into
another deadlock a few rounds later.  :func:`repair_chain` therefore searches
*chains* of assignments — a depth-first search over quiescent configurations
that picks one new ``view -> move`` assignment per stuck point, simulates
forward with the engine until the next quiescence (or failure), and
backtracks on collisions, disconnections and cycles.  The candidate ordering
is the priority part of the search: moves that approach the centroid of the
configuration (the paper's compaction strategy, generalized) are tried first.

With ``allow_amend=True`` the search additionally proposes candidates at
**moving** (non-quiescent) configurations: when the forward replay hits a
mid-move failure — a disconnection, collision or cycle — the configuration
*one round before* the failure is the counterexample, and the candidates are
**amendments** that replace a mover's printed move (with a forced stay or a
different safe direction) or add a move for a robot the printed rules leave
idle.  Amendments forfeit the additive layer's preserves-by-construction
guarantee, which is why the CEGIS loop guards their commits with the
won-root regression gate.
"""
from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..algorithms.guards import connectivity_safe
from ..core.algorithm import GatheringAlgorithm
from ..core.configuration import Configuration
from ..core.engine import (
    _is_connected_nodes,
    apply_moves_nodes,
    detect_collision_nodes,
    move_intents,
)
from ..core.view import View
from ..obs import metrics as _obs
from ..grid.coords import Coord
from ..grid.directions import Direction
from ..grid.packing import pack_nodes, packed_count, unpack_nodes, view_bitmask
from .ruleset import OverrideAlgorithm

__all__ = [
    "Assignment",
    "Amendment",
    "blocked_name",
    "chain_signature",
    "candidate_moves",
    "amend_candidates",
    "simulate_to_quiescence",
    "simulate_outcome",
    "repair_chain",
    "propose_chain_list",
    "SIMULATE_MAX_ROUNDS",
]

#: One synthesized additive decision: ``view bitmask -> direction``.
Assignment = Dict[int, Direction]

#: Amending decisions: ``view bitmask -> direction or None`` (forced stay).
Amendment = Dict[int, Optional[Direction]]

#: Pairs the verifier has refuted; the search must not propose them again.
BlockedPairs = Set[Tuple[int, str]]

#: :func:`candidate_moves` lists by stuck configuration (packed integer).
CandidateLists = Dict[int, List[Tuple[int, Direction]]]

#: Whole chains the verifier has refuted (as frozen decision signatures); the
#: search must derive a *different* chain rather than re-propose one of these.
RefutedChains = Set[FrozenSet[Tuple[int, str]]]


def chain_signature(chain: Amendment) -> FrozenSet[Tuple[int, str]]:
    """The canonical refutation signature of a repair chain."""
    return frozenset(
        (bitmask, blocked_name(direction)) for bitmask, direction in chain.items()
    )

#: Round budget for the targeted forward replay between two quiescent points.
SIMULATE_MAX_ROUNDS = 300


def blocked_name(direction: Optional[Direction]) -> str:
    """The blocked-pair name of a candidate move (``"STAY"`` for ``None``)."""
    return direction.name if direction is not None else "STAY"


def _centroid_gain(
    positions: Sequence[Tuple[int, int]], pos: Tuple[int, int], direction: Direction
) -> int:
    """Hex-distance change to the configuration centroid if ``pos`` moves.

    Negative values approach the centroid; the candidate ordering prefers
    them (compaction first).  Count-scaled integer arithmetic keeps the
    ordering exact and platform-independent.
    """
    count = len(positions)
    sq = sum(p[0] for p in positions)
    sr = sum(p[1] for p in positions)

    def hex_norm(q: int, r: int) -> int:
        return max(abs(q), abs(r), abs(q + r))

    tq, tr = pos[0] + direction.value[0], pos[1] + direction.value[1]
    return hex_norm(count * tq - sq, count * tr - sr) - hex_norm(
        count * pos[0] - sq, count * pos[1] - sr
    )


def candidate_moves(
    positions: Sequence[Tuple[int, int]],
    blocked: Optional[BlockedPairs] = None,
    visibility_range: int = 2,
) -> List[Tuple[int, Direction]]:
    """The finite candidate set that could unstick a quiescent configuration.

    One ``(view bitmask, direction)`` pair per robot and empty adjacent node,
    filtered by the local safety guards (the move target must be empty and
    :func:`~repro.algorithms.guards.connectivity_safe` must hold) and by the
    verifier's ``blocked`` refutations.  Ordered by the centroid-approach
    priority, ties broken deterministically.
    """
    options: List[Tuple[float, int, Direction]] = []
    for pos in positions:
        bitmask = view_bitmask(positions, pos, visibility_range)
        view = View.from_bitmask(bitmask, visibility_range)
        for direction in Direction:
            if blocked is not None and (bitmask, direction.name) in blocked:
                continue
            if view.occupied(direction.value):
                continue
            if not connectivity_safe(view, direction):
                continue
            options.append((_centroid_gain(positions, pos, direction), bitmask, direction))
    options.sort(key=lambda item: (item[0], item[1], item[2].name))
    return [(bitmask, direction) for _, bitmask, direction in options]


def amend_candidates(
    positions: Sequence[Tuple[int, int]],
    intents: Dict[Coord, Direction],
    blocked: Optional[BlockedPairs] = None,
    visibility_range: int = 2,
) -> List[Tuple[int, Optional[Direction]]]:
    """Candidate amendments at a *moving* (non-quiescent) configuration.

    ``intents`` are the composed algorithm's full-activation move intents at
    ``positions`` (the moves the next round would commit).  For every mover
    the candidates are a **forced stay** (``None``) plus every safe
    redirection; for every idle robot they are the additive candidates of
    :func:`candidate_moves` — the "idle-robot addition at a moving
    configuration" the quiescent-only search could never propose.  Forced
    stays rank first (they stabilize the round the failure happens in), then
    moves by centroid-approach priority; ties break deterministically.
    """
    options: List[Tuple[int, int, int, str]] = []
    for pos in positions:
        bitmask = view_bitmask(positions, pos, visibility_range)
        view = View.from_bitmask(bitmask, visibility_range)
        current = intents.get(Coord(pos[0], pos[1]))
        if current is not None and (blocked is None or (bitmask, "STAY") not in blocked):
            options.append((0, 0, bitmask, "STAY"))
        for direction in Direction:
            if direction == current:
                continue
            if blocked is not None and (bitmask, direction.name) in blocked:
                continue
            if view.occupied(direction.value):
                continue
            if not connectivity_safe(view, direction):
                continue
            options.append(
                (1, _centroid_gain(positions, pos, direction), bitmask, direction.name)
            )
    options.sort()
    return [
        (bitmask, None if name == "STAY" else Direction[name])
        for _, _, bitmask, name in options
    ]


def simulate_outcome(
    packed: int,
    algorithm: GatheringAlgorithm,
    max_rounds: int = SIMULATE_MAX_ROUNDS,
) -> Tuple[str, int, int]:
    """FSYNC-run a packed configuration until it settles or fails.

    Returns ``(status, packed', pre_failure)`` where status is
    ``"gathered"``, ``"stuck"`` (quiescent but not gathered), ``"collision"``,
    ``"disconnected"``, ``"livelock"`` (a configuration repeated) or
    ``"round-limit"``.  ``pre_failure`` is the configuration in which the
    failing round's moves were computed — the vertex an *amending* repair
    must target (for terminal statuses it equals ``packed'``).  This is the
    targeted replay the scorer uses instead of a full exhaustive sweep: it
    touches exactly the states on this counterexample's path.
    """
    replay_start = time.perf_counter()
    try:
        return _simulate_outcome(packed, algorithm, max_rounds)
    finally:
        # The replay phase of the CEGIS loop, aggregated as a histogram only
        # (thousands of targeted replays per run; JSONL spans would drown
        # the trace), matching the span naming convention.
        _obs.counter("cegis.replays").inc()
        _obs.histogram("span.cegis.replay.seconds").observe(
            time.perf_counter() - replay_start
        )


def _simulate_outcome(
    packed: int,
    algorithm: GatheringAlgorithm,
    max_rounds: int = SIMULATE_MAX_ROUNDS,
) -> Tuple[str, int, int]:
    nodes = frozenset(unpack_nodes(packed))
    current = pack_nodes(nodes)
    seen = {current}
    for _ in range(max_rounds):
        positions = sorted(nodes)
        intents = move_intents(positions, algorithm)
        if not intents:
            if Configuration(positions).is_gathered():
                return "gathered", current, current
            return "stuck", current, current
        if detect_collision_nodes(nodes, intents) is not None:
            return "collision", current, current
        nodes = apply_moves_nodes(nodes, intents)
        key = pack_nodes(nodes)
        if not _is_connected_nodes(nodes):
            return "disconnected", key, current
        if key in seen:
            return "livelock", key, current
        seen.add(key)
        current = key
    return "round-limit", current, current


def simulate_to_quiescence(
    packed: int,
    algorithm: GatheringAlgorithm,
    max_rounds: int = SIMULATE_MAX_ROUNDS,
) -> Tuple[str, int]:
    """:func:`simulate_outcome` without the pre-failure vertex (legacy API)."""
    status, settled, _ = simulate_outcome(packed, algorithm, max_rounds)
    return status, settled


def _base_table_for(base: GatheringAlgorithm, packed: int):
    """The base algorithm's successor table for targeted replay, if usable."""
    from ..core.table_kernel import successor_table, table_in_scope, view_in_scope  # late

    size = packed_count(packed)
    fits = table_in_scope(size) and view_in_scope(base.visibility_range)
    if not fits:
        return None
    return successor_table(base, size)


def repair_chain(
    packed: int,
    base: GatheringAlgorithm,
    assigned: Assignment,
    blocked: Optional[BlockedPairs] = None,
    budget: int = 600,
    max_depth: int = 30,
    branch: int = 6,
    amended: Optional[Amendment] = None,
    allow_amend: bool = False,
    amend_branch: int = 10,
    refuted: Optional[RefutedChains] = None,
    kernel: str = "packed",
    candidates: Optional[CandidateLists] = None,
) -> Tuple[Optional[Amendment], int]:
    """Search a chain of new assignments that drives ``packed`` to gathered.

    Depth-first search over counterexample configurations: at each quiescent
    stuck point the additive candidates of :func:`candidate_moves` are tried
    in priority order (at most ``branch`` per point); with ``allow_amend``,
    each mid-move failure (disconnection, collision, cycle) is expanded at
    its pre-failure configuration with at most ``amend_branch`` amendments
    from :func:`amend_candidates`.  Each choice is simulated forward with the
    composed algorithm; unrepairable failures prune the branch.  ``budget``
    bounds the number of expanded counterexample points.

    ``refuted`` is the verifier's feedback channel: chains whose signature
    the regression gate has already rejected make the DFS backtrack and
    derive an *alternative* chain instead of re-proposing the refuted one —
    the refinement half of the CEGIS triangle at chain granularity.

    ``candidates`` memoizes :func:`candidate_moves` by stuck configuration;
    it is valid for one ``blocked`` set and visibility range, so callers
    searching several terminals against the same refutations share it
    (:func:`propose_chain_list` does).

    Returns ``(chain, expansions)`` — the extra decisions on success (may be
    empty if the configuration already gathers; values are ``None`` for
    forced stays), ``None`` if the budget, depth or candidate space is
    exhausted.  Chain entries at views where the base algorithm moves (or
    forcing a stay anywhere) are amendments; the CEGIS loop splits them into
    layers with :func:`repro.synth.cegis.split_decisions`.

    With ``kernel="table"`` the forward replay runs on the successor table
    (:mod:`repro.core.table_kernel`), and the replay is a pointer walk over
    the derived functional graph — byte-identical statuses and vertices, no
    per-round Look–Compute.  The committed composition's table is derived
    from the base algorithm's once per call; every DFS child is then derived
    from its parent's table by its one new decision, so only the rows that
    decision touches are re-resolved.
    """
    committed_amend = amended or {}
    if candidates is None:
        candidates = {}
    failed: Set[int] = set()
    expansions = 0
    base_table = _base_table_for(base, packed) if kernel == "table" else None
    root_table = (
        None if base_table is None else base_table.derive(assigned, committed_amend)
    )

    def composed(extra: Amendment) -> OverrideAlgorithm:
        return OverrideAlgorithm(base, assigned, amendments={**committed_amend, **extra})

    def dfs(
        current: int,
        extra: Amendment,
        depth: int,
        path: FrozenSet[int],
        parent_table,
        decision: Optional[Tuple[int, Optional[Direction]]],
    ) -> Optional[Amendment]:
        nonlocal expansions
        if expansions >= budget or depth > max_depth:
            return None
        table = parent_table
        if table is not None and decision is not None:
            table = table.derive({}, dict([decision]))
        row = None if table is None else table.view.packed_index.get(current)
        if row is not None:
            status, settled, pre_failure = table.walk_outcome(row, SIMULATE_MAX_ROUNDS)
        else:
            status, settled, pre_failure = simulate_outcome(current, composed(extra))
        if status == "gathered":
            if refuted and extra and chain_signature(extra) in refuted:
                return None  # the verifier rejected this exact chain: backtrack
            return extra
        if status == "stuck":
            if settled in path or settled in failed:
                return None
            expansions += 1
            options = candidates.get(settled)
            if options is None:
                options = candidates[settled] = candidate_moves(
                    unpack_nodes(settled), blocked, base.visibility_range
                )
            for bitmask, direction in options[:branch]:
                if bitmask in assigned or bitmask in committed_amend or bitmask in extra:
                    continue
                found = dfs(
                    settled,
                    {**extra, bitmask: direction},
                    depth + 1,
                    path | {settled},
                    table,
                    (bitmask, direction),
                )
                if found is not None:
                    return found
            failed.add(settled)
            return None
        if allow_amend and status in ("disconnected", "collision", "livelock"):
            if pre_failure in path or pre_failure in failed:
                return None
            expansions += 1
            positions = unpack_nodes(pre_failure)
            intents = move_intents(positions, composed(extra))
            options = amend_candidates(positions, intents, blocked, base.visibility_range)
            for bitmask, direction in options[:amend_branch]:
                # Unlike the additive branch, an amendment may re-target a view
                # that already carries a committed *additive* rule (the
                # amendment layer shadows it); only views with a committed or
                # in-chain amendment are off limits.
                if bitmask in committed_amend or bitmask in extra:
                    continue
                found = dfs(
                    pre_failure,
                    {**extra, bitmask: direction},
                    depth + 1,
                    path | {pre_failure},
                    table,
                    (bitmask, direction),
                )
                if found is not None:
                    return found
            failed.add(pre_failure)
            return None
        return None

    return dfs(packed, {}, 0, frozenset(), root_table, None), expansions


def propose_chain_list(
    terminals: Sequence[int],
    base: GatheringAlgorithm,
    assigned: Assignment,
    blocked: Optional[BlockedPairs] = None,
    budget: int = 600,
    max_depth: int = 30,
    branch: int = 6,
    amended: Optional[Amendment] = None,
    allow_amend: bool = False,
    amend_branch: int = 10,
    refuted: Optional[RefutedChains] = None,
    kernel: str = "packed",
) -> Tuple[List[Tuple[int, Amendment]], int]:
    """Per-counterexample repair chains, unmerged, searched in this process.

    Every chain is derived independently against the committed state only
    and returned as ``(terminal, chain)`` pairs in input order, so the caller
    can trial-commit each chain as one atomic unit — a chain's decisions were
    validated *together* by the targeted replay, and splitting them apart
    refutes parts that are only wrong in isolation.  Returns
    ``(chains, expansions)``; ``expansions`` counts every expanded point of
    every search.

    The searches share one :func:`candidate_moves` list per stuck
    configuration: ``blocked``, the base and its visibility range are fixed
    for the call, so a configuration two terminals' searches reach gets the
    same candidates either way.
    """
    chains: List[Tuple[int, Amendment]] = []
    candidates: CandidateLists = {}
    total_expansions = 0
    for packed in terminals:
        chain, expansions = repair_chain(
            packed,
            base,
            assigned,
            blocked,
            budget=budget,
            max_depth=max_depth,
            branch=branch,
            amended=amended,
            allow_amend=allow_amend,
            amend_branch=amend_branch,
            refuted=refuted,
            kernel=kernel,
            candidates=candidates,
        )
        total_expansions += expansions
        if chain:
            chains.append((packed, dict(chain)))
    return chains, total_expansions
