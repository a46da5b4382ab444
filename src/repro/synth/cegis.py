"""The counterexample-guided inductive synthesis (CEGIS) loop.

One iteration of :func:`synthesize` is the classic CEGIS triangle applied to
the Theorem 2 correctness gap:

1. **Verify** — exhaustively model-check the current composed rule set with
   the transition-graph explorer (:mod:`repro.explore`).  The analyzer
   verdicts are the fitness signal: the number of roots classified gathered
   or safe, and the counterexamples are the terminal deadlock vertices plus —
   in amending mode — the pre-failure vertices whose printed moves walk into
   a collision or disconnection sink.
2. **Synthesize** — run the chain-repair search (:mod:`repro.synth.search`)
   from every counterexample, scoring candidates with fast targeted replay of
   the counterexample's own path before paying for any full sweep.  With
   ``allow_amend=True`` the search may propose **amendments**: override
   decisions that replace a printed move (or force a stay) at an exact view.
3. **Refine** — trial-commit each chain *atomically* (its decisions were
   validated together by the targeted replay; splitting a chain refutes
   decisions that are only wrong in isolation) against a fresh exhaustive
   exploration, guarded by the **won-root regression gate**: a chain is only
   committed when no collision/livelock class appears, the deadlock class
   does not grow, coverage strictly grows, *and* every root previously
   classified gathered or safe is still won — re-checked under adversarial
   SSYNC edges too, so a committed rule can never trade an already-won root
   for a new one under any activation schedule.  A rejected single-decision
   chain is *blocked* (a true refutation of that decision); a rejected
   multi-decision chain is recorded as a refuted chain signature, which the
   next proposal round feeds back into the DFS so it derives a different
   chain instead of re-proposing the same one.

After the FSYNC loop reaches a fixpoint the surviving rule set is re-verified
under adversarial SSYNC edges.  Any rule that fires in an SSYNC collision or
livelock witness is blamed, removed and blocked, and the FSYNC loop resumes —
so a returned result with ``validated=True`` is exhaustively collision- and
livelock-free under *every* activation schedule, not just FSYNC.

On the table kernel no step of the gate builds a transition graph.  A
trial's FSYNC verdict is read off its derived table's functional graph
(:meth:`~repro.core.table_kernel.SuccessorTable.fsync_verdict`), and its
SSYNC verdict is a breadth-first search over the same table's rows,
classified in row space
(:meth:`~repro.core.table_kernel.SuccessorTable.ssync_verdict`); won-root
sets are row masks.  A final validation reads the row verdict first and
explores with witnesses only when it finds a collision or a livelock, since
only a witness can name the rule to blame.

Long searches checkpoint their full state (assignments, amendments, blocked
pairs, iteration history) as JSON after every iteration and can resume from
it; the checkpoint schema is versioned (see
:mod:`repro.io.serialization`), and checkpoints written by a pre-amending
DSL fail to load with a clear schema error instead of a ``KeyError``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.algorithm import GatheringAlgorithm
from ..core.configuration import Configuration
from ..core.runner import ConfigurationLike
from ..core.view import View
from ..explore.analyzer import CLASSES
from ..explore.report import explore
from ..explore.transitions import TERMINAL_DEADLOCK, TransitionGraph
from ..grid.packing import view_bitmask
from ..obs import get_logger
from ..obs import metrics as _obs
from ..obs import span as _span
from .dsl import RuleSet

if TYPE_CHECKING:
    import numpy as np

_LOG = get_logger("synth.cegis")
from .ruleset import OverrideAlgorithm, overrides_to_ruleset, ruleset_algorithm, ruleset_layers
from .search import (
    AmendLists,
    Amendment,
    Assignment,
    blocked_name,
    chain_signature,
    propose_chain_list,
)

__all__ = [
    "IterationRecord",
    "SynthesisResult",
    "result_algorithm",
    "split_decisions",
    "synthesize",
]

Progress = Callable[[str], None]

#: The roots a verdict wins: a row mask on the table path, packed roots on
#: the packed one (see :func:`_won_roots`).
WonRoots = Union[FrozenSet[int], "np.ndarray"]


@dataclass(frozen=True)
class IterationRecord:
    """What one CEGIS iteration saw and did."""

    #: Iteration index (0-based).
    index: int
    #: Number of counterexamples at the start (deadlock terminals, plus
    #: pre-failure vertices in amending mode).
    counterexamples: int
    #: Decisions the chain search proposed.
    proposed: int
    #: Decisions that survived trial-commit.
    committed: int
    #: Stuck points the chain search expanded (candidates evaluated).
    expansions: int
    #: Exhaustive explorations spent on trial-commits this iteration.
    explores: int
    #: Root census after the iteration.
    census: Tuple[Tuple[str, int], ...]
    #: Wall-clock seconds for the iteration.
    seconds: float


@dataclass
class SynthesisResult:
    """Everything one synthesis run produced."""

    #: Name of the base algorithm the repair extends.
    base_name: str
    #: The synthesized exact-view rule set (may be empty if nothing committed).
    ruleset: RuleSet
    #: Root census of the base algorithm (FSYNC).
    base_census: Dict[str, int] = field(default_factory=dict)
    #: Root census of the composed algorithm (FSYNC).
    final_census: Dict[str, int] = field(default_factory=dict)
    #: Root census of the composed algorithm under adversarial SSYNC edges
    #: (``None`` when SSYNC validation was skipped).
    ssync_census: Optional[Dict[str, int]] = None
    #: Per-iteration history.
    iterations: List[IterationRecord] = field(default_factory=list)
    #: Refuted ``(bitmask, direction name)`` pairs (``"STAY"`` for forced stays).
    blocked: Set[Tuple[int, str]] = field(default_factory=set)
    #: Total stuck points expanded by the chain search.
    candidates_evaluated: int = 0
    #: Total exhaustive explorations spent (verification cost).
    explores: int = 0
    #: Wall-clock seconds for the whole run.
    elapsed_seconds: float = 0.0
    #: Whether SSYNC validation ran and ended collision- and livelock-free.
    validated: Optional[bool] = None

    # ------------------------------------------------------------- aggregates
    @staticmethod
    def _ok(census: Dict[str, int]) -> int:
        return census.get("gathered", 0) + census.get("safe", 0)

    @property
    def base_ok(self) -> int:
        """Roots the base algorithm gathers (gathered + provably safe)."""
        return self._ok(self.base_census)

    @property
    def final_ok(self) -> int:
        """Roots the composed algorithm gathers (gathered + provably safe)."""
        return self._ok(self.final_census)

    @property
    def improved(self) -> bool:
        """Whether the repair strictly increased coverage."""
        return self.final_ok > self.base_ok

    @property
    def extend_rules(self) -> int:
        """Number of additive (extension-mode) rules in the result."""
        return len(self.ruleset.extend_rules)

    @property
    def override_rules(self) -> int:
        """Number of amending (override-mode) rules in the result."""
        return len(self.ruleset.override_rules)

    def candidates_per_second(self) -> float:
        """Chain-search stuck points expanded per wall-clock second."""
        return (
            self.candidates_evaluated / self.elapsed_seconds
            if self.elapsed_seconds
            else 0.0
        )

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by the CLI, checkpoints and benchmarks."""
        return {
            "base": self.base_name,
            "rules": len(self.ruleset),
            "extend_rules": self.extend_rules,
            "override_rules": self.override_rules,
            "base_census": dict(self.base_census),
            "final_census": dict(self.final_census),
            "ssync_census": None if self.ssync_census is None else dict(self.ssync_census),
            "base_ok": self.base_ok,
            "final_ok": self.final_ok,
            "improved": self.improved,
            "validated": self.validated,
            "iterations": len(self.iterations),
            "candidates_evaluated": self.candidates_evaluated,
            "explores": self.explores,
            "blocked": len(self.blocked),
            "candidates_per_second": round(self.candidates_per_second(), 1),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------

def _ok(census: Dict[str, int]) -> int:
    return census.get("gathered", 0) + census.get("safe", 0)


def _bad(census: Dict[str, int]) -> int:
    return census.get("collision", 0) + census.get("livelock", 0)


def _won_roots(report) -> WonRoots:
    """The roots the explored composition wins (classified gathered or safe).

    A table verdict (:class:`~repro.core.table_kernel.TableFsyncVerdict` or
    :class:`~repro.core.table_kernel.TableSsyncVerdict`) answers with a mask
    over the table's rows; a full
    :class:`~repro.explore.report.ExplorationReport` (the packed kernel) with
    a frozenset of packed roots.  One run compares only like with like:
    see :func:`_covers`.
    """
    method = getattr(report, "won_mask", None)
    if method is not None:
        return method()
    roots = report.graph.arrays.roots
    classes = report.classification.classes[roots]
    won = (classes == CLASSES.index("gathered")) | (classes == CLASSES.index("safe"))
    return frozenset(report.graph.packed_of_vertices(roots[won]))


def _covers(won, baseline) -> bool:
    """Whether ``won`` keeps every root of ``baseline`` (two :func:`_won_roots`)."""
    if isinstance(won, frozenset):
        return baseline <= won
    return not bool((baseline & ~won).any())


def _won_count(won) -> int:
    return len(won) if isinstance(won, frozenset) else int(won.sum())


def _report_counterexamples(report, include_failures: bool) -> List[int]:
    """Mass-ordered counterexamples from a report or a table verdict."""
    method = getattr(report, "counterexamples_by_mass", None)
    if method is not None:
        return method(include_failures)
    return _counterexamples_by_mass(report.graph, include_failures)


def split_decisions(
    pending: Amendment,
    base: GatheringAlgorithm,
    assigned: Optional[Assignment] = None,
) -> Tuple[Assignment, Amendment]:
    """Split proposed decisions into ``(additive, amendments)`` layers.

    A decision is an amendment when it forces a stay, when the base
    algorithm prescribes a move at that exact view (so the decision would
    replace a printed move), or when the view already carries a committed
    additive rule in ``assigned`` (the amendment layer shadows it); otherwise
    the base stays there and the decision composes additively, preserving
    every base-won execution by construction.
    """
    from ..core.engine import decision_cache_for  # late: avoids an import cycle

    cache = decision_cache_for(base)
    additive: Assignment = {}
    amendments: Amendment = {}
    for bitmask, direction in pending.items():
        if direction is None or (assigned is not None and bitmask in assigned):
            amendments[bitmask] = direction
            continue
        if cache is not None and bitmask in cache:
            base_move = cache[bitmask]
        else:
            base_move = base.compute(View.from_bitmask(bitmask, base.visibility_range))
            if cache is not None:
                cache[bitmask] = base_move
        if base_move is None:
            additive[bitmask] = direction
        else:
            amendments[bitmask] = direction
    return additive, amendments


def _trial_table(table, additive_items: Assignment, amend_items: Amendment, amended: Amendment):
    """A trial composition's successor table, derived from the accepted one's.

    ``table`` is the table of the accepted composition, whose committed
    amendments are ``amended``.  Additive items enter as overrides only for
    views without a committed amendment: a committed forced stay keeps
    shadowing an additive rule for its view, exactly as in the one-shot
    layering ``base_table.derive(assigned, amended)``.
    """
    return table.derive(
        {b: d for b, d in additive_items.items() if b not in amended}, amend_items
    )


def _counterexamples_by_mass(
    graph: TransitionGraph, include_failures: bool = False
) -> List[int]:
    """Counterexample vertices, heaviest first.

    A counterexample is a terminal deadlock vertex or — with
    ``include_failures`` (amending mode) — the vertex whose functional FSYNC
    edge enters a collision/disconnect sink or closes a cycle: the
    configuration in which the fatal moves are computed, which is exactly
    where an amendment can intervene.  Mass is the number of roots whose
    FSYNC path settles in the counterexample — repairing a heavy one rescues
    many roots at once, which is the priority part of the outer search.
    """
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
            edges = graph.successors(current)
            successors = [dst for _, dst in edges if dst >= 0]
            if not successors:
                # Sink edge (collision/disconnect): the fatal move is computed
                # here, so this vertex is the amending counterexample.
                result = current if include_failures else None
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


def _fired_assignments(
    witness,
    base: GatheringAlgorithm,
    assigned: Assignment,
    amended: Optional[Amendment] = None,
) -> Set[int]:
    """The learned bitmasks that plausibly fire along a witness trace.

    An additive rule fires when a mover's view bitmask is assigned and the
    base algorithm would have stayed; an amendment is blamed whenever its
    view occurs at all (a forced stay fires precisely by *not* moving, which
    a mover test cannot see) — conservative blame only costs coverage, which
    the resumed FSYNC loop then re-earns.
    """
    amended = amended or {}
    fired: Set[int] = set()
    for step in witness.steps:
        movers = {tuple(pos) for pos, _ in step.moves}
        for pos in step.configuration:
            bitmask = view_bitmask(step.configuration, pos, base.visibility_range)
            if bitmask in amended:
                fired.add(bitmask)
                continue
            if tuple(pos) not in movers:
                continue
            if bitmask in assigned and base.compute(
                View.from_bitmask(bitmask, base.visibility_range)
            ) is None:
                fired.add(bitmask)
    return fired


# ---------------------------------------------------------------------------
# The loop.
# ---------------------------------------------------------------------------

def synthesize(
    base: Optional[GatheringAlgorithm] = None,
    base_name: Optional[str] = None,
    roots: Optional[Sequence[ConfigurationLike]] = None,
    size: int = 7,
    max_iterations: int = 8,
    chain_budget: int = 600,
    max_depth: int = 30,
    branch: int = 6,
    workers: int = 1,
    ssync_validate: bool = True,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    ruleset_name: Optional[str] = None,
    progress: Optional[Progress] = None,
    allow_amend: bool = False,
    amend_branch: int = 10,
    amend_budget: Optional[int] = None,
    seed_ruleset: Optional[RuleSet] = None,
    kernel: str = "auto",
) -> SynthesisResult:
    """Run the CEGIS loop and return the best-found repair.

    Exactly one of ``base`` / ``base_name`` must be given.  ``roots``
    restricts the state space (default: the exhaustive enumeration of
    ``size``-robot connected configurations).  ``checkpoint_path`` persists
    the search state as JSON after every iteration; with ``resume=True`` an
    existing checkpoint seeds the assignments and blocked pairs, so
    interrupted long searches continue instead of restarting.

    ``allow_amend=True`` opens the amending repair space: the chain search
    may replace printed moves (see :mod:`repro.synth.search`) and every
    counterexample selection includes pre-failure vertices.  With
    ``ssync_validate=True`` (the default) the won-root regression gate
    replays previously-won roots under FSYNC *and* adversarial SSYNC for
    **every** trial chain — additive rules can open adversarial livelocks
    too, and gating each commit keeps the final SSYNC validation a formality
    instead of a demolition (it costs one extra exhaustive exploration per
    chain that passes the FSYNC gate).  ``amend_budget`` caps the number of
    committed override rules; ``seed_ruleset`` starts the search from an
    existing exact-view rule set (e.g. the committed additive repair)
    instead of from scratch (mutually exclusive with ``resume``).

    ``kernel`` selects the verification/replay machinery: ``"table"`` runs
    every trial evaluation on the vectorized successor table with
    delta-aware invalidation (a candidate chain touches a known set of exact
    views, so only the affected table rows are recomputed and the verdict is
    re-traversed from the dirtied configurations — no 3652-root
    re-simulation); the SSYNC half of the gate searches the same derived
    table's rows instead of building a transition graph, and witnesses are
    built only for a failing final validation.  The chain search's targeted
    replay becomes a pointer walk on derived tables.  ``"auto"`` (the
    default) picks ``"table"`` when NumPy is available and the root set fits
    the table's scope, else ``"packed"``.  All kernels produce byte-identical
    searches.

    The chain search runs in the calling process.  ``workers`` is accepted
    and ignored, as :func:`~repro.core.runner.run_many` ignores it for FSYNC
    table batches, so callers that pass it keep working.
    """
    if (base is None) == (base_name is None):
        raise ValueError("provide exactly one of base / base_name")
    if seed_ruleset is not None and resume:
        raise ValueError(
            "seed_ruleset and resume are mutually exclusive: a checkpoint "
            "replaces the whole search state, so the seed would be discarded"
        )
    if base is None:
        from ..algorithms.registry import create_algorithm  # late: avoids an import cycle

        base = create_algorithm(base_name)
    resolved_base_name = base_name or base.name

    if kernel == "auto":
        from ..core.engine import default_kernel

        kernel = default_kernel()
    if kernel not in ("packed", "table"):
        raise ValueError(f"unknown synthesis kernel {kernel!r}; available: packed, table")

    # The table fast path: resolve the root set to successor-table rows once.
    # Falls back to the packed machinery when the roots leave the table's
    # scope (oversized, disconnected) — the search is identical either way.
    base_table = None
    root_rows = None
    if kernel == "table":
        import numpy as np

        from ..core.table_kernel import successor_table, table_in_scope, view_in_scope

        views_fit = view_in_scope(base.visibility_range)
        if roots is None:
            if views_fit and table_in_scope(size):
                base_table = successor_table(base, size)
                root_rows = np.arange(base_table.view.count, dtype=np.int32)
        else:
            roots = list(roots)
            rows: List[int] = []
            seen_rows = set()
            table0 = None
            usable = bool(roots)
            for item in roots:
                nodes = item.nodes if isinstance(item, Configuration) else tuple(item)
                n = len(tuple(nodes))
                if not (views_fit and table_in_scope(n)) or (
                    table0 is not None and n != table0.view.size
                ):
                    usable = False
                    break
                if table0 is None:
                    table0 = successor_table(base, n)
                row = table0.view.row_of_nodes(nodes)
                if row is None:
                    usable = False
                    break
                if row not in seen_rows:  # explorer roots dedup likewise
                    seen_rows.add(row)
                    rows.append(row)
            if usable and table0 is not None:
                base_table = table0
                root_rows = np.array(rows, dtype=np.int32)
        if base_table is None:
            kernel = "packed"
    explore_kernel = "table" if base_table is not None else "packed"

    say = progress or (lambda message: None)
    start = time.perf_counter()

    assigned: Assignment = {}
    amended: Amendment = {}
    blocked: Set[Tuple[int, str]] = set()
    iterations: List[IterationRecord] = []
    candidates_evaluated = 0
    explores = 0
    resumed_base_census: Optional[Dict[str, int]] = None

    if seed_ruleset is not None:
        seed_add, seed_amend = ruleset_layers(seed_ruleset)
        assigned.update(seed_add)
        amended.update(seed_amend)
        say(
            f"seeded {len(seed_add)} additive + {len(seed_amend)} override "
            f"rules from {seed_ruleset.name!r}"
        )

    if resume:
        if checkpoint_path is None or not Path(checkpoint_path).exists():
            raise FileNotFoundError(
                f"cannot resume: checkpoint {checkpoint_path!r} does not exist"
            )
        from ..io.serialization import load_synthesis_checkpoint

        state = load_synthesis_checkpoint(checkpoint_path)
        if state["base"] != resolved_base_name:
            raise ValueError(
                f"checkpoint was written for base {state['base']!r}, "
                f"not {resolved_base_name!r}"
            )
        assigned = state["assigned"]
        amended = state["amended"]
        blocked = state["blocked"]
        iterations = state["iterations"]
        candidates_evaluated = state["candidates_evaluated"]
        explores = state["explores"]
        resumed_base_census = dict(state["base_census"])
        say(
            f"resumed checkpoint: {len(assigned)} rules, "
            f"{len(amended)} amendments, {len(blocked)} blocked"
        )

    def checkpoint(census: Dict[str, int], base_census: Dict[str, int]) -> None:
        if checkpoint_path is None:
            return
        from ..io.serialization import save_synthesis_checkpoint

        save_synthesis_checkpoint(
            checkpoint_path,
            base=resolved_base_name,
            assigned=assigned,
            blocked=blocked,
            iterations=iterations,
            candidates_evaluated=candidates_evaluated,
            explores=explores,
            base_census=base_census,
            census=census,
            amended=amended,
        )

    # The successor table of the accepted composition (``assigned`` and
    # ``amended`` between trials); every trial table is derived from it.
    current_table = (
        None if base_table is None else base_table.derive(assigned, amended)
    )

    # ``layers`` = ``(assigned, amended)`` explores that composition instead of
    # the live one; ``table`` is that composition's table when the caller
    # already derived it (a trial).
    def explore_current(mode: str, with_witnesses: bool = False, table=None, layers=None):
        nonlocal explores
        explores += 1
        _obs.counter("cegis.explores").inc()
        with _span("cegis.verify", mode=mode):
            additive, amendments = layers or (assigned, amended)
            if base_table is not None:
                # Graph-free evaluation on the composition's table rows: the
                # FSYNC verdict is read off its functional graph, the SSYNC
                # verdict off a row-space search of its expansions — no
                # transition graph, no packed naming.
                if table is None:
                    table = (
                        current_table
                        if layers is None
                        else base_table.derive(additive, amendments)
                    )
                if mode == "fsync":
                    return table.fsync_verdict(root_rows)
                verdict = table.ssync_verdict(root_rows)
                if not (with_witnesses and _bad(verdict.root_census)):
                    return verdict
                # A failing validation must blame a rule: only a full
                # exploration extracts the witnesses that name one.
            return explore(
                algorithm=OverrideAlgorithm(base, additive, amendments=amendments),
                roots=roots,
                size=size,
                mode=mode,
                with_witnesses=with_witnesses,
                kernel=explore_kernel,
            )

    if resumed_base_census is not None:
        # The checkpoint already paid for the base exploration.
        base_census = resumed_base_census
        report = explore_current("fsync")
    else:
        if base_table is not None:
            base_report = base_table.fsync_verdict(root_rows)
        else:
            base_report = explore(
                algorithm=base, roots=roots, size=size, mode="fsync", with_witnesses=False
            )
        explores += 1
        _obs.counter("cegis.explores").inc()
        base_census = dict(base_report.root_census)
        report = base_report if not (assigned or amended) else explore_current("fsync")
    say(f"base census: {base_census}")
    best = _ok(report.root_census)
    won_fsync = _won_roots(report)

    # The adversarial-SSYNC half of the regression gate: computed lazily on
    # the first amending trial-commit, then maintained across commits.
    ssync_won_baseline: Optional[WonRoots] = None

    # Whole-chain refutations from the regression gate, fed back into the
    # chain search so rejected chains are re-derived differently (in-memory
    # only: a resumed run cheaply re-discovers them against its checkpointed
    # composition).
    refuted_chains: Set[FrozenSet[Tuple[int, str]]] = set()
    # Amendment candidate lists before refutations, shared by every search of
    # the run (the chain search filters ``blocked`` on lookup).
    amend_lists: AmendLists = {}

    def ssync_baseline(accepted_layers) -> WonRoots:
        nonlocal ssync_won_baseline
        if ssync_won_baseline is None:
            ssync_won_baseline = _won_roots(
                explore_current("ssync", layers=accepted_layers)
            )
            say(f"ssync regression baseline: {_won_count(ssync_won_baseline)} won roots")
        return ssync_won_baseline

    def amend_capacity() -> Optional[int]:
        if not allow_amend:
            return 0
        if amend_budget is None:
            return None
        return max(0, amend_budget - len(amended))

    # ------------------------------------------------------------ FSYNC loop
    def _commit_chain(chain: Amendment) -> int:
        """Trial-commit one repair chain atomically under the regression gate.

        A chain's decisions were validated *together* by the targeted replay,
        so they are accepted or rolled back as one unit — splitting a chain
        refutes decisions that are only wrong in isolation.  Returns the
        number of committed decisions (0 on rejection); a rejected
        single-decision chain is a true refutation and is blocked.
        """
        nonlocal report, best, won_fsync, ssync_won_baseline, current_table
        additive_items, amend_items = split_decisions(chain, base, assigned)
        capacity = amend_capacity()
        if capacity is not None and len(amend_items) > capacity:
            _obs.counter("cegis.chains_over_budget").inc()
            return 0  # over the override budget; the chain is indivisible
        trial_table = (
            None
            if current_table is None
            else _trial_table(current_table, additive_items, amend_items, amended)
        )
        # The SSYNC baseline is computed lazily, after the chain is written:
        # it must explore the accepted composition, not the trial.
        accepted_layers = (dict(assigned), dict(amended))
        for bitmask, direction in additive_items.items():
            assigned[bitmask] = direction
        for bitmask, direction in amend_items.items():
            amended[bitmask] = direction
        trial = explore_current("fsync", table=trial_table)
        census = trial.root_census
        accepted = False
        deadlocks_ok = census.get("deadlock", 0) <= report.root_census.get("deadlock", 0)
        if _bad(census) == 0 and deadlocks_ok and _ok(census) > best:
            trial_won = _won_roots(trial)
            if _covers(trial_won, won_fsync):
                if ssync_validate:
                    # The SSYNC half of the gate: every chain — additive rules
                    # can open adversarial livelocks too — must keep the
                    # composition collision- and livelock-free under every
                    # activation schedule and preserve every adversarially-won
                    # root.  Gating each commit keeps the end-of-run SSYNC
                    # validation a formality instead of a demolition.
                    baseline = ssync_baseline(accepted_layers)
                    ssync_trial = explore_current("ssync", table=trial_table)
                    if _bad(ssync_trial.root_census) == 0:
                        ssync_won = _won_roots(ssync_trial)
                        if _covers(ssync_won, baseline):
                            ssync_won_baseline = ssync_won
                            accepted = True
                else:
                    accepted = True
            if accepted:
                report, best, won_fsync = trial, _ok(census), trial_won
                current_table = trial_table
                # An accepted amendment shadows (and thus retires) any
                # additive rule previously committed for the same view.
                for bitmask in amend_items:
                    assigned.pop(bitmask, None)
                _obs.counter("cegis.chains_accepted").inc()
                _obs.counter("cegis.decisions_committed").inc(
                    len(additive_items) + len(amend_items)
                )
                return len(additive_items) + len(amend_items)
        for bitmask in additive_items:
            del assigned[bitmask]
        for bitmask in amend_items:
            del amended[bitmask]
        if len(chain) == 1:
            ((bitmask, direction),) = chain.items()
            blocked.add((bitmask, blocked_name(direction)))
        # Feed the refutation back to the chain search: the next proposal for
        # this counterexample must be a different chain, not this one again.
        refuted_chains.add(chain_signature(chain))
        _obs.counter("cegis.chains_refuted").inc()
        return 0

    def run_fsync_loop() -> None:
        nonlocal report, best, candidates_evaluated, explores
        for index in range(max_iterations):
            iteration_start = time.perf_counter()
            iteration_explores_before = explores
            capacity = amend_capacity()
            amending = allow_amend and capacity != 0
            terminals = _report_counterexamples(report, include_failures=amending)
            if not terminals:
                break
            with _span("cegis.propose", counterexamples=len(terminals)):
                chains, expansions = propose_chain_list(
                    terminals,
                    base,
                    assigned,
                    blocked,
                    budget=chain_budget,
                    max_depth=max_depth,
                    branch=branch,
                    amended=amended,
                    allow_amend=amending,
                    amend_branch=amend_branch,
                    refuted=refuted_chains,
                    kernel=kernel,
                    amend_lists=amend_lists,
                )
            candidates_evaluated += expansions
            # Reconciles exactly with SynthesisResult.candidates_evaluated:
            # both accumulate the same per-iteration expansion totals.
            _obs.counter("cegis.candidates_tried").inc(expansions)
            _obs.counter("cegis.chains_proposed").inc(len(chains))
            if not chains:
                say(f"iteration {len(iterations)}: no repair chains found")
                break

            blocked_before = len(blocked)
            refuted_before = len(refuted_chains)
            committed = 0
            proposed = 0
            attempted: Set[FrozenSet[Tuple[int, str]]] = set()
            for _, chain in chains:
                # Decisions an earlier accepted chain already settled drop
                # out; a conflicting decision for a committed view drops too
                # (one decision per view).
                remaining = {
                    bitmask: direction
                    for bitmask, direction in chain.items()
                    if bitmask not in amended
                    and not (bitmask in assigned and assigned[bitmask] == direction)
                }
                if not remaining:
                    continue
                signature = frozenset(
                    (bitmask, blocked_name(direction))
                    for bitmask, direction in remaining.items()
                )
                if signature in attempted:
                    continue  # identical chain proposed for another terminal
                attempted.add(signature)
                proposed += len(remaining)
                with _span("cegis.commit", decisions=len(remaining)):
                    committed += _commit_chain(remaining)
            record = IterationRecord(
                index=len(iterations),
                counterexamples=len(terminals),
                proposed=proposed,
                committed=committed,
                expansions=expansions,
                explores=explores - iteration_explores_before,
                census=tuple(sorted(report.root_census.items())),
                seconds=round(time.perf_counter() - iteration_start, 3),
            )
            iterations.append(record)
            _LOG.info(
                "cegis iteration %d: %d counterexamples, committed %d/%d in %.3fs",
                record.index, record.counterexamples, record.committed,
                record.proposed, record.seconds,
            )
            say(
                f"iteration {record.index}: {record.counterexamples} counterexamples, "
                f"proposed {record.proposed}, committed {record.committed}, "
                f"census {dict(record.census)}"
            )
            checkpoint(dict(report.root_census), base_census)
            if (
                committed == 0
                and len(blocked) == blocked_before
                and len(refuted_chains) == refuted_before
            ):
                break

    run_fsync_loop()

    # ------------------------------------------------- SSYNC refinement loop
    validated: Optional[bool] = None
    ssync_census: Optional[Dict[str, int]] = None
    if ssync_validate:
        for _ in range(max(len(assigned) + len(amended), 1)):
            ssync_report = explore_current("ssync", with_witnesses=True)
            ssync_census = dict(ssync_report.root_census)
            if _bad(ssync_census) == 0:
                validated = True
                break
            blamed: Set[int] = set()
            for kind in ("collision", "livelock"):
                witness = ssync_report.witnesses.get(kind)
                if witness is not None:
                    blamed |= _fired_assignments(witness, base, assigned, amended)
            say(f"ssync refinement: census {ssync_census}, blaming {len(blamed)} rules")
            if not blamed:
                validated = False  # cannot attribute the failure to a rule
                break
            for bitmask in blamed:
                if bitmask in assigned:
                    blocked.add((bitmask, assigned[bitmask].name))
                    del assigned[bitmask]
                elif bitmask in amended:
                    blocked.add((bitmask, blocked_name(amended[bitmask])))
                    del amended[bitmask]
            if base_table is not None:
                current_table = base_table.derive(assigned, amended)
            report = explore_current("fsync")
            best = _ok(report.root_census)
            won_fsync = _won_roots(report)
            ssync_won_baseline = None  # the composition changed; recompute lazily
            run_fsync_loop()
        else:
            validated = False
        checkpoint(dict(report.root_census), base_census)

    name = ruleset_name or f"synth[{resolved_base_name}]"
    result = SynthesisResult(
        base_name=resolved_base_name,
        ruleset=overrides_to_ruleset(
            assigned, name, base.visibility_range, amendments=amended
        ),
        base_census=base_census,
        final_census=dict(report.root_census),
        ssync_census=ssync_census,
        iterations=iterations,
        blocked=blocked,
        candidates_evaluated=candidates_evaluated,
        explores=explores,
        elapsed_seconds=time.perf_counter() - start,
        validated=validated,
    )
    say(
        f"done: {result.base_ok} -> {result.final_ok} of "
        f"{sum(result.final_census.values())} roots with {len(result.ruleset)} rules "
        f"({result.override_rules} overriding)"
    )
    return result


def result_algorithm(result: SynthesisResult, base: Optional[GatheringAlgorithm] = None):
    """Compose the base with a synthesis result's rule set."""
    if base is None:
        from ..algorithms.registry import create_algorithm  # late: avoids an import cycle

        base = create_algorithm(result.base_name)
    return ruleset_algorithm(base, result.ruleset)
