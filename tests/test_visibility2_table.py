"""Algorithm 1's rule table against the hand-written if-chain oracle.

:mod:`repro.algorithms.visibility2` states the paper's guards once, as an
ordered table of ``(occupied_mask, empty_mask)`` clauses evaluated by
``explain`` (one view) and ``decide_bitmasks`` (an array pass).  Both must
give :func:`oracles.reference_shibata_explain`'s answer:

* the default algorithm, ``explain`` and the batch method, on every one of
  the 262,144 range-2 views;
* the literal variant and each single-rule ablation, ``explain`` on the n=8
  unique views plus a seeded 20,000-view sample and the batch method on
  every view.

The table kernel's Compute pass decides every cache miss with one call to the
batch method, and :class:`~repro.algorithms.cached.CachedAlgorithm` forwards
it, so a wrapped algorithm builds through the array path too.  The
compositions (``-synth``, ``-synth2`` and the search's ``OverrideAlgorithm``)
decide their base layer in one such call and must still answer exactly like
their per-view ``compute``.
"""
import random

import pytest

np = pytest.importorskip("numpy")

from oracles import reference_shibata_explain
from repro import obs
from repro.algorithms import create_algorithm
from repro.algorithms.cached import CachedAlgorithm
from repro.algorithms.visibility2 import ALL_RULE_IDS, RULES, ShibataGatheringAlgorithm
from repro.core.algorithm import FunctionAlgorithm
from repro.core.engine import run_execution
from repro.core.table_kernel import SuccessorTable, view_table
from repro.core.view import View
from repro.enumeration.polyhex import enumerate_connected_configurations
from repro.grid.directions import Direction
from repro.grid.packing import view_bit_count

ALL_BITMASKS = range(1 << view_bit_count(2))

VARIANTS = [{"include_reconstructed": False}] + [
    {"disabled_rules": (rule_id,)} for rule_id in ALL_RULE_IDS
]


@pytest.fixture(scope="module")
def all_views():
    return [View.from_bitmask(bitmask, 2) for bitmask in ALL_BITMASKS]


@pytest.fixture(scope="module")
def full_oracle(all_views):
    """The oracle's ``(rule id, move)`` for the full algorithm, by bitmask."""
    return [reference_shibata_explain(view) for view in all_views]


@pytest.fixture(scope="module")
def sample_bitmasks():
    """The n=8 unique views plus a seeded 20,000-view sample of the rest."""
    unique = view_table(8, 2).unique_views.tolist()
    seen = set(unique)
    rest = [bitmask for bitmask in ALL_BITMASKS if bitmask not in seen]
    return unique + random.Random(2103).sample(rest, 20_000)


@pytest.fixture(scope="module")
def fired_by_family(full_oracle):
    """Bitmasks of the views each rule family fires on in the full algorithm."""
    fired = {}
    for bitmask, (rule_id, _) in enumerate(full_oracle):
        fired.setdefault(rule_id.split(":")[0], []).append(bitmask)
    return fired


def _variant_oracle(variant, all_views, full_oracle, fired_by_family):
    """The oracle's answer for ``variant`` on every view.

    Both the oracle and the table are first-match: removing rules changes
    the answer only on views where a removed rule fires in the full
    algorithm, so the oracle reruns with ``variant`` there and the full
    answer stands elsewhere.
    """
    removed = list(variant.get("disabled_rules", ()))
    if not variant.get("include_reconstructed", True):
        removed.append("recon")
    expected = list(full_oracle)
    for family in removed:
        for bitmask in fired_by_family[family]:
            expected[bitmask] = reference_shibata_explain(all_views[bitmask], **variant)
    return expected


def _assert_matches_oracle(algorithm, views, expected, batch_expected):
    """``explain`` on ``views`` and the batch method on every view."""
    mismatches = [
        (hex(view.bitmask()), got, want)
        for view, want in zip(views, expected)
        for got in [algorithm.explain(view)]
        if got != want
    ]
    assert not mismatches, (algorithm.name, len(mismatches), mismatches[:5])
    decided = algorithm.decide_bitmasks(np.arange(len(batch_expected)))
    assert decided == [move for _, move in batch_expected], algorithm.name


def test_default_table_matches_oracle_on_every_view(all_views, full_oracle):
    _assert_matches_oracle(ShibataGatheringAlgorithm(), all_views, full_oracle, full_oracle)
    assert {rule_id for rule_id, _ in full_oracle} == {rule.rule_id for rule in RULES}


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: str(sorted(v.values())))
def test_variant_tables_match_oracle(
    variant, all_views, full_oracle, fired_by_family, sample_bitmasks
):
    expected = _variant_oracle(variant, all_views, full_oracle, fired_by_family)
    _assert_matches_oracle(
        ShibataGatheringAlgorithm(**variant),
        [all_views[bitmask] for bitmask in sample_bitmasks],
        [expected[bitmask] for bitmask in sample_bitmasks],
        expected,
    )


def test_variants_filter_the_table():
    literal = ShibataGatheringAlgorithm(include_reconstructed=False)
    assert not any(rule.reconstructed for rule in literal.rules)
    minus_r1 = ShibataGatheringAlgorithm(disabled_rules=["R1"])
    assert {rule.rule_id for rule in RULES} - {rule.rule_id for rule in minus_r1.rules} == {
        "R1",
        "R1:hold",
    }
    assert ShibataGatheringAlgorithm().rules == RULES


def test_batch_accepts_lists_and_rejects_bits_outside_the_disk():
    algorithm = ShibataGatheringAlgorithm()
    assert algorithm.decide_bitmasks([]) == []
    east_line = View([(1, 0), (2, 0)], 2)
    assert algorithm.decide_bitmasks([east_line.bitmask()]) == [algorithm.compute(east_line)]
    with pytest.raises(ValueError):
        algorithm.decide_bitmasks([1 << view_bit_count(2)])
    with pytest.raises(ValueError):
        algorithm.decide_bitmasks([-1])


def test_default_batch_method_loops_compute():
    calls = []

    def east_if_alone(view):
        calls.append(view.bitmask())
        return None if view.bitmask() else Direction.E

    algorithm = FunctionAlgorithm(east_if_alone, visibility_range=1)
    assert algorithm.decide_bitmasks(np.array([0, 5, 0])) == [Direction.E, None, Direction.E]
    assert calls == [0, 5, 0]


# ---------------------------------------------------------------------------
# The table kernel's Compute pass.
# ---------------------------------------------------------------------------

def _misses(build):
    obs.export_delta()
    table = build()
    return table, obs.export_delta().get("counters", {}).get("decision_cache.misses", 0)


def test_build_decides_every_view_in_one_batch_call(monkeypatch):
    algorithm = ShibataGatheringAlgorithm()
    batches = []
    decide = algorithm.decide_bitmasks
    monkeypatch.setattr(algorithm, "decide_bitmasks", lambda b: batches.append(len(b)) or decide(b))
    monkeypatch.setattr(
        algorithm, "compute", lambda view: pytest.fail("a table build called compute")
    )
    table, misses = _misses(lambda: SuccessorTable.build(algorithm, 6))
    unique = len(view_table(6, 2).unique_views)
    assert batches == [unique] and misses == unique
    monkeypatch.undo()
    reference = SuccessorTable.build(ShibataGatheringAlgorithm(), 6)
    np.testing.assert_array_equal(table.codes, reference.codes)


def test_cached_wrapper_builds_through_the_batch_path(monkeypatch):
    inner = ShibataGatheringAlgorithm()
    wrapped = CachedAlgorithm(inner)
    monkeypatch.setattr(inner, "compute", lambda view: pytest.fail("a table build called compute"))
    table, misses = _misses(lambda: SuccessorTable.build(wrapped, 7))
    unique = view_table(7, 2).unique_views.tolist()
    assert misses == len(unique) == wrapped.misses
    assert set(unique) <= set(wrapped._decision_cache)
    monkeypatch.undo()
    reference = SuccessorTable.build(ShibataGatheringAlgorithm(), 7)
    np.testing.assert_array_equal(table.codes, reference.codes)
    np.testing.assert_array_equal(table.move_code, reference.move_code)


def test_partly_warm_cache_counts_only_new_misses():
    wrapped = CachedAlgorithm(ShibataGatheringAlgorithm())
    for config in enumerate_connected_configurations(7)[::97]:
        run_execution(config, wrapped, max_rounds=50, kernel="packed")
    warm = set(wrapped._decision_cache)
    unique = view_table(7, 2).unique_views.tolist()
    already = len(warm & set(unique))
    assert 0 < already < len(unique)
    misses_before = wrapped.misses
    table, misses = _misses(lambda: SuccessorTable.build(wrapped, 7))
    assert misses == len(unique) - already == wrapped.misses - misses_before
    reference = SuccessorTable.build(ShibataGatheringAlgorithm(), 7)
    np.testing.assert_array_equal(table.codes, reference.codes)
    np.testing.assert_array_equal(table.move_code, reference.move_code)


# ---------------------------------------------------------------------------
# Compositions: the base layer in one batch call, the layers above per view.
# ---------------------------------------------------------------------------

def _forced_stay_composition():
    """An ``OverrideAlgorithm`` with additive moves, forced stays and redirections."""
    from repro.synth.ruleset import OverrideAlgorithm

    base = ShibataGatheringAlgorithm()
    unique = view_table(7, 2).unique_views.tolist()
    moves = base.decide_bitmasks(unique)
    stays = [bitmask for bitmask, move in zip(unique, moves) if move is None]
    movers = [bitmask for bitmask, move in zip(unique, moves) if move is not None]
    directions = list(Direction)
    overrides = {bitmask: directions[i % 6] for i, bitmask in enumerate(stays[::41])}
    amendments = {bitmask: None for bitmask in movers[::13]}
    amendments.update({bitmask: directions[i % 6] for i, bitmask in enumerate(movers[5::29])})
    # A forced stay over an additive rule's view: the amendment wins.
    amendments[next(iter(overrides))] = None
    return OverrideAlgorithm(base, overrides, amendments=amendments)


COMPOSITIONS = {
    "synth": lambda: create_algorithm("shibata-visibility2-synth"),
    "synth2": lambda: create_algorithm("shibata-visibility2-synth2"),
    "forced-stays": _forced_stay_composition,
}


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_composition_batch_matches_compute_on_every_n7_view(name, monkeypatch):
    unique = view_table(7, 2).unique_views.tolist()
    expected = COMPOSITIONS[name]()
    want = [expected.compute(View.from_bitmask(bitmask, 2)) for bitmask in unique]
    algorithm = COMPOSITIONS[name]()
    batches = []
    decide = algorithm.base.decide_bitmasks
    monkeypatch.setattr(
        algorithm.base, "decide_bitmasks", lambda b: batches.append(len(b)) or decide(b)
    )
    monkeypatch.setattr(algorithm.base, "compute", lambda view: pytest.fail("base.compute"))
    assert algorithm.decide_bitmasks(np.array(unique)) == want
    assert batches == [len(unique)]
    if name == "forced-stays":
        assert None in algorithm.amendments.values() and algorithm.overrides


def test_synth2_table_builds_through_the_batch_path(monkeypatch):
    """A service start-up build of ``-synth2`` calls no per-view ``compute``."""
    algorithm = create_algorithm("shibata-visibility2-synth2")
    for layer in (algorithm, algorithm.base):
        monkeypatch.setattr(layer, "compute", lambda view: pytest.fail("a build called compute"))
    table = SuccessorTable.build(CachedAlgorithm(algorithm), 7)
    monkeypatch.undo()
    per_view = FunctionAlgorithm(create_algorithm("shibata-visibility2-synth2").compute, 2)
    np.testing.assert_array_equal(table.codes, SuccessorTable.build(per_view, 7).codes)
