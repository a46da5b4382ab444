"""The row-space adversarial-SSYNC verdict, root by root against the explorer.

:meth:`SuccessorTable.ssync_verdict` answers the SSYNC half of the CEGIS
gate without a transition graph: its vertex ids are table rows.  Every root
must get exactly the class :func:`repro.explore.explore` gives it on the
table kernel — on the full n=7 root set and on the 60-root recovery subset
of the synthesis tests (``recovery_roots`` in ``conftest.py``), for the
paper's algorithm, both synthesized compositions, range-1 rules whose census
holds collisions and livelocks, and tables chained by ``derive`` inside one
lineage (whose SSYNC memos the verdict shares).
"""
import pytest

np = pytest.importorskip("numpy")  # the table kernel is numpy-optional

from repro.algorithms import create_algorithm
from repro.core.table_kernel import SuccessorTable, successor_table
from repro.explore import explore
from repro.explore.analyzer import CLASSES
from repro.synth import OverrideAlgorithm, learned_amend_ruleset, ruleset_layers

from oracles import won_roots

#: The paper's algorithm, both synthesized compositions, and two range-1
#: rules: ``centroid-pull`` livelocks and collides, ``southeast-drift``
#: collides.
ALGORITHMS = (
    "shibata-visibility2",
    "shibata-visibility2-synth",
    "shibata-visibility2-synth2",
    "range1:centroid-pull",
    "range1:southeast-drift",
)


def assert_matches_explorer(table, algorithm, roots=None):
    """The verdict over ``roots`` (every row by default) is the explorer's."""
    report = explore(
        algorithm=algorithm, roots=roots, size=7, mode="ssync", kernel="table",
        with_witnesses=False,
    )
    graph = report.graph
    explored_roots = graph.arrays.roots
    rows = np.array(
        [table.row_of_packed(p) for p in graph.packed_of_vertices(explored_roots)],
        dtype=np.int64,
    )
    verdict = table.ssync_verdict(rows)
    want = report.classification.classes[explored_roots]
    got = verdict.classes[rows]
    mismatched = np.nonzero(got != want)[0]
    assert not len(mismatched), [
        (int(rows[i]), CLASSES[got[i]], CLASSES[want[i]]) for i in mismatched[:5]
    ]
    assert verdict.root_census == report.root_census
    won = won_roots(report)
    mask = verdict.won_mask()
    assert mask.dtype == bool and len(mask) == table.view.count
    assert {table.packed_of_row(r) for r in np.flatnonzero(mask).tolist()} == won
    return verdict


@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_root_matches_the_explorer(name):
    algorithm = create_algorithm(name)
    verdict = assert_matches_explorer(successor_table(algorithm, 7), algorithm)
    if name == "range1:centroid-pull":
        assert {"livelock", "collision"} <= set(verdict.root_census)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_recovery_subset_matches_the_explorer(name, recovery_roots):
    algorithm = create_algorithm(name)
    verdict = assert_matches_explorer(successor_table(algorithm, 7), algorithm, recovery_roots)
    assert sum(verdict.root_census.values()) == len(recovery_roots) == 60


def test_unreached_rows_are_absent():
    table = successor_table(create_algorithm("stay"), 7)
    verdict = table.ssync_verdict(np.array([5, 17], dtype=np.int64))
    assert np.flatnonzero(verdict.classes >= 0).tolist() == [5, 17]
    assert verdict.root_census == {"deadlock": 2}
    assert not verdict.won_mask().any()


def test_chained_derive_tables_of_one_lineage():
    """Trial tables derived in a chain, verdicts taken as the lineage's SSYNC
    memos fill up, answer like a fresh exploration of each composition."""
    base = create_algorithm("shibata-visibility2")
    root = table = SuccessorTable.build(base, 7)  # a lineage root of its own
    assigned, amended = ruleset_layers(learned_amend_ruleset())
    add_items, amend_items = sorted(assigned.items()), sorted(amended.items())
    layers_add, layers_amend = {}, {}
    verdicts = [assert_matches_explorer(table, base)]
    for step in range(3):
        add = dict(add_items[step::3])
        amend = dict(amend_items[step::3])
        table = table.derive(add, amend)
        layers_add.update(add)
        layers_amend.update(amend)
        composition = OverrideAlgorithm(base, dict(layers_add), amendments=dict(layers_amend))
        verdicts.append(assert_matches_explorer(table, composition))
    # The full chain is synth2: Theorem 2 under adversarial SSYNC.
    assert verdicts[-1].root_census == {"gathered": 1, "safe": 3651}
    # Every table of the chain read the lineage root's SSYNC expansion memo.
    assert table is not root and table._ssync_cache is root._ssync_cache
