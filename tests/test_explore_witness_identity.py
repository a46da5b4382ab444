"""The CSR witness search, witness for witness against the dict-walk oracle.

:func:`repro.explore.witness.find_witnesses` searches shortest paths on the
graph's CSR arrays and names only the nearest candidates and the witness
roots.  Its witnesses must equal :func:`oracles.reference_witnesses` (a queue
BFS and cycle search over packed integers) exactly: same kinds, same rounds,
same activations, same final configurations.  The graphs cover both modes
and both kernels at n=7 for the paper's algorithm and two range-1 rules
whose graphs hold livelocks and collisions, a ``max_nodes``-truncated graph,
roots of mixed sizes, and the n=8 SSYNC graph of the table kernel against
the packed kernel's.
"""
import random

import pytest

from repro.algorithms import create_algorithm
from repro.core.configuration import Configuration
from repro.enumeration.polyhex import enumerate_canonical_node_sets
from repro.explore import build_transition_graph, classify, explore, find_witnesses
from repro.explore.analyzer import CLASSES
from repro.grid.packing import unpack_nodes

from oracles import reference_witnesses

ALGORITHMS = ("shibata-visibility2", "range1:centroid-pull", "range1:southeast-drift")
MODES = ("fsync", "ssync")
KERNELS = ("packed", "table")


def _assert_identical(graph, classification, algorithm):
    got = find_witnesses(graph, classification, algorithm=algorithm)
    want = reference_witnesses(graph, classification, algorithm)
    assert list(got) == list(want)
    for kind in want:
        assert got[kind] == want[kind], kind
    return got


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_full_n7_witnesses_match_the_oracle(name, mode, kernel):
    algorithm = create_algorithm(name)
    report = explore(algorithm=algorithm, size=7, mode=mode, kernel=kernel, with_witnesses=False)
    witnesses = _assert_identical(report.graph, report.classification, algorithm)
    if name == "range1:centroid-pull":
        assert {"livelock", "collision"} <= set(witnesses)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("max_nodes", (40, 500))
def test_truncated_graph_witnesses_match_the_oracle(kernel, max_nodes):
    algorithm = create_algorithm("range1:centroid-pull")
    graph = build_transition_graph(
        enumerate_canonical_node_sets(7),
        algorithm=algorithm,
        mode="ssync",
        max_nodes=max_nodes,
        kernel=kernel,
    )
    assert graph.truncated
    _assert_identical(graph, classify(graph), algorithm)


def _mixed_roots():
    """Shuffled, duplicated roots of sizes 6 and 7, one of them disconnected."""
    rng = random.Random(30)
    roots = rng.sample(enumerate_canonical_node_sets(7), 40)
    roots += rng.sample(enumerate_canonical_node_sets(6), 15)
    roots += [Configuration(roots[3]), roots[0]]
    roots.append(((0, 0), (1, 0), (2, 0), (10, 0), (11, 0), (12, 0), (13, 0)))
    rng.shuffle(roots)
    return roots


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ("shibata-visibility2", "range1:centroid-pull"))
def test_mixed_size_roots_witnesses_match_the_oracle(name, mode, kernel):
    algorithm = create_algorithm(name)
    graph = build_transition_graph(_mixed_roots(), algorithm=algorithm, mode=mode, kernel=kernel)
    _assert_identical(graph, classify(graph), algorithm)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", (1, 3))
def test_deep_witnesses_match_the_oracle(seed, kernel):
    """Roots that gather under FSYNC reach a deadlock under SSYNC only after
    several rounds, so the parent each BFS level picks shows in the trace."""
    algorithm = create_algorithm("shibata-visibility2")
    fsync = explore(algorithm=algorithm, size=7, mode="fsync", kernel="table",
                    with_witnesses=False)
    classes = fsync.classification.classes[fsync.graph.arrays.roots].tolist()
    safe = [root for root, cls in zip(fsync.graph.roots, classes) if CLASSES[cls] == "safe"]
    roots = [unpack_nodes(root) for root in random.Random(seed).sample(safe, 25)]
    graph = build_transition_graph(roots, algorithm=algorithm, mode="ssync", kernel=kernel)
    witnesses = _assert_identical(graph, classify(graph), algorithm)
    assert witnesses["deadlock"].num_rounds >= 3


def test_n8_ssync_table_witnesses_equal_the_packed_oracle():
    """The table kernel's CSR witnesses at n=8 equal the dict-walk witnesses
    of the packed kernel's graph."""
    algorithm = create_algorithm("shibata-visibility2")
    table = explore(algorithm=algorithm, size=8, mode="ssync", kernel="table")
    packed = explore(algorithm=algorithm, size=8, mode="ssync", kernel="packed",
                     with_witnesses=False)
    want = reference_witnesses(packed.graph, packed.classification, algorithm)
    assert table.witnesses == want
    assert {"deadlock", "collision", "disconnected"} <= set(want)


def test_witness_search_names_only_candidates_and_roots():
    """No vertex is named wholesale: the search names the candidates tied at
    the nearest distance and one root per witness."""
    algorithm = create_algorithm("range1:centroid-pull")
    graph = build_transition_graph(_mixed_roots(), algorithm=algorithm, mode="ssync", kernel="table")
    classification = classify(graph)
    named = []
    name_some = graph.packed_of_vertices

    def recording(vids):
        named.append(len(vids))
        return name_some(vids)

    def name_all():
        raise AssertionError("the witness search named every vertex")

    graph.packed_of_vertices = recording
    graph.vertex_packed = name_all
    witnesses = find_witnesses(graph, classification, algorithm=algorithm)
    # One tie set and one root per witness.
    assert len(named) == 2 * len(witnesses) and named[1::2] == [1] * len(witnesses)
    assert sum(named) < graph.num_nodes / 2
