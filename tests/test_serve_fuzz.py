"""Fuzz of the service's request parsers.

Two kinds of input reach ``parse_verify``, ``parse_sweep`` and
``parse_census``: arbitrary JSON values (nested lists and objects, huge and
negative integers, booleans, floats, strings, null), and valid verify, sweep
and census payloads with one field, coordinate or list entry mutated.  The
parsers must raise nothing but :class:`ProtocolError`, and every verify or
sweep they accept must be answered by ``GatheringService.compute_results``
without raising — one request the engine cannot answer would fail every
request batched with it.
"""
from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.grid.packing import pack_nodes
from repro.serve import GatheringService, ProtocolError
from repro.serve.protocol import parse_census, parse_sweep, parse_verify

ALGORITHM = "shibata-visibility2"
SIZES = (2, 3, 4, 5)
#: Small budgets keep the per-item scheduled executions cheap.
MAX_ROUNDS = (1, 7, 60)

FIELDS = (
    "config", "packed", "configs", "algorithm", "max_rounds",
    "scheduler", "include_trace", "size", "nodes",
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)

JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=6), children, max_size=6),
    max_leaves=24,
)

COORDINATE = st.integers(-3, 3) | st.integers(-(2**22), 2**22) | JSON
NODE_LIST = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5, unique=True
)
PACKED = st.builds(pack_nodes, NODE_LIST) | st.integers(-(2**8), 2**200)
SCHEDULER = st.sampled_from(["fsync", "round-robin", "round-robin:2", "random-subset:0.5:3"])
#: Most payloads keep their valid shape, so the engine sees accepted ones.
MUTATIONS = ("none", "none", "none", "replace", "delete", "add")


@st.composite
def mutated_node_list(draw):
    nodes = [list(node) for node in draw(NODE_LIST)]
    mutation = draw(st.sampled_from(MUTATIONS[:3] + ("coordinate", "entry", "append", "duplicate")))
    index = draw(st.integers(0, len(nodes) - 1))
    if mutation == "coordinate":
        nodes[index][draw(st.integers(0, 1))] = draw(COORDINATE)
    elif mutation == "entry":
        nodes[index] = draw(JSON)
    elif mutation == "append":
        nodes.append([draw(COORDINATE), draw(COORDINATE)])
    elif mutation == "duplicate":
        nodes.append(list(nodes[index]))
    return nodes


def _mutate(draw, payload):
    """Replace, delete or add one top-level field of a valid payload."""
    mutation = draw(st.sampled_from(MUTATIONS))
    key = draw(st.sampled_from(sorted(payload)))
    if mutation == "replace":
        payload[key] = draw(JSON)
    elif mutation == "delete":
        del payload[key]
    elif mutation == "add":
        payload[draw(st.sampled_from(FIELDS))] = draw(JSON)
    return payload


@st.composite
def verify_payload(draw):
    payload = {
        "algorithm": draw(st.sampled_from([ALGORITHM, "no-such-algorithm"])),
        "max_rounds": draw(st.sampled_from(MAX_ROUNDS)),
    }
    if draw(st.booleans()):
        payload["config"] = draw(mutated_node_list())
    else:
        payload["packed"] = draw(PACKED)
    if draw(st.booleans()):
        payload["scheduler"] = draw(SCHEDULER | st.text(max_size=12))
    return _mutate(draw, payload)


@st.composite
def sweep_payload(draw):
    entries = draw(
        st.lists(
            mutated_node_list()
            | PACKED
            | st.builds(lambda nodes: {"config": nodes}, mutated_node_list())
            | JSON,
            min_size=1,
            max_size=5,
        )
    )
    payload = {
        "algorithm": draw(st.sampled_from([ALGORITHM, "no-such-algorithm"])),
        "max_rounds": draw(st.sampled_from(MAX_ROUNDS)),
        "configs": entries,
    }
    return _mutate(draw, payload)


@st.composite
def census_payload(draw):
    payload = {"algorithm": ALGORITHM, "size": draw(st.integers(-3, 20) | JSON)}
    return _mutate(draw, payload)


@pytest.fixture(scope="module")
def service() -> GatheringService:
    service = GatheringService(algorithms=(ALGORITHM,), sizes=SIZES)
    service.startup()
    return service


def _parse(parser, payload):
    """The parsed request, or ``None`` when the parser rejected it."""
    try:
        request = parser(payload)
    except ProtocolError as exc:
        assert 400 <= exc.status < 500
        event("rejected")
        return None
    event("accepted")
    return request


def _answers(service, configurations, algorithm, max_rounds, scheduler=None):
    """``compute_results`` answers an accepted request, one result per item."""
    if any(len(c) > max(SIZES) for c in configurations):
        # Larger sizes build their tables on demand; that is the table
        # kernel's cost to test, not the parser's.
        return
    try:
        results = service.compute_results(
            configurations, algorithm, max_rounds, scheduler=scheduler
        )
    except ProtocolError as exc:
        assert exc.status == 404 and algorithm != ALGORITHM
        return
    assert len(results) == len(configurations)
    event("answered")


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(payload=st.one_of(JSON, verify_payload(), verify_payload()))
def test_parse_verify_raises_only_protocol_errors(service, payload):
    request = _parse(parse_verify, payload)
    if request is not None:
        _answers(
            service, [request.configuration], request.algorithm,
            request.max_rounds, request.scheduler,
        )


@FUZZ
@given(payload=st.one_of(JSON, sweep_payload(), sweep_payload()))
def test_parse_sweep_raises_only_protocol_errors(service, payload):
    request = _parse(parse_sweep, payload)
    if request is not None:
        _answers(service, list(request.configurations), request.algorithm, request.max_rounds)


@FUZZ
@given(payload=st.one_of(JSON, census_payload(), census_payload()))
def test_parse_census_raises_only_protocol_errors(payload):
    request = _parse(parse_census, payload)
    if request is not None:
        assert 1 <= request.size
