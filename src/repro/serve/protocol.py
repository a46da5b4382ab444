"""Request parsing and response schemas of the gathering service.

One module owns the wire format so the HTTP layer, the client, the tests
and the CI smoke job all agree on it.  Requests are plain
JSON objects; responses are plain JSON objects built exclusively from the
serialization helpers of :mod:`repro.io.serialization`, which keeps every
service answer byte-comparable with the CLI's ``--json`` output.

Endpoints (all under ``/v1``, plus the operational pair):

``POST /v1/verify``
    ``{"config": [[q, r], ...] | "packed": N, "algorithm": NAME,
    "max_rounds"?: N, "scheduler"?: SPEC, "include_trace"?: bool}`` —
    one verdict, byte-identical to the CLI/kernel answer for the same root.
``POST /v1/sweep``
    ``{"configs": [CONFIG, ...], "algorithm": NAME, "max_rounds"?: N}`` —
    batched verdicts plus an outcome census, funneled through one
    vectorized table gather.
``GET/POST /v1/census``
    ``{"algorithm": NAME, "size"?: N}`` — the whole-space FSYNC census
    (LRU-cached by algorithm fingerprint + size).
``POST /v1/witness``
    ``{"config": ..., "algorithm": NAME, "max_rounds"?: N}`` — a fully
    replayable round-by-round trace (LRU-cached by fingerprint + root).
``WS /v1/stream``
    WebSocket: the client sends one verify-shaped JSON message and receives
    ``hello`` / ``round`` / ``done`` messages, one per trace step.
``GET /healthz`` and ``GET /v1/telemetry``
    Liveness and the ``repro-telemetry/1`` snapshot of the serving process.

Errors are ``{"error": {"status": ..., "message": ..., "field": ...},
"request_id": ...}`` with the matching HTTP status.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.configuration import Configuration
from ..core.table_kernel import HARD_MAX_TABLE_SIZE
from ..io.serialization import configuration_from_dict

__all__ = [
    "MAX_CONFIG_ROBOTS",
    "MAX_ROUNDS_LIMIT",
    "MAX_SWEEP_CONFIGS",
    "ProtocolError",
    "VerifyRequest",
    "SweepRequest",
    "CensusRequest",
    "parse_verify",
    "parse_sweep",
    "parse_census",
    "response_problems",
]

#: Hard request-side bounds: the service answers from materialized state
#: spaces, so a configuration larger than the hard table ceiling (or an
#: absurd round budget) is a client error, not a capacity planning problem.
MAX_CONFIG_ROBOTS = HARD_MAX_TABLE_SIZE
MAX_ROUNDS_LIMIT = 100_000
MAX_SWEEP_CONFIGS = 4096

DEFAULT_MAX_ROUNDS = 1000


class ProtocolError(ValueError):
    """A malformed or out-of-bounds request (maps to an HTTP 4xx)."""

    def __init__(self, message: str, status: int = 400, field: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.field = field

    def payload(self, request_id: Optional[str] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "error": {"status": self.status, "message": str(self)}
        }
        if self.field is not None:
            body["error"]["field"] = self.field
        if request_id is not None:
            body["request_id"] = request_id
        return body


@dataclass(frozen=True)
class VerifyRequest:
    configuration: Configuration
    algorithm: str
    max_rounds: int = DEFAULT_MAX_ROUNDS
    scheduler: Optional[str] = None
    include_trace: bool = False


@dataclass(frozen=True)
class SweepRequest:
    configurations: Tuple[Configuration, ...]
    algorithm: str
    max_rounds: int = DEFAULT_MAX_ROUNDS


@dataclass(frozen=True)
class CensusRequest:
    algorithm: str
    size: int = 7


def _require_object(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _parse_algorithm(payload: Dict[str, Any]) -> str:
    name = payload.get("algorithm")
    if not isinstance(name, str) or not name:
        raise ProtocolError("'algorithm' must be a non-empty string", field="algorithm")
    return name


def _parse_max_rounds(payload: Dict[str, Any]) -> int:
    value = payload.get("max_rounds", DEFAULT_MAX_ROUNDS)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ProtocolError("'max_rounds' must be a positive integer", field="max_rounds")
    if value > MAX_ROUNDS_LIMIT:
        raise ProtocolError(
            f"'max_rounds' must be at most {MAX_ROUNDS_LIMIT}", field="max_rounds"
        )
    return value


def _parse_configuration(payload: Dict[str, Any], field_name: str = "config") -> Configuration:
    """One configuration from ``{"config": [[q, r], ...]}`` or ``{"packed": N}``.

    Delegates to :func:`repro.io.serialization.configuration_from_dict` (the
    CLI/report format) after adapting the request field names, so both forms
    round-trip and cross-check exactly like persisted reports do.
    """
    nodes = payload.get(field_name)
    packed = payload.get("packed")
    if nodes is None and packed is None:
        raise ProtocolError(
            f"request needs a {field_name!r} node list or a 'packed' integer",
            field=field_name,
        )
    data: Dict[str, Any] = {}
    if nodes is not None:
        if not isinstance(nodes, list) or not nodes:
            raise ProtocolError(
                f"{field_name!r} must be a non-empty list of [q, r] pairs", field=field_name
            )
        for pair in nodes:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(not isinstance(v, int) or isinstance(v, bool) for v in pair)
            ):
                raise ProtocolError(
                    f"{field_name!r} entries must be [q, r] integer pairs, got {pair!r}",
                    field=field_name,
                )
        data["nodes"] = nodes
    if packed is not None:
        if not isinstance(packed, int) or isinstance(packed, bool) or packed < 0:
            raise ProtocolError("'packed' must be a non-negative integer", field="packed")
        data["packed"] = packed
    try:
        configuration = configuration_from_dict(data)
    except ValueError as exc:
        raise ProtocolError(str(exc), field=field_name)
    count = len(configuration.nodes)
    if count > MAX_CONFIG_ROBOTS:
        raise ProtocolError(
            f"configuration has {count} robots; the service answers up to "
            f"{MAX_CONFIG_ROBOTS}",
            field=field_name,
        )
    return configuration


def parse_verify(payload: Any) -> VerifyRequest:
    data = _require_object(payload)
    scheduler = data.get("scheduler")
    if scheduler is not None:
        if not isinstance(scheduler, str) or not scheduler:
            raise ProtocolError("'scheduler' must be a spec string", field="scheduler")
        from ..core.scheduler import scheduler_from_spec

        try:
            scheduler_from_spec(scheduler)
        except ValueError as exc:
            raise ProtocolError(str(exc), field="scheduler")
    include_trace = data.get("include_trace", False)
    if not isinstance(include_trace, bool):
        raise ProtocolError("'include_trace' must be a boolean", field="include_trace")
    return VerifyRequest(
        configuration=_parse_configuration(data),
        algorithm=_parse_algorithm(data),
        max_rounds=_parse_max_rounds(data),
        scheduler=scheduler,
        include_trace=include_trace,
    )


def parse_sweep(payload: Any) -> SweepRequest:
    data = _require_object(payload)
    configs = data.get("configs")
    if not isinstance(configs, list) or not configs:
        raise ProtocolError(
            "'configs' must be a non-empty list of configurations", field="configs"
        )
    if len(configs) > MAX_SWEEP_CONFIGS:
        raise ProtocolError(
            f"'configs' must hold at most {MAX_SWEEP_CONFIGS} configurations",
            field="configs",
        )
    configurations = []
    for index, entry in enumerate(configs):
        if isinstance(entry, list):
            entry = {"config": entry}
        elif isinstance(entry, int) and not isinstance(entry, bool):
            entry = {"packed": entry}
        elif not isinstance(entry, dict):
            raise ProtocolError(
                f"configs[{index}] must be a node list, a packed integer or an object",
                field="configs",
            )
        try:
            configurations.append(_parse_configuration(entry))
        except ProtocolError as exc:
            raise ProtocolError(f"configs[{index}]: {exc}", field="configs")
    return SweepRequest(
        configurations=tuple(configurations),
        algorithm=_parse_algorithm(data),
        max_rounds=_parse_max_rounds(data),
    )


def parse_census(payload: Any) -> CensusRequest:
    data = _require_object(payload)
    size = data.get("size", 7)
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ProtocolError("'size' must be a positive integer", field="size")
    if size > MAX_CONFIG_ROBOTS:
        raise ProtocolError(
            f"'size' must be at most {MAX_CONFIG_ROBOTS}", field="size"
        )
    return CensusRequest(algorithm=_parse_algorithm(data), size=size)


# ---------------------------------------------------------------------------
# Response schema validation (tests and the CI service-smoke job).
# ---------------------------------------------------------------------------

def _configuration_problems(data: Any, where: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"{where} must be an object"]
    if not isinstance(data.get("nodes"), list) or not data["nodes"]:
        problems.append(f"{where}.nodes must be a non-empty list")
    if not isinstance(data.get("packed"), int):
        problems.append(f"{where}.packed must be an integer")
    return problems


def _result_problems(data: Any, where: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"{where} must be an object"]
    problems += _configuration_problems(data.get("initial"), f"{where}.initial")
    if not isinstance(data.get("outcome"), str) or not data["outcome"]:
        problems.append(f"{where}.outcome must be a non-empty string")
    for key in ("rounds", "total_moves", "initial_diameter"):
        value = data.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{where}.{key} must be a non-negative integer")
    if data.get("collision_kind") is not None and not isinstance(
        data.get("collision_kind"), str
    ):
        problems.append(f"{where}.collision_kind must be a string or null")
    return problems


def response_problems(endpoint: str, payload: Any) -> List[str]:
    """Schema-check one endpoint's response; returns problems (empty = valid)."""
    if not isinstance(payload, dict):
        return [f"{endpoint}: payload must be an object"]
    problems: List[str] = []
    if endpoint != "healthz" and not isinstance(payload.get("request_id"), str):
        problems.append("request_id must be a string")
    if endpoint == "verify":
        problems += _result_problems(payload, "verify")
        if not isinstance(payload.get("algorithm"), str):
            problems.append("verify.algorithm must be a string")
    elif endpoint == "sweep":
        results = payload.get("results")
        if not isinstance(results, list):
            problems.append("sweep.results must be a list")
        else:
            for index, result in enumerate(results):
                problems += _result_problems(result, f"sweep.results[{index}]")
        census = payload.get("census")
        if not isinstance(census, dict) or any(
            not isinstance(v, int) or v < 0 for v in census.values()
        ):
            problems.append("sweep.census must map outcomes to non-negative counts")
        elif isinstance(results, list) and sum(census.values()) != len(results):
            problems.append("sweep.census counts must sum to len(results)")
    elif endpoint == "census":
        census = payload.get("census")
        if not isinstance(census, dict) or not census:
            problems.append("census.census must be a non-empty object")
        if not isinstance(payload.get("roots"), int) or payload.get("roots", 0) < 1:
            problems.append("census.roots must be a positive integer")
        if not isinstance(payload.get("cached"), bool):
            problems.append("census.cached must be a boolean")
        if not isinstance(payload.get("fingerprint"), str):
            problems.append("census.fingerprint must be a string")
    elif endpoint == "witness":
        trace = payload.get("trace")
        if not isinstance(trace, dict):
            problems.append("witness.trace must be an object")
        else:
            problems += _configuration_problems(trace.get("initial"), "witness.trace.initial")
            problems += _configuration_problems(trace.get("final"), "witness.trace.final")
            if not isinstance(trace.get("round_records"), list):
                problems.append("witness.trace.round_records must be a list")
        if not isinstance(payload.get("cached"), bool):
            problems.append("witness.cached must be a boolean")
    elif endpoint == "healthz":
        if payload.get("status") != "ok":
            problems.append("healthz.status must be 'ok'")
        for key in ("version", "run_id"):
            if not isinstance(payload.get(key), str) or not payload[key]:
                problems.append(f"healthz.{key} must be a non-empty string")
        if not isinstance(payload.get("algorithms"), list) or not payload["algorithms"]:
            problems.append("healthz.algorithms must be a non-empty list")
        if not isinstance(payload.get("sizes"), list) or not payload["sizes"]:
            problems.append("healthz.sizes must be a non-empty list")
    else:
        problems.append(f"unknown endpoint {endpoint!r}")
    return problems
