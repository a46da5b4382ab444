"""JSON round-tripping of configurations, traces, reports and witnesses.

The benchmark harness and the CLI use these helpers to persist results; the
format is deliberately plain (lists, dicts and ints only) so downstream
tooling can consume it without importing this package.

Configurations are serialized in two interchangeable forms that round-trip
exactly:

* ``{"nodes": [[q, r], ...]}`` — explicit node list, human-readable;
* ``{"packed": N}`` — the canonical packed integer of
  :func:`repro.grid.packing.pack_nodes`, the explorer's native vertex name.

:func:`configuration_to_dict` emits both; :func:`configuration_from_dict`
accepts either and cross-checks them when both are present, so a report can
be hand-edited without silently drifting out of sync.
"""
from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..core.configuration import Configuration
from ..core.trace import ExecutionTrace
from ..analysis.verification import VerificationReport
from ..grid.packing import pack_nodes, unpack_nodes

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointSchemaError",
    "configuration_to_dict",
    "configuration_from_dict",
    "configuration_to_packed",
    "configuration_from_packed",
    "trace_to_dict",
    "report_to_dict",
    "witness_to_dict",
    "witness_from_dict",
    "exploration_to_dict",
    "synthesis_to_dict",
    "save_synthesis_checkpoint",
    "load_synthesis_checkpoint",
    "dumps",
    "loads_configuration",
]


def configuration_to_packed(configuration: Configuration) -> int:
    """The canonical packed integer of a configuration (up to translation)."""
    return pack_nodes(configuration.nodes)


def configuration_from_packed(packed: int) -> Configuration:
    """Rebuild a configuration from its canonical packed integer."""
    return Configuration(unpack_nodes(packed))


def configuration_to_dict(configuration: Configuration) -> Dict[str, Any]:
    """Plain-dict form of a configuration (node list plus packed integer)."""
    return {
        "nodes": [[c.q, c.r] for c in configuration.sorted_nodes()],
        "packed": configuration_to_packed(configuration),
    }


def configuration_from_dict(data: Dict[str, Any]) -> Configuration:
    """Rebuild a configuration from :func:`configuration_to_dict` output.

    Accepts the node-list form, the packed form, or both.  When both are
    present they must agree up to translation (the packed form is canonical);
    a mismatch raises :class:`ValueError` instead of silently preferring one.
    """
    nodes = data.get("nodes")
    packed = data.get("packed")
    if nodes is None and packed is None:
        raise ValueError("configuration dict needs a 'nodes' or 'packed' entry")
    if nodes is not None:
        configuration = Configuration((int(q), int(r)) for q, r in nodes)
        if packed is not None and pack_nodes(configuration.nodes) != int(packed):
            raise ValueError(
                f"'nodes' and 'packed' disagree: packing the nodes gives "
                f"{pack_nodes(configuration.nodes)}, dict says {packed}"
            )
        return configuration
    return configuration_from_packed(int(packed))


def trace_to_dict(trace: ExecutionTrace, include_rounds: bool = False) -> Dict[str, Any]:
    """Plain-dict form of an execution trace (summary by default)."""
    payload: Dict[str, Any] = {
        "initial": configuration_to_dict(trace.initial),
        "final": configuration_to_dict(trace.final),
        "outcome": trace.outcome.value,
        "rounds": trace.num_rounds,
        "total_moves": trace.total_moves,
        "algorithm": trace.algorithm_name,
        "scheduler": trace.scheduler_name,
        "collision_kind": trace.collision_kind,
        "cycle_start": trace.cycle_start,
    }
    if include_rounds:
        payload["round_records"] = [
            {
                "index": record.index,
                "configuration": configuration_to_dict(record.configuration),
                "moves": {f"{pos.q},{pos.r}": direction.name for pos, direction in record.moves.items()},
            }
            for record in trace.rounds
        ]
    return payload


def report_to_dict(report: VerificationReport, include_failures: bool = True) -> Dict[str, Any]:
    """Plain-dict form of a verification report."""
    payload: Dict[str, Any] = dict(report.summary())
    if include_failures:
        payload["failures"] = [
            {
                "nodes": list(map(list, result.initial_nodes)),
                "packed": pack_nodes(result.initial_nodes),
                "outcome": result.outcome.value,
                "rounds": result.rounds,
            }
            for result in report.failures
        ]
    return payload


# ---------------------------------------------------------------------------
# Explorer artefacts: witnesses and exploration reports.
# ---------------------------------------------------------------------------

def witness_to_dict(witness) -> Dict[str, Any]:
    """Plain-dict form of a model-checking witness trace (fully replayable)."""
    return {
        "kind": witness.kind,
        "algorithm": witness.algorithm_name,
        "mode": witness.mode,
        "steps": [
            {
                "configuration": [list(node) for node in step.configuration],
                "activated": [list(node) for node in step.activated],
                "moves": [[list(pos), name] for pos, name in step.moves],
            }
            for step in witness.steps
        ],
        "final": [list(node) for node in witness.final],
        "cycle_start": witness.cycle_start,
        "collision_kind": witness.collision_kind,
    }


def witness_from_dict(data: Dict[str, Any]):
    """Invert :func:`witness_to_dict`; the result replays through the engine."""
    from ..explore.witness import Witness, WitnessStep  # late: avoids an import cycle

    steps = tuple(
        WitnessStep(
            configuration=tuple((int(q), int(r)) for q, r in step["configuration"]),
            activated=tuple((int(q), int(r)) for q, r in step["activated"]),
            moves=tuple(
                ((int(pos[0]), int(pos[1])), str(name)) for pos, name in step["moves"]
            ),
        )
        for step in data["steps"]
    )
    return Witness(
        kind=data["kind"],
        algorithm_name=data["algorithm"],
        mode=data["mode"],
        steps=steps,
        final=tuple((int(q), int(r)) for q, r in data["final"]),
        cycle_start=data.get("cycle_start"),
        collision_kind=data.get("collision_kind"),
    )


def exploration_to_dict(
    report,
    include_witnesses: bool = True,
    include_nodes: bool = False,
) -> Dict[str, Any]:
    """Plain-dict form of an :class:`repro.explore.ExplorationReport`.

    ``include_nodes`` additionally emits the per-vertex classification keyed
    by packed integer (large: one entry per discovered configuration).
    """
    payload: Dict[str, Any] = dict(report.summary())
    if include_witnesses:
        payload["witnesses"] = {
            kind: witness_to_dict(witness)
            for kind, witness in sorted(report.witnesses.items())
        }
    if include_nodes:
        payload["node_classes"] = {
            str(packed): cls
            for packed, cls in sorted(report.classification.node_class.items())
        }
    return payload


# ---------------------------------------------------------------------------
# Synthesis artefacts: results and resumable checkpoints.
# ---------------------------------------------------------------------------

def _iteration_record_to_dict(record) -> Dict[str, Any]:
    """Plain-dict form of one :class:`repro.synth.IterationRecord`."""
    return {
        "index": record.index,
        "counterexamples": record.counterexamples,
        "proposed": record.proposed,
        "committed": record.committed,
        "expansions": record.expansions,
        "explores": record.explores,
        "census": dict(record.census),
        "seconds": record.seconds,
    }


def synthesis_to_dict(result, include_ruleset: bool = True) -> Dict[str, Any]:
    """Plain-dict form of a :class:`repro.synth.SynthesisResult`."""
    payload: Dict[str, Any] = dict(result.summary())
    payload["iteration_history"] = [
        _iteration_record_to_dict(record) for record in result.iterations
    ]
    if include_ruleset:
        payload["ruleset"] = result.ruleset.to_dict()
    return payload


#: Schema version of the CEGIS checkpoint format.  Version 2 added the
#: ``amended`` layer of the move-amending repair space (override decisions,
#: including forced stays encoded as ``null``); version-1 checkpoints from
#: the additive-only DSL cannot represent it and are rejected with a
#: :class:`CheckpointSchemaError` instead of a silent ``KeyError``.
CHECKPOINT_SCHEMA_VERSION = 2


class CheckpointSchemaError(ValueError):
    """A synthesis checkpoint was written under an incompatible schema."""


def save_synthesis_checkpoint(
    path,
    base: str,
    assigned: Dict[int, Any],
    blocked,
    iterations,
    candidates_evaluated: int,
    explores: int,
    base_census: Dict[str, int],
    census: Dict[str, int],
    amended: Optional[Dict[int, Any]] = None,
) -> None:
    """Persist the full CEGIS search state as JSON (atomically).

    The checkpoint carries everything :func:`repro.synth.synthesize` needs to
    resume: the committed assignments (additive and amending layers), the
    refuted (blocked) pairs and the iteration history, plus the censuses for
    progress reporting.
    """
    import os

    payload = {
        "version": CHECKPOINT_SCHEMA_VERSION,
        "base": base,
        "assigned": {str(bitmask): direction.name for bitmask, direction in assigned.items()},
        "amended": {
            str(bitmask): None if direction is None else direction.name
            for bitmask, direction in (amended or {}).items()
        },
        "blocked": sorted([bitmask, name] for bitmask, name in blocked),
        "iterations": [_iteration_record_to_dict(record) for record in iterations],
        "candidates_evaluated": candidates_evaluated,
        "explores": explores,
        "base_census": dict(base_census),
        "census": dict(census),
    }
    path = str(path)
    temporary = f"{path}.tmp"
    with open(temporary, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temporary, path)


def load_synthesis_checkpoint(path) -> Dict[str, Any]:
    """Invert :func:`save_synthesis_checkpoint` into live search state.

    Raises
    ------
    CheckpointSchemaError
        If the file carries no ``version`` field or one other than
        :data:`CHECKPOINT_SCHEMA_VERSION` — e.g. a checkpoint written by the
        additive-only DSL of an older release, whose assignments cannot
        faithfully seed the amending search.
    """
    from ..grid.directions import Direction
    from ..synth.cegis import IterationRecord  # late: avoids an import cycle

    with open(str(path)) as handle:
        payload = json.load(handle)
    found = payload.get("version")
    if found != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint {str(path)!r} has schema version {found!r}, but this "
            f"release reads version {CHECKPOINT_SCHEMA_VERSION} (the amending "
            "DSL added an 'amended' layer).  Re-run the synthesis without "
            "--resume to write a fresh checkpoint."
        )
    return {
        "base": payload["base"],
        "assigned": {
            int(bitmask): Direction[name]
            for bitmask, name in payload["assigned"].items()
        },
        "amended": {
            int(bitmask): None if name is None else Direction[name]
            for bitmask, name in payload["amended"].items()
        },
        "blocked": {(int(bitmask), str(name)) for bitmask, name in payload["blocked"]},
        "iterations": [
            IterationRecord(
                index=record["index"],
                counterexamples=record["counterexamples"],
                proposed=record["proposed"],
                committed=record["committed"],
                expansions=record["expansions"],
                explores=record["explores"],
                census=tuple(sorted(record["census"].items())),
                seconds=record["seconds"],
            )
            for record in payload["iterations"]
        ],
        "candidates_evaluated": payload["candidates_evaluated"],
        "explores": payload["explores"],
        "base_census": payload["base_census"],
        "census": payload["census"],
    }


def dumps(payload: Any, indent: int = 2) -> str:
    """JSON-encode any of the plain-dict payloads produced by this module."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def loads_configuration(text: str) -> Configuration:
    """Parse a configuration from its JSON form."""
    return configuration_from_dict(json.loads(text))
