"""Wire format of the query service: newline-delimited JSON over TCP.

Each request and each response is one JSON object on one line (UTF-8,
``\\n``-terminated).  Requests carry an ``op``:

``ping``
    Liveness probe; answers ``{"ok": true, "pong": true}``.
``stats``
    Engine/cache statistics plus service latency aggregates.
``query``
    One dynamic-preference skyline query.  The preference DAGs come from one
    of: ``overrides`` (explicit per-attribute DAGs, see :func:`encode_dag`),
    ``seed`` (server-side random preferences — handy for smoke tests, since
    the client needs no schema knowledge), or neither (the dataset's base
    preferences).
``insert``
    Append a batch of new records to the live delta plane: ``rows`` is a
    list of attribute-value lists in schema order.  Answers the stable
    record ids allocated to the rows.
``delete``
    Tombstone records by stable id: ``ids`` is a list of integers.  Answers
    the ids actually deleted (already-dead ids are ignored).
``compact``
    Fold the delta plane into a fresh base (store-backed services rewrite
    the packed file atomically); answers the compaction summary.
``shutdown``
    Acknowledge, then stop the server cleanly.

Responses always carry ``ok``; failures carry ``error`` and never tear the
connection down.  PO domain values must be JSON scalars (the synthetic
workloads use integer bitmasks); the engine reads ``overrides`` like any other
query's preferences (:func:`~repro.engine.encodings.resolve_query_dags`).

Protocol v3 adds the fault-tolerance fields:

``deadline_ms`` (any op that does work: ``query``/``insert``/``delete``/
    ``compact``)
    A per-request time budget in milliseconds.  The server enforces it on
    the event loop *and* hands the engine an absolute deadline it re-checks
    between query phases; an expired request answers an error with
    ``error_kind`` :data:`ERROR_KIND_DEADLINE`, which the client surfaces as
    :class:`~repro.exceptions.DeadlineExceededError`.  Results stay
    all-or-nothing — a deadlined request never returns partial data.
``token`` (``insert``/``delete``)
    An idempotency token (any non-empty string, unique per logical
    mutation).  The server remembers each token's successful response and
    replays it on re-delivery instead of re-applying the mutation, which is
    what makes client-side mutation retries safe.
``error_kind`` (responses)
    Optional machine-readable failure class next to the human ``error``
    message (currently only :data:`ERROR_KIND_DEADLINE`).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.data.schema import Schema
from repro.exceptions import QueryError, ReproError
from repro.order.dag import PartialOrderDAG

#: Protocol revision, reported by ``ping`` and ``stats``.
#: 2 added the delta-plane mutation ops (``insert``/``delete``/``compact``);
#: 3 added ``deadline_ms``, mutation idempotency ``token``s and
#: ``error_kind`` on failures.
PROTOCOL_VERSION = 3

#: ``error_kind`` of a response that failed because ``deadline_ms`` elapsed.
ERROR_KIND_DEADLINE = "deadline_exceeded"


def decode_deadline_ms(payload: object) -> float | None:
    """Parse the optional ``deadline_ms`` field (``None`` when absent)."""
    if payload is None:
        return None
    if isinstance(payload, bool) or not isinstance(payload, (int, float)):
        raise QueryError("'deadline_ms' must be a number of milliseconds")
    if payload <= 0:
        raise QueryError(f"'deadline_ms' must be positive, got {payload}")
    return float(payload)


def decode_token(payload: object) -> str | None:
    """Parse the optional mutation idempotency ``token`` field."""
    if payload is None:
        return None
    if not isinstance(payload, str) or not payload:
        raise QueryError("'token' must be a non-empty string")
    return payload


def decode_rows(payload: object, schema: Schema) -> list[tuple]:
    """Parse the ``rows`` field of an ``insert`` request.

    Checks shape only (a list of schema-arity value lists); value-level
    validation — numeric TO values, PO domain membership — happens in the
    engine's encoder, whose typed errors relay back over the wire.
    """
    if not isinstance(payload, list) or not payload:
        raise QueryError("'rows' must be a non-empty list of record value lists")
    arity = len(schema.attributes)
    rows: list[tuple] = []
    for index, row in enumerate(payload):
        if not isinstance(row, list) or len(row) != arity:
            raise QueryError(
                f"row {index} must be a list of {arity} attribute values "
                f"(schema order)"
            )
        rows.append(tuple(row))
    return rows


def decode_ids(payload: object) -> list[int]:
    """Parse the ``ids`` field of a ``delete`` request."""
    if not isinstance(payload, list) or not payload:
        raise QueryError("'ids' must be a non-empty list of record ids")
    ids: list[int] = []
    for value in payload:
        if isinstance(value, bool) or not isinstance(value, int):
            raise QueryError(f"record id {value!r} is not an integer")
        ids.append(value)
    return ids


def encode_dag(dag: PartialOrderDAG) -> dict[str, object]:
    """JSON payload of one preference DAG: domain values plus edges."""
    return {
        "values": list(dag.values),
        "edges": [[better, worse] for better, worse in dag.edges],
    }


def decode_dag(payload: object) -> PartialOrderDAG:
    """Parse one preference DAG from its JSON payload (strictly validated)."""
    if not isinstance(payload, Mapping):
        raise QueryError(f"a DAG override must be an object, got {type(payload).__name__}")
    values = payload.get("values")
    edges = payload.get("edges", [])
    if not isinstance(values, list) or not values:
        raise QueryError("a DAG override needs a non-empty 'values' list")
    if not isinstance(edges, list):
        raise QueryError("'edges' must be a list of [better, worse] pairs")
    pairs = []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise QueryError(f"malformed edge {edge!r}; expected [better, worse]")
        pairs.append((edge[0], edge[1]))
    try:
        return PartialOrderDAG(values, pairs)
    except ReproError as error:
        raise QueryError(f"invalid DAG override: {error}") from error


def encode_overrides(
    overrides: Mapping[str, PartialOrderDAG],
) -> dict[str, dict[str, object]]:
    """JSON payload of a whole per-attribute override mapping."""
    return {name: encode_dag(dag) for name, dag in overrides.items()}


def decode_overrides(payload: object) -> dict[str, PartialOrderDAG]:
    """Parse the ``overrides`` field of a query request.

    Checks shape only (a mapping of names to DAG objects); which attributes
    the names denote and whether each DAG is valid for its attribute is
    decided by the engine's
    :func:`~repro.engine.encodings.resolve_query_dags`, whose typed errors
    relay back over the wire.
    """
    if payload is None:
        return {}
    if not isinstance(payload, Mapping):
        raise QueryError("'overrides' must map PO attribute names to DAG objects")
    overrides: dict[str, PartialOrderDAG] = {}
    for name, dag_payload in payload.items():
        try:
            overrides[name] = decode_dag(dag_payload)
        except QueryError as error:
            raise QueryError(f"override for {name!r}: {error}") from error
    return overrides


def ok_response(**fields: object) -> dict[str, object]:
    return {"ok": True, **fields}


def error_response(message: str, kind: str | None = None) -> dict[str, object]:
    response: dict[str, object] = {"ok": False, "error": message}
    if kind is not None:
        response["error_kind"] = kind
    return response
