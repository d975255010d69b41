"""A long-running skyline query service (``repro serve`` / ``repro query``).

A stdlib-only, asyncio JSON-over-TCP server that keeps one
:class:`~repro.engine.batch.BatchQueryEngine` alive across clients, so the
per-PO-group fronts and the per-topology result cache amortize over the
whole query stream.  See :mod:`repro.service.protocol` for the wire format,
:mod:`repro.service.server` for the server and :mod:`repro.service.client`
for the blocking client the CLI uses.
"""

from repro.service.client import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, wait_for_service
from repro.service.server import QueryService

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "QueryService",
    "ServiceClient",
    "wait_for_service",
]
