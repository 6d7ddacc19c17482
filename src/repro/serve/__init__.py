"""Completion-as-a-service: the long-lived serving layer.

The engine has been in-process and single-tenant since PR 1; this
package puts it behind a request/response protocol with deadlines —
the backbone the persistent-index, hot-path, and query-mining work
plugs into (ROADMAP.md):

* :mod:`repro.serve.protocol` — JSON wire shapes, stable error codes,
  exit-style status mapping;
* :mod:`repro.serve.pool` — warm multi-tenant engine pool with
  per-workspace session affinity and deadline admission control;
* :mod:`repro.serve.server` — the asyncio HTTP/1.1 front end
  (``repro serve``);
* :mod:`repro.serve.client` — sync + async protocol clients.

Observability rides on every request: a correlation ``request_id``
(client supplied or generated), opt-in span tracing embedded in the
run log, and ``GET /v1/metrics`` Prometheus exposition (see
docs/OBSERVABILITY.md).

See docs/SERVING.md.
"""

from .client import ServeClient, async_request
from .pool import AdmissionError, EnginePool, Tenant
from .protocol import (
    PROTOCOL_VERSION,
    CompletionRequestBody,
    ProtocolError,
    error_body,
    new_request_id,
    record_to_dict,
)
from .server import CompletionServer, ServerHandle, start_in_thread

__all__ = [
    "AdmissionError",
    "CompletionRequestBody",
    "CompletionServer",
    "EnginePool",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServerHandle",
    "Tenant",
    "async_request",
    "error_body",
    "new_request_id",
    "record_to_dict",
    "start_in_thread",
]
