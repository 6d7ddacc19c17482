"""The completion service's wire protocol: JSON shapes and error codes.

One place defines what goes over the wire so the server, the client,
the load generator, and the protocol tests all agree byte for byte.
Requests and responses are JSON bodies over HTTP/1.1; every error is a
structured body — never a hung connection, never a bare status line:

    {"error": {"code": "shed", "message": "...", "exit_code": 2}}

``code`` values are stable (callers may switch on them), and each maps
to one HTTP status and one exit-style code through the **canonical
error table** in :mod:`repro.errors` (0 ok, 1 parse error, 2
usage/admission, 3 deadline truncation, 4 step-budget truncation) — the
CLI consumes the same table, so a service client sees the same status
space a CLI user does.  See docs/SERVING.md.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, List, Optional

from ..errors import ERROR_TABLE, TRUNCATION_EXIT

#: protocol version reported by ``/v1/healthz``; bump on breaking shape
#: changes (additive fields don't count)
PROTOCOL_VERSION = 1

# ----------------------------------------------------------------------
# stable error codes -> (HTTP status, exit-style code)
# ----------------------------------------------------------------------

#: malformed request: bad JSON, missing/mistyped fields, bad scope types
BAD_REQUEST = "bad_request"
#: the named workspace is not served by this process
UNKNOWN_WORKSPACE = "unknown_workspace"
#: no route for the path/method
NOT_FOUND = "not_found"
METHOD_NOT_ALLOWED = "method_not_allowed"
#: the query text did not parse
PARSE_ERROR = "parse_error"
#: admission control refused the request: the tenant's queue would
#: already blow the deadline (the 429-style shed)
SHED = "shed"
#: the deadline expired while the request waited in the queue (the
#: 504-style shed — admitted, but never reached the engine in time)
DEADLINE_EXCEEDED = "deadline_exceeded"
#: unexpected server-side failure
INTERNAL = "internal_error"

#: clients may supply their own correlation id; cap it so a run-log
#: record can't be ballooned by a hostile body
MAX_REQUEST_ID_LEN = 128


def new_request_id() -> str:
    """A fresh server-generated correlation id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def error_body(code: str, message: str) -> Dict[str, Any]:
    """The structured error payload for a stable ``code``."""
    status, exit_code = ERROR_TABLE[code]
    return {
        "error": {"code": code, "message": message, "exit_code": exit_code},
        "status": status,
    }


# ----------------------------------------------------------------------
# result serialisation
# ----------------------------------------------------------------------

def suggestion_to_dict(suggestion: Any) -> Dict[str, Any]:
    """One ranked result line; the exact shape the byte-identity tests
    compare against in-process :func:`repro.api.complete` output."""
    return {
        "rank": suggestion.rank,
        "score": suggestion.score,
        "text": suggestion.text,
    }


def record_to_dict(record: Any, include_timing: bool = True) -> Dict[str, Any]:
    """Serialise a :class:`~repro.ide.session.QueryRecord`.

    ``include_timing=False`` drops the wall-clock fields, leaving only
    deterministic content — what the differential tests compare.
    """
    body: Dict[str, Any] = {
        "query": record.source,
        "suggestions": [suggestion_to_dict(s) for s in record.suggestions],
        "status": record.status.value if record.status is not None else None,
        "cached": record.cached,
        "steps": record.steps,
        "degraded": sorted(record.degraded),
        "truncated": record.truncated,
        # a truncated query still answers 200 with best-so-far results,
        # like the CLI prints them, and carries the CLI's exit code
        "exit_code": TRUNCATION_EXIT.get(record.truncated, 0),
    }
    if record.error is not None:
        body["parse_error"] = record.error
        body["exit_code"] = 1
    if include_timing:
        body["elapsed_ms"] = record.elapsed_ms
    return body


def completion_to_dict(completion: Any) -> Dict[str, Any]:
    """One explained completion: score, source text, and the ranking
    breakdown whose terms sum exactly to the score."""
    breakdown = completion.breakdown
    return {
        "score": completion.score,
        "text": completion.text,
        "breakdown": {
            "rows": [[feature, value] for feature, value in breakdown.rows()],
            "cached": breakdown.cached,
        },
    }


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------

class ProtocolError(ValueError):
    """A malformed request body, carrying the stable error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _require_str(body: Dict[str, Any], key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            BAD_REQUEST, "{!r} must be a non-empty string".format(key))
    return value


class CompletionRequestBody:
    """A parsed ``/v1/complete`` / ``/v1/complete_many`` / ``/v1/explain``
    body: the tenant workspace, the queries, and the session scope."""

    __slots__ = ("workspace", "queries", "locals", "this", "expected",
                 "keyword", "n", "deadline_ms", "max_steps", "rank",
                 "request_id", "trace", "fault_events")

    def __init__(self, body: Any, many: bool = False) -> None:
        if not isinstance(body, dict):
            raise ProtocolError(BAD_REQUEST, "request body must be a JSON "
                                             "object")
        self.workspace = _require_str(body, "workspace")
        if many:
            queries = body.get("queries")
            if (not isinstance(queries, list) or not queries
                    or not all(isinstance(q, str) for q in queries)):
                raise ProtocolError(
                    BAD_REQUEST, "'queries' must be a non-empty list of "
                                 "strings")
            self.queries: List[str] = list(queries)
        else:
            self.queries = [_require_str(body, "query")]
        locals_map = body.get("locals", {})
        if not isinstance(locals_map, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in locals_map.items()
        ):
            raise ProtocolError(
                BAD_REQUEST, "'locals' must map names to type names")
        self.locals: Dict[str, str] = dict(locals_map)
        for key in ("this", "expected", "keyword"):
            value = body.get(key)
            if value is not None and not isinstance(value, str):
                raise ProtocolError(
                    BAD_REQUEST, "{!r} must be a string".format(key))
            setattr(self, key, value)
        n = body.get("n", 10)
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise ProtocolError(BAD_REQUEST, "'n' must be a positive integer")
        self.n = n
        deadline = body.get("deadline_ms")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or isinstance(deadline, bool)
            or deadline <= 0
        ):
            raise ProtocolError(
                BAD_REQUEST, "'deadline_ms' must be a positive number")
        self.deadline_ms: Optional[float] = (
            float(deadline) if deadline is not None else None)
        max_steps = body.get("max_steps")
        if max_steps is not None and (
            not isinstance(max_steps, int) or isinstance(max_steps, bool)
            or max_steps <= 0
        ):
            raise ProtocolError(
                BAD_REQUEST, "'max_steps' must be a positive integer")
        self.max_steps: Optional[int] = max_steps
        rank = body.get("rank")
        if rank is not None and (
            not isinstance(rank, int) or isinstance(rank, bool) or rank <= 0
        ):
            raise ProtocolError(
                BAD_REQUEST, "'rank' must be a positive integer")
        self.rank: Optional[int] = rank
        request_id = body.get("request_id")
        if request_id is not None and (
            not isinstance(request_id, str) or not request_id
            or len(request_id) > MAX_REQUEST_ID_LEN
        ):
            raise ProtocolError(
                BAD_REQUEST,
                "'request_id' must be a non-empty string of at most "
                "{} characters".format(MAX_REQUEST_ID_LEN))
        #: the correlation id; the server fills in a generated one when
        #: the client did not supply its own
        self.request_id: Optional[str] = request_id
        trace = body.get("trace", False)
        if not isinstance(trace, bool):
            raise ProtocolError(BAD_REQUEST, "'trace' must be a boolean")
        #: opt-in per-request span tracing (embedded in the run log and,
        #: for a traced single /v1/complete, echoed in the response)
        self.trace = trace
        #: ``"site@call"`` strings for faults the chaos layer triggered
        #: while this request ran; filled by the tenant, read by the
        #: server when it writes the ``server_request`` record
        self.fault_events: List[str] = []
