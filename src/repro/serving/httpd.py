"""Stdlib HTTP front end for :class:`~repro.serving.service.DetectionService`.

Built on ``http.server.ThreadingHTTPServer`` -- no new dependencies.
Handler threads only parse JSON and block on the service's response
futures; all real work happens on the service's single scheduler
thread, so concurrency here is safe by construction.  The transport
plumbing (:class:`JsonHTTPServer` / :class:`JsonRequestHandler`) is
shared with the cluster router in :mod:`repro.serving.cluster`.

Endpoints
---------

``GET /healthz``
    Liveness: status, uptime, restored checkpoint (if any).
``GET /stats``
    Queue/batching/streaming/checkpoint counters.
``GET /alerts``
    Every alert emitted so far (restored ones included).
``POST /ingest``
    Body ``{"comments": [<row>, ...], "sales": [[item_id, volume], ...]}``.
    Comment rows are accepted in either the paper's Listing-2 shape
    (``comment_content`` / ``userExpValue`` / ``client_information``)
    or the ``dataclasses.asdict(CommentRecord)`` shape.  Responds with
    the ingest acknowledgement (accepted / duplicates / alerts).
``POST /score``
    Body ``{"item_ids": [...]}``; responds with
    ``{"probabilities": {item_id: P(fraud)}}``.

Failure semantics
-----------------

* queue full -> ``503`` with ``Retry-After`` (explicit load shedding);
* service stopping -> ``503``;
* unknown item in ``/score`` -> ``404``;
* malformed body -> ``400`` -- always a response, never a dropped
  connection (``TypeError`` from non-coercible values is part of the
  400 mapping);
* declared body over ``MAX_BODY_BYTES`` -> ``413`` and the connection
  is closed, without reading the body;
* acknowledgements are atomic: an ``/ingest`` request's comments and
  sales updates travel as ONE queue entry, so a ``503`` means nothing
  was applied and a ``200`` means everything was;
* the response is only sent after the request's batch was processed,
  so a ``200`` ingest acknowledgement means the records are in the
  detector's state (and covered by the next checkpoint).

Every request increments the server's
:class:`~repro.serving.telemetry.TelemetryRegistry` (requests per
endpoint, responses per status class), surfaced under ``"telemetry"``
in ``/stats`` and merged across shards by the cluster router.
"""

from __future__ import annotations

import dataclasses
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.collector.records import CommentRecord, RecordParseError
from repro.serving.batching import BatcherStopped, QueueFullError
from repro.serving.service import DetectionService
from repro.serving.telemetry import TelemetryRegistry

#: Handler threads give the scheduler this long before answering 504.
RESPONSE_TIMEOUT_S = 30.0

#: Largest request body either server reads.  A declared
#: ``Content-Length`` above it is answered 413 without reading a byte
#: of the body, so one client cannot make a handler thread buffer an
#: arbitrary amount of memory.  A crawler page of a few dozen comments
#: is tens of KiB.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Known endpoint paths; anything else is counted as ``other`` so
#: arbitrary request paths cannot grow the telemetry registry.
_KNOWN_PATHS = frozenset(
    {"/healthz", "/stats", "/alerts", "/drift", "/ingest", "/score"}
)

#: ``asdict(CommentRecord)`` keys -> Listing-2 row keys, so both row
#: shapes funnel through the same validated ``from_row`` parser.
_ASDICT_TO_ROW = {
    "content": "comment_content",
    "user_exp_value": "userExpValue",
    "client": "client_information",
}


def parse_comment_row(row: Any) -> CommentRecord:
    """Validate one comment row in either accepted shape."""
    if not isinstance(row, dict):
        raise RecordParseError(f"comment row must be an object, got {row!r}")
    mapped = {_ASDICT_TO_ROW.get(key, key): value for key, value in row.items()}
    return CommentRecord.from_row(mapped)


def parse_sales_row(row: Any) -> tuple[int, int]:
    """Validate one ``[item_id, volume]`` sales row.

    Rejects rows of the wrong shape (``[1]``, ``7``, ``null``) and
    non-coercible values (``[null, 5]``) with :class:`ValueError`, so
    the front end maps them to a 400 instead of crashing mid-request.
    """
    if isinstance(row, (str, bytes)) or not hasattr(row, "__iter__"):
        raise ValueError(
            f"sales row must be [item_id, volume], got {row!r}"
        )
    try:
        item_id, volume = row
        return int(item_id), int(volume)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"sales row must be [item_id, volume], got {row!r}"
        ) from exc


def parse_feed_body(
    body: Any,
) -> tuple[list[CommentRecord], list[tuple[int, int]]]:
    """Validate a whole ``/ingest`` body into ``(comments, sales)``.

    Raises :class:`ValueError` (or its :class:`RecordParseError`
    subclass) on any malformed part, before anything is submitted, so
    a rejected request touches no state.
    """
    if not isinstance(body, dict):
        raise ValueError("body must be a JSON object")
    rows = body.get("comments", [])
    if not isinstance(rows, list):
        raise ValueError('"comments" must be a list')
    comments = [parse_comment_row(row) for row in rows]
    sales_rows = body.get("sales", [])
    if not isinstance(sales_rows, list):
        raise ValueError('"sales" must be a list of [item_id, volume]')
    sales = [parse_sales_row(row) for row in sales_rows]
    return comments, sales


def parse_item_ids(value: Any) -> list[int]:
    """Validate a ``/score`` item-id list (coercing ids to int)."""
    if not isinstance(value, list):
        raise ValueError(f'"item_ids" must be a list, got {value!r}')
    try:
        return [int(item_id) for item_id in value]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"item ids must be integers: {exc}") from exc


class RequestBodyTooLarge(Exception):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


class JsonHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server with a telemetry registry.

    The listen backlog is raised from socketserver's 5 to 128: a burst
    of new connections (a crawler fleet starting together, a router
    opening its pool) would otherwise overflow the accept queue, and
    each dropped SYN waits out the kernel's 1 s retransmit timer.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        handler: type["JsonRequestHandler"],
        verbose: bool = False,
    ) -> None:
        super().__init__(address, handler)
        self.verbose = verbose
        self.telemetry = TelemetryRegistry()


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP/1.1 plumbing shared by the shard and router handlers.

    ``disable_nagle_algorithm`` sets TCP_NODELAY on every accepted
    socket.  The response goes out as two writes (headers, then body);
    with Nagle on, the body waits until the peer ACKs the headers, and
    a keep-alive peer delays that ACK by ~40 ms -- a stall on every
    request that dwarfs the work behind it.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Prefix of the per-status-class response counters
    #: (``<prefix>2xx``, ``<prefix>4xx``, ...).
    response_counter_prefix = "http_responses_"
    server: JsonHTTPServer

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        self.server.telemetry.inc(
            f"{self.response_counter_prefix}{status // 100}xx"
        )
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("empty request body")
        if length > MAX_BODY_BYTES:
            raise RequestBodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _send_too_large(self, exc: RequestBodyTooLarge) -> None:
        """Answer 413 and close: the unread body is still in flight,
        so the connection cannot carry another request."""
        self._send_json(
            413, {"error": str(exc)}, headers={"Connection": "close"}
        )


class DetectionHTTPServer(JsonHTTPServer):
    """Threading HTTP server bound to one :class:`DetectionService`."""

    def __init__(
        self,
        address: tuple[str, int],
        service: DetectionService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, DetectionRequestHandler, verbose=verbose)
        self.service = service


class DetectionRequestHandler(JsonRequestHandler):
    server_version = "repro-serving/1"
    server: DetectionHTTPServer

    # -- routes --------------------------------------------------------------

    def _count_request(self) -> None:
        endpoint = (
            self.path.lstrip("/") if self.path in _KNOWN_PATHS else "other"
        )
        self.server.telemetry.inc(f"http_requests_{endpoint}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        service = self.server.service
        self._count_request()
        if self.path == "/healthz":
            health = service.healthz()
            status = 200 if health["status"] == "ok" else 503
            self._send_json(status, health)
        elif self.path == "/stats":
            stats = service.stats()
            stats["telemetry"] = self.server.telemetry.snapshot()
            self._send_json(200, stats)
        elif self.path == "/alerts":
            alerts = [dataclasses.asdict(a) for a in service.alerts()]
            self._send_json(200, {"count": len(alerts), "alerts": alerts})
        elif self.path == "/drift":
            report = service.drift_report()
            if report is None:
                self._send_json(
                    404, {"error": "drift monitoring not configured"}
                )
                return
            # Bounded-cardinality drift gauges (three fixed names) so
            # the cluster router's merged telemetry sees drift without
            # scraping every shard's full per-feature report.
            telemetry = self.server.telemetry
            telemetry.gauge("drift_max_psi").set(report["max_psi"])
            telemetry.gauge("drift_max_ks").set(report["max_ks"])
            telemetry.gauge("drift_live_rows").set(report["n_live_rows"])
            self._send_json(200, report)
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        self._count_request()
        try:
            body = self._read_json_body()
            if self.path == "/ingest":
                self._handle_ingest(body)
            elif self.path == "/score":
                self._handle_score(body)
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
        except (TypeError, ValueError, RecordParseError, KeyError) as exc:
            # KeyError here is a malformed body (missing field), not an
            # unknown item -- those are mapped inside the handlers.
            # TypeError covers non-coercible values (null item ids,
            # scalar sales rows): still a client error, still a
            # response -- never a dropped connection.
            self._send_json(400, {"error": str(exc)})
        except RequestBodyTooLarge as exc:
            self._send_too_large(exc)
        except QueueFullError as exc:
            self._send_json(
                503, {"error": str(exc)}, headers={"Retry-After": "1"}
            )
        except BatcherStopped as exc:
            self._send_json(503, {"error": str(exc)})
        except TimeoutError:
            self._send_json(504, {"error": "batch processing timed out"})

    def _handle_ingest(self, body: Any) -> None:
        # Validate the WHOLE request up front; only then submit it as
        # one atomic queue entry.  Nothing is enqueued for a malformed
        # request, and an overloaded queue sheds the request whole --
        # the acknowledgement can never claim less (or more) than what
        # actually happened.
        comments, sales = parse_feed_body(body)
        if comments or sales:
            result = self.server.service.feed(
                comments, sales, timeout=RESPONSE_TIMEOUT_S
            )
        else:
            result = None
        payload: dict[str, Any] = {
            "accepted": result.accepted if result else 0,
            "duplicates": result.duplicates if result else 0,
            "sales_updates": result.sales_updates if result else 0,
            "alerts": [
                dataclasses.asdict(a) for a in (result.alerts if result else [])
            ],
        }
        self._send_json(200, payload)

    def _handle_score(self, body: Any) -> None:
        if not isinstance(body, dict) or "item_ids" not in body:
            raise ValueError('body must be {"item_ids": [...]}')
        item_ids = parse_item_ids(body["item_ids"])
        service = self.server.service
        try:
            probabilities = service.score(
                item_ids, timeout=RESPONSE_TIMEOUT_S
            )
        except KeyError as exc:
            self._send_json(404, {"error": str(exc.args[0])})
            return
        self._send_json(
            200,
            {
                "probabilities": {
                    str(item_id): probability
                    for item_id, probability in probabilities.items()
                }
            },
        )


def make_server(
    service: DetectionService,
    host: str = "127.0.0.1",
    port: int = 8321,
    verbose: bool = False,
) -> DetectionHTTPServer:
    """Bind (but do not run) the HTTP front end; port 0 picks a free one."""
    return DetectionHTTPServer((host, port), service, verbose=verbose)
