"""Stdlib HTTP server: one front end over one router.

A :class:`MarginalServer` fronts one router
(:mod:`repro.serve.multiplex`) — a :class:`~repro.serve.multiplex
.SourceRouter` over a single engine (``repro serve``) or an
:class:`~repro.serve.multiplex.EngineRouter` over a whole
:class:`~repro.store.SynopsisStore` (``repro store serve``, see
``docs/STORE.md``) — and every route goes through it.  A route the
router cannot serve raises its error: per-dataset paths on a single
source, the default-dataset paths on a store.

Query endpoints (JSON protocol in :mod:`repro.serve.protocol`); each
resolves to a lease on one engine plus an action, dispatched through
one path:

* ``POST /v1/marginal``, ``/v1/batch``, ``/v1/sample`` — one marginal,
  a de-duplicated workload, or synthetic records (post-processing of
  the published views: zero additional privacy budget) from the
  default dataset;
* ``POST /v1/d/{name}/marginal``, ``/batch``, ``/sample``, ``/stats``
  — the same from the named dataset (``name``, ``name@latest`` or
  ``name@N``);
* ``POST /v1/d/{name}/windows/marginal`` — one answer per selected
  stream window plus their record-weighted union
  (``docs/STREAMING.md``).

Other endpoints: ``GET /healthz`` (liveness, ``mode`` and what is
served), ``GET /stats`` (the router's statistics plus a server
block), ``GET /v1/datasets``, ``GET /v1/d/{name}/windows`` and
``POST /v1/reload`` (store only: listings and a zero-drop hot swap),
and ``GET /metrics`` (Prometheus text exposition of the active
metrics registry).  Errors are structured JSON: ``404`` for a
:class:`~repro.exceptions.NotFoundError`, ``504`` for a missed
deadline, ``400`` for any other library error.

Every request gets a trace context — adopted from an incoming
``traceparent`` header or head-sampled at ``trace_sample_rate`` —
that is installed around the engine call (so spans and hit-side
cache timings tag themselves with it), echoed in the JSON body under
``"trace"`` and in the ``traceparent`` / ``X-Request-Id`` response
headers, and recorded in a bounded in-process access log
(:meth:`MarginalServer.access_log`).

Built on :class:`http.server.ThreadingHTTPServer` (one thread per
connection, daemonised), with per-request deadlines enforced through
the engine, and graceful shutdown that closes the router and so
drains its engine pool(s).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic, perf_counter
from urllib.parse import unquote

from repro import obs
from repro.exceptions import (
    NotFoundError,
    QueryError,
    QueryTimeoutError,
    ReproError,
)
from repro.obs import propagation
from repro.obs.exporters import MetricsSnapshotWriter
from repro.obs.log import get_logger
from repro.obs.prometheus import render_prometheus
from repro.obs.session import ObsSession
from repro.serve.engine import QueryEngine
from repro.serve.multiplex import (
    DEFAULT_MAX_ENGINES,
    EngineRouter,
    SourceRouter,
)
from repro.serve.protocol import (
    encode_answer,
    encode_error,
    encode_sample,
    parse_batch_request,
    parse_marginal_request,
    parse_sample_request,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177
DEFAULT_REQUEST_TIMEOUT = 30.0
MAX_BODY_BYTES = 4 << 20

log = get_logger("serve")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.2"
    protocol_version = "HTTP/1.1"

    # Per-request trace state (reset in _handle; one handler instance
    # serves a keep-alive connection sequentially, so plain instance
    # attributes are safe).
    _context: propagation.TraceContext | None = None
    _trace: dict | None = None
    _status: int | None = None

    # -- plumbing -------------------------------------------------------
    @property
    def router(self):
        return self.server.router

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        log.debug("%s %s", self.address_string(), format % args)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        if self._context is not None:
            self.send_header(
                propagation.TRACEPARENT_HEADER, self._context.traceparent
            )
            self.send_header(
                propagation.REQUEST_ID_HEADER, self._context.span_id
            )
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _send_json(self, status: int, payload) -> None:
        if (
            isinstance(payload, dict)
            and self._trace is not None
            and "trace" not in payload
        ):
            payload = {**payload, "trace": self._trace}
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json"
        )

    def _send_error(self, status: int, exc: BaseException) -> None:
        self._send_json(status, encode_error(exc, self._trace))

    def _read_json(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # the body's end is unknown, so the connection cannot be reused
            self.close_connection = True
            raise QueryError(f"invalid Content-Length {header!r}") from None
        if length <= 0:
            raise QueryError("missing request body")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise QueryError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise QueryError(f"invalid JSON body: {exc}") from exc

    # -- routes ---------------------------------------------------------
    def _trace_context(self) -> propagation.TraceContext:
        """Adopt the caller's ``traceparent`` or head-sample a new one.

        An adopted context keeps the caller's sampling decision; a
        fresh one is sampled at the server's ``trace_sample_rate``.
        Either way the request gets ids, so responses and the access
        log always carry a request id.
        """
        parent = propagation.parse_traceparent(
            self.headers.get(propagation.TRACEPARENT_HEADER)
        )
        if parent is not None:
            return parent.child()
        return propagation.sampled_context(self.server.trace_sample_rate)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._handle("GET", self._route_get)

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._handle("POST", self._route_post)

    def _handle(self, verb: str, route) -> None:
        start = perf_counter()
        context = self._trace_context()
        self._context = context
        self._trace = {
            "trace_id": context.trace_id,
            "request_id": context.span_id,
            "sampled": context.sampled,
        }
        self._status = None
        try:
            with propagation.trace_scope(context):
                route()
        except QueryTimeoutError as exc:
            self._send_error(504, exc)
        except NotFoundError as exc:
            self._send_error(404, exc)
        except ReproError as exc:
            # malformed attrs, unknown method, unanswerable query, ...
            self._send_error(400, exc)
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("internal error serving %s", self.path)
            self._send_error(500, exc)
        finally:
            self.server.record_access({
                "method": verb,
                "path": self.path,
                "status": self._status,
                "duration_s": perf_counter() - start,
                "trace_id": context.trace_id,
                "request_id": context.span_id,
                "sampled": context.sampled,
            })

    def _route_get(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, self.server.health_payload())
        elif self.path == "/metrics":
            sess = obs.current()
            snapshot = (
                sess.metrics.snapshot()
                if sess is not None and sess.metrics is not None
                else {}
            )
            self._send_body(
                200,
                render_prometheus(snapshot).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path == "/stats":
            payload = self.router.stats()
            payload["server"] = self.server.server_payload()
            self._send_json(200, payload)
        elif self.path == "/v1/datasets":
            self._send_json(200, {"datasets": self.router.datasets()})
        elif (
            (routed := self._split_dataset_path(self.path)) is not None
            and routed[1] == "windows"
        ):
            name = routed[0]
            self._send_json(200, {
                "dataset": name,
                "windows": self.router.windows(name),
            })
        else:
            raise NotFoundError(f"unknown path {self.path!r}")

    @staticmethod
    def _split_dataset_path(path: str) -> tuple[str, str] | None:
        """``/v1/d/{name}/marginal`` → ``(name, "marginal")``."""
        if not path.startswith("/v1/d/"):
            return None
        rest = path[len("/v1/d/"):]
        name, _, action = rest.rpartition("/")
        if name.endswith("/windows") and action == "marginal":
            name = name[: -len("/windows")]
            if not name:
                return None
            return unquote(name), "windows/marginal"
        if not name or action not in (
            "marginal", "batch", "sample", "stats", "windows"
        ):
            return None
        return unquote(name), action

    def _query_route(self) -> tuple[str | None, str]:
        """``/v1/batch`` → ``(None, "batch")`` (the default dataset);
        ``/v1/d/{name}/batch`` → ``(name, "batch")``."""
        if self.path in ("/v1/marginal", "/v1/batch", "/v1/sample"):
            return None, self.path[len("/v1/"):]
        routed = self._split_dataset_path(self.path)
        if routed is None or routed[1] == "windows":
            raise NotFoundError(f"unknown path {self.path!r}")
        return routed

    def _route_post(self) -> None:
        if self.path == "/v1/reload":
            self._send_json(200, self.router.reload())
            return
        name, action = self._query_route()
        if action == "windows/marginal":
            self._dispatch_windows(name)
            return
        lease = (
            self.router.lease_default() if name is None
            else self.router.lease(name)
        )
        # Per-dataset request counting happens in the engine, which
        # knows its dataset label on either router.
        with lease as engine:
            self._dispatch(engine, action)

    def _dispatch_windows(self, name: str) -> None:
        """``POST /v1/d/{name}/windows/marginal`` — time-sliced query.

        Body: the usual marginal request plus an optional window
        selection — ``{"last": k}`` for the newest ``k`` windows, or
        ``{"windows": [i, ...]}`` for explicit window indices (default
        every released window).  Answers carry one table per window
        and their record-weighted union.
        """
        from repro.stream.query import answer_windows

        body = self._read_json()
        attrs, method = parse_marginal_request(body)
        answer = answer_windows(
            self.router,
            name,
            attrs,
            windows=body.get("windows"),
            last=body.get("last"),
            method=method,
            timeout=self.server.request_timeout,
        )
        self._send_json(200, answer.to_json())

    def _dispatch(self, engine: QueryEngine, action: str) -> None:
        if action == "stats":
            self._send_json(200, engine.stats())
            return
        timeout = self.server.request_timeout
        body = self._read_json()
        if action == "marginal":
            attrs, method = parse_marginal_request(body)
            answer = engine.answer(attrs, method=method, timeout=timeout)
            self._send_json(200, encode_answer(answer))
        elif action == "sample":
            n, seed, decode = parse_sample_request(body)
            answer = engine.sample(n, seed=seed)
            self._send_json(200, encode_sample(answer, decode=decode))
        else:
            queries, method = parse_batch_request(body)
            answers = engine.answer_batch(queries, method=method, timeout=timeout)
            self._send_json(200, {
                "answers": [encode_answer(a) for a in answers],
                "count": len(answers),
                "distinct": len({(a.attrs, a.method) for a in answers}),
            })


class MarginalServer:
    """The serving endpoint: one router + ThreadingHTTPServer lifecycle.

    ``router`` is a :class:`~repro.serve.multiplex.SourceRouter` or an
    :class:`~repro.serve.multiplex.EngineRouter`; a bare
    :class:`QueryEngine` is wrapped in a ``SourceRouter``, so
    ``MarginalServer(engine, port=0)`` serves one source.  The server
    owns the router: :meth:`shutdown` closes it (and its engines).
    :func:`serve_source` and :func:`serve_store` build both from a
    synopsis or a store.

    Use as a context manager, or call :meth:`start` /
    :meth:`serve_forever` and :meth:`shutdown` explicitly.  Pass
    ``port=0`` to bind an ephemeral port (see :attr:`address`).

    Telemetry knobs:

    * ``trace_sample_rate`` — head-sampling probability for requests
      arriving without a ``traceparent`` header (0 disables span
      tagging and hit-side cache timing; ids are still issued);
    * ``access_log_size`` — bound of the in-process access log ring
      (:meth:`access_log`);
    * ``metrics_out`` / ``metrics_interval_s`` — when set, a
      :class:`~repro.obs.exporters.MetricsSnapshotWriter` appends
      JSON-lines metrics snapshots there for the server's lifetime.

    When no :func:`repro.obs.session` is active at :meth:`start`, the
    server installs its own metrics-only session (no tracer, so root
    spans never accumulate unboundedly) and uninstalls it on
    :meth:`shutdown` — ``GET /metrics`` therefore always has a
    registry to expose.
    """

    def __init__(
        self,
        router,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        trace_sample_rate: float = 0.0,
        access_log_size: int = 256,
        metrics_out=None,
        metrics_interval_s: float = 10.0,
    ):
        if isinstance(router, QueryEngine):
            router = SourceRouter(router)
        self.router = router
        self.trace_sample_rate = float(trace_sample_rate)
        self._access: deque = deque(maxlen=int(access_log_size))
        self._access_lock = threading.Lock()
        self._metrics_out = metrics_out
        self._metrics_interval_s = float(metrics_interval_s)
        self._metrics_writer: MetricsSnapshotWriter | None = None
        self._obs_session: ObsSession | None = None
        self._obs_previous: ObsSession | None = None
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.router = router
        self._httpd.request_timeout = request_timeout
        self._httpd.trace_sample_rate = self.trace_sample_rate
        self._httpd.record_access = self._record_access
        self._httpd.health_payload = self._health_payload
        self._httpd.server_payload = self._server_payload
        self._thread: threading.Thread | None = None
        self._started_at = monotonic()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            **self.router.health(),
            "uptime_s": monotonic() - self._started_at,
        }

    def _server_payload(self) -> dict:
        host, port = self.address
        return {
            "host": host,
            "port": port,
            "request_timeout_s": self._httpd.request_timeout,
            "trace_sample_rate": self.trace_sample_rate,
            "uptime_s": monotonic() - self._started_at,
        }

    # ------------------------------------------------------------------
    def _record_access(self, record: dict) -> None:
        with self._access_lock:
            self._access.append(record)

    def access_log(self) -> list[dict]:
        """The most recent requests (bounded ring), oldest first.

        Each record: method, path, status, duration_s, trace_id,
        request_id, sampled.
        """
        with self._access_lock:
            return list(self._access)

    def _telemetry_up(self) -> None:
        if not obs.enabled():
            self._obs_session = ObsSession(
                trace=False, metrics=True, ledger=False
            )
            self._obs_previous = obs.install(self._obs_session)
        if self._metrics_out is not None and self._metrics_writer is None:
            self._metrics_writer = MetricsSnapshotWriter(
                self._metrics_out, interval_s=self._metrics_interval_s
            ).start()

    def _telemetry_down(self) -> None:
        if self._metrics_writer is not None:
            self._metrics_writer.stop()
            self._metrics_writer = None
        if self._obs_session is not None:
            obs.uninstall(self._obs_session, self._obs_previous)
            self._obs_session = None
            self._obs_previous = None

    # ------------------------------------------------------------------
    def start(self) -> "MarginalServer":
        """Serve on a background daemon thread; returns self."""
        self._telemetry_up()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        log.info("serving on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._telemetry_up()
        log.info("serving on %s", self.url)
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting requests, close the socket, drain the engines."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.router.close()
        self._telemetry_down()

    def __enter__(self) -> "MarginalServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def serve_source(
    source_or_path,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    trace_sample_rate: float = 0.0,
    metrics_out=None,
    metrics_interval_s: float = 10.0,
    **engine_kwargs,
) -> MarginalServer:
    """Serve one marginal source: an unstarted :class:`MarginalServer`
    over a :class:`~repro.serve.multiplex.SourceRouter`.

    ``source_or_path`` is anything satisfying
    :class:`~repro.baselines.base.MarginalSource` (a synopsis, a
    fitted baseline mechanism, ...) or a path to a saved synopsis
    ``.npz``, loaded via
    :func:`~repro.core.serialization.load_synopsis`.
    ``engine_kwargs`` go to :class:`QueryEngine` (``cache_size``,
    ``workers``, ``default_method``, ...).  The engine attaches to the
    source, so the source's own ``marginal`` calls route through it.
    """
    from repro.core.serialization import load_synopsis

    source = source_or_path
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = load_synopsis(source)
    return MarginalServer(
        SourceRouter(QueryEngine(source, attach=True, **engine_kwargs)),
        host=host,
        port=port,
        request_timeout=request_timeout,
        trace_sample_rate=trace_sample_rate,
        metrics_out=metrics_out,
        metrics_interval_s=metrics_interval_s,
    )


def serve_store(
    store_or_path,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    max_engines: int | None = None,
    watch: bool = False,
    watch_interval: float = 0.0,
    trace_sample_rate: float = 0.0,
    metrics_out=None,
    metrics_interval_s: float = 10.0,
    **engine_kwargs,
) -> MarginalServer:
    """Serve every dataset of a synopsis store from one process: an
    unstarted :class:`MarginalServer` over an
    :class:`~repro.serve.multiplex.EngineRouter`.

    ``store_or_path`` is a :class:`~repro.store.SynopsisStore` or its
    root directory; ``max_engines=None`` keeps the default number of
    datasets hot.  ``engine_kwargs`` go to each dataset's
    :class:`QueryEngine`.  Engines are built per dataset on first
    request and hot-swapped on ``POST /v1/reload`` (or automatically
    with ``watch=True``, which polls the manifest mtime at most every
    ``watch_interval`` seconds).
    """
    router = EngineRouter(
        store_or_path,
        max_engines=DEFAULT_MAX_ENGINES if max_engines is None else max_engines,
        watch=watch,
        watch_interval=watch_interval,
        **engine_kwargs,
    )
    return MarginalServer(
        router,
        host=host,
        port=port,
        request_timeout=request_timeout,
        trace_sample_rate=trace_sample_rate,
        metrics_out=metrics_out,
        metrics_interval_s=metrics_interval_s,
    )
