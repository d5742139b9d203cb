"""``python -m repro.serve`` — the façade as a stdlib-only JSON service.

One long-lived :class:`~repro.api.Session` behind a threading HTTP server;
the wire surface is exactly the :mod:`repro.api` request/response classes:

* ``POST /v1/eval``   — an :class:`~repro.api.EvalRequest` body
* ``POST /v1/search`` — a :class:`~repro.api.SearchRequest` body
* ``POST /v1/sweep``  — a :class:`~repro.api.SweepRequest` body
* ``GET  /v1/healthz`` — liveness + session counters
  (:meth:`~repro.api.Session.describe`)

Responses are the matching response classes' ``to_dict`` payloads.
Deliberate failures map to structured error bodies with **stable codes**
(:mod:`repro.errors`)::

    {"error": {"code": "invalid_request", "type": "InvalidRequestError",
               "message": "..."}}

``invalid_request``/``unknown_backend`` return 400, ``incompatible_cell``
422, unexpected exceptions 500 (code ``internal_error``).  Because every
handler thread shares the one session, concurrent identical requests
coalesce to a single evaluation and repeat traffic is served from the
session's caches — the server gets *faster* under load, not slower.

Concurrency and fleet sharing:

* ``--threads N`` sizes the session's dispatch pool: each HTTP handler
  thread enqueues its request via :meth:`~repro.api.Session.submit` and
  blocks on the future, so at most N requests execute concurrently while
  identical in-flight ones coalesce.  On a multi-core host a threaded
  server also enables the session's request-level *process offload* (cold
  analytical searches run whole in worker processes), which is what lets
  concurrent throughput scale past the GIL.
* ``--store PATH`` mounts a disk-backed
  :class:`~repro.store.ResultStore` shared across server processes: N
  replicas pointed at one store file serve each other's warm results
  (such responses report ``"served_from": "store"``).

No third-party dependencies: ``http.server`` + ``json`` + ``sqlite3``
only.

Usage::

    python -m repro.serve [--host 127.0.0.1] [--port 8080] [--threads N]
                          [--workers N] [--runs-dir DIR] [--store PATH]

``--port 0`` binds an ephemeral port; the chosen port is printed on the
``serving on http://host:port`` line (machine-parsable — the smoke test
and the e2e test read it).  SIGTERM stops the server like Ctrl-C: the
session closes and its offload workers exit with it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import List, Optional

from repro.api import Session, request_from_dict
from repro.errors import ReproError

#: Maximum accepted request body (bytes) — a guard, not a limit anyone
#: legitimate hits (the largest inline request is a few hundred KB).
MAX_BODY_BYTES = 8 * 1024 * 1024

_ROUTES = {"/v1/eval": "eval", "/v1/search": "search", "/v1/sweep": "sweep"}


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` surface onto the server's shared session."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, a keep-alive
    # client's delayed ACK of the first holds back the second (~40 ms).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ verbs
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path.split("?", 1)[0] != "/v1/healthz":
            self._send_error_body(404, "not_found", "NotFound",
                                  f"no such endpoint {self.path!r}")
            return
        payload = dict(self.server.session.describe())
        payload["status"] = "ok"
        self._send_json(200, payload)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        kind = _ROUTES.get(self.path.split("?", 1)[0])
        if kind is None:
            self._send_error_body(404, "not_found", "NotFound",
                                  f"no such endpoint {self.path!r}; "
                                  f"POST one of {sorted(_ROUTES)}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                # The unread body would desynchronize a keep-alive
                # connection; drop it instead of draining it.
                self.close_connection = True
                self._send_error_body(413, "invalid_request",
                                      "InvalidRequestError",
                                      f"request body over {MAX_BODY_BYTES} "
                                      "bytes")
                return
            body = self.rfile.read(length)
            data = json.loads(body.decode("utf-8") or "{}")
            request = request_from_dict(kind, data)
            # Dispatch through the session's thread pool rather than
            # executing on this handler thread: the pool caps execution
            # concurrency at the session's --threads, and submit() is
            # where identical in-flight requests coalesce.
            response = self.server.session.submit(request).result()
        except json.JSONDecodeError as exc:
            self._send_error_body(400, "invalid_request",
                                  "InvalidRequestError",
                                  f"request body is not valid JSON: {exc}")
        except ReproError as exc:
            status = 422 if exc.code == "incompatible_cell" else 400
            self._send_json(status, {"error": exc.payload()})
        except Exception as exc:
            # Defensive 500 path: the client gets the structured
            # internal_error payload; the operator gets the traceback
            # (the payload's one-line message is useless for diagnosis).
            sys.stderr.write(traceback.format_exc())
            self._send_error_body(500, "internal_error", type(exc).__name__,
                                  str(exc))
        else:
            self._send_json(200, response.to_dict())

    # ---------------------------------------------------------------- helpers
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_body(self, status: int, code: str, error_type: str,
                         message: str) -> None:
        self._send_json(status, {"error": {"code": code, "type": error_type,
                                           "message": message}})

    def log_message(self, fmt: str, *args) -> None:
        # One concise line per request on stderr (BaseHTTPRequestHandler's
        # default format, minus the noisy date duplication).
        sys.stderr.write(f"{self.address_string()} - {fmt % args}\n")


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one shared :class:`Session`."""

    daemon_threads = True

    def __init__(self, address, session: Session):
        super().__init__(address, ReproRequestHandler)
        self.session = session


def create_server(host: str = "127.0.0.1", port: int = 0,
                  session: Optional[Session] = None) -> ReproServer:
    """Bind (but do not start) a server; ``port=0`` picks an ephemeral one.

    The caller owns the returned server: run ``serve_forever()`` (possibly
    on a thread) and ``shutdown()`` / ``server_close()`` when done.  The
    bound port is ``server.server_address[1]``.
    """
    return ReproServer((host, port), session or Session(name="serve"))


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    # Exercised end-to-end by tools/service_smoke.py in a subprocess (CI's
    # service job), which the in-process coverage run cannot see.
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="JSON service over the repro.api façade "
                    "(/v1/eval, /v1/search, /v1/sweep, /v1/healthz).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=8080,
                        help="TCP port; 0 binds an ephemeral port "
                             "(printed on startup)")
    parser.add_argument("--threads", type=int, default=4,
                        help="concurrent request executions (the session's "
                             "dispatch pool; default 4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="session-default worker processes per search "
                             "(default: REPRO_SEARCH_WORKERS, then serial)")
    parser.add_argument("--runs-dir", type=Path, default=None,
                        help="artifact directory for sweep requests "
                             "(default: sweeps stay in memory)")
    parser.add_argument("--store", type=Path, default=None,
                        help="disk-backed result store shared across "
                             "replicas (default: in-memory caches only)")
    args = parser.parse_args(argv)

    # Request-level process offload only pays off when there is a core to
    # offload *to*; on a single-core host the threaded front still serves
    # (and coalesces/caches) concurrently, it just executes inline.
    offload = args.threads > 1 and (os.cpu_count() or 1) > 1
    session = Session(workers=args.workers, runs_dir=args.runs_dir,
                      name="serve", threads=args.threads,
                      store_path=args.store, offload=offload)
    server = create_server(args.host, args.port, session)
    host, port = server.server_address[:2]
    # SIGTERM (a process manager's stop) leaves through the same path as
    # Ctrl-C, so the finally block below reaps the offload workers.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        session.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
