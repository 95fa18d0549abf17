"""Provider entry points: serve the store over HTTP or answer one request.

Config files are plain key=value text, one pair per line, '#' comments:

    repository_name = Demo Repository
    base_url = http://localhost/oai1
    admin_email = admin@example.org
    page_size = 100
    min_interval_seconds = 0
    retry_after_seconds = 60
    redirect_targets =
    clock_offset_minutes = -360
    store_file = catalog.xml      # omit to serve the built-in seed catalog
"""

from __future__ import annotations

import argparse
import contextlib
import io
import queue
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional
from urllib.parse import urlsplit

from .model import RepositoryDescription
from .provider import HttpResponse, Provider, ProviderConfig, ThrottlePolicy
from .request import MAX_REQUEST_BYTES
from .store import FileStore, fixture_store
from .wire import ParseError

#: Connections handled at once; further ones wait in the listen backlog.
MAX_HANDLERS = 16
#: Seconds a connection may spend waiting for its next request and reading
#: it, counted from the end of the response before (or from when a handler
#: takes it): each read waits only for the time left, and the response's one
#: write for what was left.
HANDLER_TIMEOUT_SECONDS = 10


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_provider(values: dict[str, str]) -> Provider:
    repository = RepositoryDescription(
        repository_name=values.get("repository_name", "Example Repository"),
        base_url=values.get("base_url", "http://localhost/oai1"),
        admin_emails=tuple(
            e.strip() for e in values.get("admin_email", "admin@example.org").split(",") if e.strip()
        ),
    )
    targets = tuple(
        t.strip() for t in values.get("redirect_targets", "").split(",") if t.strip()
    )
    config = ProviderConfig(
        repository=repository,
        page_size=int(values.get("page_size", "100")),
        throttle=ThrottlePolicy(
            min_interval_seconds=int(values.get("min_interval_seconds", "0")),
            retry_after_seconds=int(values.get("retry_after_seconds", "60")),
        ),
        redirect_targets=targets,
        clock_offset_minutes=int(values.get("clock_offset_minutes", "0")),
    )
    store_file = values.get("store_file")
    store = FileStore(store_file) if store_file else fixture_store()
    if store_file and not store.formats:
        raise ValueError(f"store file {store_file} has no format catalog")
    return Provider(store, config)


class _DeadlineReader(socket.SocketIO):
    """The raw reader under a connection's buffered `rfile`: each recv waits
    only for the time left before a deadline, so however slowly a request
    trickles in, reading it ends by then."""

    def __init__(self, sock: socket.socket, seconds: float):
        super().__init__(sock, "rb")
        self.restart(seconds)

    def restart(self, seconds: float) -> None:
        self._deadline = time.monotonic() + seconds

    def readinto(self, buffer) -> Optional[int]:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("connection deadline passed")
        self._sock.settimeout(left)
        return super().readinto(buffer)


class _Handler(BaseHTTPRequestHandler):
    provider: Provider = None  # set by serve()
    timeout = HANDLER_TIMEOUT_SECONDS

    protocol_version = "HTTP/1.1"  # connections are kept alive between requests

    def setup(self) -> None:
        super().setup()
        self.rfile.close()  # nothing is read yet: replace it
        self._reader = _DeadlineReader(self.connection, self.timeout)
        self.rfile = io.BufferedReader(self._reader)

    def handle_one_request(self) -> None:
        # the deadline bounds the wait for this request and the reading of it
        self._reader.restart(self.timeout)
        if self.server.wait_for_request(self.connection, self.rfile):
            super().handle_one_request()
        else:
            self.close_connection = True

    def _send(self, resp: HttpResponse) -> None:
        self.send_response(resp.status)
        self.send_header("Content-Type", resp.content_type)
        self.send_header("Content-Length", str(len(resp.body)))
        for name, value in resp.headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # the body alone
            self.wfile.write(resp.body)
        else:
            # one write: a body sent apart from its headers would wait on
            # Nagle's algorithm for the ack of the headers on a kept-alive
            # connection
            self._headers_buffer.extend((b"\r\n", resp.body))
            self.flush_headers()

    def _content_length(self) -> int:
        """The declared length of the request body, or -1 where it is not
        one this handler reads: not a number, or sent in chunks."""
        if "Transfer-Encoding" in self.headers:
            return -1
        try:
            return int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return -1

    def do_GET(self):
        if self._content_length() != 0:
            # the body is left unread, and must not be read as a request
            self.close_connection = True
        # http.server read the request line as Latin-1; a query is UTF-8, as
        # a POST body is
        try:
            raw = urlsplit(self.path).query.encode("latin-1").decode("utf-8")
        except UnicodeDecodeError:
            self._send(HttpResponse(400, b"Query is not UTF-8\n"))
            return
        self._send(self.provider.handle(self.client_address[0], "GET", raw, time.time()))

    def do_POST(self):
        # reject a length we would not read before reading anything, so a
        # hostile Content-Length can neither hang the handler thread nor drop
        # the connection without an answer
        length = self._content_length()
        if not 0 <= length <= MAX_REQUEST_BYTES:
            self.close_connection = True  # the body is left unread
            self._send(HttpResponse(400, b"Bad Content-Length\n"))
            return
        try:
            raw = self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError:
            self._send(HttpResponse(400, b"Request body is not UTF-8\n"))
            return
        self._send(self.provider.handle(self.client_address[0], "POST", raw, time.time()))

    def log_message(self, fmt, *args):
        sys.stderr.write("provider: %s\n" % (fmt % args))


class _PooledHTTPServer(HTTPServer):
    """An HTTPServer that hands each accepted connection to a pool of worker
    threads, each reused from one connection to the next. A connection that
    finds no worker idle starts one, up to MAX_HANDLERS; while that many are
    busy the accept loop waits, and further connections wait in the listen
    backlog. A worker keeps its connection between requests, until the
    client closes it or HANDLER_TIMEOUT_SECONDS pass without a request."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._workers: list[threading.Thread] = []
        self._idle = 0  # workers with no connection to handle
        self._waiting: set[socket.socket] = set()  # connections between requests
        self._closing = False
        # guards _idle, _workers, _waiting and _closing
        self._changed = threading.Condition()

    def process_request(self, request, client_address) -> None:
        with self._changed:
            while not self._idle and len(self._workers) >= MAX_HANDLERS:
                self._changed.wait()
            if self._idle:
                self._idle -= 1
            else:
                worker = threading.Thread(target=self._work, daemon=True)
                worker.start()
                self._workers.append(worker)
        self._jobs.put((request, client_address))

    def _work(self) -> None:
        while (job := self._jobs.get()) is not None:
            request, client_address = job
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
                with self._changed:
                    self._idle += 1
                    self._changed.notify()

    def wait_for_request(self, sock: socket.socket, rfile: io.BufferedReader) -> bool:
        """Wait until the first byte of the next request on a connection is
        read into `rfile`: False if the connection ended or timed out first,
        or was ended by server_close(). Once server_close() has begun, only
        a request already sent is waited for."""
        with self._changed:
            if self._closing:
                sock.settimeout(0)
                try:
                    return bool(sock.recv(1, socket.MSG_PEEK))
                except OSError:
                    return False
            self._waiting.add(sock)
        try:
            return bool(rfile.peek(1))
        except OSError:  # a timeout, or the client reset the connection
            return False
        finally:
            with self._changed:
                self._waiting.discard(sock)

    def server_close(self) -> None:
        """Close the listening socket and every connection waiting for its
        next request, then stop and join every worker once it has finished
        the requests handed to it."""
        super().server_close()
        with self._changed:
            self._closing = True
            for sock in self._waiting:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
        for _ in self._workers:
            self._jobs.put(None)
        for worker in self._workers:
            worker.join()


def serve(provider: Provider, port: int, host: str = "") -> HTTPServer:
    handler = type("BoundHandler", (_Handler,), {"provider": provider})
    return _PooledHTTPServer((host, port), handler)


def ask(provider: Provider, raw_request: str) -> tuple[int, bytes]:
    """One-shot command-line request, CGI-style output: header lines, a blank
    line, then the body as it would be sent."""
    resp = provider.handle("cli", "GET", raw_request, time.time())
    lines = []
    if resp.status != 200:
        reason = {400: "Malformed request", 503: "Retry later", 302: "Found"}.get(
            resp.status, "Error"
        )
        lines.append(f"Status: {resp.status} {reason}")
    lines.append(f"Content-Type: {resp.content_type}")
    for name, value in resp.headers:
        lines.append(f"{name}: {value}")
    head = "\n".join(lines) + "\n\n"
    return resp.status, head.encode("utf-8") + resp.body


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="provider", description="OAI v1.0 data-provider")
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="serve the store over HTTP")
    serve_p.add_argument("--config", help="key=value config file")
    serve_p.add_argument("--port", type=int, default=8080)

    ask_p = sub.add_parser("ask", help="answer one request on the command line")
    ask_p.add_argument("request", help="urlencoded request, e.g. 'verb=Identify'")
    ask_p.add_argument("--config", help="key=value config file")

    args = parser.parse_args(argv)
    try:
        values = parse_config_file(args.config) if args.config else {}
        provider = build_provider(values)
    except (OSError, ValueError, ParseError) as exc:
        sys.stderr.write(f"provider: {exc}\n")
        return 2

    if args.command == "serve":
        server = serve(provider, args.port)
        sys.stderr.write(f"provider: serving on port {server.server_address[1]}\n")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    status, output = ask(provider, args.request)
    sys.stdout.buffer.write(output + b"\n")
    return 0 if status == 200 else 1


if __name__ == "__main__":
    sys.exit(main())
