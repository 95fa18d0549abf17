"""Harvester-side HTTP transport: one request, retry-after and redirect aware.

`oai_get` issues a single protocol request and transparently handles 503
retry-after waits (via an injectable clock, so tests never sleep for real)
and 302 redirects (re-issuing a POST as a POST with the same body).
`http_transport` keeps its connection to a provider open for the next request.
"""

from __future__ import annotations

import atexit
import http.client
import logging
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Optional

from .model import OaiRequest
from .request import encode_request

logger = logging.getLogger("oaimh.client")

USER_AGENT = "oaimh-harvest/0.1"
DEFAULT_RETRY_SECONDS = 60
#: 503 waits and 302 hops one request may take before it gives up.
MAX_RETRIES = 5
MAX_REDIRECTS = 5
#: The longest Retry-After a request waits; past it the request gives up.
MAX_RETRY_SECONDS = 3600

#: Connect and read timeout of `http_transport`, in seconds; a provider that
#: stops answering surfaces as ConnectionFailed instead of a hang.
HTTP_TIMEOUT_SECONDS = 60
#: The largest response body `http_transport` reads; a longer one is a
#: ConnectionFailed.
MAX_RESPONSE_BYTES = 64 * 1024 * 1024


class TransportError(Exception):
    pass


class RetriesExhausted(TransportError):
    pass


class RedirectLoop(TransportError):
    pass


class ConnectionFailed(TransportError):
    pass


class HttpError(TransportError):
    def __init__(self, status: int, body: bytes = b""):
        super().__init__(f"HTTP status {status}")
        self.status = status
        self.body = body


@dataclass(frozen=True)
class ClientConfig:
    """Harvesting identity and HTTP method; refuses to run anonymously."""

    contact_email: str
    method: str = "POST"

    def __post_init__(self):
        if not self.contact_email:
            raise ValueError("a contact email is required for harvesting")
        if self.method not in ("GET", "POST"):
            raise ValueError(f"method must be GET or POST, not {self.method!r}")


class SystemClock:
    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


#: (url, method, query_or_body, headers) -> (status, headers dict, body),
#: where body is the response body as received, undecoded
Transport = Callable[[str, str, str, dict], tuple[int, dict, bytes]]


#: Connections `http_transport` keeps open between requests, at most one per
#: (scheme, netloc); a connection is taken out while it carries a request.
_IDLE: dict[tuple[str, str], http.client.HTTPConnection] = {}


def close_idle_connections() -> None:
    """Close every connection `http_transport` keeps open."""
    while _IDLE:
        _IDLE.popitem()[1].close()


atexit.register(close_idle_connections)


def http_transport(url: str, method: str, payload: str, headers: dict) -> tuple[int, dict, bytes]:
    """Plain http.client transport with redirects left to the caller. It
    sends over the open connection to the same scheme and host if there is
    one, and keeps its connection open afterwards unless the provider said
    it would close it. A request on a reused connection that the provider
    closed meanwhile is sent once more, on a new connection: OAI requests
    only read."""
    parts = urllib.parse.urlsplit(url)
    conn_cls = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    path = parts.path or "/"
    body = None
    if method == "GET":
        if payload:
            path = path + "?" + payload
    else:
        body = payload
        headers = dict(headers, **{"Content-Type": "application/x-www-form-urlencoded"})
    key = (parts.scheme, parts.netloc)
    conn = _IDLE.pop(key, None)
    reused = conn is not None
    if not reused:
        conn = conn_cls(parts.netloc, timeout=HTTP_TIMEOUT_SECONDS)
    keep = False
    try:
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
        # http.client.RemoteDisconnected is a ConnectionResetError
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            conn.close()
            conn = conn_cls(parts.netloc, timeout=HTTP_TIMEOUT_SECONDS)
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
        data = resp.read(MAX_RESPONSE_BYTES + 1)
        if len(data) > MAX_RESPONSE_BYTES:
            raise ConnectionFailed(f"response body longer than {MAX_RESPONSE_BYTES} bytes")
        resp_headers = {k.lower(): v for k, v in resp.getheaders()}
        keep = resp.isclosed() and not resp.will_close  # the body was read to its end
    except OSError as exc:
        raise ConnectionFailed(str(exc)) from None
    finally:
        # a connection already kept for this host stays; this one closes
        if not keep or _IDLE.setdefault(key, conn) is not conn:
            conn.close()
    return resp.status, resp_headers, data


def _retry_seconds(value: Optional[str]) -> int:
    if value is None:
        logger.warning("503 without Retry-After (data-provider error), using default")
        return DEFAULT_RETRY_SECONDS
    try:
        seconds = max(1, int(value))
    except ValueError:
        # HTTP-date form is out of scope; treat as absent
        logger.warning("unparseable Retry-After %r, using default", value)
        return DEFAULT_RETRY_SECONDS
    if seconds > MAX_RETRY_SECONDS:
        raise RetriesExhausted(f"Retry-After {seconds} s is longer than {MAX_RETRY_SECONDS} s")
    return seconds


def oai_get(
    base_url: str,
    req: OaiRequest,
    cfg: ClientConfig,
    clock=None,
    transport: Transport = http_transport,
) -> bytes:
    """Issue one protocol request and return the final 200 body as received.

    Flow control: each 503 waits the advertised Retry-After (bounded by
    MAX_RETRIES in total, and each wait by MAX_RETRY_SECONDS); each 302
    re-issues to the Location URL, preserving verb, arguments and method,
    bounded by MAX_REDIRECTS. Each step is logged at INFO on the
    `oaimh.client` logger.
    """
    clock = clock or SystemClock()
    payload = encode_request(req)
    headers = {"From": cfg.contact_email, "User-Agent": USER_AGENT}
    url = base_url
    retries = 0
    redirects = 0
    while True:
        logger.info("Doing %s to %s args: %s", cfg.method, url, payload)
        status, resp_headers, body = transport(url, cfg.method, payload, headers)
        if status == 200:
            logger.info("Got 200 OK (%dbytes)", len(body))
            return body
        if status == 503:
            if retries >= MAX_RETRIES:
                raise RetriesExhausted(f"gave up after {retries} retries")
            retries += 1
            wait = _retry_seconds(resp_headers.get("retry-after"))
            logger.info("Got 503, sleeping for %d seconds...", wait)
            clock.sleep(wait)
            logger.info("Woken again, retrying...")
            continue
        if status == 302:
            if redirects >= MAX_REDIRECTS:
                raise RedirectLoop(f"gave up after {redirects} redirects")
            redirects += 1
            location = resp_headers.get("location")
            if not location:
                raise HttpError(status, body)
            url = urllib.parse.urljoin(url, location).split("?")[0]
            logger.info("Got 302, redirecting to %s", location)
            continue
        raise HttpError(status, body)
