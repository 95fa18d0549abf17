"""The data-provider service: request dispatch, paging, throttling, redirects.

`Provider.handle` is a pure-ish entry point (mutating only the throttle table
and redirect rotation) mapping one raw request to one HTTP response, so it is
equally usable from a real HTTP server, the command line, or an in-process
test transport.
"""

from __future__ import annotations

import base64
import threading
from dataclasses import dataclass, field, replace
from typing import Optional

from .model import (
    Datestamp,
    ItemIdentifier,
    MalformedDate,
    MetadataRecord,
    OaiRequest,
    OaiVerb,
    RepositoryDescription,
    ResponseDate,
    ResumptionToken,
    datestamp_parse,
)
from .request import RequestSyntaxError, encode_request, parse_request, validate_request
from .store import MemoryStore, NotFound
from .wire import BodyItem, ResponseEnvelope, render_envelope


@dataclass(frozen=True)
class ThrottlePolicy:
    """Per-client-address rate limit: serve at most one request per interval."""

    min_interval_seconds: int = 0
    retry_after_seconds: int = 60

    def __post_init__(self):
        if self.min_interval_seconds < 0:
            raise ValueError("min_interval_seconds must be non-negative")
        if self.min_interval_seconds > 0 and self.retry_after_seconds < 1:
            raise ValueError("retry_after_seconds must be at least 1")


@dataclass(frozen=True)
class ProviderConfig:
    repository: RepositoryDescription
    page_size: int = 100
    throttle: ThrottlePolicy = field(default_factory=ThrottlePolicy)
    redirect_targets: tuple[str, ...] = ()
    clock_offset_minutes: int = 0

    def __post_init__(self):
        if self.page_size < 1:
            raise ValueError("page_size must be at least 1")


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: str = ""
    content_type: str = "text/plain"
    headers: tuple[tuple[str, str], ...] = ()


class BadResumptionToken(ValueError):
    pass


@dataclass(frozen=True)
class PageCursor:
    """Stateless keyset continuation cursor; encodes losslessly to a token.

    `after` is the `(datestamp text, identifier)` key of the last item served,
    so a harvest never skips an item that stays unchanged while it runs.
    Layout: verb:from:until:last_datestamp:last_identifier:prefix with '-'
    marking absent fields; the identifier is unpadded urlsafe base64, and the
    prefix comes last so it may contain further colons.
    """

    verb: OaiVerb
    from_date: Optional[Datestamp] = None
    until_date: Optional[Datestamp] = None
    prefix: Optional[str] = None
    after: Optional[tuple[str, str]] = None

    def encode(self) -> ResumptionToken:
        last_date, last_id = self.after or ("-", None)
        parts = [
            self.verb.value,
            str(self.from_date) if self.from_date else "-",
            str(self.until_date) if self.until_date else "-",
            last_date,
            "-" if last_id is None else _b64(last_id.encode("utf-8")),
            self.prefix if self.prefix else "-",
        ]
        return ResumptionToken(":".join(parts))

    @classmethod
    def decode(cls, token: str) -> "PageCursor":
        parts = token.split(":", 5)
        if len(parts) != 6:
            raise BadResumptionToken(token)
        verb_text, from_text, until_text, last_date, last_id, prefix = parts
        try:
            verb = OaiVerb(verb_text)
            from_date = None if from_text == "-" else datestamp_parse(from_text)
            until_date = None if until_text == "-" else datestamp_parse(until_text)
            after = None
            if (last_date, last_id) != ("-", "-"):
                raw = base64.urlsafe_b64decode(last_id + "=" * (-len(last_id) % 4))
                if _b64(raw) != last_id:  # only the text encode() writes
                    raise ValueError(last_id)
                after = (str(datestamp_parse(last_date)), raw.decode("utf-8"))
        except (ValueError, MalformedDate):
            raise BadResumptionToken(token) from None
        return cls(verb, from_date, until_date, prefix if prefix != "-" else None, after)


def _b64(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def throttle_check(
    last_served: dict[str, float],
    client_addr: str,
    now: float,
    policy: ThrottlePolicy,
) -> Optional[int]:
    """None when the request may be served (recording now as last-served time),
    otherwise the Retry-After interval in seconds.

    Denied requests do not update the table, so a client that waits the
    advertised interval is always served on its next attempt.
    """
    if policy.min_interval_seconds <= 0:
        return None
    last = last_served.get(client_addr)
    if last is not None and now - last < policy.min_interval_seconds:
        return policy.retry_after_seconds
    last_served[client_addr] = now
    return None


#: the throttle table is first swept at this size
THROTTLE_SWEEP_MIN = 1024


class Provider:
    def __init__(self, store: MemoryStore, config: ProviderConfig):
        self.store = store
        self.config = config
        self._last_served: dict[str, float] = {}
        self._sweep_at = THROTTLE_SWEEP_MIN
        self._throttle_lock = threading.Lock()
        self._redirect_index = 0

    # -- flow control -------------------------------------------------------

    def _check_throttle(self, client_addr: str, now: float) -> Optional[int]:
        with self._throttle_lock:
            table = self._last_served
            retry = throttle_check(table, client_addr, now, self.config.throttle)
            if len(table) >= self._sweep_at:
                # forget clients served an interval ago or more, which can deny
                # nothing; sweeping once the table has doubled costs O(1) a call
                interval = self.config.throttle.min_interval_seconds
                for addr in [a for a, last in table.items() if now - last >= interval]:
                    del table[addr]
                self._sweep_at = max(THROTTLE_SWEEP_MIN, 2 * len(table))
            return retry

    def _next_redirect(self) -> str:
        with self._throttle_lock:
            target = self.config.redirect_targets[
                self._redirect_index % len(self.config.redirect_targets)
            ]
            self._redirect_index += 1
        return target

    # -- dispatch -----------------------------------------------------------

    def _request_url(self, req: OaiRequest) -> str:
        return self.config.repository.base_url + "?" + encode_request(req)

    def dispatch(self, req: OaiRequest, now: float) -> ResponseEnvelope:
        """Build the response envelope for a validated request.

        Invalid parameter values (unknown identifier, unknown format, bad
        token) yield envelopes with reduced or empty bodies, never an error.
        """
        response_date = ResponseDate.from_epoch(now, self.config.clock_offset_minutes)
        request_url = self._request_url(req)

        def envelope(items: list[BodyItem], token: Optional[ResumptionToken] = None):
            return ResponseEnvelope(req.verb, response_date, request_url, tuple(items), token)

        verb = req.verb
        if verb is OaiVerb.IDENTIFY:
            return envelope([self.config.repository])

        if verb is OaiVerb.GET_RECORD:
            try:
                item = self.store.get_item(ItemIdentifier(req.arg("identifier")))
            except (NotFound, ValueError):
                return envelope([])
            return envelope([MetadataRecord(item.header(), item.payload(req.arg("metadataPrefix")))])

        token_arg = req.arg("resumptionToken")
        if verb is OaiVerb.LIST_METADATA_FORMATS and token_arg is None:
            identifier = req.arg("identifier")
            if identifier is None:
                return envelope(self.store.formats)
            try:
                return envelope(self.store.formats_for(ItemIdentifier(identifier)))
            except (NotFound, ValueError):
                return envelope([])
        if verb not in (OaiVerb.LIST_IDENTIFIERS, OaiVerb.LIST_RECORDS):
            # ListSets (this repository has no sets) and ListMetadataFormats
            # answer in one page, so no token is ever issued for them
            return envelope([])

        if token_arg is not None:
            try:
                cursor = PageCursor.decode(token_arg)
            except BadResumptionToken:
                return envelope([])
            if cursor.verb is not verb:
                return envelope([])
        elif req.arg("set") is not None:
            # sets are accepted by the grammar but this repository has none
            return envelope([])
        else:
            cursor = PageCursor(verb, _maybe_date(req.arg("from")),
                                _maybe_date(req.arg("until")), req.arg("metadataPrefix"))
        if verb is OaiVerb.LIST_RECORDS and self.store.format_for_prefix(cursor.prefix) is None:
            # repository-unknown format: empty reply at repository level
            return envelope([])

        # one item past the page tells whether a continuation is needed
        page_size = self.config.page_size
        page = self.store.ids_by_date(cursor.from_date, cursor.until_date, cursor.after,
                                      limit=page_size + 1)
        token = None
        if len(page) > page_size:
            del page[page_size:]
            last = page[-1]
            token = replace(cursor, after=(str(last.datestamp), last.identifier.value)).encode()
        if verb is OaiVerb.LIST_IDENTIFIERS:
            return envelope([item.header() for item in page], token)
        return envelope(
            [MetadataRecord(item.header(), item.payload(cursor.prefix)) for item in page], token
        )

    # -- HTTP surface -------------------------------------------------------

    def handle(
        self, client_addr: str, method: str, raw_request: str, now: float
    ) -> HttpResponse:
        """Answer one request: 503 (throttled), 302 (redirect policy), 400
        (syntax error), 200 (envelope), or 500 on internal failure."""
        retry = self._check_throttle(client_addr, now)
        if retry is not None:
            return HttpResponse(503, "Retry after %d seconds\n" % retry,
                                headers=(("Retry-After", str(retry)),))
        if self.config.redirect_targets:
            location = self._next_redirect()
            if method.upper() == "GET" and raw_request:
                location = location + "?" + raw_request
            return HttpResponse(302, headers=(("Location", location),))
        try:
            try:
                req = validate_request(parse_request(raw_request))
            except RequestSyntaxError as exc:
                return HttpResponse(400, exc.message + "\n")
            body = render_envelope(self.dispatch(req, now))
            return HttpResponse(200, body, content_type="text/xml")
        except Exception as exc:  # pragma: no cover - defensive
            return HttpResponse(500, f"internal error: {exc}\n")


def _maybe_date(text: Optional[str]) -> Optional[Datestamp]:
    return datestamp_parse(text) if text is not None else None
