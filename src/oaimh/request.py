"""Request parsing and per-verb argument grammar validation.

Requests arrive as application/x-www-form-urlencoded key=value strings from a
GET query, a POST body or the command line. Everything either parses and
validates, or raises RequestSyntaxError; there is no third outcome.
"""

from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass

from .model import MalformedDate, OaiRequest, OaiVerb, datestamp_parse

#: Defensive cap on the raw request; oversized input is a syntax error.
MAX_REQUEST_BYTES = 8192

NO_VERB_MESSAGE = "No verb specified!"


class RequestSyntaxError(Exception):
    """A malformed or grammar-violating request; answered with HTTP 400."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


@dataclass(frozen=True)
class VerbGrammar:
    required_args: frozenset[str]
    optional_args: frozenset[str]
    # argument sets that may not co-occur in one request
    exclusive_groups: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()

    def legal_args(self) -> frozenset[str]:
        return self.required_args | self.optional_args


_SELECTION = frozenset({"from", "until", "set"})
_TOKEN = frozenset({"resumptionToken"})

#: Static grammar table, total over the six verbs (v1.0 semantics).
GRAMMAR: dict[OaiVerb, VerbGrammar] = {
    OaiVerb.IDENTIFY: VerbGrammar(frozenset(), frozenset()),
    OaiVerb.LIST_SETS: VerbGrammar(frozenset(), _TOKEN),
    OaiVerb.LIST_METADATA_FORMATS: VerbGrammar(
        frozenset(), frozenset({"identifier"}) | _TOKEN,
        exclusive_groups=((_TOKEN, frozenset({"identifier"})),),
    ),
    OaiVerb.GET_RECORD: VerbGrammar(
        frozenset({"identifier", "metadataPrefix"}), frozenset()
    ),
    OaiVerb.LIST_IDENTIFIERS: VerbGrammar(
        frozenset(), _SELECTION | _TOKEN,
        exclusive_groups=((_TOKEN, _SELECTION),),
    ),
    OaiVerb.LIST_RECORDS: VerbGrammar(
        # metadataPrefix is required unless a resumptionToken stands alone
        frozenset(), _SELECTION | _TOKEN | frozenset({"metadataPrefix"}),
        exclusive_groups=((_TOKEN, _SELECTION | frozenset({"metadataPrefix"})),),
    ),
}

_BAD_ESCAPE_RE = re.compile(r"%(?![0-9A-Fa-f]{2})")


def _decode_component(text: str) -> str:
    if _BAD_ESCAPE_RE.search(text):
        raise RequestSyntaxError(f"invalid percent-escape in {text!r}")
    try:
        return urllib.parse.unquote(text.replace("+", " "), errors="strict")
    except UnicodeDecodeError:
        raise RequestSyntaxError(f"undecodable percent-escape in {text!r}") from None


def parse_request(raw: str) -> OaiRequest:
    """Decode a urlencoded request string into an OaiRequest.

    The verb key is resolved; the remaining pairs become args in first-seen
    order. A missing verb is reported before any other malformation, matching
    the provider's fixed "No verb specified!" reply.
    """
    if len(raw.encode("utf-8", errors="surrogateescape")) > MAX_REQUEST_BYTES:
        raise RequestSyntaxError("request too large")

    pairs: list[tuple[str, str]] = []
    malformed: str | None = None
    for chunk in raw.split("&"):
        if chunk == "" and raw == "":
            continue
        if "=" not in chunk:
            malformed = malformed or f"malformed key=value pair: {chunk!r}"
            continue
        key, _, value = chunk.partition("=")
        pairs.append((_decode_component(key), _decode_component(value)))

    names = [k for k, _ in pairs]
    if "verb" not in names:
        raise RequestSyntaxError(NO_VERB_MESSAGE)
    if malformed:
        raise RequestSyntaxError(malformed)

    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise RequestSyntaxError(f"duplicate argument: {name}")
        seen.add(name)

    verb_text = dict(pairs)["verb"]
    try:
        verb = OaiVerb(verb_text)
    except ValueError:
        raise RequestSyntaxError(f"unknown verb: {verb_text}") from None

    args = tuple((k, v) for k, v in pairs if k != "verb")
    return OaiRequest(verb, args)


def validate_request(req: OaiRequest) -> OaiRequest:
    """Check req against the grammar table; returns req unchanged if legal."""
    grammar = GRAMMAR[req.verb]
    present = set(req.arg_names())

    for name in present - grammar.legal_args():
        raise RequestSyntaxError(f"illegal argument for {req.verb.value}: {name}")
    for name in grammar.required_args - present:
        raise RequestSyntaxError(f"missing required argument: {name}")
    for group_a, group_b in grammar.exclusive_groups:
        if present & group_a and present & group_b:
            raise RequestSyntaxError(
                f"{sorted(present & group_a)[0]} may not be combined with other arguments"
            )
    if req.verb is OaiVerb.LIST_RECORDS:
        if "metadataPrefix" not in present and "resumptionToken" not in present:
            raise RequestSyntaxError("missing required argument: metadataPrefix")

    for name in ("from", "until"):
        value = req.arg(name)
        if value is not None:
            try:
                datestamp_parse(value)
            except MalformedDate:
                raise RequestSyntaxError(f"malformed date in {name}: {value!r}") from None
    return req


def encode_request(req: OaiRequest) -> str:
    """Re-encode a request as a urlencoded string, verb first."""
    pairs = [("verb", req.verb.value)] + list(req.args)
    return urllib.parse.urlencode(pairs)
