"""Core domain vocabulary: verbs, identifiers, datestamps, records and formats.

All types here are immutable value objects; the wire and storage layers rely
on the invariants enforced at construction time.
"""

from __future__ import annotations

import datetime as _dt
import pyexpat  # the C module that xml.parsers.expat re-exports
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

DC_SCHEMA_URL = "http://www.openarchives.org/OAI/dc.xsd"


class MalformedDate(ValueError):
    """Raised when a string is not a canonical YYYY-MM-DD calendar date."""


class MalformedPayload(ValueError):
    """Raised when a payload or description block could not be written out as it is."""


class OaiVerb(str, Enum):
    IDENTIFY = "Identify"
    GET_RECORD = "GetRecord"
    LIST_IDENTIFIERS = "ListIdentifiers"
    LIST_RECORDS = "ListRecords"
    LIST_SETS = "ListSets"
    LIST_METADATA_FORMATS = "ListMetadataFormats"


# fullmatch, and [0-9] rather than \d, which also matches non-ASCII digits
_DATESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

#: A day; `str()` gives its canonical YYYY-MM-DD form, which sorts in calendar order.
Datestamp = _dt.date


def datestamp_parse(text: str) -> Datestamp:
    """Parse a canonical YYYY-MM-DD string; anything else is MalformedDate."""
    if not _DATESTAMP_RE.fullmatch(text):
        raise MalformedDate(f"not a YYYY-MM-DD date: {text!r}")
    try:
        # the pattern admits only what fromisoformat reads as YYYY-MM-DD
        return Datestamp.fromisoformat(text)
    except ValueError:
        raise MalformedDate(f"no such calendar date: {text!r}") from None


_RESPONSE_DATE_RE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})([+-])([0-9]{2}):([0-9]{2})"
)


@dataclass(frozen=True)
class ResponseDate:
    """A repository-local timestamp, YYYY-MM-DDThh:mm:ss with a fixed offset."""

    date: Datestamp
    hour: int
    minute: int
    second: int
    utc_offset_minutes: int

    def __post_init__(self):
        if not (0 <= self.hour <= 23 and 0 <= self.minute <= 59 and 0 <= self.second <= 59):
            raise ValueError(f"invalid time of day: {self.hour}:{self.minute}:{self.second}")

    def render(self) -> str:
        sign = "-" if self.utc_offset_minutes < 0 else "+"
        off = abs(self.utc_offset_minutes)
        return (
            f"{self.date}T{self.hour:02d}:{self.minute:02d}:{self.second:02d}"
            f"{sign}{off // 60:02d}:{off % 60:02d}"
        )

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "ResponseDate":
        m = _RESPONSE_DATE_RE.fullmatch(text)
        if not m:
            raise MalformedDate(f"not a YYYY-MM-DDThh:mm:ss±hh:mm timestamp: {text!r}")
        date = datestamp_parse(m.group(1))
        offset = int(m.group(6)) * 60 + int(m.group(7))
        if m.group(5) == "-":
            offset = -offset
        return cls(date, int(m.group(2)), int(m.group(3)), int(m.group(4)), offset)

    @classmethod
    def from_epoch(cls, epoch_seconds: float, utc_offset_minutes: int) -> "ResponseDate":
        """Timestamp for an absolute instant, rendered in the given fixed zone."""
        t = _dt.datetime.fromtimestamp(epoch_seconds, _dt.timezone.utc)
        t += _dt.timedelta(minutes=utc_offset_minutes)
        return cls(t.date(), t.hour, t.minute, t.second, utc_offset_minutes)


@dataclass(frozen=True)
class ItemIdentifier:
    """An item's metadata identifier: any URI; compared by exact byte equality."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("identifier must be non-empty")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RecordHeader:
    """Harvesting key for an item: identifier, datestamp, deletion flag.

    datestamp is None for headers parsed off the wire from responses that do
    not carry one (ListIdentifiers responses list bare identifiers).
    """

    identifier: ItemIdentifier
    datestamp: Optional[Datestamp] = None
    deleted: bool = False


class _MiscSeen(Exception):
    pass


def _misc_seen(*_) -> None:
    raise _MiscSeen


def _refuse_prolog(*_) -> None:
    raise MalformedPayload("an XML or DOCTYPE declaration would land inside a document")


def _parse_payload(text: str, misc, start=None, end=None) -> None:
    parser = pyexpat.ParserCreate(namespace_separator=" ")
    # an unbound prefix or a declaration would make the envelope unreadable
    parser.XmlDeclHandler = parser.StartDoctypeDeclHandler = _refuse_prolog
    parser.CommentHandler = parser.ProcessingInstructionHandler = misc
    parser.StartElementHandler, parser.EndElementHandler = start, end
    try:
        parser.Parse(text, True)
    except pyexpat.ExpatError as exc:
        raise MalformedPayload(f"not well-formed XML: {exc}") from None


class Payload(str):
    """The source text of one element, cut out by `wire.read_xml` from a
    document it parsed whole. That parse is its check: `check_payload` passes
    it without parsing it again. Nothing else makes one."""

    __slots__ = ()


def check_payload(text: str) -> None:
    """Refuse text that is not one well-formed, namespace-well-formed XML
    element with only whitespace around it. Payloads and description blocks
    are written out as held: each is checked once, on entry, never when served.
    """
    if isinstance(text, Payload):
        return
    try:
        _parse_payload(text, _misc_seen)
        return
    except _MiscSeen:
        pass
    # comments and processing instructions are rare: parse again to refuse one
    # outside the element, which a harvester's cut of the element would lose
    opened: list[None] = []

    def misc(*_) -> None:
        if not opened:
            raise MalformedPayload("a comment or processing instruction outside the element")

    _parse_payload(text, misc, lambda *_: opened.append(None), lambda _: opened.pop())


@dataclass(frozen=True)
class MetadataRecord:
    """A disseminated record: header plus optional metadata payload.

    The payload is a single well-formed XML element kept as an opaque string.
    """

    header: RecordHeader
    metadata: Optional[str] = None

    def __post_init__(self):
        if self.header.deleted and self.metadata is not None:
            raise ValueError("deleted records cannot carry metadata")


_PREFIX_FORBIDDEN = set(" \t\r\n&=?")


@dataclass(frozen=True)
class MetadataFormatDescriptor:
    """(prefix, schema URL, optional namespace) identifying a metadata format."""

    prefix: str
    schema_url: str
    namespace: Optional[str] = None

    def __post_init__(self):
        if not self.prefix or any(c in _PREFIX_FORBIDDEN for c in self.prefix):
            raise ValueError(f"invalid metadataPrefix: {self.prefix!r}")
        if self.prefix == "oai_dc" and self.schema_url != DC_SCHEMA_URL:
            raise ValueError(f"oai_dc must use schema {DC_SCHEMA_URL}")


@dataclass(frozen=True)
class RepositoryDescription:
    """Repository self-description served by the Identify verb."""

    repository_name: str
    base_url: str
    admin_emails: tuple[str, ...]
    protocol_version: str = "1.0"
    # optional description blocks preserved verbatim, never generated here
    descriptions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.protocol_version != "1.0":
            raise ValueError("protocol version is fixed at 1.0")
        if not self.admin_emails:
            raise ValueError("at least one admin email is required")
        for block in self.descriptions:
            check_payload(block)


@dataclass(frozen=True)
class ResumptionToken:
    """Opaque continuation handle; only the issuing provider interprets it."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("resumption token must be non-empty")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class OaiRequest:
    """A parsed verb plus its argument map, in first-seen order."""

    verb: OaiVerb
    args: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, verb: OaiVerb, **args: str) -> "OaiRequest":
        return cls(verb, tuple(args.items()))

    def arg(self, name: str) -> Optional[str]:
        for key, value in self.args:
            if key == name:
                return value
        return None

    def arg_names(self) -> list[str]:
        return [key for key, _ in self.args]
