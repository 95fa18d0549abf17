"""XML wire envelopes: rendering of per-verb responses and tolerant parsing.

Every response is a per-verb envelope whose root element is named after the
verb, with responseDate and requestURL as the first two children. Whitespace
and indentation between elements are non-normative; parsing is tolerant of
namespace-prefix variation.
"""

from __future__ import annotations

import pyexpat  # the C module behind xml.parsers.expat; ElementTree loads it anyway
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional, Union
from xml.sax.saxutils import escape

from .model import (
    ItemIdentifier,
    MetadataFormatDescriptor,
    MetadataRecord,
    OaiVerb,
    RecordHeader,
    RepositoryDescription,
    ResponseDate,
    ResumptionToken,
    datestamp_parse,
)

OAI_NS_BASE = "http://www.openarchives.org/OAI/OAI_"
OAI_SCHEMA_BASE = "http://www.openarchives.org/OAI/1.0/OAI_"
XSI_NS = "http://www.w3.org/2000/10/XMLSchema-instance"


class ParseError(Exception):
    pass


class VerbMismatch(ParseError):
    pass


class SerializationError(Exception):
    pass


BodyItem = Union[RepositoryDescription, RecordHeader, MetadataRecord, MetadataFormatDescriptor]


@dataclass(frozen=True)
class ResponseEnvelope:
    verb: OaiVerb
    response_date: ResponseDate
    request_url: str
    body_items: tuple[BodyItem, ...] = ()
    resumption_token: Optional[ResumptionToken] = None


@dataclass(frozen=True)
class ParsedListResponse:
    envelope: ResponseEnvelope
    items: tuple[BodyItem, ...]
    token: Optional[ResumptionToken]


def _check_fragment(fragment: str) -> None:
    # namespace-aware: a payload with an unbound prefix would make the envelope unreadable
    try:
        pyexpat.ParserCreate(namespace_separator=" ").Parse(fragment, True)
    except pyexpat.ExpatError as exc:
        raise SerializationError(f"metadata payload is not well-formed XML: {exc}") from None


def element_fragment(elem: ET.Element) -> str:
    """A parsed payload or description element as XML text, without its tail."""
    return ET.tostring(elem, encoding="unicode").strip()


def render_record(rec: MetadataRecord, indent: str = "") -> str:
    """Render a <record> fragment: header, then metadata iff a payload exists,
    written exactly as held."""
    header = rec.header
    status = ' status="deleted"' if header.deleted else ""
    lines = [f"{indent}<record>", f"{indent} <header>"]
    lines.append(
        f"{indent}  <identifier{status}>{escape(header.identifier.value)}</identifier>"
    )
    if header.datestamp is not None:
        lines.append(f"{indent}  <datestamp>{header.datestamp}</datestamp>")
    lines.append(f"{indent} </header>")
    if rec.metadata is not None:
        _check_fragment(rec.metadata)
        lines.append(f"{indent} <metadata>")
        lines.append(rec.metadata)
        lines.append(f"{indent} </metadata>")
    lines.append(f"{indent}</record>")
    return "\n".join(lines)


def _render_format(fmt: MetadataFormatDescriptor, indent: str) -> list[str]:
    lines = [
        f"{indent}<metadataFormat>",
        f"{indent} <metadataPrefix>{escape(fmt.prefix)}</metadataPrefix>",
        f"{indent} <schema>{escape(fmt.schema_url)}</schema>",
    ]
    if fmt.namespace:
        lines.append(f"{indent} <metadataNamespace>{escape(fmt.namespace)}</metadataNamespace>")
    lines.append(f"{indent}</metadataFormat>")
    return lines


def _render_repository(repo: RepositoryDescription, indent: str) -> list[str]:
    lines = [
        f"{indent}<repositoryName>{escape(repo.repository_name)}</repositoryName>",
        f"{indent}<baseURL>{escape(repo.base_url)}</baseURL>",
        f"{indent}<protocolVersion>{escape(repo.protocol_version)}</protocolVersion>",
    ]
    for email in repo.admin_emails:
        lines.append(f"{indent}<adminEmail>{escape(email)}</adminEmail>")
    for block in repo.descriptions:
        _check_fragment(block)
        lines.append(block)
    return lines


def _render_header_as_identifier(header: RecordHeader, indent: str) -> list[str]:
    status = ' status="deleted"' if header.deleted else ""
    return [f"{indent}<identifier{status}>{escape(header.identifier.value)}</identifier>"]


def render_envelope(env: ResponseEnvelope) -> str:
    """Serialize a complete response document, UTF-8 with XML declaration."""
    verb = env.verb.value
    ns = OAI_NS_BASE + verb
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "",
        f'<{verb} xmlns="{ns}"',
        f'    xmlns:xsi="{XSI_NS}"',
        f'    xsi:schemaLocation="{ns}',
        f'                        {OAI_SCHEMA_BASE}{verb}.xsd">',
        f" <responseDate>{env.response_date.render()}</responseDate>",
        f" <requestURL>{escape(env.request_url)}</requestURL>",
    ]
    for item in env.body_items:
        if isinstance(item, RepositoryDescription):
            lines.extend(_render_repository(item, " "))
        elif isinstance(item, MetadataRecord):
            lines.append(render_record(item, " "))
        elif isinstance(item, RecordHeader):
            lines.extend(_render_header_as_identifier(item, " "))
        elif isinstance(item, MetadataFormatDescriptor):
            lines.extend(_render_format(item, " "))
        else:
            raise SerializationError(f"cannot serialize body item {item!r}")
    if env.resumption_token is not None:
        lines.append(f" <resumptionToken>{escape(env.resumption_token.value)}</resumptionToken>")
    lines.append(f"</{verb}>")
    return "\n".join(lines) + "\n"


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _attr(elem: ET.Element, name: str) -> Optional[str]:
    for key, value in elem.attrib.items():
        if _local(key) == name:
            return value
    return None


def _text(elem: ET.Element) -> str:
    return (elem.text or "").strip()


def _parse_header(elem: ET.Element) -> RecordHeader:
    identifier = None
    datestamp = None
    deleted = _attr(elem, "status") == "deleted"
    for child in elem:
        name = _local(child.tag)
        if name == "identifier":
            identifier = ItemIdentifier(_text(child))
            if _attr(child, "status") == "deleted":
                deleted = True
        elif name == "datestamp":
            datestamp = datestamp_parse(_text(child))
    if identifier is None:
        raise ParseError("record header without identifier")
    return RecordHeader(identifier, datestamp, deleted)


def _parse_record(elem: ET.Element) -> MetadataRecord:
    header = None
    metadata = None
    deleted = _attr(elem, "status") == "deleted"
    for child in elem:
        name = _local(child.tag)
        if name == "header":
            header = _parse_header(child)
        elif name == "metadata" and len(child):
            metadata = element_fragment(child[0])
    if header is None:
        raise ParseError("record without header")
    if deleted and not header.deleted:
        header = RecordHeader(header.identifier, header.datestamp, True)
    if header.deleted:
        metadata = None
    return MetadataRecord(header, metadata)


def _parse_format(elem: ET.Element) -> MetadataFormatDescriptor:
    prefix = schema = namespace = None
    for child in elem:
        name = _local(child.tag)
        if name == "metadataPrefix":
            prefix = _text(child)
        elif name == "schema":
            schema = _text(child)
        elif name == "metadataNamespace":
            namespace = _text(child)
    if prefix is None or schema is None:
        raise ParseError("metadataFormat missing prefix or schema")
    return MetadataFormatDescriptor(prefix, schema, namespace)


def parse_list_response(doc: str, expected_verb: OaiVerb) -> ParsedListResponse:
    """Parse a response document into envelope metadata, body items and token.

    Tolerant of namespace prefixes and inter-element whitespace; captures
    deleted status from the status attribute; the resumptionToken text is
    extracted verbatim (element attributes are ignored). Malformed XML, and a
    value the model refuses such as a bad date, raise ParseError.
    """
    try:
        root = ET.fromstring(doc)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from None
    root_name = _local(root.tag)
    if root_name != expected_verb.value:
        raise VerbMismatch(f"expected {expected_verb.value} response, got {root_name}")
    try:
        return _parse_root(root, expected_verb)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_root(root: ET.Element, expected_verb: OaiVerb) -> ParsedListResponse:
    response_date: Optional[ResponseDate] = None
    request_url = ""
    items: list[BodyItem] = []
    token: Optional[ResumptionToken] = None
    repo_fields: dict[str, object] = {"emails": [], "descriptions": []}

    for child in root:
        name = _local(child.tag)
        if name == "responseDate":
            response_date = ResponseDate.parse(_text(child))
        elif name == "requestURL":
            request_url = _text(child)
        elif name == "identifier":
            items.append(
                RecordHeader(ItemIdentifier(_text(child)), None, _attr(child, "status") == "deleted")
            )
        elif name == "record":
            items.append(_parse_record(child))
        elif name == "metadataFormat":
            items.append(_parse_format(child))
        elif name == "resumptionToken":
            text = _text(child)
            if text:
                token = ResumptionToken(text)
        elif name == "repositoryName":
            # rendered on one line, so its text is the name, spaces and all
            repo_fields["name"] = child.text or ""
        elif name == "baseURL":
            repo_fields["base_url"] = _text(child)
        elif name == "protocolVersion":
            repo_fields["version"] = _text(child)
        elif name == "adminEmail":
            repo_fields["emails"].append(_text(child))
        else:
            # unknown blocks (e.g. Identify description containers) are kept opaque
            repo_fields["descriptions"].append(element_fragment(child))

    if response_date is None:
        raise ParseError("response has no responseDate element")
    if expected_verb is OaiVerb.IDENTIFY and "name" in repo_fields:
        items.append(
            RepositoryDescription(
                repository_name=repo_fields["name"],
                base_url=repo_fields.get("base_url", ""),
                admin_emails=tuple(repo_fields["emails"]),
                protocol_version=repo_fields.get("version", "1.0"),
                descriptions=tuple(repo_fields["descriptions"]),
            )
        )

    envelope = ResponseEnvelope(
        expected_verb, response_date, request_url, tuple(items), token
    )
    return ParsedListResponse(envelope, tuple(items), token)


_RESPONSE_DATE_ELEM_RE = re.compile(r"(<responseDate[^>]*>).*?(</responseDate>)", re.DOTALL)


def identify_equal_ignoring_date(doc_a: str, doc_b: str) -> bool:
    """String-level comparison of two Identify responses, masking responseDate.

    Deliberately over-sensitive: any byte difference outside the responseDate
    text counts as a change.
    """
    masked = []
    for doc in (doc_a, doc_b):
        replaced, count = _RESPONSE_DATE_ELEM_RE.subn(r"\1@\2", doc)
        if count == 0:
            raise ParseError("document has no responseDate element")
        masked.append(replaced)
    return masked[0] == masked[1]
