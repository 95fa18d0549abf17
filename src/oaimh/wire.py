"""XML wire envelopes: rendering of per-verb responses and tolerant parsing.

Every response is a per-verb envelope whose root element is named after the
verb, with responseDate and requestURL as the first two children. Whitespace
and indentation between elements are non-normative; parsing is tolerant of
namespace-prefix variation. Responses and catalog files are read in one expat
pass that cuts payloads out of the document as written.
"""

from __future__ import annotations

import pyexpat  # the C module that xml.parsers.expat re-exports
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union
from xml.sax.saxutils import escape, quoteattr

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


def render_record(rec: MetadataRecord, indent: str) -> str:
    """Render a <record> fragment: header, then metadata iff a payload exists,
    written exactly as held (stores check payloads when they take them)."""
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
    lines.extend(repo.descriptions)
    return lines


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
            status = ' status="deleted"' if item.deleted else ""
            lines.append(f" <identifier{status}>{escape(item.identifier.value)}</identifier>")
        elif isinstance(item, MetadataFormatDescriptor):
            lines.extend(_render_format(item, " "))
        else:
            raise SerializationError(f"cannot serialize body item {item!r}")
    if env.resumption_token is not None:
        lines.append(f" <resumptionToken>{escape(env.resumption_token.value)}</resumptionToken>")
    lines.append(f"</{verb}>")
    return "\n".join(lines) + "\n"


# a start tag, quote-aware so that "/>" inside an attribute value is not its end
_START_TAG = re.compile(rb"""(<[^\s/>]+)(?:[^"'>]|"[^"]*"|'[^']*')*>""")


def _refuse_entities(*args) -> None:
    raise ParseError("only the predefined entities are supported: a cut element could not carry others")


def _cut(data: bytes, start: int, end: int, inherited: dict[str, str]) -> str:
    """The source text of the element whose start tag begins at `start` and
    whose end event came at `end`, with `inherited` (prefix -> URI, "" for the
    default namespace) declared on its root."""
    tag = _START_TAG.match(data, start)
    if not data.startswith(b"/>", tag.end() - 2):
        # the end event of a non-empty element comes at its end tag
        end = data.index(b">", end) + 1
    if not inherited:
        return data[start:end].decode("utf-8")
    decls = "".join(
        f" xmlns:{prefix}={quoteattr(uri)}" if prefix else f" xmlns={quoteattr(uri)}"
        for prefix, uri in inherited.items()
    )
    split = tag.end(1)
    return (data[start:split] + decls.encode("utf-8") + data[split:end]).decode("utf-8")


def read_xml(
    data: bytes,
    on_start: Callable[[int, str, dict[str, str]], bool],
    on_end: Callable[[int, str, str], None],
    on_span: Callable[[int, str], None],
) -> None:
    """One namespace-aware pass over a UTF-8 document; the root has depth 0.

    `on_start(depth, local, attrs)` gets an element's local name and its
    attributes keyed by local name. When it returns True the element is cut
    out: `on_span(depth, text)` gets its exact source text, with the namespace
    declarations it uses but inherits from an ancestor added to its root, and
    its descendants send no events. `on_end(depth, local, text)` gets every
    element not cut, with the character data after its last child tag (all its
    text when it has no child elements). Malformed XML, and entities other than
    the predefined ones, which a cut could not carry, raise ParseError.
    """
    parser = pyexpat.ParserCreate("utf-8", " ")
    parser.namespace_prefixes = True  # names read "uri local prefix", "uri local" or "local"
    parser.buffer_text = True
    chunks: list[str] = []
    # prefixes are "" for the default namespace
    pending: list[str] = []  # prefixes declared on the next start tag
    names: dict[str, tuple[str, str, Optional[str]]] = {}  # name -> local, prefix, URI
    depth = 0
    cut_depth = -1  # depth of the element being cut, -1 when none is
    cut_start = 0
    declared: dict[str, int] = {}  # prefix -> declarations of it active inside the cut
    inherited: dict[str, str] = {}  # prefix -> URI the cut uses but does not declare

    def split(name: str) -> tuple[str, str, Optional[str]]:
        parts = name.split(" ")
        if len(parts) == 1:
            names[name] = parsed = (name, "", None)
        else:
            # the xml prefix is bound in every document, so never declared
            prefix = parts[2] if len(parts) == 3 else ""
            names[name] = parsed = (parts[1], prefix, None if prefix == "xml" else parts[0])
        return parsed

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal depth, cut_depth, cut_start, declared, inherited
        level = depth
        depth = level + 1
        local, prefix, uri = names.get(name) or split(name)
        if cut_depth < 0:
            if chunks:
                chunks.clear()
            if attrs:
                by_local = {(names.get(k) or split(k))[0]: v for k, v in attrs.items()}
                cut = on_start(level, local, by_local)
            else:
                cut = on_start(level, local, attrs)
            if not cut:
                if pending:
                    pending.clear()
                return
            cut_depth = level
            cut_start = parser.CurrentByteIndex
            declared = dict.fromkeys(pending, 1)
            inherited = {}
            pending.clear()
        if uri is not None and not declared.get(prefix):
            inherited.setdefault(prefix, uri)
        for key in attrs:
            _, prefix, uri = names.get(key) or split(key)
            if uri is not None and not declared.get(prefix):
                inherited.setdefault(prefix, uri)

    def end(name: str) -> None:
        nonlocal depth, cut_depth
        depth -= 1
        if cut_depth < 0:
            text = "".join(chunks)
            chunks.clear()
            on_end(depth, names[name][0], text)
        elif depth == cut_depth:
            cut_depth = -1
            chunks.clear()
            on_span(depth, _cut(data, cut_start, parser.CurrentByteIndex, inherited))

    def start_namespace(prefix: Optional[str], uri: str) -> None:
        prefix = prefix or ""
        if cut_depth >= 0:
            declared[prefix] = declared.get(prefix, 0) + 1
        else:
            pending.append(prefix)

    def end_namespace(prefix: Optional[str]) -> None:
        if cut_depth >= 0:
            declared[prefix or ""] -= 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chunks.append
    parser.StartNamespaceDeclHandler = start_namespace
    parser.EndNamespaceDeclHandler = end_namespace
    parser.EntityDeclHandler = parser.SkippedEntityHandler = _refuse_entities
    try:
        parser.Parse(data, True)
    except pyexpat.ExpatError as exc:
        raise ParseError(f"malformed XML: {exc}") from None
    finally:
        # these handlers refer to the parser: break the cycle so refcounting frees both
        parser.StartElementHandler = parser.EndElementHandler = None


# top-level elements read as fields; any other is an opaque block (an
# Identify description container) and is cut out whole
_FIELDS = frozenset({
    "responseDate", "requestURL", "identifier", "record", "metadataFormat",
    "resumptionToken", "repositoryName", "baseURL", "protocolVersion", "adminEmail",
})


def parse_list_response(doc: str, expected_verb: OaiVerb) -> ParsedListResponse:
    """Parse a response document into envelope metadata, body items and token.

    Tolerant of namespace prefixes and inter-element whitespace; captures
    deleted status from the status attribute of a record, its header or its
    identifier; the resumptionToken text is extracted verbatim (element
    attributes are ignored). A payload (the first element in <metadata>) and a
    description block are kept as written, with inherited namespace
    declarations added to their root. Malformed XML, entity declarations, and
    a value the model refuses such as a bad date, raise ParseError.
    """
    items: list[BodyItem] = []
    texts: dict[str, str] = {}  # top-level fields by name, the last of each
    emails: list[str] = []
    descriptions: list[str] = []
    fields: dict[str, str] = {}  # within the open record header or metadataFormat
    top = section = ""  # names of the open depth-1 and depth-2 elements
    deleted = False
    metadata: Optional[str] = None

    def on_start(depth: int, local: str, attrs: dict[str, str]) -> bool:
        nonlocal top, section, deleted, metadata
        if depth == 0:
            if local != expected_verb.value:
                raise VerbMismatch(f"expected {expected_verb.value} response, got {local}")
            return False
        if depth == 1:
            top, section, deleted, metadata = local, "", False, None
            fields.clear()
        elif depth == 2:
            section = local
        elif section == "metadata" and top == "record":
            return depth == 3 and metadata is None
        if attrs and (depth == 1 or section == "header") and attrs.get("status") == "deleted":
            deleted = True
        return depth == 1 and local not in _FIELDS

    def on_end(depth: int, local: str, text: str) -> None:
        if depth != 1:
            if section == "header" or top == "metadataFormat":
                fields[local] = text.strip()
        elif local == "record":
            if "header" not in fields:
                raise ParseError("record without header")
            if "identifier" not in fields:
                raise ParseError("record header without identifier")
            stamp = fields.get("datestamp")
            header = RecordHeader(ItemIdentifier(fields["identifier"]),
                                  None if stamp is None else datestamp_parse(stamp), deleted)
            items.append(MetadataRecord(header, None if deleted else metadata))
        elif local == "identifier":
            items.append(RecordHeader(ItemIdentifier(text.strip()), None, deleted))
        elif local == "metadataFormat":
            if "metadataPrefix" not in fields or "schema" not in fields:
                raise ParseError("metadataFormat missing prefix or schema")
            items.append(MetadataFormatDescriptor(
                fields["metadataPrefix"], fields["schema"], fields.get("metadataNamespace")
            ))
        elif local == "adminEmail":
            emails.append(text.strip())
        else:
            texts[local] = text

    def on_span(depth: int, text: str) -> None:
        nonlocal metadata
        if depth == 1:
            descriptions.append(text)
        else:
            metadata = text

    try:
        # str input is UTF-8 whatever its XML declaration says, as in ET.fromstring
        read_xml(doc.encode("utf-8"), on_start, on_end, on_span)
        if "responseDate" not in texts:
            raise ParseError("response has no responseDate element")
        response_date = ResponseDate.parse(texts["responseDate"].strip())
        if expected_verb is OaiVerb.IDENTIFY and "repositoryName" in texts:
            items.append(RepositoryDescription(
                # rendered on one line, so its text is the name, spaces and all
                repository_name=texts["repositoryName"],
                base_url=texts.get("baseURL", "").strip(),
                admin_emails=tuple(emails),
                protocol_version=texts.get("protocolVersion", "1.0").strip(),
                descriptions=tuple(descriptions),
            ))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    token_text = texts.get("resumptionToken", "").strip()
    token = ResumptionToken(token_text) if token_text else None
    envelope = ResponseEnvelope(
        expected_verb, response_date, texts.get("requestURL", "").strip(), tuple(items), token
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
