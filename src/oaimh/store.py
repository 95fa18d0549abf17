"""Record storage: items with datestamps, soft deletes and per-format payloads.

One store contract: `MemoryStore` holds the catalog in memory, and
`FileStore` is a `MemoryStore` with a path, loaded when it is built and
written only by an explicit `save()`. A save replaces the file atomically, so
readers of the file see the catalog as it was before or after a save, never a
torn state.
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Optional
from xml.sax.saxutils import escape, quoteattr

from .model import (
    DC_SCHEMA_URL,
    Datestamp,
    ItemIdentifier,
    MetadataFormatDescriptor,
    RecordHeader,
    check_payload,
    datestamp_parse,
)
from .wire import ParseError, read_xml


class NotFound(KeyError):
    pass


class UnknownFormat(ValueError):
    pass


@dataclass(frozen=True)
class StoredItem:
    """One item: identifier, datestamp of last modification, payloads by prefix.

    Deleted items keep the datestamp of their deletion so incremental
    harvesters learn of deletions; they carry no payloads. Every route into a
    store builds one, so each payload is checked here, once.
    """

    identifier: ItemIdentifier
    datestamp: Datestamp
    deleted: bool = False
    payloads: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.deleted and self.payloads:
            raise ValueError("deleted items cannot carry payloads")
        for _, fragment in self.payloads:
            check_payload(fragment)

    def payload(self, prefix: str) -> Optional[str]:
        for p, fragment in self.payloads:
            if p == prefix:
                return fragment
        return None

    def prefixes(self) -> list[str]:
        return [p for p, _ in self.payloads]

    def header(self) -> RecordHeader:
        return RecordHeader(self.identifier, self.datestamp, self.deleted)


class MemoryStore:
    """In-memory catalog of items plus the repository's format list.

    `_index` holds each item's `(datestamp text, identifier)` key, sorted;
    canonical datestamp text sorts in calendar order.
    """

    def __init__(
        self,
        formats: Iterable[MetadataFormatDescriptor] = (),
        items: Iterable[StoredItem] = (),
    ):
        self._formats: list[MetadataFormatDescriptor] = list(formats)
        self._items: dict[str, StoredItem] = {}
        self._lock = threading.Lock()
        known = {fmt.prefix for fmt in self._formats}
        for item in items:
            for prefix, _ in item.payloads:
                if prefix not in known:
                    raise UnknownFormat(
                        f"item {item.identifier.value!r}: no descriptor for payload prefix {prefix!r}")
            self._items[item.identifier.value] = item
        self._index = sorted((str(item.datestamp), key) for key, item in self._items.items())

    @property
    def formats(self) -> list[MetadataFormatDescriptor]:
        return list(self._formats)

    def format_for_prefix(self, prefix: str) -> Optional[MetadataFormatDescriptor]:
        for fmt in self._formats:
            if fmt.prefix == prefix:
                return fmt
        return None

    def get_item(self, identifier: ItemIdentifier) -> StoredItem:
        """Look up one item; deleted items are returned (their headers are
        still disseminated)."""
        try:
            return self._items[identifier.value]
        except KeyError:
            raise NotFound(identifier.value) from None

    def ids_by_date(
        self,
        from_date: Optional[Datestamp] = None,
        until_date: Optional[Datestamp] = None,
        after: Optional[tuple[str, str]] = None,
        limit: Optional[int] = None,
    ) -> list[StoredItem]:
        """Items (including deleted) with from <= datestamp <= until and a
        key `(datestamp text, identifier)` above `after`, in key order; at
        most `limit` of them."""
        with self._lock:
            index = self._index
            lo = 0 if from_date is None else bisect_left(index, (str(from_date), ""))
            if after is not None:
                lo = max(lo, bisect_right(index, after))
            hi = len(index)
            if until_date is not None:
                hi = bisect_right(index, str(until_date), lo, hi, key=lambda entry: entry[0])
            if limit is not None:
                hi = min(hi, lo + limit)
            return [self._items[identifier] for _, identifier in index[lo:hi]]

    def formats_for(self, identifier: ItemIdentifier) -> list[MetadataFormatDescriptor]:
        """Formats for one item, in catalog order."""
        prefixes = set(self.get_item(identifier).prefixes())
        return [fmt for fmt in self._formats if fmt.prefix in prefixes]

    def upsert_item(
        self,
        item: StoredItem,
        descriptors: Iterable[MetadataFormatDescriptor] = (),
    ) -> None:
        """Insert or replace an item; new payload prefixes must come with a
        descriptor (here or already in the catalog)."""
        extra = {d.prefix: d for d in descriptors}
        with self._lock:
            for prefix in item.prefixes():
                if self.format_for_prefix(prefix) is None:
                    if prefix not in extra:
                        raise UnknownFormat(f"no descriptor for payload prefix {prefix!r}")
                    self._formats.append(extra[prefix])
            key = item.identifier.value
            old = self._items.get(key)
            if old is not None:
                del self._index[bisect_left(self._index, (str(old.datestamp), key))]
            insort(self._index, (str(item.datestamp), key))
            self._items[key] = item

    def items(self) -> list[StoredItem]:
        return [self._items[k] for k in sorted(self._items)]


DC_FORMAT = MetadataFormatDescriptor("oai_dc", DC_SCHEMA_URL)
WIBBLE_FORMAT = MetadataFormatDescriptor("wibble", "http://wibble.org/wibble.xsd")

_DC_PAYLOAD_TEMPLATE = """\
<oai_dc xsi:schemaLocation="http://purl.org/dc/elements/1.1/
                            http://www.openarchives.org/OAI/dc.xsd"
        xmlns:xsi="http://www.w3.org/2000/10/XMLSchema-instance"
        xmlns="http://purl.org/dc/elements/1.1/">
 <title>{title}</title>
 <creator>{creator}</creator>
</oai_dc>"""


def dc_payload(title: str, creator: str) -> str:
    return _DC_PAYLOAD_TEMPLATE.format(title=escape(title), creator=escape(creator))


def fixture_store() -> MemoryStore:
    """The three-record seed catalog.

    record1's datestamp is never pinned anywhere authoritative; 1998-01-01 is
    chosen here so that an until=2000-01-01 query returns record1 and record2.
    """
    wibble_payload = (
        '<wibble xmlns="http://wibble.org/">\n'
        " <stuff>Item 1</stuff>\n"
        "</wibble>"
    )
    return MemoryStore(
        formats=[WIBBLE_FORMAT, DC_FORMAT],
        items=[
            StoredItem(
                ItemIdentifier("record1"),
                Datestamp(1998, 1, 1),
                payloads=(
                    ("oai_dc", dc_payload("Item 1", "Some Author")),
                    ("wibble", wibble_payload),
                ),
            ),
            StoredItem(
                ItemIdentifier("record2"),
                Datestamp(1999, 2, 12),
                payloads=(("oai_dc", dc_payload("Item 2", "A N Other")),),
            ),
            StoredItem(ItemIdentifier("record3"), Datestamp(2000, 3, 13), deleted=True),
        ],
    )


class FileStore(MemoryStore):
    """A MemoryStore with a path: one XML catalog file.

    The file is read when the store is built and written only by `save()`,
    which writes a temp file, fsyncs it and renames it over the catalog. A
    crash before the rename leaves the catalog as it was at the last save.
    """

    def __init__(self, path: str):
        self.path = path
        formats: list[MetadataFormatDescriptor] = []
        items: list[StoredItem] = []
        if os.path.exists(path):
            formats, items = _load_catalog(path)
        try:
            super().__init__(formats, items)
        except UnknownFormat as exc:
            raise ParseError(f"{path}: {exc}") from None

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(render_catalog(self))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)


# the characters quoteattr would replace, or that would change its quotes
_ATTR_SPECIAL = re.compile('[&<>"\n\r\t]')


def _quoteattr(value: str) -> str:
    """quoteattr(value), without its work where it would change nothing."""
    return quoteattr(value) if _ATTR_SPECIAL.search(value) else f'"{value}"'


def render_catalog(store: MemoryStore) -> str:
    """Deterministic catalog serialization: formats in catalog order, items
    sorted by identifier, payload fragments embedded verbatim."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<catalog>"]
    for fmt in store.formats:
        ns = f" namespace={quoteattr(fmt.namespace)}" if fmt.namespace else ""
        lines.append(
            f" <format prefix={quoteattr(fmt.prefix)} schema={quoteattr(fmt.schema_url)}{ns}/>"
        )
    for item in store.items():
        # a datestamp is digits and hyphens, which quoteattr leaves as they are
        attrs = f'identifier={_quoteattr(item.identifier.value)} datestamp="{item.datestamp}"'
        if item.deleted:
            attrs += ' deleted="true"'
        if not item.payloads:
            lines.append(f" <item {attrs}/>")
            continue
        lines.append(f" <item {attrs}>")
        for prefix, fragment in item.payloads:
            # fragments are embedded verbatim: re-indenting would add bytes to
            # their inner text nodes and break load/save round-trip stability
            lines.append(f"  <payload prefix={_quoteattr(prefix)}>")
            lines.append(fragment.strip())
            lines.append("  </payload>")
        lines.append(" </item>")
    lines.append("</catalog>")
    return "\n".join(lines) + "\n"


def _load_catalog(path: str) -> tuple[list[MetadataFormatDescriptor], list[StoredItem]]:
    """Formats and items from a catalog file; each payload is the first
    element in its <payload>, taken as written. A malformed file, format or
    item is a ParseError."""
    formats: list[MetadataFormatDescriptor] = []
    items: list[StoredItem] = []
    item: dict[str, str] = {}  # attributes of the open <item>
    payloads: list[tuple[str, str]] = []
    prefix: Optional[str] = None  # of the open <payload>, until its element is cut

    def on_start(depth: int, local: str, attrs: dict[str, str]) -> bool:
        nonlocal item, prefix
        if depth == 1:
            if local == "format":
                try:
                    formats.append(MetadataFormatDescriptor(
                        attrs.get("prefix"), attrs.get("schema"), attrs.get("namespace")
                    ))
                except ValueError as exc:
                    raise ParseError(f"{path}: format {attrs.get('prefix')!r}: {exc}") from None
            elif local == "item":
                item = attrs
                payloads.clear()
        elif depth == 2:
            prefix = attrs.get("prefix", "") if local == "payload" else None
        elif depth == 3:
            return prefix is not None
        return False

    def on_end(depth: int, local: str, text: str) -> None:
        if depth == 1 and local == "item":
            identifier = item.get("identifier")
            try:
                items.append(StoredItem(
                    ItemIdentifier(identifier),
                    datestamp_parse(item.get("datestamp", "")),
                    deleted=item.get("deleted") == "true",
                    payloads=tuple(payloads),
                ))
            except ValueError as exc:
                raise ParseError(f"{path}: item {identifier!r}: {exc}") from None

    def on_span(depth: int, text: str) -> None:
        nonlocal prefix
        payloads.append((prefix, text))
        prefix = None

    with open(path, "rb") as fh:
        data = fh.read()
    read_xml(data, on_start, on_end, on_span)
    return formats, items
