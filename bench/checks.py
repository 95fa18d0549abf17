"""Output checks: the program's files and answers against the generator.

Every document is read with ElementTree here, never with the program's own
parser, and payloads are compared by element text rather than by bytes,
because the harvester re-serialises namespaces.

Each check adds operations to a `Tally`. An operation is one expected item,
one request, or one whole-unit property (a manifest count, a merge report);
it fails at most once, whatever else is wrong with it.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from typing import Iterable, Optional

from gen import Item


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, key: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{key}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _child(elem: ET.Element, name: str) -> Optional[ET.Element]:
    for child in elem:
        if _local(child.tag) == name:
            return child
    return None


def _payload_text(metadata: Optional[ET.Element]) -> Optional[tuple[str, str]]:
    """(title, creator) text of the first element inside a metadata or
    payload wrapper, or None when there is no payload."""
    if metadata is None or len(metadata) == 0:
        return None
    root = metadata[0]
    title = _child(root, "title")
    creator = _child(root, "creator")
    return (title.text if title is not None else None,
            creator.text if creator is not None else None)


def _record(elem: ET.Element) -> Item:
    """An Item from a <record> element; payload text goes in title/creator,
    and the title None means no metadata was present."""
    header = _child(elem, "header")
    ident = _child(header, "identifier") if header is not None else None
    stamp = _child(header, "datestamp") if header is not None else None
    text = _payload_text(_child(elem, "metadata"))
    return Item(
        (ident.text or "").strip() if ident is not None else "",
        (stamp.text or "").strip() if stamp is not None else "",
        ident is not None and ident.get("status") == "deleted",
        *(text or (None, None)),
    )


def _compare(got: Item, want: Item, records: bool = True) -> Optional[str]:
    """None when got matches want; ListIdentifiers entries (records False)
    carry only the identifier and the deleted flag."""
    if got.deleted != want.deleted:
        return f"deleted flag {got.deleted}, expected {want.deleted}"
    if not records:
        return None
    if got.datestamp != want.datestamp:
        return f"datestamp {got.datestamp!r}, expected {want.datestamp!r}"
    if want.deleted:
        if got.title is not None or got.creator is not None:
            return "deleted record carries metadata"
    elif (got.title, got.creator) != (want.title, want.creator):
        return f"payload {got.title!r}/{got.creator!r}, expected {want.title!r}/{want.creator!r}"
    return None


def _match_all(tally: Tally, got: Iterable[Item], expected: list[Item],
               records: bool = True) -> None:
    """One operation per expected item (present exactly once and equal), and
    one for the absence of unexpected identifiers."""
    seen: dict[str, list[Item]] = {}
    for item in got:
        seen.setdefault(item.identifier, []).append(item)
    for want in expected:
        copies = seen.pop(want.identifier, [])
        if len(copies) != 1:
            tally.add(want.identifier, f"seen {len(copies)} times")
        else:
            tally.add(want.identifier, _compare(copies[0], want, records))
    tally.add("extras", f"unexpected identifiers {sorted(seen)[:3]}" if seen else None)


def read_harvest(out_dir: str) -> tuple[dict, list[Item]]:
    """The manifest and every item on the harvest's page files, in order.
    ListIdentifiers entries carry an empty datestamp and no payload."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    items = []
    for name in manifest["pages"]:
        root = ET.parse(os.path.join(out_dir, name)).getroot()
        for elem in root:
            tag = _local(elem.tag)
            if tag == "record":
                items.append(_record(elem))
            elif tag == "identifier":
                items.append(Item((elem.text or "").strip(), "",
                                  elem.get("status") == "deleted"))
    return manifest, items


def check_harvest(tally: Tally, out_dir: str, expected: list[Item],
                  records: bool = True) -> None:
    """A full or incremental harvest holds exactly the expected items, each
    once, and its manifest counts them right."""
    manifest, items = read_harvest(out_dir)
    _match_all(tally, items, expected, records)
    total = manifest.get("total_items")
    tally.add("manifest", None if total == len(items) == len(expected) else
              f"total_items {total}, page files hold {len(items)}, expected {len(expected)}")


def check_get_record(tally: Tally, doc: str, want: Item) -> None:
    """One GetRecord answer carries the requested item."""
    root = ET.fromstring(doc)
    records = [elem for elem in root if _local(elem.tag) == "record"]
    if len(records) != 1:
        tally.add(want.identifier, f"{len(records)} records in GetRecord answer")
        return
    got = _record(records[0])
    if got.identifier != want.identifier:
        tally.add(want.identifier, f"answer is for {got.identifier!r}")
        return
    tally.add(want.identifier, _compare(got, want))


def read_catalog(path: str) -> list[Item]:
    items = []
    for elem in ET.parse(path).getroot():
        if _local(elem.tag) != "item":
            continue
        text = _payload_text(_child(elem, "payload"))
        items.append(Item(elem.get("identifier", ""), elem.get("datestamp", ""),
                          elem.get("deleted") == "true", *(text or (None, None))))
    return items


def check_catalog(tally: Tally, path: str, expected: list[Item]) -> None:
    _match_all(tally, read_catalog(path), expected)


def check_report(tally: Tally, report, added: int, updated: int, deleted: int,
                 unchanged: int) -> None:
    got = (report.added, report.updated, report.deleted, report.unchanged)
    want = (added, updated, deleted, unchanged)
    tally.add("merge report", None if got == want else
              f"added/updated/deleted/unchanged {got}, expected {want}")
