"""Seeded input generation for the benchmark workloads.

Everything here is plain data derived from a seed: the items a store holds,
the change list an incremental harvest should pick up, and the counts a merge
should report. The checker compares the program's outputs against these
values; nothing is derived by running the program.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass, replace
from typing import Optional
from xml.sax.saxutils import escape, quoteattr

DC_NS = "http://purl.org/dc/elements/1.1/"
DC_SCHEMA_URL = "http://www.openarchives.org/OAI/dc.xsd"

#: records-inproc: item count, deleted share and provider page size
INPROC_ITEMS = 4000
INPROC_DELETED = 200
INPROC_PAGE_SIZE = 100

#: getrecord-http: catalog size served by `provider serve`
HTTP_ITEMS = 1000
HTTP_DELETED = 50
HTTP_PAGE_SIZE = 100

#: merge-incremental: catalog size and the change mix of the source store
MERGE_ITEMS = 1000
MERGE_DELETED = 50
MERGE_UPDATES = 100
MERGE_DELETIONS = 40
MERGE_ADDITIONS = 60
#: unchanged catalog items dated inside the from..change-date overlap
MERGE_OVERLAP = 40
#: small pages so that list requests outnumber Identify by far
MERGE_PAGE_SIZE = 20

#: datestamps of generated items lie in this range (eight years)
FIRST_DAY = dt.date(2016, 1, 1)
LAST_DAY = dt.date(2023, 12, 31)
#: the incremental harvest asks from this day; items dated from here to
#: CHANGE_FIRST are the unchanged overlap
MERGE_FROM = dt.date(2024, 1, 1)
OVERLAP_LAST = dt.date(2024, 3, 31)
CHANGE_FIRST = dt.date(2024, 6, 1)
CHANGE_LAST = dt.date(2024, 6, 30)

_WORDS = (
    "harvest", "archive", "metadata", "preprint", "catalog", "protocol",
    "repository", "survey", "résumé", "Zürich", "R&D", "a<b", "notes",
    "theory", "methods", "data",
)
_SURNAMES = (
    "Lagoze", "Van de Sompel", "Nelson", "Warner", "Müller", "O'Brien",
    "Smith & Sons", "Øster", "Nguyen", "Kowalski",
)


@dataclass(frozen=True)
class Item:
    """One generated item as the checker expects to see it."""

    identifier: str
    datestamp: str
    deleted: bool = False
    title: Optional[str] = None
    creator: Optional[str] = None


def identifier(n: int) -> str:
    return f"oai:bench.example.org:item/{n:06d}"


def _day(rng: random.Random, first: dt.date, last: dt.date) -> str:
    return (first + dt.timedelta(days=rng.randrange((last - first).days + 1))).isoformat()


def _text(rng: random.Random, n: int) -> tuple[str, str]:
    words = " ".join(rng.choice(_WORDS) for _ in range(3))
    title = f"Item {n}: {words}"
    creator = f"{rng.choice(_SURNAMES)}, {chr(65 + rng.randrange(26))}."
    return title, creator


def make_items(rng: random.Random, count: int, deleted: int) -> list[Item]:
    """count items with shuffled identifiers, datestamps uniform over
    FIRST_DAY..LAST_DAY, and exactly `deleted` of them deleted."""
    numbers = rng.sample(range(10 * count), count)
    dead = set(rng.sample(range(count), deleted))
    items = []
    for k, n in enumerate(numbers):
        stamp = _day(rng, FIRST_DAY, LAST_DAY)
        if k in dead:
            items.append(Item(identifier(n), stamp, deleted=True))
        else:
            title, creator = _text(rng, n)
            items.append(Item(identifier(n), stamp, False, title, creator))
    return items


def dc_payload(item: Item) -> str:
    """A compact oai_dc payload. It has no whitespace between elements, so a
    catalog written from it holds what a harvest and merge of the same item
    would have left there."""
    return (
        f'<oai_dc xmlns="{DC_NS}"><title>{escape(item.title)}</title>'
        f"<creator>{escape(item.creator)}</creator></oai_dc>"
    )


def catalog_xml(items: list[Item]) -> str:
    """The items as a catalog file in the format `FileStore` reads."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<catalog>",
             f" <format prefix=\"oai_dc\" schema={quoteattr(DC_SCHEMA_URL)}/>"]
    for item in sorted(items, key=lambda i: i.identifier):
        attrs = f"identifier={quoteattr(item.identifier)} datestamp={quoteattr(item.datestamp)}"
        if item.deleted:
            lines.append(f' <item {attrs} deleted="true"/>')
        else:
            lines.append(f' <item {attrs}><payload prefix="oai_dc">{dc_payload(item)}</payload></item>')
    lines.append("</catalog>")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MergeCase:
    """A catalog, the source store it is harvested from, and what a merge of
    the incremental harvest must report. After the merge the catalog holds
    exactly the source's items."""

    catalog: list[Item]
    source: list[Item]
    harvested: list[Item]
    added: int
    updated: int
    deleted: int
    unchanged: int


def make_merge_case(rng: random.Random) -> MergeCase:
    catalog = make_items(rng, MERGE_ITEMS, MERGE_DELETED)
    live = [k for k, item in enumerate(catalog) if not item.deleted]
    picked = rng.sample(live, MERGE_UPDATES + MERGE_DELETIONS + MERGE_OVERLAP)
    updates = picked[:MERGE_UPDATES]
    deletions = picked[MERGE_UPDATES:MERGE_UPDATES + MERGE_DELETIONS]
    overlap = picked[MERGE_UPDATES + MERGE_DELETIONS:]

    # overlap items are re-dated into the from..change window in the catalog
    # itself, so the harvest re-fetches them unchanged
    for k in overlap:
        catalog[k] = replace(catalog[k], datestamp=_day(rng, MERGE_FROM, OVERLAP_LAST))
    source = list(catalog)
    for k in updates:
        title, creator = _text(rng, 10 * MERGE_ITEMS + k)
        source[k] = replace(catalog[k], datestamp=_day(rng, CHANGE_FIRST, CHANGE_LAST),
                            title=title, creator=creator)
    for k in deletions:
        source[k] = Item(catalog[k].identifier, _day(rng, CHANGE_FIRST, CHANGE_LAST), deleted=True)
    # catalog identifiers are numbered below 10 * MERGE_ITEMS, so these are new
    fresh = rng.sample(range(10 * MERGE_ITEMS, 20 * MERGE_ITEMS), MERGE_ADDITIONS)
    for n in fresh:
        title, creator = _text(rng, n)
        source.append(Item(identifier(n), _day(rng, CHANGE_FIRST, CHANGE_LAST), False, title, creator))

    start = MERGE_FROM.isoformat()
    harvested = [item for item in source if item.datestamp >= start]
    return MergeCase(
        catalog=catalog,
        source=source,
        harvested=harvested,
        added=len(fresh),
        updated=len(updates),
        deleted=len(deletions),
        unchanged=len(overlap),
    )
