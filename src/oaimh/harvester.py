"""Full and incremental harvesting into an output directory, plus catalog merge.

A harvest run issues Identify, checks it against the previous harvest's copy,
resolves the from date (command line > stored Identify > complete harvest)
and then loops over list requests, following resumption tokens, writing each
raw page to <Verb>.N before parsing it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from .client import ClientConfig, SystemClock, TransportError, http_transport, oai_get
from .model import (
    DC_SCHEMA_URL,
    Datestamp,
    MetadataFormatDescriptor,
    MetadataRecord,
    OaiRequest,
    OaiVerb,
    datestamp_parse,
)
from .store import FileStore, StoredItem
from .wire import ParseError, identify_equal_ignoring_date, parse_list_response

logger = logging.getLogger("oaimh.harvester")

MANIFEST_NAME = "manifest.json"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_IDENTIFY_CHANGED = 2


@dataclass(frozen=True)
class HarvestPlan:
    base_url: str
    out_dir: str
    verb: OaiVerb = OaiVerb.LIST_IDENTIFIERS
    prefix: str = "oai_dc"
    from_date: Optional[Datestamp] = None
    until_date: Optional[Datestamp] = None
    prev_identify: Optional[str] = None

    def __post_init__(self):
        if self.verb not in (OaiVerb.LIST_IDENTIFIERS, OaiVerb.LIST_RECORDS):
            raise ValueError("harvests use ListIdentifiers or ListRecords")


@dataclass
class HarvestOutcome:
    page_files: list[str] = field(default_factory=list)
    total_items: int = 0
    identify_changed: bool = False
    from_date: Optional[Datestamp] = None


def extract_from_date(identify_doc: str) -> Datestamp:
    """The date part of a stored Identify response's responseDate.

    The responseDate is repository-local by protocol, so using its date as the
    inclusive from of the next harvest gives a one-day overlap without any
    timezone conversion.
    """
    return parse_list_response(identify_doc, OaiVerb.IDENTIFY).envelope.response_date.date


def _first_page_request(plan: HarvestPlan) -> OaiRequest:
    args: dict[str, str] = {}
    if plan.from_date is not None:
        args["from"] = str(plan.from_date)
    if plan.until_date is not None:
        args["until"] = str(plan.until_date)
    if plan.verb is OaiVerb.LIST_RECORDS:
        args["metadataPrefix"] = plan.prefix
    return OaiRequest.of(plan.verb, **args)


def run_harvest(
    plan: HarvestPlan,
    cfg: ClientConfig,
    clock=None,
    transport=http_transport,
) -> HarvestOutcome:
    """Execute one harvest; raw page bodies are persisted before parsing so a
    later merge can run off-line."""
    clock = clock or SystemClock()
    out_dir = plan.out_dir
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(f"output directory does not exist: {out_dir}")
    identify_path = os.path.join(out_dir, "Identify")
    if os.path.exists(identify_path) or os.path.exists(
        os.path.join(out_dir, f"{plan.verb.value}.1")
    ):
        raise FileExistsError(f"refusing to overwrite an existing harvest in {out_dir}")

    logger.info("Harvest from %s using %s", plan.base_url, cfg.method)
    identify_body = oai_get(plan.base_url, OaiRequest.of(OaiVerb.IDENTIFY), cfg, clock, transport)
    with open(identify_path, "w", encoding="utf-8") as fh:
        fh.write(identify_body)

    outcome = HarvestOutcome()

    resolved_from = plan.from_date
    if plan.prev_identify is not None:
        with open(plan.prev_identify, encoding="utf-8") as fh:
            prev_doc = fh.read()
        outcome.identify_changed = not identify_equal_ignoring_date(identify_body, prev_doc)
        if outcome.identify_changed:
            logger.warning("Identify response CHANGED from reference; manual check advised")
        else:
            logger.info("Identify response unchanged from reference (except date)")
        if resolved_from is None:
            logger.info("Reading %s to get from date", plan.prev_identify)
            resolved_from = extract_from_date(prev_doc)
    if resolved_from is None:
        logger.info("Doing complete harvest.")
        effective_plan = plan
    else:
        logger.info("Incremental harvest from %s%s", resolved_from,
                    f" (from {plan.prev_identify})" if plan.prev_identify else "")
        effective_plan = HarvestPlan(
            plan.base_url, plan.out_dir, plan.verb, plan.prefix,
            resolved_from, plan.until_date, plan.prev_identify,
        )
    outcome.from_date = resolved_from

    req = _first_page_request(effective_plan)
    page_no = 0
    while True:
        page_no += 1
        body = oai_get(plan.base_url, req, cfg, clock, transport)
        page_path = os.path.join(out_dir, f"{plan.verb.value}.{page_no}")
        with open(page_path, "w", encoding="utf-8") as fh:
            fh.write(body)
        outcome.page_files.append(page_path)
        parsed = parse_list_response(body, plan.verb)
        outcome.total_items += len(parsed.items)
        noun = "identifiers" if plan.verb is OaiVerb.LIST_IDENTIFIERS else "records"
        logger.info("Got %d %s (running total: %d)", len(parsed.items), noun, outcome.total_items)
        if parsed.token is None:
            logger.info("No resumptionToken, request complete.")
            break
        logger.info("Got resumptionToken: `%s'", parsed.token.value)
        req = OaiRequest.of(plan.verb, resumptionToken=parsed.token.value)

    _write_manifest(effective_plan, outcome)
    logger.info("Done.")
    return outcome


def _write_manifest(plan: HarvestPlan, outcome: HarvestOutcome) -> None:
    manifest = {
        "base_url": plan.base_url,
        "verb": plan.verb.value,
        "metadata_prefix": plan.prefix,
        "from": str(outcome.from_date) if outcome.from_date else None,
        "until": str(plan.until_date) if plan.until_date else None,
        "pages": [os.path.basename(p) for p in outcome.page_files],
        "total_items": outcome.total_items,
        "identify_changed": outcome.identify_changed,
    }
    with open(os.path.join(plan.out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


@dataclass
class MergeReport:
    added: int = 0
    updated: int = 0
    deleted: int = 0
    unchanged: int = 0


def merge_into_catalog(out_dir: str, catalog_path: str) -> MergeReport:
    """Fold a completed ListRecords harvest into a local catalog file.

    Records re-fetched due to the date overlap replace their prior copies;
    deleted headers mark the local copy deleted and drop its payload. A merge
    that changes nothing leaves an existing catalog file untouched.
    """
    with open(os.path.join(out_dir, MANIFEST_NAME), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["verb"] != OaiVerb.LIST_RECORDS.value:
        raise ValueError("only ListRecords harvests carry mergeable records")
    prefix = manifest["metadata_prefix"]
    descriptor = _descriptor_for(prefix)

    catalog = FileStore(catalog_path)
    report = MergeReport()
    for page_name in manifest["pages"]:
        with open(os.path.join(out_dir, page_name), encoding="utf-8") as fh:
            parsed = parse_list_response(fh.read(), OaiVerb.LIST_RECORDS)
        for record in parsed.items:
            if not isinstance(record, MetadataRecord):
                raise ParseError(f"unexpected item in ListRecords page: {record!r}")
            _merge_record(catalog, record, prefix, descriptor, report)
    if report.added or report.updated or report.deleted or not os.path.exists(catalog_path):
        catalog.save()
    return report


def _descriptor_for(prefix: str) -> MetadataFormatDescriptor:
    if prefix == "oai_dc":
        return MetadataFormatDescriptor(prefix, DC_SCHEMA_URL)
    # ListRecords pages carry no schema URLs; record a placeholder until the
    # repository's ListMetadataFormats answer is consulted
    return MetadataFormatDescriptor(prefix, f"urn:oaimh:unknown-schema:{prefix}")


def _merge_record(catalog, record, prefix, descriptor, report):
    header = record.header
    if header.datestamp is None:
        raise ParseError(f"record {header.identifier} has no datestamp")
    if header.deleted:
        payloads = ()
    elif record.metadata is not None:
        payloads = ((prefix, record.metadata),)
    else:
        payloads = ()
    new_item = StoredItem(header.identifier, header.datestamp, header.deleted, payloads)

    try:
        old = catalog.get_item(header.identifier)
    except KeyError:
        catalog.upsert_item(new_item, [descriptor])
        report.added += 1
        return
    if old == new_item:
        report.unchanged += 1
        return
    catalog.upsert_item(new_item, [descriptor])
    if header.deleted and not old.deleted:
        report.deleted += 1
    else:
        report.updated += 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harvest", description="Harvest metadata from an OAI v1.0 repository."
    )
    parser.add_argument("base_url", help="repository base URL")
    parser.add_argument("-d", "--dir", required=True, help="output directory (must exist)")
    parser.add_argument("-i", "--identify", help="Identify response from the previous harvest")
    parser.add_argument("-m", "--metadata-prefix", default="oai_dc",
                        help="metadata format for ListRecords (default oai_dc)")
    parser.add_argument("--records", action="store_true",
                        help="issue ListRecords requests instead of ListIdentifiers")
    parser.add_argument("--from", dest="from_date", metavar="YYYY-MM-DD",
                        help="explicit from date (overrides the stored Identify)")
    parser.add_argument("--until", dest="until_date", metavar="YYYY-MM-DD")
    parser.add_argument("--email", default=os.environ.get("OAI_CONTACT_EMAIL"),
                        help="contact email sent in the From header")
    parser.add_argument("--get", action="store_true", help="use HTTP GET instead of POST")
    parser.add_argument("--merge", metavar="CATALOG",
                        help="after a ListRecords harvest, merge pages into this catalog file")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    if not args.verbose:
        logging.getLogger("oaimh.client").setLevel(logging.WARNING)

    if not args.email:
        parser.error("a contact email is required (--email or OAI_CONTACT_EMAIL)")

    try:
        plan = HarvestPlan(
            base_url=args.base_url,
            out_dir=args.dir,
            verb=OaiVerb.LIST_RECORDS if args.records else OaiVerb.LIST_IDENTIFIERS,
            prefix=args.metadata_prefix,
            from_date=datestamp_parse(args.from_date) if args.from_date else None,
            until_date=datestamp_parse(args.until_date) if args.until_date else None,
            prev_identify=args.identify,
        )
        cfg = ClientConfig(
            contact_email=args.email,
            method="GET" if args.get else "POST",
            verbose=args.verbose,
        )
        outcome = run_harvest(plan, cfg)
        if args.merge:
            if plan.verb is not OaiVerb.LIST_RECORDS:
                parser.error("--merge requires --records")
            report = merge_into_catalog(args.dir, args.merge)
            logger.info(
                "Merge: %d added, %d updated, %d deleted, %d unchanged",
                report.added, report.updated, report.deleted, report.unchanged,
            )
    except (TransportError, ParseError, OSError) as exc:
        logger.error("%s", exc)
        return EXIT_FAILED
    return EXIT_IDENTIFY_CHANGED if outcome.identify_changed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
