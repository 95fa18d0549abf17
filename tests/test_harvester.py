import json
import logging
import os
import re
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

import pytest

from oaimh import harvester
from oaimh.client import ClientConfig
from oaimh.harvester import (
    EXIT_FAILED,
    HarvestPlan,
    extract_from_date,
    merge_into_catalog,
    run_harvest,
)
from oaimh.model import Datestamp, ItemIdentifier, OaiVerb
from oaimh.store import DC_FORMAT, FileStore, MemoryStore, StoredItem, dc_payload, fixture_store
from oaimh.wire import ParseError

from conftest import BASE_URL, FakeClock, FakeNetwork, make_provider
from test_store import BAD_ITEMS, catalog_with

CFG = ClientConfig(contact_email="tester@example.org")

RECORD4 = StoredItem(
    ItemIdentifier("record4"),
    Datestamp(2001, 6, 5),
    payloads=(("oai_dc", dc_payload("Item 4", "Someone Else")),),
)


def harvest(network, out_dir, **plan_args):
    os.makedirs(out_dir, exist_ok=True)
    plan = HarvestPlan(base_url=BASE_URL, out_dir=str(out_dir), **plan_args)
    return run_harvest(plan, CFG, network.clock, network.transport)


class TestExtractFromDate:
    def test_repository_local_date(self):
        doc = (
            "<Identify><responseDate>2001-06-05T09:00:00-06:00</responseDate></Identify>"
        )
        assert extract_from_date(doc) == Datestamp(2001, 6, 5)

    def test_no_zone_conversion(self):
        doc = (
            "<Identify><responseDate>1999-12-31T23:59:59+13:00</responseDate></Identify>"
        )
        assert extract_from_date(doc) == Datestamp(1999, 12, 31)

    def test_missing_response_date(self):
        with pytest.raises(ParseError):
            extract_from_date("<Identify></Identify>")

    def test_bad_stored_response_date_fails_the_command(self, network, tmp_path, monkeypatch):
        prev = tmp_path / "Identify.prev"
        prev.write_text(
            "<Identify><responseDate>2001-13-45T00:00:00+00:00</responseDate></Identify>"
        )
        monkeypatch.setattr(harvester, "run_harvest", partial(
            run_harvest, clock=network.clock, transport=network.transport))
        argv = [BASE_URL, "-d", str(tmp_path), "-i", str(prev), "--email", "t@example.org"]
        assert harvester.main(argv) == EXIT_FAILED


class TestVerboseFlag:
    @pytest.mark.parametrize("flags", [[], ["-v"]])
    def test_client_lines_only_with_v(self, network, tmp_path, monkeypatch, caplog, flags):
        monkeypatch.setattr(harvester, "run_harvest", partial(
            run_harvest, clock=network.clock, transport=network.transport))
        # set (and restored after the test) here; main sets the client level itself
        caplog.set_level(logging.INFO)
        caplog.set_level(logging.INFO, logger="oaimh.client")
        argv = [BASE_URL, "-d", str(tmp_path), "--email", "t@example.org", *flags]
        assert harvester.main(argv) == 0
        client = [re.sub(r"\d+bytes", "Nbytes", r.getMessage())
                  for r in caplog.records if r.name == "oaimh.client"]
        assert client == ([] if not flags else [
            f"Doing POST to {BASE_URL} args: verb=Identify",
            "Got 200 OK (Nbytes)",
            f"Doing POST to {BASE_URL} args: verb=ListIdentifiers",
            "Got 200 OK (Nbytes)",
        ])
        assert [r.getMessage() for r in caplog.records if r.name == "oaimh.harvester"] == [
            f"Harvest from {BASE_URL} using POST",
            "Doing complete harvest.",
            "Got 3 identifiers (running total: 3)",
            "No resumptionToken, request complete.",
            "Done.",
        ]


class TestHarvestScenario:
    def test_full_then_incremental_then_record4(self, network, fixture_provider, tmp_path):
        # complete harvest: three identifiers, files Identify + ListIdentifiers.1
        out1 = harvest(network, tmp_path / "harvest1")
        assert out1.total_items == 3
        assert sorted(os.listdir(tmp_path / "harvest1")) == [
            "Identify",
            "ListIdentifiers.1",
            "manifest.json",
        ]
        assert out1.from_date is None
        assert not out1.identify_changed

        # incremental against an unchanged store: nothing comes back
        out2 = harvest(
            network, tmp_path / "harvest2",
            prev_identify=str(tmp_path / "harvest1" / "Identify"),
        )
        assert not out2.identify_changed
        assert out2.from_date == Datestamp(2001, 6, 5)
        assert out2.total_items == 0

        # a record added later the same day is caught by the 1-day overlap
        fixture_provider.store.upsert_item(RECORD4)
        out3 = harvest(
            network, tmp_path / "harvest3",
            prev_identify=str(tmp_path / "harvest2" / "Identify"),
        )
        assert out3.total_items == 1
        assert not out3.identify_changed

    def test_explicit_from_beats_stored_identify(self, network, tmp_path):
        out1 = harvest(network, tmp_path / "h1")
        out2 = harvest(
            network, tmp_path / "h2",
            from_date=Datestamp(1999, 1, 1),
            prev_identify=str(tmp_path / "h1" / "Identify"),
        )
        assert out2.from_date == Datestamp(1999, 1, 1)
        assert out2.total_items == 2  # record2 and record3

    def test_identify_change_reported_but_not_fatal(self, clock, tmp_path):
        net = FakeNetwork(clock)
        net.add(BASE_URL, make_provider())
        out1 = harvest(net, tmp_path / "h1")

        changed = FakeNetwork(clock)
        from oaimh.model import RepositoryDescription

        changed.add(BASE_URL, make_provider(repository=RepositoryDescription(
            "Renamed Repository", BASE_URL, ("admin@example.org",))))
        out2 = harvest(
            changed, tmp_path / "h2", prev_identify=str(tmp_path / "h1" / "Identify")
        )
        assert out2.identify_changed
        assert out2.total_items == 0  # harvest still ran to completion

    def test_refuses_to_overwrite(self, network, tmp_path):
        harvest(network, tmp_path / "h1")
        with pytest.raises(FileExistsError):
            harvest(network, tmp_path / "h1")

    def test_paged_harvest_follows_tokens(self, clock, tmp_path):
        net = FakeNetwork(clock)
        net.add(BASE_URL, make_provider(page_size=1))
        out = harvest(net, tmp_path / "paged")
        assert out.total_items == 3
        assert [os.path.basename(p) for p in out.page_files] == [
            "ListIdentifiers.1",
            "ListIdentifiers.2",
            "ListIdentifiers.3",
        ]

    def test_manifest_contents(self, network, tmp_path):
        harvest(network, tmp_path / "h1", verb=OaiVerb.LIST_RECORDS)
        manifest = json.loads((tmp_path / "h1" / "manifest.json").read_text())
        assert manifest["verb"] == "ListRecords"
        assert manifest["metadata_prefix"] == "oai_dc"
        assert manifest["pages"] == ["ListRecords.1"]
        assert manifest["total_items"] == 3


class TestMerge:
    def records_harvest(self, network, out_dir):
        return harvest(network, out_dir, verb=OaiVerb.LIST_RECORDS)

    def test_merge_builds_catalog(self, network, tmp_path):
        self.records_harvest(network, tmp_path / "h1")
        catalog = str(tmp_path / "catalog.xml")
        report = merge_into_catalog(str(tmp_path / "h1"), catalog)
        assert (report.added, report.updated, report.deleted, report.unchanged) == (3, 0, 0, 0)

        from oaimh.store import FileStore

        fs = FileStore(catalog)
        assert fs.get_item(ItemIdentifier("record3")).deleted
        assert fs.get_item(ItemIdentifier("record2")).datestamp == Datestamp(1999, 2, 12)

    def test_merging_same_harvest_twice_all_unchanged(self, network, tmp_path):
        self.records_harvest(network, tmp_path / "h1")
        catalog = str(tmp_path / "catalog.xml")
        merge_into_catalog(str(tmp_path / "h1"), catalog)
        first_bytes = Path(catalog).read_text()
        report = merge_into_catalog(str(tmp_path / "h1"), catalog)
        assert report.unchanged == 3
        assert report.added == report.updated == report.deleted == 0
        assert Path(catalog).read_text() == first_bytes

    def test_merge_that_changes_nothing_writes_nothing(self, network, tmp_path, monkeypatch):
        self.records_harvest(network, tmp_path / "h1")
        catalog = tmp_path / "catalog.xml"
        merge_into_catalog(str(tmp_path / "h1"), str(catalog))
        before = catalog.stat()
        saves = []
        real_save = FileStore.save
        monkeypatch.setattr(FileStore, "save", lambda self: saves.append(1) or real_save(self))
        report = merge_into_catalog(str(tmp_path / "h1"), str(catalog))
        assert report.unchanged == 3 and not saves
        after = catalog.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_merge_saves_catalog_once(self, network, tmp_path, monkeypatch):
        from oaimh.store import FileStore

        saves = []
        real_save = FileStore.save
        monkeypatch.setattr(FileStore, "save", lambda self: saves.append(1) or real_save(self))
        self.records_harvest(network, tmp_path / "h1")
        report = merge_into_catalog(str(tmp_path / "h1"), str(tmp_path / "catalog.xml"))
        assert report.added == 3
        assert len(saves) == 1

    def test_failed_merge_leaves_catalog_unchanged(self, network, tmp_path, monkeypatch):
        from oaimh import harvester

        self.records_harvest(network, tmp_path / "h1")
        catalog = tmp_path / "catalog.xml"
        catalog.write_text('<?xml version="1.0" encoding="UTF-8"?>\n<catalog>\n</catalog>\n')
        before = catalog.read_text()
        merged = []
        real_merge = harvester._merge_record

        def merge_then_crash(*args):
            if merged:
                raise RuntimeError("crash mid-merge")
            merged.append(1)
            real_merge(*args)

        monkeypatch.setattr(harvester, "_merge_record", merge_then_crash)
        with pytest.raises(RuntimeError):
            merge_into_catalog(str(tmp_path / "h1"), str(catalog))
        assert catalog.read_text() == before

    def test_merge_makes_one_parser_per_page_and_one_for_the_catalog(
            self, clock, tmp_path, parsers_made):
        net = FakeNetwork(clock)
        net.add(BASE_URL, make_provider(page_size=1))
        outcome = harvest(net, tmp_path / "h1", verb=OaiVerb.LIST_RECORDS)
        catalog = tmp_path / "catalog.xml"
        catalog.write_text(catalog_with('<item identifier="record2" datestamp="1990-01-01"/>'))
        with parsers_made() as made:
            report = merge_into_catalog(str(tmp_path / "h1"), str(catalog))
        assert (report.added, report.updated) == (2, 1)
        assert len(outcome.page_files) == 3
        assert len(made) == 1 + len(outcome.page_files)

    @pytest.mark.parametrize("case", ["no datestamp", "bad datestamp", "unknown prefix"])
    def test_bad_catalog_item_fails_the_command(self, network, tmp_path, monkeypatch, caplog, case):
        catalog = tmp_path / "catalog.xml"
        catalog.write_text(catalog_with(BAD_ITEMS[case]))
        before = catalog.read_bytes()
        monkeypatch.setattr(harvester, "run_harvest", partial(
            run_harvest, clock=network.clock, transport=network.transport))
        (tmp_path / "h1").mkdir()
        argv = [BASE_URL, "-d", str(tmp_path / "h1"), "--records", "--merge", str(catalog),
                "--email", "t@example.org"]
        assert harvester.main(argv) == EXIT_FAILED
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "'a'" in errors[0]
        assert catalog.read_bytes() == before

    def test_overlap_refetch_not_duplicated(self, network, fixture_provider, tmp_path):
        self.records_harvest(network, tmp_path / "h1")
        catalog = str(tmp_path / "catalog.xml")
        merge_into_catalog(str(tmp_path / "h1"), catalog)

        out2 = harvest(
            network, tmp_path / "h2", verb=OaiVerb.LIST_RECORDS,
            prev_identify=str(tmp_path / "h1" / "Identify"),
        )
        report = merge_into_catalog(str(tmp_path / "h2"), catalog)
        assert report.added == report.updated == report.deleted == 0

    def test_two_unchanged_incrementals_leave_catalog_byte_identical(
        self, network, tmp_path
    ):
        self.records_harvest(network, tmp_path / "h1")
        catalog = str(tmp_path / "catalog.xml")
        merge_into_catalog(str(tmp_path / "h1"), catalog)
        for n in (2, 3):
            harvest(
                network, tmp_path / f"h{n}", verb=OaiVerb.LIST_RECORDS,
                prev_identify=str(tmp_path / f"h{n-1}" / "Identify"),
            )
        merge_into_catalog(str(tmp_path / "h2"), catalog)
        after_one = Path(catalog).read_text()
        merge_into_catalog(str(tmp_path / "h3"), catalog)
        assert Path(catalog).read_text() == after_one

    def test_deletion_propagates(self, network, fixture_provider, tmp_path):
        self.records_harvest(network, tmp_path / "h1")
        catalog = str(tmp_path / "catalog.xml")
        merge_into_catalog(str(tmp_path / "h1"), catalog)

        item = fixture_provider.store.get_item(ItemIdentifier("record2"))
        fixture_provider.store.upsert_item(
            StoredItem(item.identifier, Datestamp(2001, 6, 6), deleted=True)
        )
        network.clock.advance_days(1)
        harvest(
            network, tmp_path / "h2", verb=OaiVerb.LIST_RECORDS,
            prev_identify=str(tmp_path / "h1" / "Identify"),
        )
        report = merge_into_catalog(str(tmp_path / "h2"), catalog)
        assert report.deleted == 1

        from oaimh.store import FileStore

        merged = FileStore(catalog)
        assert merged.get_item(ItemIdentifier("record2")).deleted
        assert merged.get_item(ItemIdentifier("record2")).payload("oai_dc") is None

    def test_list_identifiers_harvest_not_mergeable(self, network, tmp_path):
        harvest(network, tmp_path / "h1")
        with pytest.raises(ValueError):
            merge_into_catalog(str(tmp_path / "h1"), str(tmp_path / "catalog.xml"))

    def test_first_merge_of_held_items_is_unchanged(self, network, tmp_path):
        catalog = FileStore(str(tmp_path / "catalog.xml"))
        for item in fixture_store().items():
            dc_only = tuple(p for p in item.payloads if p[0] == "oai_dc")
            catalog.upsert_item(
                StoredItem(item.identifier, item.datestamp, item.deleted, dc_only), [DC_FORMAT]
            )
        catalog.save()
        self.records_harvest(network, tmp_path / "h1")
        report = merge_into_catalog(str(tmp_path / "h1"), catalog.path)
        assert (report.added, report.updated, report.deleted, report.unchanged) == (0, 0, 0, 3)

    def test_payload_bytes_unchanged_from_store_to_catalog(self, clock, tmp_path):
        # each hop: serve the store, harvest ListRecords, merge into a new catalog
        ident = ItemIdentifier("multi")
        held = dc_payload("line one\nline two", "A")
        store = MemoryStore([DC_FORMAT], [StoredItem(
            ident, Datestamp(2000, 1, 1), payloads=(("oai_dc", held),),
        )])
        payloads = []
        for hop in range(1, 5):
            net = FakeNetwork(clock)
            net.add(BASE_URL, make_provider(store=store))
            harvest(net, tmp_path / f"h{hop}", verb=OaiVerb.LIST_RECORDS)
            merge_into_catalog(str(tmp_path / f"h{hop}"), str(tmp_path / f"c{hop}.xml"))
            store = FileStore(str(tmp_path / f"c{hop}.xml"))
            payloads.append(store.get_item(ident).payload("oai_dc"))
        assert payloads == [held] * 4
        title = ET.fromstring(payloads[-1]).find("{http://purl.org/dc/elements/1.1/}title")
        assert title.text == "line one\nline two"

    def test_paging_transparency(self, clock, tmp_path):
        # page_size 1 and "infinite" produce identical merged catalogs
        catalogs = {}
        for label, page_size in (("small", 1), ("big", 1000)):
            net = FakeNetwork(FakeClock(clock.t))
            net.add(BASE_URL, make_provider(page_size=page_size))
            out_dir = tmp_path / f"h_{label}"
            harvest(net, out_dir, verb=OaiVerb.LIST_RECORDS)
            catalog = str(tmp_path / f"catalog_{label}.xml")
            merge_into_catalog(str(out_dir), catalog)
            catalogs[label] = Path(catalog).read_text()
        assert catalogs["small"] == catalogs["big"]
