"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line on success (run with -s or check the -v report);
tolerances are exact unless stated otherwise in the assertion.
"""

import os
import random
import string
from pathlib import Path

import pytest

from oaimh.client import ClientConfig
from oaimh.harvester import HarvestPlan, run_harvest
from oaimh.model import (
    Datestamp,
    ItemIdentifier,
    MetadataFormatDescriptor,
    MetadataRecord,
    OaiRequest,
    OaiVerb,
    RecordHeader,
    RepositoryDescription,
    ResponseDate,
    ResumptionToken,
)
from oaimh.provider import ThrottlePolicy
from oaimh.request import RequestSyntaxError, parse_request, validate_request
from oaimh.store import DC_FORMAT, MemoryStore, StoredItem, dc_payload
from oaimh.wire import (
    ResponseEnvelope,
    identify_equal_ignoring_date,
    parse_list_response,
    render_envelope,
)

import transcripts
from conftest import BASE_URL, EPOCH_2001_06_05, FakeClock, FakeNetwork, days_after, make_provider

CFG = ClientConfig(contact_email="tester@example.org")


def ok(message):
    print(f"PASS: {message}")


def fetch(provider, raw, now=EPOCH_2001_06_05):
    resp = provider.handle("acceptance", "GET", raw, now)
    return resp


class TestCriterion1Transcripts:
    def test_list_metadata_formats_record1(self, fixture_provider):
        resp = fetch(fixture_provider, "verb=ListMetadataFormats&identifier=record1")
        assert resp.status == 200
        transcripts.assert_transcript_equal(resp.body, transcripts.LIST_METADATA_FORMATS_RECORD1)
        ok("criterion 1a — ListMetadataFormats(record1) matches transcript")

    def test_get_record_record2_oai_dc(self, fixture_provider):
        resp = fetch(fixture_provider, "verb=GetRecord&identifier=record2&metadataPrefix=oai_dc")
        assert resp.status == 200
        transcripts.assert_transcript_equal(resp.body, transcripts.GET_RECORD_RECORD2_OAI_DC)
        ok("criterion 1b — GetRecord(record2, oai_dc) matches transcript")

    def test_get_record_record2_wibble_header_only(self, fixture_provider):
        resp = fetch(fixture_provider, "verb=GetRecord&identifier=record2&metadataPrefix=wibble")
        assert resp.status == 200
        transcripts.assert_transcript_equal(resp.body, transcripts.GET_RECORD_RECORD2_WIBBLE)
        ok("criterion 1c — GetRecord(record2, wibble) is header-only")

    def test_list_identifiers(self, fixture_provider):
        resp = fetch(fixture_provider, "verb=ListIdentifiers")
        assert resp.status == 200
        transcripts.assert_transcript_equal(resp.body, transcripts.LIST_IDENTIFIERS_ALL)

        resp = fetch(fixture_provider, "verb=ListIdentifiers&until=2000-01-01")
        parsed = parse_list_response(resp.body, OaiVerb.LIST_IDENTIFIERS)
        assert [h.identifier.value for h in parsed.items] == ["record1", "record2"]
        ok("criterion 1d — ListIdentifiers matches transcript, until-filter exact")

    def test_malformed_request(self, fixture_provider):
        resp = fetch(fixture_provider, "bad-request")
        assert resp.status == 400
        assert resp.content_type == "text/plain"
        assert resp.body.strip() == b"No verb specified!"
        ok("criterion 1e — malformed request is 400 text/plain 'No verb specified!'")


class TestCriterion2HarvestReplay:
    def test_scenario(self, network, fixture_provider, tmp_path):
        def harvest(name, prev=None):
            out_dir = tmp_path / name
            os.makedirs(out_dir)
            plan = HarvestPlan(BASE_URL, str(out_dir), prev_identify=prev)
            return run_harvest(plan, CFG, network.clock, network.transport)

        out1 = harvest("harvest1")
        assert out1.total_items == 3
        assert sorted(p for p in os.listdir(tmp_path / "harvest1") if p != "manifest.json") == [
            "Identify",
            "ListIdentifiers.1",
        ]

        out2 = harvest("harvest2", prev=str(tmp_path / "harvest1" / "Identify"))
        assert out2.total_items == 0
        assert not out2.identify_changed  # unchanged (except date)

        fixture_provider.store.upsert_item(
            StoredItem(
                ItemIdentifier("record4"),
                Datestamp(2001, 6, 5),
                payloads=(("oai_dc", dc_payload("Item 4", "Someone Else")),),
            )
        )
        out3 = harvest("harvest3", prev=str(tmp_path / "harvest2" / "Identify"))
        assert out3.total_items == 1
        ok("criterion 2 — harvest replay counts 3 / 0 / 1 with exact files")


class TestCriterion3FlowControl:
    def test_throttle_gap(self, clock, tmp_path):
        provider = make_provider(
            throttle=ThrottlePolicy(min_interval_seconds=60, retry_after_seconds=60)
        )
        net = FakeNetwork(clock)
        net.add(BASE_URL, provider)
        out_dir = tmp_path / "h"
        os.makedirs(out_dir)
        out = run_harvest(
            HarvestPlan(BASE_URL, str(out_dir)), CFG, clock, net.transport
        )
        assert out.total_items == 3
        assert 60 in clock.sleeps
        times = [t for _, _, t in net.request_log]
        assert max(times) - min(times) >= 60
        ok("criterion 3a — throttled harvest waits >=60s virtual time and succeeds")

    def test_redirect_followed(self, clock, tmp_path):
        mirror_url = "http://mirror/oai1"
        store = make_provider().store
        net = FakeNetwork(clock)
        net.add(BASE_URL, make_provider(store=store, redirect_targets=(mirror_url,)))
        net.add(mirror_url, make_provider(store=store))
        out_dir = tmp_path / "h"
        os.makedirs(out_dir)
        out = run_harvest(
            HarvestPlan(BASE_URL, str(out_dir)), CFG, clock, net.transport
        )
        assert out.total_items == 3
        assert any(url == mirror_url for url, _, _ in net.request_log)
        ok("criterion 3b — 302 redirect followed, harvest completes")


def build_random_store(rng):
    extra_formats = [
        MetadataFormatDescriptor(name, f"http://example.org/{name}.xsd")
        for name in rng.sample(["alpha", "beta", "gamma", "delta"], rng.randint(0, 2))
    ]
    formats = [DC_FORMAT] + extra_formats
    items = []
    for i in range(rng.randint(0, 100)):
        deleted = rng.random() < 0.3
        payloads = ()
        if not deleted:
            payloads = tuple(
                (f.prefix, dc_payload(f"T{i}", "A") if f.prefix == "oai_dc" else f"<x>{i}</x>")
                for f in formats
                if f.prefix == "oai_dc" or rng.random() < 0.5
            )
        items.append(
            StoredItem(
                ItemIdentifier(f"item{i:03d}"),
                Datestamp(rng.randint(1995, 2001), rng.randint(1, 12), rng.randint(1, 28)),
                deleted,
                payloads,
            )
        )
    return MemoryStore(formats=formats, items=items)


class TestCriterion4PagingProperty:
    def test_token_following_concatenation(self):
        rng = random.Random(20010605)
        for trial in range(8):
            store = build_random_store(rng)
            unpaged = make_provider(store=store, page_size=10**9)
            requests = [
                ("verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS),
                ("verb=ListRecords&metadataPrefix=oai_dc", OaiVerb.LIST_RECORDS),
                ("verb=ListMetadataFormats", OaiVerb.LIST_METADATA_FORMATS),
                ("verb=ListSets", OaiVerb.LIST_SETS),
            ]
            for page_size in (1, 2, 3, 10):
                paged = make_provider(store=store, page_size=page_size)
                for raw, verb in requests:
                    whole = parse_list_response(fetch(unpaged, raw).body, verb)
                    assert whole.token is None
                    stitched = []
                    out = parse_list_response(fetch(paged, raw).body, verb)
                    stitched.extend(out.items)
                    while out.token is not None:
                        raw_next = f"verb={verb.value}&resumptionToken={out.token.value}"
                        out = parse_list_response(fetch(paged, raw_next).body, verb)
                        stitched.extend(out.items)
                    assert stitched == list(whole.items)
        ok("criterion 4 — paged concatenation equals unpaged result, final page tokenless")


class TestCriterion5OverlapNoLoss:
    def test_randomized_schedules(self, tmp_path):
        rng = random.Random(55)
        for trial in range(200):
            store = build_random_store(rng)
            provider = make_provider(store=store)
            harvest_epoch = EPOCH_2001_06_05 + rng.randint(0, 300) * 86400
            clock = FakeClock(harvest_epoch)
            net = FakeNetwork(clock)
            net.add(BASE_URL, provider)

            first_dir = tmp_path / f"t{trial}_first"
            os.makedirs(first_dir)
            run_harvest(HarvestPlan(BASE_URL, str(first_dir)), CFG, clock, net.transport)
            last_harvest_day = ResponseDate.from_epoch(
                harvest_epoch, provider.config.clock_offset_minutes
            ).date

            # mutate on a day >= the stored responseDate's day
            mutation_day = days_after(last_harvest_day, rng.randint(0, 15))
            mutated = set()
            for j in range(rng.randint(1, 5)):
                ident = ItemIdentifier(f"mut{trial}_{j}")
                store.upsert_item(
                    StoredItem(
                        ident, mutation_day,
                        payloads=(("oai_dc", dc_payload("M", "A")),),
                    )
                )
                mutated.add(ident.value)

            clock.t = harvest_epoch + 20 * 86400 + 86400 * 16
            second_dir = tmp_path / f"t{trial}_second"
            os.makedirs(second_dir)
            out = run_harvest(
                HarvestPlan(
                    BASE_URL, str(second_dir),
                    prev_identify=str(first_dir / "Identify"),
                ),
                CFG, clock, net.transport,
            )
            got = set()
            for page in out.page_files:
                parsed = parse_list_response(Path(page).read_bytes(), OaiVerb.LIST_IDENTIFIERS)
                got.update(h.identifier.value for h in parsed.items)
            missing = mutated - got
            assert not missing, f"trial {trial}: lost {missing}"
        ok("criterion 5 — 200 overlap schedules, zero missed mutations")


class TestCriterion6RoundTrip:
    def test_500_randomized_envelopes(self):
        rng = random.Random(600)
        verbs = list(OaiVerb)
        alphabet = string.ascii_lowercase + string.digits
        checked = 0
        for trial in range(500):
            verb = verbs[trial % len(verbs)]
            date = Datestamp(rng.randint(1995, 2005), rng.randint(1, 12), rng.randint(1, 28))
            rd = ResponseDate(
                date, rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
                rng.choice([-360, 0, 60, 780]),
            )
            token = None
            if rng.random() < 0.5:
                token = ResumptionToken("".join(rng.choices(alphabet + "_-", k=8)))
            items = []
            for i in range(rng.randint(0, 6)):
                ident = ItemIdentifier("".join(rng.choices(alphabet, k=6)))
                deleted = rng.random() < 0.3
                if verb is OaiVerb.LIST_IDENTIFIERS:
                    items.append(RecordHeader(ident, None, deleted))
                elif verb in (OaiVerb.LIST_RECORDS, OaiVerb.GET_RECORD):
                    header = RecordHeader(ident, date, deleted)
                    payload = None
                    if not deleted and rng.random() < 0.7:
                        payload = dc_payload(f"T{i}", "A")
                    items.append(MetadataRecord(header, payload))
                elif verb is OaiVerb.LIST_METADATA_FORMATS:
                    prefix = "".join(rng.choices(string.ascii_lowercase, k=5))
                    items.append(
                        MetadataFormatDescriptor(prefix, f"http://x.org/{prefix}.xsd")
                    )
            if verb is OaiVerb.IDENTIFY:
                items = [RepositoryDescription("Repo", BASE_URL, ("a@b.org",))]
            env = ResponseEnvelope(
                verb, rd, BASE_URL + "?verb=" + verb.value, tuple(items), token
            )
            parsed = parse_list_response(render_envelope(env).encode("utf-8"), verb)
            assert parsed.token == env.resumption_token
            assert parsed.envelope.response_date == env.response_date
            assert len(parsed.items) == len(env.body_items)
            for got, want in zip(parsed.items, env.body_items):
                if isinstance(want, RecordHeader):
                    assert (got.identifier, got.deleted) == (want.identifier, want.deleted)
                elif isinstance(want, MetadataRecord):
                    assert got.header == want.header
                    assert (got.metadata is None) == (want.metadata is None)
                elif isinstance(want, MetadataFormatDescriptor):
                    assert got == want
            checked += 1
        assert checked == 500
        ok("criterion 6 — 500 envelope round-trips, zero mismatches")


class TestCriterion7GrammarFuzz:
    def test_10000_random_requests(self):
        rng = random.Random(7777)
        pieces = [
            "verb", "Identify", "GetRecord", "ListRecords", "ListIdentifiers",
            "metadataPrefix", "identifier", "from", "until", "set", "resumptionToken",
            "oai_dc", "2000-01-01", "record2", "=", "&", "%", "%2F", "%zz", "+", "?",
        ]
        pairs = [
            "verb=Identify", "verb=ListIdentifiers", "verb=GetRecord",
            "identifier=record2", "metadataPrefix=oai_dc", "from=2000-01-01",
            "until=1999-02-12", "set=physics", "resumptionToken=x:-:-:0:-",
            "verb=%zz", "from=later", "identifier=",
        ]
        outcomes = {"ok": 0, "syntax": 0}
        for _ in range(10000):
            roll = rng.random()
            if roll < 0.4:
                raw = "&".join(rng.choices(pairs, k=rng.randint(0, 4)))
            elif roll < 0.7:
                raw = "".join(rng.choices(pieces, k=rng.randint(0, 8)))
            else:
                raw = "".join(
                    rng.choices(string.printable, k=rng.randint(0, 60))
                )
            try:
                req = validate_request(parse_request(raw))
                assert isinstance(req, OaiRequest)
                outcomes["ok"] += 1
            except RequestSyntaxError as exc:
                assert exc.message
                outcomes["syntax"] += 1
        assert sum(outcomes.values()) == 10000
        ok(f"criterion 7 — 10000 fuzz inputs, {outcomes['ok']} valid, "
           f"{outcomes['syntax']} syntax errors, no crash")


class TestCriterion8IdentifyChangeDetection:
    def test_same_config_two_times(self, fixture_provider):
        a = fetch(fixture_provider, "verb=Identify", EPOCH_2001_06_05).body
        b = fetch(fixture_provider, "verb=Identify", EPOCH_2001_06_05 + 987654).body
        assert identify_equal_ignoring_date(a, b)
        ok("criterion 8a — same config at two times compares equal ignoring date")

    def test_any_single_field_mutation_detected(self):
        base = dict(
            repository_name="Example Repository",
            base_url=BASE_URL,
            admin_emails=("admin@example.org",),
        )
        reference = fetch(
            make_provider(repository=RepositoryDescription(**base)), "verb=Identify"
        ).body
        mutations = [
            dict(base, repository_name="Renamed"),
            dict(base, base_url="http://elsewhere/oai1"),
            dict(base, admin_emails=("other@example.org",)),
            dict(base, admin_emails=("admin@example.org", "second@example.org")),
        ]
        for fields in mutations:
            mutated = fetch(
                make_provider(repository=RepositoryDescription(**fields)), "verb=Identify"
            ).body
            assert not identify_equal_ignoring_date(reference, mutated), fields
        ok("criterion 8b — every single-field mutation detected")
