import random
import urllib.parse
import xml.etree.ElementTree as ET

import pytest

from oaimh.model import Datestamp, ItemIdentifier, OaiVerb, RepositoryDescription
from oaimh.provider import (
    THROTTLE_SWEEP_MIN,
    BadResumptionToken,
    PageCursor,
    ThrottlePolicy,
    throttle_check,
)
from oaimh.request import parse_request, validate_request
from oaimh.store import DC_FORMAT, FileStore, MemoryStore, StoredItem, dc_payload, render_catalog
from oaimh.wire import parse_list_response

from conftest import BASE_URL, EPOCH_2001_06_05, make_provider
from test_store import random_store

NOW = EPOCH_2001_06_05


def request(raw):
    return validate_request(parse_request(raw))


def dispatch(provider, raw, now=NOW):
    return provider.handle("1.2.3.4", "GET", raw, now)


def parsed(provider, raw, verb, now=NOW):
    resp = dispatch(provider, raw, now)
    assert resp.status == 200, resp.body
    return parse_list_response(resp.body, verb)


class TestHandle:
    def test_identify_ok(self, fixture_provider):
        resp = dispatch(fixture_provider, "verb=Identify")
        assert resp.status == 200
        assert resp.content_type == "text/xml"
        assert b"<repositoryName>" in resp.body

    def test_malformed_request_is_400_plain(self, fixture_provider):
        resp = dispatch(fixture_provider, "bad-request")
        assert resp.status == 400
        assert resp.content_type == "text/plain"
        assert resp.body.strip() == b"No verb specified!"

    @pytest.mark.parametrize("stamp", ["1999-02-12%0A", "%D9%A1999-02-12"])
    def test_non_canonical_from_is_400(self, fixture_provider, stamp):
        resp = dispatch(fixture_provider, f"verb=ListIdentifiers&from={stamp}")
        assert resp.status == 400

    def test_throttled_second_request(self):
        provider = make_provider(
            throttle=ThrottlePolicy(min_interval_seconds=60, retry_after_seconds=60)
        )
        assert dispatch(provider, "verb=Identify", NOW).status == 200
        resp = dispatch(provider, "verb=Identify", NOW + 10)
        assert resp.status == 503
        assert dict(resp.headers)["Retry-After"] == "60"

    def test_redirect_mode(self):
        provider = make_provider(redirect_targets=("http://mirror/oai1",))
        resp = dispatch(provider, "verb=Identify")
        assert resp.status == 302
        assert dict(resp.headers)["Location"] == "http://mirror/oai1?verb=Identify"

    def test_redirect_round_robin(self):
        provider = make_provider(redirect_targets=("http://a/oai", "http://b/oai"))
        locations = [
            dict(dispatch(provider, "verb=Identify").headers)["Location"] for _ in range(4)
        ]
        assert [l.split("?")[0] for l in locations] == [
            "http://a/oai", "http://b/oai", "http://a/oai", "http://b/oai",
        ]


class TestPayloadText:
    """A payload is served as stored: a multi-line text node keeps its text."""

    ITEM = StoredItem(
        ItemIdentifier("multi"),
        Datestamp(2000, 1, 1),
        payloads=(("oai_dc", dc_payload("line one\nline two", "A")),),
    )

    @pytest.mark.parametrize("verb", [OaiVerb.GET_RECORD, OaiVerb.LIST_RECORDS])
    def test_multi_line_text_survives(self, verb):
        raw = f"verb={verb.value}&metadataPrefix=oai_dc"
        if verb is OaiVerb.GET_RECORD:
            raw += "&identifier=multi"
        provider = make_provider(store=MemoryStore([DC_FORMAT], [self.ITEM]))
        (record,) = parsed(provider, raw, verb).items
        title = ET.fromstring(record.metadata).find("{http://purl.org/dc/elements/1.1/}title")
        assert title.text == "line one\nline two"

    def test_serving_parses_nothing(self, parsers_made):
        # payloads and description blocks are checked when the store and the
        # repository description take them, so answering creates no XML parser
        store = MemoryStore([DC_FORMAT], [
            StoredItem(ItemIdentifier(f"r{n:03d}"), Datestamp(2000, 1, 1),
                       payloads=(("oai_dc", dc_payload(f"Item {n}", "A")),))
            for n in range(100)
        ])
        block = '<ex:description xmlns:ex="urn:example"><ex:note>x</ex:note></ex:description>'
        repository = RepositoryDescription("R", BASE_URL, ("a@b.org",), descriptions=(block,))
        provider = make_provider(store=store, repository=repository, page_size=100)
        with parsers_made() as made:
            bodies = [dispatch(provider, raw) for raw in (
                "verb=ListRecords&metadataPrefix=oai_dc",
                "verb=GetRecord&identifier=r042&metadataPrefix=oai_dc",
                "verb=Identify",
            )]
        assert made == []
        assert [resp.status for resp in bodies] == [200, 200, 200]
        page = parse_list_response(bodies[0].body, OaiVerb.LIST_RECORDS)
        assert len(page.items) == 100 and page.token is None
        (record,) = parse_list_response(bodies[1].body, OaiVerb.GET_RECORD).items
        assert record.metadata == store.get_item(ItemIdentifier("r042")).payload("oai_dc")
        (repo,) = parse_list_response(bodies[2].body, OaiVerb.IDENTIFY).items
        assert repo.descriptions == (block,)

    def test_comment_inside_payload_round_trips(self):
        payload = '<a xmlns="urn:a"><!-- note --><?pi x?>\n <b>x</b></a>'
        item = StoredItem(ItemIdentifier("c"), Datestamp(2000, 1, 1), payloads=(("oai_dc", payload),))
        provider = make_provider(store=MemoryStore([DC_FORMAT], [item]))
        raw = "verb=GetRecord&identifier=c&metadataPrefix=oai_dc"
        (record,) = parsed(provider, raw, OaiVerb.GET_RECORD).items
        assert record.metadata == payload


class TestThrottleCheck:
    def test_first_request_allowed(self):
        policy = ThrottlePolicy(60, 60)
        assert throttle_check({}, "a", 0.0, policy) is None

    def test_within_interval_denied(self):
        policy = ThrottlePolicy(60, 60)
        table = {}
        throttle_check(table, "a", 0.0, policy)
        assert throttle_check(table, "a", 10.0, policy) == 60

    def test_after_interval_allowed(self):
        policy = ThrottlePolicy(60, 60)
        table = {}
        throttle_check(table, "a", 0.0, policy)
        assert throttle_check(table, "a", 61.0, policy) is None

    def test_denial_does_not_reset_timer(self):
        # a client that waits the advertised Retry-After is never throttled twice
        policy = ThrottlePolicy(60, 60)
        table = {}
        throttle_check(table, "a", 0.0, policy)
        assert throttle_check(table, "a", 30.0, policy) == 60
        assert throttle_check(table, "a", 30.0 + 60.0, policy) is None

    def test_per_address(self):
        policy = ThrottlePolicy(60, 60)
        table = {}
        throttle_check(table, "a", 0.0, policy)
        assert throttle_check(table, "b", 1.0, policy) is None


class TestThrottleSweep:
    def test_sweep_keeps_only_clients_that_can_be_denied(self):
        provider = make_provider(
            throttle=ThrottlePolicy(min_interval_seconds=60, retry_after_seconds=60)
        )
        for i in range(THROTTLE_SWEEP_MIN - 2):
            provider.handle(f"old{i}", "GET", "", NOW)
        provider.handle("live", "GET", "", NOW + 30)
        # this request fills the table to the sweep size
        assert provider.handle("new", "GET", "", NOW + 60).status == 400
        assert sorted(provider._last_served) == ["live", "new"]
        assert provider.handle("live", "GET", "", NOW + 60).status == 503

    def test_table_bounded_over_many_addresses(self):
        provider = make_provider(
            throttle=ThrottlePolicy(min_interval_seconds=60, retry_after_seconds=60)
        )
        # an empty request is throttle-checked, then refused cheaply with a 400
        sizes = []
        for i in range(50_000):
            addr = f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"
            assert provider.handle(addr, "GET", "", NOW + i).status == 400
            sizes.append(len(provider._last_served))
        assert max(sizes) <= 2 * THROTTLE_SWEEP_MIN
        # the clients served within the last interval are still throttled,
        # and one served long ago is not
        assert provider.handle(addr, "GET", "", NOW + 50_000).status == 503
        assert provider.handle("10.0.0.0", "GET", "", NOW + 50_000).status == 400


class TestDispatch:
    def test_get_record_with_payload(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=GetRecord&identifier=record2&metadataPrefix=oai_dc",
            OaiVerb.GET_RECORD,
        )
        (record,) = out.items
        assert record.header.datestamp == Datestamp(1999, 2, 12)
        assert "Item 2" in record.metadata

    def test_get_record_unavailable_format_header_only(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=GetRecord&identifier=record2&metadataPrefix=wibble",
            OaiVerb.GET_RECORD,
        )
        (record,) = out.items
        assert record.metadata is None
        assert not record.header.deleted

    def test_get_record_unknown_identifier_empty(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=GetRecord&identifier=nosuch&metadataPrefix=oai_dc",
            OaiVerb.GET_RECORD,
        )
        assert out.items == ()

    def test_list_sets_empty(self, fixture_provider):
        out = parsed(fixture_provider, "verb=ListSets", OaiVerb.LIST_SETS)
        assert out.items == ()

    def test_list_metadata_formats_unknown_id_empty(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=ListMetadataFormats&identifier=nosuch",
            OaiVerb.LIST_METADATA_FORMATS,
        )
        assert out.items == ()

    def test_list_identifiers_deleted_flagged(self, fixture_provider):
        out = parsed(fixture_provider, "verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS)
        assert [(h.identifier.value, h.deleted) for h in out.items] == [
            ("record1", False),
            ("record2", False),
            ("record3", True),
        ]

    def test_list_records_header_only_for_missing_format(self, fixture_provider):
        out = parsed(
            fixture_provider, "verb=ListRecords&metadataPrefix=wibble", OaiVerb.LIST_RECORDS
        )
        by_id = {r.header.identifier.value: r for r in out.items}
        assert by_id["record1"].metadata is not None
        assert by_id["record2"].metadata is None
        assert by_id["record3"].metadata is None and by_id["record3"].header.deleted

    def test_list_records_unknown_catalog_prefix_empty(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=ListRecords&metadataPrefix=nosuchformat",
            OaiVerb.LIST_RECORDS,
        )
        assert out.items == ()

    def test_changeless_date_range_is_200_with_empty_body(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=ListRecords&metadataPrefix=oai_dc&from=2001-06-05",
            OaiVerb.LIST_RECORDS,
        )
        assert out.items == ()

    def test_set_selection_matches_nothing(self, fixture_provider):
        out = parsed(
            fixture_provider, "verb=ListIdentifiers&set=physics", OaiVerb.LIST_IDENTIFIERS
        )
        assert out.items == ()


# one valid keyset token is ListRecords:-:-:2000-01-01:cjE:oai_dc ("cjE" is "r1")
MALFORMED_TOKENS = [
    "ListRecords:-:-:2000-01-01:cjE",  # too few fields
    "Nope:-:-:2000-01-01:cjE:oai_dc",  # unknown verb
    "ListRecords:-:-:2000-13-01:cjE:oai_dc",  # no such month
    "ListRecords:-:-:2000-1-1:cjE:oai_dc",  # not canonical
    "ListRecords:-:-:2000-01-01:c:oai_dc",  # truncated base64
    "ListRecords:-:-:2000-01-01:cj!E:oai_dc",  # outside the alphabet
    "ListRecords:-:-:2000-01-01:cjF:oai_dc",  # non-canonical base64
    "ListRecords:-:-:2000-01-01:cjE=:oai_dc",  # padding is never written
    "ListRecords:-:-:2000-01-01:_w:oai_dc",  # not UTF-8
    "ListRecords:-:-:-:cjE:oai_dc",  # identifier without datestamp
    "ListRecords:-:-:2000-01-01:-:oai_dc",  # datestamp without identifier
    "ListRecords:1999-02-30:-:2000-01-01:cjE:oai_dc",  # bad from
]


class TestPageCursor:
    def test_encode_decode_round_trip(self):
        cursor = PageCursor(
            OaiVerb.LIST_RECORDS, Datestamp(1999, 1, 1), None, "oai_dc", ("1999-03-07", "r7")
        )
        assert PageCursor.decode(cursor.encode().value) == cursor

    def test_prefix_may_contain_colons(self):
        cursor = PageCursor(OaiVerb.LIST_RECORDS, None, None, "a:b", ("2000-01-01", "r1"))
        assert PageCursor.decode(cursor.encode().value).prefix == "a:b"

    def test_token_is_url_safe(self):
        import urllib.parse

        token = PageCursor(
            OaiVerb.LIST_IDENTIFIERS, Datestamp(1997, 2, 10), None, None,
            ("1998-05-02", "oai:arXiv:hep-th/9901001"),
        ).encode().value
        assert urllib.parse.quote(token, safe=":-") == token

    @pytest.mark.parametrize("garbage", ["", "x", "Nope:-:-:0:-", "ListRecords:-:-:z:-", "ListRecords:-:-:-1:-"])
    def test_bad_tokens_rejected(self, garbage):
        with pytest.raises(BadResumptionToken):
            PageCursor.decode(garbage)

    @pytest.mark.parametrize("garbage", MALFORMED_TOKENS)
    def test_malformed_keyset_tokens_rejected(self, garbage):
        with pytest.raises(BadResumptionToken):
            PageCursor.decode(garbage)

    @pytest.mark.parametrize("identifier", [
        "oai:arXiv:hep-th/9901001", "100%", "%41", "a&b=c", "a+b", "with space",
        "Zürich/Øster/日本", "-", "~_.",
    ])
    def test_identifier_round_trip(self, identifier):
        cursor = PageCursor(
            OaiVerb.LIST_RECORDS, None, Datestamp(2001, 6, 5), "oai_dc", ("2000-02-29", identifier)
        )
        token = cursor.encode().value
        assert PageCursor.decode(token) == cursor
        assert urllib.parse.quote(token, safe=":-") == token


class TestPaging:
    def collect_pages(self, provider, first_raw, verb):
        pages = []
        out = parsed(provider, first_raw, verb)
        pages.append(out)
        while out.token is not None:
            raw = f"verb={verb.value}&resumptionToken={out.token.value}"
            out = parsed(provider, raw, verb)
            pages.append(out)
        return pages

    def test_three_headers_page_size_two(self):
        provider = make_provider(page_size=2)
        pages = self.collect_pages(provider, "verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS)
        assert [len(p.items) for p in pages] == [2, 1]
        assert pages[0].token is not None and pages[-1].token is None

    def test_single_page_when_large(self):
        provider = make_provider(page_size=10)
        pages = self.collect_pages(provider, "verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS)
        assert [len(p.items) for p in pages] == [3]
        assert pages[0].token is None

    def test_garbage_token_empty_envelope(self, fixture_provider):
        out = parsed(
            fixture_provider,
            "verb=ListIdentifiers&resumptionToken=garbage",
            OaiVerb.LIST_IDENTIFIERS,
        )
        assert out.items == () and out.token is None

    def test_token_for_wrong_verb_rejected(self, fixture_provider):
        token = PageCursor(
            OaiVerb.LIST_RECORDS, None, None, "oai_dc", ("1998-01-01", "record1")
        ).encode().value
        out = parsed(
            fixture_provider,
            f"verb=ListIdentifiers&resumptionToken={token}",
            OaiVerb.LIST_IDENTIFIERS,
        )
        assert out.items == ()

    def test_concatenation_equals_unpaged(self):
        rng = random.Random(42)
        for trial in range(6):
            store = random_store(rng, rng.randint(0, 40))
            unpaged = make_provider(store=store, page_size=1000)
            for page_size in (1, 2, 3, 10):
                paged = make_provider(store=store, page_size=page_size)
                for raw, verb in [
                    ("verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS),
                    ("verb=ListRecords&metadataPrefix=oai_dc", OaiVerb.LIST_RECORDS),
                ]:
                    whole = parsed(unpaged, raw, verb)
                    pages = self.collect_pages(paged, raw, verb)
                    stitched = [item for p in pages for item in p.items]
                    assert stitched == list(whole.items)

    def test_item_unchanged_during_harvest_is_not_skipped(self):
        def item(n, day):
            return StoredItem(ItemIdentifier(f"r{n}"), Datestamp(2000, 1, day),
                              payloads=(("oai_dc", dc_payload(f"T{n}", "A")),))

        store = MemoryStore([DC_FORMAT], [item(n, n + 1) for n in range(4)])
        provider = make_provider(store=store, page_size=2)
        out = parsed(provider, "verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS)
        seen = [h.identifier.value for h in out.items]
        # r0 changes after the first page: its datestamp moves past the others
        store.upsert_item(StoredItem(ItemIdentifier("r0"), Datestamp(2001, 6, 5),
                                     payloads=(("oai_dc", dc_payload("T0 v2", "A")),)))
        while out.token is not None:
            raw = f"verb=ListIdentifiers&resumptionToken={out.token.value}"
            out = parsed(provider, raw, OaiVerb.LIST_IDENTIFIERS)
            seen += [h.identifier.value for h in out.items]
        assert seen == ["r0", "r1", "r2", "r3", "r0"]

    def test_token_survives_restart(self, tmp_path):
        store = random_store(random.Random(9), 25)
        raw = "verb=ListRecords&metadataPrefix=oai_dc"
        whole = parsed(make_provider(store=store, page_size=100), raw, OaiVerb.LIST_RECORDS)
        first = parsed(make_provider(store=store, page_size=10), raw, OaiVerb.LIST_RECORDS)
        path = tmp_path / "catalog.xml"
        path.write_text(render_catalog(store), encoding="utf-8")
        restarted = make_provider(store=FileStore(str(path)), page_size=10)
        rest = self.collect_pages(
            restarted, f"verb=ListRecords&resumptionToken={first.token.value}", OaiVerb.LIST_RECORDS
        )
        stitched = list(first.items) + [item for p in rest for item in p.items]
        assert [r.header for r in stitched] == [r.header for r in whole.items]

    def test_tokens_for_awkward_identifiers_used_unencoded(self):
        names = ["a:b", "100%", "%41", "p&q=r", "a+b", "s p", "Zürich", "日本", "x"]
        store = MemoryStore([DC_FORMAT], [
            StoredItem(ItemIdentifier(name), Datestamp(2000, 1, 1),
                       payloads=(("oai_dc", dc_payload(name, "A")),))
            for name in names
        ])
        provider = make_provider(store=store, page_size=1)
        pages = self.collect_pages(provider, "verb=ListIdentifiers", OaiVerb.LIST_IDENTIFIERS)
        assert [h.identifier.value for p in pages for h in p.items] == sorted(names)

    @pytest.mark.parametrize("garbage", MALFORMED_TOKENS + ["garbage", "ListRecords:-:-:0:-"])
    @pytest.mark.parametrize("verb", [OaiVerb.LIST_IDENTIFIERS, OaiVerb.LIST_RECORDS])
    def test_malformed_token_is_empty_200(self, fixture_provider, verb, garbage):
        out = parsed(fixture_provider, f"verb={verb.value}&resumptionToken={garbage}", verb)
        assert out.items == () and out.token is None

    @pytest.mark.parametrize("verb", [OaiVerb.LIST_SETS, OaiVerb.LIST_METADATA_FORMATS])
    def test_unpaged_verbs_refuse_tokens(self, fixture_provider, verb):
        token = PageCursor(verb, None, None, None, ("1998-01-01", "record1")).encode().value
        out = parsed(fixture_provider, f"verb={verb.value}&resumptionToken={token}", verb)
        assert out.items == () and out.token is None

    def test_page_selects_at_most_page_size_plus_one(self):
        page_size = 10
        for size in (100, 400):
            store = random_store(random.Random(size), size)
            selected = []
            select = store.ids_by_date

            def counting(*args, **kwargs):
                result = select(*args, **kwargs)
                selected.append(len(result))
                return result

            store.ids_by_date = counting
            provider = make_provider(store=store, page_size=page_size)
            pages = self.collect_pages(
                provider, "verb=ListRecords&metadataPrefix=oai_dc", OaiVerb.LIST_RECORDS
            )
            assert sum(len(p.items) for p in pages) == size
            assert len(selected) == len(pages) == size // page_size
            assert max(selected) == page_size + 1
