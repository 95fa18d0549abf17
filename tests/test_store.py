import os
import random
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaimh.model import Datestamp, ItemIdentifier, MalformedPayload, MetadataFormatDescriptor
from oaimh.store import (
    DC_FORMAT,
    FileStore,
    MemoryStore,
    NotFound,
    StoredItem,
    UnknownFormat,
    dc_payload,
    fixture_store,
    render_catalog,
)
from oaimh.wire import ParseError

from conftest import MALFORMED_PAYLOADS, days_after

RECORD4 = StoredItem(
    ItemIdentifier("record4"),
    Datestamp(2001, 6, 5),
    payloads=(("oai_dc", dc_payload("Item 4", "Someone Else")),),
)


@pytest.fixture
def store():
    return fixture_store()


class TestGetItem:
    def test_record2(self, store):
        item = store.get_item(ItemIdentifier("record2"))
        assert item.datestamp == Datestamp(1999, 2, 12)

    def test_record3_deleted_but_returned(self, store):
        item = store.get_item(ItemIdentifier("record3"))
        assert item.deleted
        assert item.datestamp == Datestamp(2000, 3, 13)

    def test_missing(self, store):
        with pytest.raises(NotFound):
            store.get_item(ItemIdentifier("nosuch"))


class TestIdsByDate:
    def test_unbounded_returns_all_three(self, store):
        ids = [h.identifier.value for h in store.ids_by_date()]
        assert ids == ["record1", "record2", "record3"]

    def test_until_excludes_record3(self, store):
        ids = [h.identifier.value for h in store.ids_by_date(until_date=Datestamp(2000, 1, 1))]
        assert ids == ["record1", "record2"]

    def test_from_selects_new_record(self, store):
        store.upsert_item(RECORD4)
        ids = [h.identifier.value for h in store.ids_by_date(from_date=Datestamp(2001, 6, 5))]
        assert ids == ["record4"]

    def test_bounds_inclusive(self, store):
        ids = [
            h.identifier.value
            for h in store.ids_by_date(Datestamp(1999, 2, 12), Datestamp(1999, 2, 12))
        ]
        assert ids == ["record2"]

    def test_after_and_limit(self, store):
        ids = [i.identifier.value for i in store.ids_by_date(after=("1998-01-01", "record1"))]
        assert ids == ["record2", "record3"]
        # a key absent from the store still positions the continuation
        ids = [i.identifier.value for i in store.ids_by_date(after=("1999-01-01", "zzz"), limit=1)]
        assert ids == ["record2"]
        assert store.ids_by_date(from_date=Datestamp(2000, 3, 13), after=("1998-01-01", "a")) == [
            store.get_item(ItemIdentifier("record3"))
        ]
        assert store.ids_by_date(until_date=Datestamp(1999, 2, 12),
                                 after=("1999-02-12", "record2")) == []

    def test_index_follows_upserts(self):
        rng = random.Random(11)
        store = random_store(rng, 50)
        for _ in range(300):
            ident = ItemIdentifier(f"item{rng.randrange(70):03d}")
            stamp = Datestamp(2000, rng.randint(1, 12), rng.randint(1, 28))
            store.upsert_item(StoredItem(ident, stamp, deleted=True))
        expected = sorted(store.items(), key=lambda i: (str(i.datestamp), i.identifier.value))
        assert store.ids_by_date() == expected
        a, b = Datestamp(2000, 3, 1), Datestamp(2000, 9, 30)
        assert store.ids_by_date(a, b) == [i for i in expected if a <= i.datestamp <= b]

    def test_constructor_rejects_unknown_prefix(self):
        item = StoredItem(ItemIdentifier("r"), Datestamp(2001, 1, 1), payloads=(("zzz", "<z/>"),))
        with pytest.raises(UnknownFormat):
            MemoryStore([DC_FORMAT], [item])

    def test_constructor_keeps_last_of_duplicate_identifiers(self):
        first = StoredItem(ItemIdentifier("r"), Datestamp(2001, 1, 1), deleted=True)
        second = StoredItem(ItemIdentifier("r"), Datestamp(1999, 1, 1), deleted=True)
        assert MemoryStore([], [first, second]).ids_by_date() == [second]


class TestDisseminate:
    def test_record2_dc(self, store):
        fragment = store.get_item(ItemIdentifier("record2")).payload("oai_dc")
        assert "<title>Item 2</title>" in fragment

    def test_unavailable_format(self, store):
        assert store.get_item(ItemIdentifier("record2")).payload("wibble") is None

    def test_deleted_item(self, store):
        assert store.get_item(ItemIdentifier("record3")).payload("oai_dc") is None


class TestFormatsFor:
    def test_record1_both_formats(self, store):
        fmts = store.formats_for(ItemIdentifier("record1"))
        assert [(f.prefix, f.schema_url) for f in fmts] == [
            ("wibble", "http://wibble.org/wibble.xsd"),
            ("oai_dc", "http://www.openarchives.org/OAI/dc.xsd"),
        ]

    def test_whole_repository(self, store):
        assert [f.prefix for f in store.formats] == ["wibble", "oai_dc"]

    def test_deleted_item_has_none(self, store):
        assert store.formats_for(ItemIdentifier("record3")) == []

    def test_unknown_item(self, store):
        with pytest.raises(NotFound):
            store.formats_for(ItemIdentifier("nosuch"))


class TestUpsert:
    def test_insert_record4(self, store):
        store.upsert_item(RECORD4)
        assert store.get_item(ItemIdentifier("record4")).datestamp == Datestamp(2001, 6, 5)

    def test_reinsert_is_idempotent(self, store):
        before = store.items()
        store.upsert_item(store.get_item(ItemIdentifier("record2")))
        assert store.items() == before

    def test_unknown_payload_prefix_rejected(self, store):
        item = StoredItem(
            ItemIdentifier("r"), Datestamp(2001, 1, 1), payloads=(("zzz", "<z/>"),)
        )
        with pytest.raises(UnknownFormat):
            store.upsert_item(item)

    def test_new_prefix_with_descriptor_extends_catalog(self, store):
        item = StoredItem(
            ItemIdentifier("r"), Datestamp(2001, 1, 1), payloads=(("zzz", "<z/>"),)
        )
        store.upsert_item(item, [MetadataFormatDescriptor("zzz", "http://z.example/z.xsd")])
        assert "zzz" in [f.prefix for f in store.formats]

    def test_deleted_item_cannot_carry_payloads(self):
        with pytest.raises(ValueError):
            StoredItem(
                ItemIdentifier("r"), Datestamp(2001, 1, 1), deleted=True,
                payloads=(("oai_dc", "<x/>"),),
            )


def item_with(payload):
    return StoredItem(ItemIdentifier("x"), Datestamp(2000, 1, 1), payloads=(("oai_dc", payload),))


# every route into a store: the item itself, a store built from items, an upsert
ROUTES_IN = {
    "StoredItem": item_with,
    "MemoryStore": lambda payload: MemoryStore([DC_FORMAT], [item_with(payload)]),
    "upsert_item": lambda payload: fixture_store().upsert_item(item_with(payload)),
}


class TestPayloadCheckedOnEntry:
    @pytest.mark.parametrize("route", ROUTES_IN)
    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_rejected(self, route, payload):
        with pytest.raises(MalformedPayload):
            ROUTES_IN[route](payload)

    @pytest.mark.parametrize("payload", [
        '<a xmlns="urn:a"><!-- inside --><?pi x?></a>',
        '\n <a xmlns="urn:a"/>\n',
        '<a xmlns="urn:a"><b/><!--c--></a>',
    ])
    def test_comments_inside_and_space_around_accepted(self, payload):
        assert item_with(payload).payload("oai_dc") == payload


def random_store(rng, size):
    items = []
    for i in range(size):
        deleted = rng.random() < 0.3
        payloads = () if deleted else (("oai_dc", dc_payload(f"T{i}", "A")),)
        items.append(
            StoredItem(
                ItemIdentifier(f"item{i:03d}"),
                Datestamp(2000, rng.randint(1, 12), rng.randint(1, 28)),
                deleted,
                payloads,
            )
        )
    return MemoryStore(formats=[DC_FORMAT], items=items)


class TestProperties:
    def test_partition_property_on_fixture(self, store):
        self.check_partitions(store)

    def test_partition_property_randomized(self):
        rng = random.Random(7)
        for _ in range(10):
            self.check_partitions(random_store(rng, rng.randint(0, 100)), rng)

    @staticmethod
    def check_partitions(store, rng=None):
        rng = rng or random.Random(0)
        everything = store.ids_by_date()
        assert len({h.identifier.value for h in everything}) == len(everything)
        for _ in range(20):
            a = Datestamp(rng.randint(1995, 2002), rng.randint(1, 12), rng.randint(1, 28))
            b = Datestamp(rng.randint(1995, 2002), rng.randint(1, 12), rng.randint(1, 28))
            c = Datestamp(rng.randint(1995, 2002), rng.randint(1, 12), rng.randint(1, 28))
            a, b, c = sorted([a, b, c])
            if b == c:
                continue
            left = store.ids_by_date(a, b)
            right = store.ids_by_date(days_after(b, 1), c)
            merged = sorted(
                left + right, key=lambda h: (h.datestamp, h.identifier.value)
            )
            assert merged == store.ids_by_date(a, c)
            assert not {h.identifier.value for h in left} & {
                h.identifier.value for h in right
            }

    def test_disseminate_iff_format_listed(self, store):
        store.upsert_item(RECORD4)
        for item in store.items():
            for fmt in store.formats:
                available = store.get_item(item.identifier).payload(fmt.prefix) is not None
                listed = fmt.prefix in [
                    f.prefix for f in store.formats_for(item.identifier)
                ]
                assert available == listed


class TestFileStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "catalog.xml")
        fs = FileStore(path)
        for item in fixture_store().items():
            fs.upsert_item(item, fixture_store().formats)
        fs.save()
        reloaded = FileStore(path)
        assert [f.prefix for f in reloaded.formats] == [f.prefix for f in fs.formats]
        assert [i.identifier for i in reloaded.items()] == [i.identifier for i in fs.items()]
        assert reloaded.get_item(ItemIdentifier("record3")).deleted
        # payloads come back as written
        assert reloaded.items() == fs.items()

    def test_save_load_is_stable(self, tmp_path):
        path = str(tmp_path / "catalog.xml")
        fs = FileStore(path)
        for item in fixture_store().items():
            fs.upsert_item(item, fixture_store().formats)
        fs.save()
        first = (tmp_path / "catalog.xml").read_text()
        reloaded = FileStore(path)
        reloaded.save()
        second = (tmp_path / "catalog.xml").read_text()
        reloaded2 = FileStore(path)
        reloaded2.save()
        assert second == (tmp_path / "catalog.xml").read_text()

    def test_upsert_leaves_file_untouched_until_save(self, tmp_path):
        path = tmp_path / "catalog.xml"
        fs = FileStore(str(path))
        for item in fixture_store().items():
            fs.upsert_item(item, fixture_store().formats)
        assert not path.exists()
        fs.save()
        before = path.read_text()
        fs.upsert_item(RECORD4)
        assert path.read_text() == before
        fs.save()
        reloaded = FileStore(str(path)).get_item(ItemIdentifier("record4"))
        assert reloaded.datestamp == RECORD4.datestamp
        assert "Item 4" in reloaded.payload("oai_dc")

    def test_save_fsyncs_temp_file_before_replace(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or real_fsync(fd))
        monkeypatch.setattr(
            os, "replace", lambda a, b: calls.append(("replace", a, b)) or real_replace(a, b)
        )
        path = str(tmp_path / "catalog.xml")
        FileStore(path).save()
        assert calls == ["fsync", ("replace", path + ".tmp", path)]

    def test_render_catalog_deterministic(self, store):
        assert render_catalog(store) == render_catalog(fixture_store())


def catalog_with(item_line: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n<catalog>\n'
        ' <format prefix="oai_dc" schema="http://www.openarchives.org/OAI/dc.xsd"/>\n'
        f" {item_line}\n</catalog>\n"
    )


# catalog items the loader refuses; each error names the item, here 'a'
BAD_ITEMS = {
    "no datestamp": '<item identifier="a"/>',
    "bad datestamp": '<item identifier="a" datestamp="2001-02-30"/>',
    "datestamp with a newline": '<item identifier="a" datestamp="2001-02-03&#10;"/>',
    "unknown prefix": '<item identifier="a" datestamp="2001-01-01">'
                      '<payload prefix="zzz"><z/></payload></item>',
    "deleted with a payload": '<item identifier="a" datestamp="2001-01-01" deleted="true">'
                              '<payload prefix="oai_dc"><z/></payload></item>',
}


class TestCatalogLoad:
    @pytest.mark.parametrize("case", BAD_ITEMS)
    def test_bad_item_is_a_parse_error_naming_it(self, tmp_path, case):
        path = tmp_path / "catalog.xml"
        path.write_text(catalog_with(BAD_ITEMS[case]), encoding="utf-8")
        with pytest.raises(ParseError, match="'a'"):
            FileStore(str(path))

    @pytest.mark.parametrize("line", [
        '<item datestamp="2001-01-01"/>',
        '<format prefix="oai_dc" schema="urn:not-the-dc-schema"/>',
        '<format schema="urn:s"/>',
    ])
    def test_item_without_identifier_or_bad_format_is_a_parse_error(self, tmp_path, line):
        path = tmp_path / "catalog.xml"
        path.write_text(catalog_with(line), encoding="utf-8")
        with pytest.raises(ParseError):
            FileStore(str(path))

    def test_load_makes_one_parser(self, tmp_path, parsers_made):
        path = tmp_path / "catalog.xml"
        path.write_text(render_catalog(random_store(random.Random(3), 50)), encoding="utf-8")
        with parsers_made() as made:
            loaded = FileStore(str(path))
        assert len(made) == 1
        assert len(loaded.items()) == 50


def quoted_catalog(store: MemoryStore) -> str:
    """What render_catalog must write: every attribute value through quoteattr."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<catalog>"]
    for fmt in store.formats:
        ns = f" namespace={quoteattr(fmt.namespace)}" if fmt.namespace else ""
        lines.append(
            f" <format prefix={quoteattr(fmt.prefix)} schema={quoteattr(fmt.schema_url)}{ns}/>")
    for item in store.items():
        attrs = (f"identifier={quoteattr(item.identifier.value)}"
                 f" datestamp={quoteattr(str(item.datestamp))}")
        if item.deleted:
            attrs += ' deleted="true"'
        if not item.payloads:
            lines.append(f" <item {attrs}/>")
            continue
        lines.append(f" <item {attrs}>")
        for prefix, fragment in item.payloads:
            lines += [f"  <payload prefix={quoteattr(prefix)}>", fragment.strip(), "  </payload>"]
        lines.append(" </item>")
    lines.append("</catalog>")
    return "\n".join(lines) + "\n"


@st.composite
def quoting_stores(draw):
    prefix = draw(st.text(alphabet="ab\"'<>", min_size=1, max_size=4))
    formats = [DC_FORMAT, MetadataFormatDescriptor(prefix, "http://example.org/s.xsd")]
    items = [
        StoredItem(ItemIdentifier(identifier), draw(st.dates()), deleted,
                   () if deleted else ((draw(st.sampled_from(["oai_dc", prefix])),
                                        dc_payload("T", "A")),))
        for identifier, deleted in draw(st.dictionaries(
            st.text(alphabet="ab\"'<&>\n\r\t é", min_size=1, max_size=6), st.booleans(),
            max_size=5)).items()
    ]
    return MemoryStore(formats, items)


class TestRenderCatalog:
    @settings(max_examples=60, deadline=None)
    @given(quoting_stores())
    def test_attributes_quoted_as_quoteattr_and_load_save_is_a_fixed_point(
            self, tmp_path_factory, store):
        text = render_catalog(store)
        assert text == quoted_catalog(store)
        path = tmp_path_factory.mktemp("catalog") / "catalog.xml"
        path.write_text(text, encoding="utf-8")
        assert render_catalog(FileStore(str(path))) == text
