import gc
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaimh.model import (
    Datestamp,
    ItemIdentifier,
    MetadataFormatDescriptor,
    MetadataRecord,
    OaiVerb,
    RecordHeader,
    RepositoryDescription,
    ResponseDate,
    ResumptionToken,
)
from oaimh.store import FileStore, dc_payload, fixture_store, render_catalog
from oaimh.wire import (
    ParseError,
    ResponseEnvelope,
    VerbMismatch,
    identify_equal_ignoring_date,
    parse_list_response,
    render_envelope,
    render_record,
)

from transcripts import LIST_IDENTIFIERS_ALL

RESPONSE_DATE = ResponseDate(Datestamp(2001, 5, 5), 12, 27, 36, -360)
REQUEST_URL = "http://localhost/oai1?verb=ListIdentifiers"


def make_envelope(verb, items=(), token=None, request_url=REQUEST_URL):
    return ResponseEnvelope(verb, RESPONSE_DATE, request_url, tuple(items), token)


class TestRenderEnvelope:
    def test_identify_shape(self):
        repo = RepositoryDescription("Demo", "http://localhost/oai1", ("a@b.org",))
        doc = render_envelope(make_envelope(OaiVerb.IDENTIFY, [repo]))
        # independent check: stdlib parser sees the schema shape the protocol mandates
        root = ET.fromstring(doc)
        assert root.tag == "{http://www.openarchives.org/OAI/OAI_Identify}Identify"
        children = [c.tag.rpartition("}")[2] for c in root]
        assert children[:2] == ["responseDate", "requestURL"]
        assert children.count("responseDate") == 1
        assert children.count("requestURL") == 1

    def test_deleted_identifier_flagged(self):
        headers = [
            RecordHeader(ItemIdentifier("record1")),
            RecordHeader(ItemIdentifier("record2")),
            RecordHeader(ItemIdentifier("record3"), deleted=True),
        ]
        doc = render_envelope(make_envelope(OaiVerb.LIST_IDENTIFIERS, headers))
        assert '<identifier status="deleted">record3</identifier>' in doc

    def test_empty_list_keeps_envelope(self):
        doc = render_envelope(make_envelope(OaiVerb.LIST_IDENTIFIERS))
        root = ET.fromstring(doc)
        assert [c.tag.rpartition("}")[2] for c in root] == ["responseDate", "requestURL"]

    def test_request_url_ampersand_escaped(self):
        url = "http://localhost/oai1?verb=ListIdentifiers&until=2000-01-01"
        doc = render_envelope(make_envelope(OaiVerb.LIST_IDENTIFIERS, request_url=url))
        body = doc.split("<requestURL>", 1)[1].split("</requestURL>", 1)[0]
        assert "&amp;" in body and "&" not in body.replace("&amp;", "")

    def test_token_rendered_last(self):
        doc = render_envelope(
            make_envelope(
                OaiVerb.LIST_IDENTIFIERS,
                [RecordHeader(ItemIdentifier("a"))],
                token=ResumptionToken("1997-02-10___"),
            )
        )
        root = ET.fromstring(doc)
        assert root[-1].tag.rpartition("}")[2] == "resumptionToken"
        assert root[-1].text == "1997-02-10___"


class TestRenderRecord:
    def test_record_with_payload(self):
        header = RecordHeader(ItemIdentifier("record2"), Datestamp(1999, 2, 12))
        fragment = render_record(MetadataRecord(header, dc_payload("Item 2", "A N Other")), " ")
        assert "<title>Item 2</title>" in fragment
        assert "<creator>A N Other</creator>" in fragment
        assert "<datestamp>1999-02-12</datestamp>" in fragment

    def test_unavailable_format_is_header_only(self):
        header = RecordHeader(ItemIdentifier("record2"), Datestamp(1999, 2, 12))
        fragment = render_record(MetadataRecord(header, None), " ")
        assert "<metadata>" not in fragment
        assert "<identifier>record2</identifier>" in fragment

    def test_deleted_record_is_header_only(self):
        header = RecordHeader(ItemIdentifier("record3"), Datestamp(2000, 3, 13), deleted=True)
        fragment = render_record(MetadataRecord(header), " ")
        assert "<metadata>" not in fragment
        assert 'status="deleted"' in fragment


class TestRenderDc:
    def test_golden_fields(self):
        frag = dc_payload("Item 2", "A N Other")
        root = ET.fromstring(frag)
        assert root.tag == "{http://purl.org/dc/elements/1.1/}oai_dc"
        assert [(c.tag.rpartition("}")[2], c.text) for c in root] == [
            ("title", "Item 2"),
            ("creator", "A N Other"),
        ]
        assert "http://www.openarchives.org/OAI/dc.xsd" in root.attrib[
            "{http://www.w3.org/2000/10/XMLSchema-instance}schemaLocation"
        ]

    def test_text_escaped(self):
        frag = dc_payload("a & b", "c < d")
        assert "a &amp; b" in frag
        assert "c &lt; d" in frag
        assert [c.text for c in ET.fromstring(frag)] == ["a & b", "c < d"]


class TestParseListResponse:
    def test_golden_list_identifiers_transcript(self):
        parsed = parse_list_response(LIST_IDENTIFIERS_ALL, OaiVerb.LIST_IDENTIFIERS)
        assert [h.identifier.value for h in parsed.items] == ["record1", "record2", "record3"]
        assert [h.deleted for h in parsed.items] == [False, False, True]
        assert parsed.token is None
        assert parsed.envelope.response_date.render() == "2001-05-05T12:59:30-06:00"

    def test_token_extracted_verbatim(self):
        doc = render_envelope(
            make_envelope(
                OaiVerb.LIST_IDENTIFIERS,
                [RecordHeader(ItemIdentifier("a"))],
                token=ResumptionToken("1997-02-10___"),
            )
        )
        parsed = parse_list_response(doc, OaiVerb.LIST_IDENTIFIERS)
        assert parsed.token == ResumptionToken("1997-02-10___")

    def test_verb_mismatch(self):
        with pytest.raises(VerbMismatch):
            parse_list_response(LIST_IDENTIFIERS_ALL, OaiVerb.LIST_RECORDS)

    def test_malformed_xml(self):
        with pytest.raises(ParseError):
            parse_list_response("<broken", OaiVerb.LIST_IDENTIFIERS)

    def test_namespace_prefix_variation_tolerated(self):
        doc = (
            '<?xml version="1.0"?>'
            '<o:ListIdentifiers xmlns:o="http://www.openarchives.org/OAI/OAI_ListIdentifiers">'
            "<o:responseDate>2001-05-05T12:59:30-06:00</o:responseDate>"
            "<o:requestURL>http://x?verb=ListIdentifiers</o:requestURL>"
            '<o:identifier o:status="deleted">r9</o:identifier>'
            "</o:ListIdentifiers>"
        )
        parsed = parse_list_response(doc, OaiVerb.LIST_IDENTIFIERS)
        assert parsed.items[0].identifier.value == "r9"
        assert parsed.items[0].deleted

    def test_description_block_round_trips(self):
        block = (
            '<ex:description xmlns:ex="urn:example">\n'
            " <ex:p>line one\nline two</ex:p>\n"
            "</ex:description>"
        )
        repo = RepositoryDescription("Demo", "http://localhost/oai1", ("a@b.org",),
                                     descriptions=(block,))
        doc = render_envelope(make_envelope(OaiVerb.IDENTIFY, [repo]))
        (parsed,) = parse_list_response(doc, OaiVerb.IDENTIFY).items
        assert parsed.descriptions == (block,)

    def test_bad_values_are_parse_errors(self):
        date = "<responseDate>2001-01-01T00:00:00+00:00</responseDate>"
        for doc, verb in [
            ("<Identify><responseDate>2001-01-01T25:00:00+00:00</responseDate></Identify>",
             OaiVerb.IDENTIFY),
            (f"<ListRecords>{date}<record><header><identifier>a</identifier>"
             "<datestamp>2001-13-01</datestamp></header></record></ListRecords>",
             OaiVerb.LIST_RECORDS),
            (f"<ListIdentifiers>{date}<identifier/></ListIdentifiers>", OaiVerb.LIST_IDENTIFIERS),
            # no adminEmail
            (f"<Identify>{date}<repositoryName>r</repositoryName></Identify>", OaiVerb.IDENTIFY),
        ]:
            with pytest.raises(ParseError):
                parse_list_response(doc, verb)

    def test_missing_response_date(self):
        doc = "<ListIdentifiers></ListIdentifiers>"
        with pytest.raises(ParseError):
            parse_list_response(doc, OaiVerb.LIST_IDENTIFIERS)

    @pytest.mark.parametrize("name", [" ", " x", "x ", "a  b"])
    def test_repository_name_whitespace_round_trips(self, name):
        repo = RepositoryDescription(name, "http://localhost/oai1", ("a@b.org",))
        doc = render_envelope(make_envelope(OaiVerb.IDENTIFY, [repo]))
        (parsed,) = parse_list_response(doc, OaiVerb.IDENTIFY).items
        assert parsed.repository_name == name


# -- payloads cut out as written ----------------------------------------------

LIST_RECORDS_NS = "http://www.openarchives.org/OAI/OAI_ListRecords"
XSI = "http://www.w3.org/2000/10/XMLSchema-instance"


def records_page(metadata, root_decls="", wrapper_decls=""):
    return (
        f'<?xml version="1.0" encoding="UTF-8"?>\n<ListRecords xmlns="{LIST_RECORDS_NS}"{root_decls}>'
        "<responseDate>2001-01-01T00:00:00+00:00</responseDate><requestURL>x</requestURL>"
        "<record><header><identifier>a</identifier><datestamp>2001-01-01</datestamp></header>"
        f"<metadata{wrapper_decls}>{metadata}</metadata></record>\n</ListRecords>\n"
    )


def catalog_file(path, payload, root_decls="", wrapper_decls=""):
    path.write_bytes((
        f'<?xml version="1.0" encoding="UTF-8"?>\n<catalog{root_decls}>\n'
        f' <format prefix="oai_dc" schema="http://www.openarchives.org/OAI/dc.xsd"/>\n'
        f' <item identifier="a" datestamp="2001-01-01">'
        f'<payload prefix="oai_dc"{wrapper_decls}>{payload}</payload></item>\n</catalog>\n'
    ).encode("utf-8"))
    return str(path)


def payload_of(page):
    (record,) = parse_list_response(page, OaiVerb.LIST_RECORDS).items
    return record.metadata


def catalog_payload(path, *args):
    return FileStore(catalog_file(path, *args)).get_item(ItemIdentifier("a")).payload("oai_dc")


# (what is written inside <metadata> or <payload>, declarations on the
# document root, declarations on the wrapper, the payload read back)
CUT_CASES = {
    "inherited prefix": (
        "<dc:dc><dc:t>x</dc:t></dc:dc>", ' xmlns:dc="urn:dc"', "",
        '<dc:dc xmlns:dc="urn:dc"><dc:t>x</dc:t></dc:dc>'),
    "inherited default namespace": (
        "<foo><bar/></foo>", "", ' xmlns="urn:d"', '<foo xmlns="urn:d"><bar/></foo>'),
    "inherited xsi attribute": (
        '<a xmlns="urn:a" xsi:type="t"/>', f' xmlns:xsi="{XSI}"', "",
        f'<a xmlns:xsi="{XSI}" xmlns="urn:a" xsi:type="t"/>'),
    "unused declarations stay out": (
        '<a xmlns="urn:a">x</a>', ' xmlns:u="urn:u"', ' xmlns:v="urn:v"', '<a xmlns="urn:a">x</a>'),
    "redeclared inside, used outside that subtree": (
        '<a xmlns="urn:a"><b xmlns:p="urn:q"><p:x/></b><p:y/></a>', ' xmlns:p="urn:p"', "",
        '<a xmlns:p="urn:p" xmlns="urn:a"><b xmlns:p="urn:q"><p:x/></b><p:y/></a>'),
    "xml:lang needs no declaration": (
        '<a xmlns="urn:a" xml:lang="en">x</a>', "", "", '<a xmlns="urn:a" xml:lang="en">x</a>'),
    "self-closing with /> in an attribute": (
        '<a xmlns="urn:a" b="/>" c=\'>\'/>\n', "", "", '<a xmlns="urn:a" b="/>" c=\'>\'/>'),
    "last child self-closing": (
        '<a xmlns="urn:a"><b/></a>', "", "", '<a xmlns="urn:a"><b/></a>'),
    "CDATA holding the wrapper's end tag": (
        '<a xmlns="urn:a"><![CDATA[</metadata></payload>]]></a>', "", "",
        '<a xmlns="urn:a"><![CDATA[</metadata></payload>]]></a>'),
    "comment and spacing kept": (
        '<a  xmlns="urn:a" ><!--  c  -->\n  <b >x</b ></a >', "", "",
        '<a  xmlns="urn:a" ><!--  c  -->\n  <b >x</b ></a >'),
    "first of two elements": (
        '<a xmlns="urn:a"/><b xmlns="urn:b"/>', "", "", '<a xmlns="urn:a"/>'),
    "text only": ("just text", "", "", None),
    "multibyte text": (
        '<a xmlns="urn:a" t="Zürich">東京 – 😀 &amp; &#233;</a>', "", "",
        '<a xmlns="urn:a" t="Zürich">東京 – 😀 &amp; &#233;</a>'),
}


class TestPayloadCuts:
    @pytest.mark.parametrize("case", CUT_CASES)
    def test_page_payload(self, case):
        written, root_decls, wrapper_decls, expected = CUT_CASES[case]
        assert payload_of(records_page(written, root_decls, wrapper_decls)) == expected

    @pytest.mark.parametrize("case", CUT_CASES)
    def test_catalog_payload(self, case, tmp_path):
        written, root_decls, wrapper_decls, expected = CUT_CASES[case]
        got = catalog_payload(tmp_path / "catalog.xml", written, root_decls, wrapper_decls)
        assert got == expected

    def test_envelope_default_namespace_declared_on_the_payload(self):
        assert payload_of(records_page("<foo><bar/></foo>")) == (
            f'<foo xmlns="{LIST_RECORDS_NS}"><bar/></foo>')

    def test_entity_declarations_refused(self, tmp_path):
        doctype = '<!DOCTYPE x [<!ENTITY e "text">]>\n'
        page = records_page('<a xmlns="urn:a">&e;</a>').replace("\n", "\n" + doctype, 1)
        with pytest.raises(ParseError):
            parse_list_response(page, OaiVerb.LIST_RECORDS)
        external = page.replace(doctype, '<!DOCTYPE x SYSTEM "x.dtd">\n')
        with pytest.raises(ParseError):
            parse_list_response(external, OaiVerb.LIST_RECORDS)
        path = tmp_path / "catalog.xml"
        catalog_file(path, '<a xmlns="urn:a">&e;</a>')
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n" + doctype.encode(), 1))
        with pytest.raises(ParseError):
            FileStore(str(path))

    def test_fixture_payloads_read_back_verbatim(self, tmp_path):
        store = fixture_store()
        held = [(item, prefix, payload) for item in store.items()
                for prefix, payload in item.payloads]
        assert len(held) == 3
        records = [MetadataRecord(item.header(), payload) for item, _, payload in held]
        doc = render_envelope(make_envelope(OaiVerb.LIST_RECORDS, records))
        parsed = parse_list_response(doc, OaiVerb.LIST_RECORDS).items
        assert [r.metadata for r in parsed] == [payload for _, _, payload in held]
        path = tmp_path / "catalog.xml"
        path.write_text(render_catalog(store), encoding="utf-8")
        loaded = FileStore(str(path))
        assert [loaded.get_item(item.identifier).payload(prefix) for item, prefix, _ in held] == [
            payload for _, _, payload in held
        ]

    def test_parse_and_load_leave_no_garbage_cycles(self, tmp_path):
        path = tmp_path / "catalog.xml"
        path.write_text(render_catalog(fixture_store()), encoding="utf-8")
        records = [MetadataRecord(i.header(), i.payload("oai_dc")) for i in fixture_store().items()]
        doc = render_envelope(make_envelope(OaiVerb.LIST_RECORDS, records))
        gc.collect()
        gc.disable()
        try:
            parse_list_response(doc, OaiVerb.LIST_RECORDS)
            FileStore(str(path))
            assert gc.collect() == 0
        finally:
            gc.enable()


# payload trees for the property below: elements and attributes in the
# default namespace or under prefixes p and q, each declared on the payload,
# on <metadata> or on the envelope (where the default is the OAI namespace)
PREFIXES = ("", "p", "q")
cut_text = st.text(alphabet="x <&>\"'é😀\n", max_size=4)


@st.composite
def payload_pages(draw):
    places = {p: draw(st.sampled_from(["payload", "metadata", "envelope"])) for p in PREFIXES}

    def decl(prefix, uri):
        return f" xmlns:{prefix}={quoteattr(uri)}" if prefix else f" xmlns={quoteattr(uri)}"

    def decls(place):
        return "".join(decl(p, f"urn:{p or 'd'}") for p in PREFIXES
                       if places[p] == place and not (p == "" and place == "envelope"))

    def element(depth, root=False):
        prefix = draw(st.sampled_from(PREFIXES))
        name = (prefix + ":" if prefix else "") + draw(st.sampled_from("abc"))
        attrs = draw(st.dictionaries(
            st.tuples(st.sampled_from(PREFIXES + ("xml",)), st.sampled_from("xy")),
            cut_text, max_size=3))
        tag = name + (decls("payload") if root else "")
        if not root and draw(st.booleans()):  # rebind p below here
            tag += decl("p", "urn:p2")
        tag += "".join(f" {p + ':' if p else ''}{n}={quoteattr(v)}" for (p, n), v in attrs.items())
        children = draw(st.integers(0, 2 if depth < 3 else 0))
        if not children and draw(st.booleans()):
            return f"<{tag}/>"
        body = escape(draw(cut_text)) + "".join(
            element(depth + 1) + escape(draw(cut_text)) for _ in range(children))
        return f"<{tag}>{body}</{name}>"

    return records_page(element(1, root=True), decls("envelope"), decls("metadata"))


class TestCutProperty:
    @settings(max_examples=60, deadline=None)
    @given(payload_pages())
    def test_cut_alone_equals_element_in_document(self, page):
        cut = payload_of(page)
        # the first element in <metadata>, which is record's second child
        element = ET.fromstring(page)[2][1][0]
        reference = ET.tostring(element, encoding="unicode")
        assert ET.canonicalize(xml_data=cut, rewrite_prefixes=True) == ET.canonicalize(
            xml_data=reference, rewrite_prefixes=True)



# -- randomized round-trip --------------------------------------------------

# control characters are unrepresentable in XML 1.0, so keep generated text
# out of Cc/Cs
xml_text = st.text(
    alphabet=st.characters(
        min_codepoint=0x20, max_codepoint=0xD7FF, blacklist_categories=("Cs", "Cc")
    ),
    max_size=20,
)

identifiers = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), whitelist_characters=":/.-_"
    ),
    min_size=1,
    max_size=20,
).map(ItemIdentifier)

dates = st.dates(min_value=Datestamp(1990, 1, 1))

tokens = st.one_of(
    st.none(),
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=15
    ).map(ResumptionToken),
)

wire_headers = st.builds(
    RecordHeader, identifiers, st.none(), st.booleans()
)

records = st.builds(
    lambda ident, date, deleted, with_payload, title: MetadataRecord(
        RecordHeader(ident, date, deleted),
        dc_payload(title, "Author") if with_payload and not deleted else None,
    ),
    identifiers,
    dates,
    st.booleans(),
    st.booleans(),
    xml_text,
)

formats = st.builds(
    MetadataFormatDescriptor,
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).filter(
        lambda p: p != "oai_dc"
    ),
    st.just("http://example.org/schema.xsd"),
    st.one_of(st.none(), st.just("http://example.org/ns")),
)


def envelope_strategy():
    def body_for(verb):
        if verb is OaiVerb.LIST_IDENTIFIERS:
            return st.lists(wire_headers, max_size=6)
        if verb in (OaiVerb.LIST_RECORDS, OaiVerb.GET_RECORD):
            return st.lists(records, max_size=4)
        if verb is OaiVerb.LIST_METADATA_FORMATS:
            return st.lists(formats, max_size=4)
        if verb is OaiVerb.IDENTIFY:
            return st.builds(
                lambda name, emails: [
                    RepositoryDescription(name, "http://localhost/oai1", tuple(emails))
                ],
                xml_text,
                st.lists(st.emails(), min_size=1, max_size=3),
            )
        return st.just([])

    return st.sampled_from(list(OaiVerb)).flatmap(
        lambda verb: st.builds(
            lambda items, token: make_envelope(verb, items, token),
            body_for(verb),
            tokens,
        )
    )


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(envelope_strategy())
    def test_parse_of_render_preserves_structure(self, env):
        parsed = parse_list_response(render_envelope(env), env.verb)
        assert parsed.token == env.resumption_token
        assert parsed.envelope.response_date == env.response_date
        assert parsed.envelope.request_url == env.request_url
        assert len(parsed.items) == len(env.body_items)
        for got, want in zip(parsed.items, env.body_items):
            if isinstance(want, RecordHeader):
                assert got.identifier == want.identifier
                assert got.deleted == want.deleted
            elif isinstance(want, MetadataRecord):
                assert got.header == want.header
                assert (got.metadata is None) == (want.metadata is None)
            elif isinstance(want, MetadataFormatDescriptor):
                assert got == want
            elif isinstance(want, RepositoryDescription):
                assert got.repository_name == want.repository_name
                assert got.admin_emails == want.admin_emails

    @settings(max_examples=60, deadline=None)
    @given(envelope_strategy())
    def test_rendered_documents_are_well_formed(self, env):
        root = ET.fromstring(render_envelope(env))
        names = [c.tag.rpartition("}")[2] for c in root]
        assert names.count("responseDate") == 1
        assert names.count("requestURL") == 1


class TestIdentifyComparison:
    def make_identify(self, when="2001-06-05T09:00:00-06:00", email="a@b.org"):
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<Identify xmlns="http://www.openarchives.org/OAI/OAI_Identify">\n'
            f" <responseDate>{when}</responseDate>\n"
            " <requestURL>http://localhost/oai1?verb=Identify</requestURL>\n"
            " <repositoryName>Demo</repositoryName>\n"
            " <baseURL>http://localhost/oai1</baseURL>\n"
            " <protocolVersion>1.0</protocolVersion>\n"
            f" <adminEmail>{email}</adminEmail>\n"
            "</Identify>\n"
        )

    def test_same_repository_two_times(self):
        a = self.make_identify("2001-06-05T09:00:00-06:00")
        b = self.make_identify("2001-06-06T17:30:00-06:00")
        assert identify_equal_ignoring_date(a, b)

    def test_reflexive(self):
        a = self.make_identify()
        assert identify_equal_ignoring_date(a, a)

    def test_changed_admin_email_detected(self):
        a = self.make_identify(email="a@b.org")
        b = self.make_identify(email="other@b.org")
        assert not identify_equal_ignoring_date(a, b)

    def test_missing_response_date_is_error(self):
        with pytest.raises(ParseError):
            identify_equal_ignoring_date("<Identify/>", self.make_identify())

    def test_equivalence_relation(self):
        a = self.make_identify("2001-01-01T00:00:00+00:00")
        b = self.make_identify("2002-02-02T02:02:02+00:00")
        c = self.make_identify("2003-03-03T03:03:03+00:00")
        assert identify_equal_ignoring_date(a, b)
        assert identify_equal_ignoring_date(b, c)
        assert identify_equal_ignoring_date(a, c)
        assert identify_equal_ignoring_date(b, a)
