import pytest
from hypothesis import given
from hypothesis import strategies as st

from oaimh.model import (
    Datestamp,
    ItemIdentifier,
    MalformedDate,
    MalformedPayload,
    MetadataFormatDescriptor,
    MetadataRecord,
    OaiVerb,
    RecordHeader,
    RepositoryDescription,
    ResponseDate,
    ResumptionToken,
    datestamp_parse,
)

from conftest import MALFORMED_PAYLOADS

dates = st.dates()


class TestDatestamp:
    def test_parse_record2_datestamp(self):
        assert datestamp_parse("1999-02-12") == Datestamp(1999, 2, 12)

    def test_parse_harvest_log_date(self):
        assert datestamp_parse("2001-06-05") == Datestamp(2001, 6, 5)

    def test_zero_padding_is_mandatory(self):
        with pytest.raises(MalformedDate):
            datestamp_parse("2001-6-5")

    @pytest.mark.parametrize(
        "text",
        ["", "1999-02-12T00:00:00", "1999/02/12", "1999-13-01", "1999-02-30", "199x-02-12", "1999-02-012"],
    )
    def test_rejects_non_canonical(self, text):
        with pytest.raises(MalformedDate):
            datestamp_parse(text)

    @given(dates)
    def test_round_trip(self, d):
        assert datestamp_parse(str(d)) == d

    @given(dates, dates)
    def test_ordering_matches_lexicographic(self, a, b):
        assert (a < b) == (str(a) < str(b))


class TestResponseDate:
    def test_date_part_from_transcript(self):
        rd = ResponseDate.parse("2001-05-05T12:27:36-06:00")
        assert rd.date == Datestamp(2001, 5, 5)

    def test_date_part_midnight(self):
        rd = ResponseDate.parse("2001-06-05T00:00:00+00:00")
        assert rd.date == Datestamp(2001, 6, 5)

    def test_no_timezone_conversion(self):
        rd = ResponseDate.parse("1999-12-31T23:59:59-06:00")
        assert rd.date == Datestamp(1999, 12, 31)

    def test_render_matches_transcript_form(self):
        rd = ResponseDate(Datestamp(2001, 5, 5), 12, 27, 36, -360)
        assert rd.render() == "2001-05-05T12:27:36-06:00"

    @given(
        dates,
        st.integers(0, 23),
        st.integers(0, 59),
        st.integers(0, 59),
        st.integers(-14 * 60, 14 * 60),
    )
    def test_round_trip(self, d, h, m, s, off):
        rd = ResponseDate(d, h, m, s, off)
        assert ResponseDate.parse(rd.render()) == rd

    def test_from_epoch_applies_fixed_offset(self):
        import datetime as dt

        epoch = dt.datetime(2001, 6, 5, 2, 0, 0, tzinfo=dt.timezone.utc).timestamp()
        rd = ResponseDate.from_epoch(epoch, -360)
        assert rd.render() == "2001-06-04T20:00:00-06:00"


class TestInvariants:
    def test_verb_set_is_closed(self):
        assert {v.value for v in OaiVerb} == {
            "Identify",
            "GetRecord",
            "ListIdentifiers",
            "ListRecords",
            "ListSets",
            "ListMetadataFormats",
        }
        with pytest.raises(ValueError):
            OaiVerb("Destroy")

    def test_empty_identifier_rejected(self):
        with pytest.raises(ValueError):
            ItemIdentifier("")

    def test_deleted_record_cannot_carry_metadata(self):
        header = RecordHeader(ItemIdentifier("x"), Datestamp(2000, 1, 1), deleted=True)
        with pytest.raises(ValueError):
            MetadataRecord(header, "<m/>")

    def test_oai_dc_schema_is_pinned(self):
        with pytest.raises(ValueError):
            MetadataFormatDescriptor("oai_dc", "http://example.org/other.xsd")

    @pytest.mark.parametrize("prefix", ["", "a b", "a&b", "a=b", "a?b"])
    def test_bad_prefixes_rejected(self, prefix):
        with pytest.raises(ValueError):
            MetadataFormatDescriptor(prefix, "http://example.org/x.xsd")

    def test_repository_description_requires_email_and_version(self):
        with pytest.raises(ValueError):
            RepositoryDescription("r", "http://x", ())
        with pytest.raises(ValueError):
            RepositoryDescription("r", "http://x", ("a@b",), protocol_version="2.0")

    @pytest.mark.parametrize("block", MALFORMED_PAYLOADS)
    def test_malformed_description_block_rejected(self, block):
        good = '<d xmlns="urn:d"/>'
        with pytest.raises(MalformedPayload):
            RepositoryDescription("r", "http://x", ("a@b",), descriptions=(good, block))

    def test_resumption_token_non_empty(self):
        with pytest.raises(ValueError):
            ResumptionToken("")
