"""Golden response documents and the normalized comparison used against them.

Comparison rules: whitespace between elements and inside text is collapsed,
attribute order and namespace prefixes are irrelevant, responseDate text is
masked, and requestURL is compared as a deduplicated set of query arguments
(the reference provider echoed the verb twice, which is a rendering quirk).
The golden documents declare the xsi prefix on the root, which the originals
omitted; without it they would not be well-formed XML.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

XSI_DECL = 'xmlns:xsi="http://www.w3.org/2000/10/XMLSchema-instance"'

LIST_METADATA_FORMATS_RECORD1 = f"""\
<?xml version="1.0" encoding="UTF-8"?>

<ListMetadataFormats xmlns="http://www.openarchives.org/OAI/OAI_ListMetadataFormats"
    {XSI_DECL}
    xsi:schemaLocation="http://www.openarchives.org/OAI/1.0/OAI_ListMetadataFormats
                        http://www.openarchives.org/OAI/1.0/OAI_ListMetadataFormats.xsd">
 <responseDate>2001-05-05T12:27:36-06:00</responseDate>
 <requestURL>http://localhost/oai1?verb=ListMetadataFormats&amp;
             identifier=record1&amp;verb=ListMetadataFormats</requestURL>
 <metadataFormat>
  <metadataPrefix>wibble</metadataPrefix>
  <schema>http://wibble.org/wibble.xsd</schema>
 </metadataFormat>
 <metadataFormat>
  <metadataPrefix>oai_dc</metadataPrefix>
  <schema>http://www.openarchives.org/OAI/dc.xsd</schema>
 </metadataFormat>
</ListMetadataFormats>
"""

GET_RECORD_RECORD2_OAI_DC = f"""\
<?xml version="1.0" encoding="UTF-8"?>

<GetRecord xmlns="http://www.openarchives.org/OAI/OAI_GetRecord"
  {XSI_DECL}
  xsi:schemaLocation="http://www.openarchives.org/OAI/1.0/OAI_GetRecord
                      http://www.openarchives.org/OAI/1.0/OAI_GetRecord.xsd">
 <responseDate>2001-05-05T12:50:23-06:00</responseDate>
 <requestURL>http://localhost/oai1?verb=GetRecord&amp;identifier=record2&amp;
             metadataPrefix=oai_dc&amp;verb=GetRecord</requestURL>
 <record>
  <header>
   <identifier>record2</identifier>
   <datestamp>1999-02-12</datestamp>
  </header>
  <metadata>
   <oai_dc xsi:schemaLocation="http://purl.org/dc/elements/1.1/
                               http://www.openarchives.org/OAI/dc.xsd"
\t   xmlns:xsi="http://www.w3.org/2000/10/XMLSchema-instance"
\t   xmlns="http://purl.org/dc/elements/1.1/">
    <title>Item 2</title>
    <creator>A N Other</creator>
   </oai_dc>
  </metadata>
 </record>
</GetRecord>
"""

GET_RECORD_RECORD2_WIBBLE = f"""\
<?xml version="1.0" encoding="UTF-8"?>

<GetRecord xmlns="http://www.openarchives.org/OAI/OAI_GetRecord"
 {XSI_DECL}
 xsi:schemaLocation="http://www.openarchives.org/OAI/1.0/OAI_GetRecord
                     http://www.openarchives.org/OAI/1.0/OAI_GetRecord.xsd">
 <responseDate>2001-05-05T12:52:13-06:00</responseDate>
 <requestURL>http://localhost/oai1?verb=GetRecord&amp;
   identifier=record2&amp;metadataPrefix=wibble&amp;verb=GetRecord</requestURL>
 <record>
  <header>
   <identifier>record2</identifier>
   <datestamp>1999-02-12</datestamp>
  </header>
 </record>
</GetRecord>
"""

LIST_IDENTIFIERS_ALL = f"""\
<?xml version="1.0" encoding="UTF-8"?>

<ListIdentifiers xmlns="http://www.openarchives.org/OAI/OAI_ListIdentifiers"
  {XSI_DECL}
  xsi:schemaLocation="http://www.openarchives.org/OAI/1.0/OAI_ListIdentifiers
                      http://www.openarchives.org/OAI/1.0/OAI_ListIdentifiers.xsd">
 <responseDate>2001-05-05T12:59:30-06:00</responseDate>
 <requestURL>http://localhost/oai1?verb=ListIdentifiers&amp;verb=ListIdentifiers</requestURL>
 <identifier>record1</identifier>
 <identifier>record2</identifier>
 <identifier status="deleted">record3</identifier>
</ListIdentifiers>
"""


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _norm_text(text: str | None) -> str:
    return re.sub(r"\s+", " ", (text or "")).strip()


def _norm_request_url(text: str) -> tuple:
    url = re.sub(r"\s+", "", text)
    path, _, query = url.partition("?")
    return path, frozenset(query.split("&"))


def _normalize(elem: ET.Element):
    name = _local(elem.tag)
    if name == "responseDate":
        return (name, "@", ())
    if name == "requestURL":
        return (name, _norm_request_url(elem.text or ""), ())
    attrs = tuple(sorted((k, v) for k, v in elem.attrib.items() if _local(k) == "status"))
    children = tuple(_normalize(c) for c in elem)
    return (name, attrs, _norm_text(elem.text) if not children else "", children)


def transcripts_equal(doc_a: str, doc_b: str) -> bool:
    return _normalize(ET.fromstring(doc_a)) == _normalize(ET.fromstring(doc_b))


def assert_transcript_equal(actual: bytes, golden: str) -> None:
    assert _normalize(ET.fromstring(actual)) == _normalize(ET.fromstring(golden)), (
        f"document differs from golden transcript:\n--- actual ---\n{actual}\n"
        f"--- golden ---\n{golden}"
    )
