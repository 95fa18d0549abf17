"""The benchmark's checker fails on each kind of wrong output.

A small harvest is made with the real program, then one page file is
altered; each alteration must count as a failed operation.
"""

from __future__ import annotations

import os
import random

import pytest

import checks
import gen
from oaimh import harvester
from oaimh.harvester import HarvestPlan, MergeReport
from oaimh.model import OaiVerb
from workloads import CLIENT, INPROC_URL, inproc_transport, memory_provider


@pytest.fixture
def harvest(tmp_path):
    items = gen.make_items(random.Random(7), 30, 3)
    transport = inproc_transport(memory_provider(items, page_size=10))
    harvester.run_harvest(HarvestPlan(INPROC_URL, str(tmp_path), OaiVerb.LIST_RECORDS),
                          CLIENT, transport=transport)
    return str(tmp_path), items


def _edit_page(out_dir, old, new, count=1):
    path = os.path.join(out_dir, "ListRecords.2")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, count))


def _first_record(out_dir):
    with open(os.path.join(out_dir, "ListRecords.2"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(" <record>")
    return text[start:text.index("</record>", start) + len("</record>\n")]


def _failures(out_dir, items):
    tally = checks.Tally()
    checks.check_harvest(tally, out_dir, items)
    assert tally.attempted == len(items) + 2
    return tally.failures


def test_untouched_harvest_passes(harvest):
    assert _failures(*harvest) == []


def test_dropped_record_fails(harvest):
    out_dir, items = harvest
    record = _first_record(out_dir)
    _edit_page(out_dir, record, "")
    failures = _failures(out_dir, items)
    assert any("seen 0 times" in f for f in failures)
    assert any(f.startswith("manifest:") for f in failures)


def test_duplicated_record_fails(harvest):
    out_dir, items = harvest
    record = _first_record(out_dir)
    _edit_page(out_dir, record, record + record)
    failures = _failures(out_dir, items)
    assert any("seen 2 times" in f for f in failures)
    assert any(f.startswith("manifest:") for f in failures)


def test_altered_title_fails(harvest):
    out_dir, items = harvest
    _edit_page(out_dir, "title>Item ", "title>Itam ")
    failures = _failures(out_dir, items)
    assert len(failures) == 1 and "payload" in failures[0]


def test_flipped_deleted_flag_fails(harvest):
    out_dir, items = harvest
    record = _first_record(out_dir)
    flipped = (record.replace(' status="deleted"', "") if 'status="deleted"' in record
               else record.replace("<identifier>", '<identifier status="deleted">'))
    _edit_page(out_dir, record, flipped)
    failures = _failures(out_dir, items)
    assert len(failures) == 1 and "deleted flag" in failures[0]


@pytest.mark.parametrize("field", ["added", "updated", "deleted", "unchanged"])
def test_merge_report_off_by_one_fails(field):
    expected = dict(added=3, updated=5, deleted=2, unchanged=7)
    report = MergeReport(**expected)
    tally = checks.Tally()
    checks.check_report(tally, report, **expected)
    assert tally.failed == 0
    setattr(report, field, getattr(report, field) + 1)
    checks.check_report(tally, report, **expected)
    assert (tally.attempted, tally.failed) == (2, 1)
