"""Spans around the program's layers, recorded from outside the program.

A `Tracer` replaces module and class attributes that callers look up at call
time (for example `oaimh.provider.render_envelope`) with wrappers that record
one span per call: id, parent id, name, start, end, and two numbers the layer
metrics need (an item count and a byte count). Spans stay in memory while a
unit of work runs and are written out after it. Parents are tracked per
thread, so spans of an in-process HTTP server's request threads are roots of
their own.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from statistics import fmean
from typing import Callable, Optional

from oaimh import client, harvester, provider, store
from oaimh.model import MetadataRecord, OaiVerb, RecordHeader

Counter = Callable[[tuple, object], tuple[int, int]]

_LIST_VERBS = (OaiVerb.LIST_IDENTIFIERS, OaiVerb.LIST_RECORDS)


def _served(args, body) -> tuple[int, int]:
    """List items in the envelope passed to render_envelope, and the
    response's size in bytes."""
    env = args[0]
    items = 0
    if env.verb in _LIST_VERBS:
        items = sum(isinstance(i, (RecordHeader, MetadataRecord)) for i in env.body_items)
    return items, len(body.encode("utf-8"))


def _length(args, result) -> tuple[int, int]:
    return len(result), 0


def _parsed(args, result) -> tuple[int, int]:
    return len(result.items), 0


def _saved(args, result) -> tuple[int, int]:
    return 0, os.path.getsize(args[0].path)


def _layers() -> list[tuple[object, str, str, Optional[Counter]]]:
    """(owner, attribute, span name, counter) for every wrapped boundary."""
    layers = [
        (provider, "parse_request", "request.parse", None),
        (provider, "validate_request", "request.validate", None),
        (store.MemoryStore, "ids_by_date", "store.ids_by_date", _length),
        (store.MemoryStore, "get_item", "store.get_item", None),
        (store.MemoryStore, "upsert_item", "store.upsert_item", None),
        (provider.Provider, "handle", "provider.handle", None),
        (provider.Provider, "dispatch", "provider.dispatch", None),
        (provider, "render_envelope", "wire.render_envelope", _served),
        (harvester, "parse_list_response", "wire.parse_list_response", _parsed),
        (harvester, "run_harvest", "harvester.run_harvest", None),
        (harvester, "merge_into_catalog", "harvester.merge", None),
    ]
    # FileStore methods of its own, where the class still defines them
    for attr, name, counter in (("__init__", "store.load", None),
                                ("upsert_item", "store.upsert_item", None),
                                ("save", "store.save", _saved)):
        if attr in vars(store.FileStore):
            layers.append((store.FileStore, attr, name, counter))
    return layers + request_layers()


def request_layers() -> list[tuple[object, str, str, Optional[Counter]]]:
    """The client boundary alone: what untraced runs time."""
    return [
        (harvester, "oai_get", "client.oai_get", None),
        (client, "oai_get", "client.oai_get", None),
    ]


class Tracer:
    def __init__(self, full: bool):
        self.layers = _layers() if full else request_layers()
        # (id, parent, name, start, end, items, size)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, counter: Optional[Counter] = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items, size = counter(args, result) if counter else (0, 0)
            spans.append((sid, parent, name, start, end, items, size))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, counter in self.layers:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def window(self, start: float, end: float) -> list[tuple]:
        return [s for s in self.spans if s[3] >= start and s[4] <= end]

    def write(self, fh) -> None:
        """Append the spans as tab-separated lines:
        id, parent, name, start, end, items, bytes."""
        for span in self.spans:
            fh.write("\t".join(map(str, span)) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Duration of each span minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans: list[tuple], setup_spans: list[tuple],
                  startup_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer table from the spans of one traced unit, plus set-up
    spans for the store load. A layer a workload does not exercise reads 0."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    names = {s[0]: s[2] for s in spans}
    own = self_times(spans)

    def dur(name):
        return [s[4] - s[3] for s in by_name[name]]

    def mean_ms(name, values=None):
        values = dur(name) if values is None else values
        return 1e3 * fmean(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    handles = len(by_name["provider.handle"])
    requests = len(by_name["client.oai_get"])
    served = sum(s[5] for s in by_name["wire.render_envelope"])
    # upserts as their callers see them, not the base-class call inside
    upserts = [s[4] - s[3] for s in by_name["store.upsert_item"]
               if names.get(s[1]) != "store.upsert_item"]
    harvest_pages = [s for s in by_name["wire.parse_list_response"]
                     if names.get(s[1]) == "harvester.run_harvest"]
    merged = sum(s[5] for s in by_name["wire.parse_list_response"]
                 if names.get(s[1]) == "harvester.merge")
    loads = dur("store.load") + [s[4] - s[3] for s in setup_spans if s[2] == "store.load"]
    saves = by_name["store.save"]
    # lookups made while serving requests, not the merge's own
    serving_lookups = sum(names.get(s[1]) == "provider.dispatch" for s in by_name["store.get_item"])
    parse_validate = sum(dur("request.parse")) + sum(dur("request.validate"))
    transport_calls = len(by_name["client.transport"])

    return {
        "request.parse_validate.us": (1e6 * ratio(parse_validate, handles), "us/request"),
        "store.ids_by_date.ms": (mean_ms("store.ids_by_date"), "ms/call"),
        "store.selected_per_served": (
            ratio(sum(s[5] for s in by_name["store.ids_by_date"]), served), "count"),
        "store.get_item.per_served": (ratio(serving_lookups, served), "count"),
        "store.upsert_item.ms": (mean_ms(None, upserts), "ms/call"),
        "store.save.calls": (len(saves), "count"),
        "store.save.bytes_per_record": (ratio(sum(s[6] for s in saves), merged), "bytes/record"),
        "store.load.ms": (mean_ms(None, loads), "ms"),
        "provider.handle.ms": (mean_ms("provider.handle"), "ms/request"),
        "provider.dispatch.self_ms": (
            1e3 * ratio(sum(own[s[0]] for s in by_name["provider.dispatch"]), handles),
            "ms/request"),
        "wire.render_envelope.ms": (mean_ms("wire.render_envelope"), "ms/response"),
        "wire.render_envelope.bytes": (
            ratio(sum(s[6] for s in by_name["wire.render_envelope"]),
                  len(by_name["wire.render_envelope"])), "bytes/response"),
        "wire.parse_list_response.ms": (mean_ms("wire.parse_list_response"), "ms/response"),
        "client.oai_get.ms": (mean_ms("client.oai_get"), "ms/request"),
        "client.transport_overhead.ms": (
            1e3 * ratio(sum(dur("client.oai_get")) - sum(dur("provider.handle")), requests),
            "ms/request"),
        "client.transport_calls_per_request": (ratio(transport_calls, requests), "count"),
        "harvester.run_harvest.self_ms": (
            1e3 * ratio(sum(own[s[0]] for s in by_name["harvester.run_harvest"]),
                        len(harvest_pages)), "ms/page"),
        "harvester.merge.self_ms": (
            1e3 * sum(own[s[0]] for s in by_name["harvester.merge"]), "ms/unit"),
        "provider_cli.startup.s": (startup_s, "s"),
    }


def served_and_parsed(spans: list[tuple]) -> tuple[int, int]:
    """Two independent item totals: list items in envelopes the provider
    rendered, and items the harvest loop parsed off the pages."""
    names = {s[0]: s[2] for s in spans}
    served = sum(s[5] for s in spans if s[2] == "wire.render_envelope")
    parsed = sum(s[5] for s in spans if s[2] == "wire.parse_list_response"
                 and names.get(s[1]) == "harvester.run_harvest")
    return served, parsed
