"""The three workloads: inputs, one timed unit of work, and its checks.

Each workload drives the program only through public entry points:
`Provider.handle` (through an in-process transport), `run_harvest`,
`oai_get` with `http_transport`, `merge_into_catalog` and the
`provider serve` command. Module attributes are looked up at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

import checks
import gen
from oaimh import client, harvester, provider_cli
from oaimh.client import ClientConfig, ConnectionFailed
from oaimh.model import (
    ItemIdentifier,
    MetadataFormatDescriptor,
    OaiRequest,
    OaiVerb,
    RepositoryDescription,
    datestamp_parse,
)
from oaimh.provider import Provider, ProviderConfig
from oaimh.store import MemoryStore, StoredItem

CLIENT = ClientConfig(contact_email="bench@example.org")
INPROC_URL = "http://inproc.invalid/oai1"
DC = MetadataFormatDescriptor("oai_dc", gen.DC_SCHEMA_URL)
STARTUP_TIMEOUT_S = 60


def memory_provider(items: list[gen.Item], page_size: int) -> Provider:
    stored = [
        StoredItem(ItemIdentifier(item.identifier), datestamp_parse(item.datestamp), item.deleted,
                   () if item.deleted else (("oai_dc", gen.dc_payload(item)),))
        for item in items
    ]
    repository = RepositoryDescription("Benchmark Repository", INPROC_URL, ("bench@example.org",))
    return Provider(MemoryStore([DC], stored), ProviderConfig(repository, page_size=page_size))


def inproc_transport(target: Provider):
    """A harvester transport that calls Provider.handle directly."""

    def transport(url, method, payload, headers):
        resp = target.handle("127.0.0.1", method, payload, time.time())
        return resp.status, {k.lower(): v for k, v in resp.headers}, resp.body

    return transport


class Workload:
    """setup() once; then per unit prepare() untimed, unit() timed, check()
    and finish_unit() untimed. `list_items` is the number of list-verb items
    one unit's harvest must be served."""

    name = ""
    server_pid: Optional[int] = None
    startup_s = 0.0
    list_items = 0

    def __init__(self, work_dir: str, seed: int, traced: bool):
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.traced = traced
        self.out_dir = ""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        self.out_dir = tempfile.mkdtemp(prefix="harvest-", dir=self.work_dir)

    def unit(self) -> int:
        """Run one unit of work and return the records it delivered."""
        raise NotImplementedError

    def check(self, tally: checks.Tally) -> None:
        raise NotImplementedError

    def finish_unit(self) -> None:
        shutil.rmtree(self.out_dir)

    def close(self) -> None:
        pass


class RecordsInproc(Workload):
    """A full ListRecords harvest through an in-process transport."""

    name = "records-inproc"

    def setup(self) -> None:
        self.items = gen.make_items(self.rng, gen.INPROC_ITEMS, gen.INPROC_DELETED)
        self.transport = inproc_transport(memory_provider(self.items, gen.INPROC_PAGE_SIZE))
        self.list_items = len(self.items)

    def unit(self) -> int:
        plan = harvester.HarvestPlan(INPROC_URL, self.out_dir, OaiVerb.LIST_RECORDS)
        harvester.run_harvest(plan, CLIENT, transport=self.transport)
        return len(self.items)

    def check(self, tally: checks.Tally) -> None:
        checks.check_harvest(tally, self.out_dir, self.items)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class GetRecordHttp(Workload):
    """`provider serve` as a subprocess; a ListIdentifiers harvest, then one
    GetRecord per identifier in seeded order, over loopback HTTP."""

    name = "getrecord-http"
    proc: Optional[subprocess.Popen] = None
    server = None

    def setup(self) -> None:
        self.items = gen.make_items(self.rng, gen.HTTP_ITEMS, gen.HTTP_DELETED)
        self.list_items = len(self.items)
        self.order = list(self.items)
        self.rng.shuffle(self.order)
        catalog = os.path.join(self.work_dir, "catalog.xml")
        with open(catalog, "w", encoding="utf-8") as fh:
            fh.write(gen.catalog_xml(self.items))
        self.config = os.path.join(self.work_dir, "provider.conf")
        self.log_path = os.path.join(self.work_dir, "provider.log")
        self.transport = client.http_transport
        self.startup_s = self._spawn(catalog)
        if self.traced:
            # server-side spans are only visible to an in-process server
            self._stop_process()
            self._serve_in_process()

    def _write_config(self, catalog: str, port: int) -> None:
        self.port = port
        self.url = f"http://127.0.0.1:{port}/oai1"
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"repository_name = Benchmark Repository\nbase_url = {self.url}\n"
                     f"admin_email = bench@example.org\npage_size = {gen.HTTP_PAGE_SIZE}\n"
                     f"store_file = {catalog}\n")

    def _spawn(self, catalog: str) -> float:
        """Start `provider serve`; the seconds until it answers Identify."""
        # `provider serve --port 0` does not report the port it bound
        self._write_config(catalog, free_port())
        src = os.path.dirname(os.path.dirname(harvester.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "oaimh.provider_cli", "serve", "--config", self.config,
                 "--port", str(self.port)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log, env=env)
        self.server_pid = self.proc.pid
        while True:
            try:
                client.oai_get(self.url, OaiRequest.of(OaiVerb.IDENTIFY), CLIENT,
                               transport=client.http_transport)
                return time.perf_counter() - start
            except ConnectionFailed:
                if self.proc.poll() is not None or time.perf_counter() - start > STARTUP_TIMEOUT_S:
                    with open(self.log_path, encoding="utf-8", errors="replace") as fh:
                        tail = fh.read()[-2000:]
                    raise RuntimeError(f"provider serve did not answer Identify:\n{tail}")
                time.sleep(0.005)

    def _stop_process(self) -> None:
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
            self.server_pid = None

    def _serve_in_process(self) -> None:
        # the server logs every request to sys.stderr; send that to the log
        self._stderr = sys.stderr
        sys.stderr = open(self.log_path, "a", encoding="utf-8")
        self._write_config(os.path.join(self.work_dir, "catalog.xml"), 0)
        built = provider_cli.build_provider(provider_cli.parse_config_file(self.config))
        self.server = provider_cli.serve(built, 0, "127.0.0.1")
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/oai1"
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def unit(self) -> int:
        plan = harvester.HarvestPlan(self.url, self.out_dir, OaiVerb.LIST_IDENTIFIERS)
        harvester.run_harvest(plan, CLIENT, transport=self.transport)
        self.answers = [
            client.oai_get(self.url, OaiRequest.of(OaiVerb.GET_RECORD, identifier=item.identifier,
                                                   metadataPrefix="oai_dc"),
                           CLIENT, transport=self.transport)
            for item in self.order
        ]
        return len(self.order)

    def check(self, tally: checks.Tally) -> None:
        checks.check_harvest(tally, self.out_dir, self.items, records=False)
        for doc, item in zip(self.answers, self.order):
            checks.check_get_record(tally, doc, item)

    def close(self) -> None:
        self._stop_process()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=30)
            self.server = None
            sys.stderr.close()
            sys.stderr = self._stderr


class MergeIncremental(Workload):
    """An incremental ListRecords harvest folded into a fresh catalog copy."""

    name = "merge-incremental"

    def setup(self) -> None:
        self.case = gen.make_merge_case(self.rng)
        self.catalog_text = gen.catalog_xml(self.case.catalog)
        self.transport = inproc_transport(memory_provider(self.case.source, gen.MERGE_PAGE_SIZE))
        self.list_items = len(self.case.harvested)

    def prepare(self) -> None:
        super().prepare()
        self.catalog = os.path.join(self.work_dir, "catalog.xml")
        with open(self.catalog, "w", encoding="utf-8") as fh:
            fh.write(self.catalog_text)

    def unit(self) -> int:
        plan = harvester.HarvestPlan(INPROC_URL, self.out_dir, OaiVerb.LIST_RECORDS,
                                     from_date=datestamp_parse(gen.MERGE_FROM.isoformat()))
        harvester.run_harvest(plan, CLIENT, transport=self.transport)
        self.report = harvester.merge_into_catalog(self.out_dir, self.catalog)
        return len(self.case.harvested)

    def check(self, tally: checks.Tally) -> None:
        case = self.case
        checks.check_harvest(tally, self.out_dir, case.harvested)
        checks.check_report(tally, self.report, case.added, case.updated, case.deleted,
                            case.unchanged)
        checks.check_catalog(tally, self.catalog, case.source)
        with open(self.catalog, "rb") as fh:
            before = fh.read()
        again = harvester.merge_into_catalog(self.out_dir, self.catalog)
        checks.check_report(tally, again, 0, 0, 0, len(case.harvested))
        with open(self.catalog, "rb") as fh:
            tally.add("idempotence", None if fh.read() == before else
                      "a second merge of the same harvest changed the catalog")


WORKLOADS = {w.name: w for w in (RecordsInproc, GetRecordHttp, MergeIncremental)}
