"""Shared test fakes (a virtual clock, an in-process HTTP transport) and test data."""

from __future__ import annotations

import contextlib
import datetime as dt
import pyexpat

import pytest

from oaimh.model import Datestamp, RepositoryDescription
from oaimh.provider import Provider, ProviderConfig
from oaimh.store import fixture_store

BASE_URL = "http://localhost/oai1"

# noon UTC on 2001-06-05; with a -06:00 repository zone the local date is
# 2001-06-05, the day the incremental-harvest scenario revolves around
EPOCH_2001_06_05 = dt.datetime(2001, 6, 5, 12, 0, 0, tzinfo=dt.timezone.utc).timestamp()


def days_after(day: Datestamp, days: int) -> Datestamp:
    return day + dt.timedelta(days=days)


# payloads and description blocks every store and repository description refuses
MALFORMED_PAYLOADS = [
    "<broken",
    "<a/><b/>",
    "bare text",
    "<oai_dc><dc:title>x</dc:title></oai_dc>",  # unbound prefix
    # a declaration would land in the middle of the envelope
    '<?xml version="1.0"?><a xmlns="urn:a"/>',
    "<!DOCTYPE a><a/>",
    # a harvester's cut keeps the element only, so these would not come back
    '<!-- lead --><a xmlns="urn:a"/>',
    '<a xmlns="urn:a"/><?pi x?>',
]


class FakeClock:
    """Virtual time: sleep() advances now() instantly."""

    def __init__(self, start: float = EPOCH_2001_06_05):
        self.t = start
        self.sleeps: list[float] = []

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.t += seconds

    def advance_days(self, days: float) -> None:
        self.t += days * 86400


class FakeNetwork:
    """Routes client requests to in-process Provider instances by base URL,
    recording (url, time) for every request each provider actually receives."""

    def __init__(self, clock: FakeClock, client_addr: str = "10.0.0.1"):
        self.clock = clock
        self.client_addr = client_addr
        self.providers: dict[str, Provider] = {}
        self.request_log: list[tuple[str, str, float]] = []

    def add(self, url: str, provider: Provider) -> None:
        self.providers[url] = provider

    def transport(self, url: str, method: str, payload: str, headers: dict):
        base = url.split("?")[0]
        if method == "GET" and "?" in url:
            payload = url.split("?", 1)[1]
        provider = self.providers[base]
        now = self.clock.now()
        self.request_log.append((base, payload, now))
        resp = provider.handle(self.client_addr, method, payload, now)
        return resp.status, {k.lower(): v for k, v in resp.headers}, resp.body


def make_provider(store=None, **config_overrides) -> Provider:
    repository = config_overrides.pop(
        "repository",
        RepositoryDescription(
            repository_name="Example Repository",
            base_url=BASE_URL,
            admin_emails=("admin@example.org",),
        ),
    )
    defaults = dict(repository=repository, clock_offset_minutes=-360)
    defaults.update(config_overrides)
    return Provider(store if store is not None else fixture_store(), ProviderConfig(**defaults))


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def fixture_provider():
    return make_provider()


@pytest.fixture
def network(clock, fixture_provider):
    net = FakeNetwork(clock)
    net.add(BASE_URL, fixture_provider)
    return net


@pytest.fixture
def parsers_made(monkeypatch):
    """`with parsers_made() as made:` lists the arguments of each XML parser
    created inside the block; both the wire reader and the payload check make
    theirs through pyexpat.ParserCreate."""

    @contextlib.contextmanager
    def counting():
        made: list[tuple] = []
        create = pyexpat.ParserCreate

        def counting_create(*args, **kwargs):
            made.append(args)
            return create(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pyexpat, "ParserCreate", counting_create)
            yield made

    return counting
