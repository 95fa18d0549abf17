import socket

import pytest

from oaimh import client
from oaimh.client import (
    ClientConfig,
    ConnectionFailed,
    HttpError,
    RedirectLoop,
    RetriesExhausted,
    http_transport,
    oai_get,
)
from oaimh.model import OaiRequest, OaiVerb

from conftest import FakeClock

CFG = ClientConfig(contact_email="tester@example.org")
IDENTIFY = OaiRequest.of(OaiVerb.IDENTIFY)


class ScriptedServer:
    """Plays back a fixed list of (status, headers, body) responses and logs
    every request it receives with its virtual timestamp."""

    def __init__(self, clock, script):
        self.clock = clock
        self.script = list(script)
        self.requests = []

    def transport(self, url, method, payload, headers):
        self.requests.append(
            {"url": url, "method": method, "payload": payload,
             "headers": dict(headers), "t": self.clock.now()}
        )
        return self.script.pop(0)


def test_plain_200():
    clock = FakeClock(0)
    server = ScriptedServer(clock, [(200, {}, b"<ok/>")])
    assert oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport) == b"<ok/>"


def test_identification_headers_always_sent():
    clock = FakeClock(0)
    server = ScriptedServer(clock, [(200, {}, b"<ok/>")])
    oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    headers = server.requests[0]["headers"]
    assert headers["From"] == "tester@example.org"
    assert headers["User-Agent"]


def test_503_waits_advertised_interval_then_retries():
    clock = FakeClock(0)
    server = ScriptedServer(
        clock, [(503, {"retry-after": "60"}, b""), (200, {}, b"<ok/>")]
    )
    body = oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    assert body == b"<ok/>"
    assert clock.sleeps == [60]
    assert server.requests[1]["t"] - server.requests[0]["t"] >= 60


def test_503_without_retry_after_uses_default():
    clock = FakeClock(0)
    server = ScriptedServer(clock, [(503, {}, b""), (200, {}, b"<ok/>")])
    oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    assert clock.sleeps == [client.DEFAULT_RETRY_SECONDS]


def test_retry_after_http_date_treated_as_absent():
    clock = FakeClock(0)
    server = ScriptedServer(
        clock, [(503, {"retry-after": "Fri, 31 Dec 1999 23:59:59 GMT"}, b""), (200, {}, b"<ok/>")]
    )
    oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    assert clock.sleeps == [client.DEFAULT_RETRY_SECONDS]


@pytest.mark.parametrize("extra", [0, 1])
def test_retry_after_past_the_limit_gives_up_without_sleeping(extra):
    clock = FakeClock(0)
    retry_after = str(client.MAX_RETRY_SECONDS + extra)
    server = ScriptedServer(clock, [(503, {"retry-after": retry_after}, b""), (200, {}, b"<ok/>")])
    if extra:
        with pytest.raises(RetriesExhausted):
            oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
        assert (clock.sleeps, len(server.requests)) == ([], 1)
    else:
        assert oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport) == b"<ok/>"
        assert clock.sleeps == [client.MAX_RETRY_SECONDS]


def test_retries_exhausted():
    clock = FakeClock(0)
    script = [(503, {"retry-after": "1"}, b"")] * (client.MAX_RETRIES + 1)
    server = ScriptedServer(clock, script)
    with pytest.raises(RetriesExhausted):
        oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    assert len(server.requests) == client.MAX_RETRIES + 1


def test_302_follows_location():
    clock = FakeClock(0)
    server = ScriptedServer(
        clock,
        [(302, {"location": "http://mirror/oai?verb=Identify"}, b""), (200, {}, b"<ok/>")],
    )
    body = oai_get("http://primary/oai", IDENTIFY, CFG, clock, server.transport)
    assert body == b"<ok/>"
    assert server.requests[1]["url"] == "http://mirror/oai"


def test_redirect_preserves_method_and_arguments():
    clock = FakeClock(0)
    req = OaiRequest.of(OaiVerb.LIST_IDENTIFIERS, **{"from": "2001-06-05"})
    server = ScriptedServer(
        clock, [(302, {"location": "http://mirror/oai"}, b""), (200, {}, b"<ok/>")]
    )
    oai_get("http://primary/oai", req, CFG, clock, server.transport)
    assert server.requests[0]["payload"] == server.requests[1]["payload"]
    assert server.requests[0]["method"] == server.requests[1]["method"] == "POST"


def test_redirect_loop_bounded():
    clock = FakeClock(0)
    script = [(302, {"location": "http://next/oai"}, b"")] * (client.MAX_REDIRECTS + 1)
    server = ScriptedServer(clock, script)
    with pytest.raises(RedirectLoop):
        oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)


def test_other_status_raises_http_error():
    clock = FakeClock(0)
    server = ScriptedServer(clock, [(404, {}, b"gone")])
    with pytest.raises(HttpError) as exc:
        oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    assert exc.value.status == 404


def test_total_requests_bounded():
    clock = FakeClock(0)
    script = [(503, {"retry-after": "1"}, b""), (302, {"location": "http://y/oai"}, b"")]
    script += [(503, {"retry-after": "1"}, b"")] * 10
    server = ScriptedServer(clock, script)
    with pytest.raises(RetriesExhausted):
        oai_get("http://x/oai", IDENTIFY, CFG, clock, server.transport)
    assert len(server.requests) <= 1 + client.MAX_RETRIES + client.MAX_REDIRECTS


def test_anonymous_config_rejected():
    with pytest.raises(ValueError):
        ClientConfig(contact_email="")


def test_http_transport_times_out_and_closes(monkeypatch):
    # a loopback listener on port 0 that accepts and never replies
    monkeypatch.setattr(client, "HTTP_TIMEOUT_SECONDS", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = "http://127.0.0.1:%d/oai" % listener.getsockname()[1]
        with pytest.raises(ConnectionFailed):
            http_transport(url, "POST", "verb=Identify", {})
        server_side, _ = listener.accept()
        with server_side:
            server_side.settimeout(5)
            received = b""
            while chunk := server_side.recv(4096):
                received += chunk
    # the client sent its request, then closed the connection on the timeout
    assert received.startswith(b"POST /oai ")
