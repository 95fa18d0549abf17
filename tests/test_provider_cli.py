"""The `provider serve` HTTP front end, over loopback sockets on port 0."""

import contextlib
import http.client
import os
import re
import socket
import socketserver
import subprocess
import sys
import threading
import time

import pytest

import oaimh
from oaimh import client, provider_cli
from oaimh.client import ClientConfig, ConnectionFailed, http_transport, oai_get
from oaimh.harvester import HarvestPlan, run_harvest
from oaimh.model import OaiRequest, OaiVerb
from oaimh.provider_cli import serve

from conftest import make_provider
from test_store import BAD_ITEMS, catalog_with

CFG = ClientConfig(contact_email="tester@example.org")
# how often serve_forever looks for a shutdown request; its default of 0.5 s
# would add that much to the teardown of every test that serves
POLL_SECONDS = 0.02


@pytest.fixture
def server_port():
    server = serve(make_provider(), 0, "127.0.0.1")
    thread = threading.Thread(target=server.serve_forever, args=(POLL_SECONDS,), daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes and return all the server sends until it closes the
    connection, or fail on a timeout."""
    with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    return response


def post(port: int, content_length: str, body: bytes = b"", close: bool = True) -> bytes:
    """Send one raw POST and return the status line, or fail on a timeout.
    With `close` false the request does not ask the server to close the
    connection after its response."""
    response = exchange(
        port,
        b"POST /oai1 HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/x-www-form-urlencoded\r\n"
        + (b"Connection: close\r\n" if close else b"")
        + f"Content-Length: {content_length}\r\n\r\n".encode()
        + body,
    )
    return response.split(b"\r\n", 1)[0]


@pytest.mark.parametrize(
    "content_length",
    ["-1", "100000000", "abc", pytest.param("9" * 5000, id="5000-digits")],
)
def test_hostile_content_length_is_400(server_port, content_length):
    # the server closes the connection itself, as it left the body unread
    assert post(server_port, content_length, close=False) == b"HTTP/1.1 400 Bad Request"


def test_valid_post_is_200(server_port):
    assert post(server_port, "13", b"verb=Identify") == b"HTTP/1.1 200 OK"


def test_post_body_not_utf8_is_400(server_port):
    # read with U+FFFD in place of the bad byte, this would be a valid request
    body = b"verb=GetRecord&identifier=\xff&metadataPrefix=oai_dc"
    assert post(server_port, str(len(body)), body) == b"HTTP/1.1 400 Bad Request"


def test_trickled_request_is_dropped_at_the_deadline(server_port, monkeypatch):
    monkeypatch.setattr(provider_cli._Handler, "timeout", 0.3)
    request = b"POST /oai1 HTTP/1.0\r\nContent-Length: 13\r\n\r\nverb=Identify"
    began = time.monotonic()
    with socket.create_connection(("127.0.0.1", server_port), timeout=0.1) as sock:
        # one byte every 0.1 s, each within the per-read timeout, until the
        # server closes or answers
        answer = None
        for byte in request:
            try:
                sock.sendall(bytes([byte]))
                answer = sock.recv(64)
            except TimeoutError:
                continue
            except ConnectionError:  # reset: the server closed with bytes unread
                answer = b""
            break
        held = time.monotonic() - began
    assert answer == b""
    assert held < 1.0


def test_response_is_one_write(server_port, monkeypatch):
    writes = []
    write = socketserver._SocketWriter.write

    def recording(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", recording)
    assert post(server_port, "13", b"verb=Identify") == b"HTTP/1.1 200 OK"
    assert len(writes) == 1
    assert writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
    assert writes[0].endswith(b"</Identify>\n")


@pytest.mark.parametrize("over", [0, 1])
def test_http_transport_refuses_a_response_past_its_limit(server_port, monkeypatch, over):
    url = f"http://127.0.0.1:{server_port}/oai1"
    _, _, body = http_transport(url, "POST", "verb=Identify", {})
    monkeypatch.setattr(client, "MAX_RESPONSE_BYTES", len(body) - over)
    if over:
        with pytest.raises(ConnectionFailed):
            http_transport(url, "POST", "verb=Identify", {})
    else:
        assert http_transport(url, "POST", "verb=Identify", {})[0] == 200


@contextlib.contextmanager
def small_pool(monkeypatch, max_handlers: int, provider=None):
    """Serve `provider` (by default the fixture one) on port 0 with
    `max_handlers` handlers, each timing out after 0.3 s; yield the address
    and a dict that counts the connections accepted, the most handlers
    running at once and the threads that ran one. On exit, stop the server."""
    monkeypatch.setattr(provider_cli, "MAX_HANDLERS", max_handlers)
    monkeypatch.setattr(provider_cli._Handler, "timeout", 0.3)
    server = serve(provider or make_provider(), 0, "127.0.0.1")
    seen = {"accepted": 0, "handling": 0, "peak": 0, "threads": set()}
    lock = threading.Lock()
    get_request, finish_request = server.get_request, server.finish_request

    def counted_get_request():
        accepted = get_request()
        with lock:
            seen["accepted"] += 1
        return accepted

    def counted_finish_request(request, client_address):
        with lock:
            seen["handling"] += 1
            seen["peak"] = max(seen["peak"], seen["handling"])
            seen["threads"].add(threading.current_thread())
        try:
            finish_request(request, client_address)
        finally:
            with lock:
                seen["handling"] -= 1

    server.get_request, server.finish_request = counted_get_request, counted_finish_request
    loop = threading.Thread(target=server.serve_forever, args=(POLL_SECONDS,))
    loop.start()
    try:
        yield server.server_address, seen
    finally:
        server.shutdown()
        server.server_close()
        loop.join(timeout=10)
        assert not loop.is_alive()


def test_handlers_are_bounded_and_reused(monkeypatch):
    # two idle connections hold both handlers; a third client's request
    # waits until one of them times out, and runs on a thread that served one
    before = set(threading.enumerate())
    with small_pool(monkeypatch, 2) as (address, seen):
        began = time.monotonic()
        with socket.create_connection(address, timeout=3) as idle1, \
                socket.create_connection(address, timeout=3) as idle2:
            assert post(address[1], "13", b"verb=Identify") == b"HTTP/1.1 200 OK"
            waited = time.monotonic() - began
            # the accept loop and two workers
            assert len(set(threading.enumerate()) - before) == 3
            # the server dropped both idle connections
            assert idle1.recv(1) == idle2.recv(1) == b""
    assert waited >= 0.25
    assert (seen["accepted"], seen["peak"], len(seen["threads"])) == (3, 2, 2)
    # server_close() joined every worker
    assert set(threading.enumerate()) <= before


def test_busy_handlers_leave_connections_in_the_backlog(monkeypatch):
    # while the one handler waits on an idle client, one more connection is
    # accepted and waits for it; the next stays in the listen backlog
    with small_pool(monkeypatch, 1) as (address, seen):
        with socket.create_connection(address, timeout=3) as idle, \
                socket.create_connection(address, timeout=3) as second, \
                socket.create_connection(address, timeout=3) as third:
            request = b"POST /oai1 HTTP/1.0\r\nContent-Length: 13\r\n\r\nverb=Identify"
            second.sendall(request)
            third.sendall(request)
            time.sleep(0.15)
            accepted_while_busy = seen["accepted"]
            assert second.recv(15) == third.recv(15) == b"HTTP/1.1 200 OK"
            assert idle.recv(1) == b""
    assert accepted_while_busy <= 2
    assert (seen["accepted"], seen["peak"]) == (3, 1)


def read_response(sock: socket.socket) -> bytes:
    """Read one response from a connection that stays open; its body."""
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    with resp:
        assert resp.status == 200 and not resp.will_close
        return resp.read()


def test_harvest_and_get_records_share_one_connection(monkeypatch, tmp_path):
    # Identify, three one-record ListIdentifiers pages and three GetRecords
    with small_pool(monkeypatch, 2, make_provider(page_size=1)) as (address, seen):
        url = "http://%s:%d/oai1" % address
        plan = HarvestPlan(url, str(tmp_path))
        assert run_harvest(plan, CFG, transport=http_transport).total_items == 3
        for n in (1, 2, 3):
            req = OaiRequest.of(OaiVerb.GET_RECORD, identifier=f"record{n}",
                                metadataPrefix="oai_dc")
            assert f">record{n}</identifier>".encode() in oai_get(
                url, req, CFG, transport=http_transport)
    assert seen["accepted"] == 1


def test_connection_closed_while_idle_is_replaced(monkeypatch):
    with small_pool(monkeypatch, 2) as (address, seen):
        url = "http://%s:%d/oai1" % address
        assert http_transport(url, "POST", "verb=Identify", {})[0] == 200
        kept = client._IDLE[("http", "%s:%d" % address)]
        # the server ends the idle connection at its 0.3 s timeout
        assert kept.sock.recv(1, socket.MSG_PEEK) == b""
        assert http_transport(url, "POST", "verb=Identify", {})[0] == 200
    assert seen["accepted"] == 2


KEPT_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


@contextlib.contextmanager
def scripted_listener(answers: list[int], response: bytes = KEPT_OK):
    """Listen on port 0. The n-th connection accepted reads requests, sends
    `response` to the first `answers[n]` of them, and closes when it reads
    one more or the client closes. Yield the URL; on exit, check that
    exactly len(answers) connections were made."""

    def read_request(conn: socket.socket) -> None:
        data = b""
        while b"\r\n\r\n" not in data:
            if not (chunk := conn.recv(4096)):
                return
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while len(body) < length and (chunk := conn.recv(4096)):
            body += chunk

    def play() -> None:
        for count in answers:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(3)
                for _ in range(count):
                    read_request(conn)
                    conn.sendall(response)
                read_request(conn)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(3)
        player = threading.Thread(target=play)
        player.start()
        try:
            yield "http://127.0.0.1:%d/oai1" % listener.getsockname()[1]
        finally:
            player.join(timeout=5)
        assert not player.is_alive()
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):  # no further connection is waiting
            listener.accept()


def test_reused_connection_is_retried_once():
    # the kept connection drops the second request, and so does the new one
    with scripted_listener([1, 0]) as url:
        assert http_transport(url, "POST", "verb=Identify", {}) == (
            200, {"content-length": "2"}, b"ok")
        with pytest.raises(ConnectionFailed):
            http_transport(url, "POST", "verb=Identify", {})
    assert client._IDLE == {}


def test_connection_the_server_will_close_is_not_kept():
    closing_ok = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
    with scripted_listener([1], closing_ok) as url:
        assert http_transport(url, "POST", "verb=Identify", {})[2] == b"ok"
        assert client._IDLE == {}


def test_new_connection_failure_is_not_retried():
    with scripted_listener([0]) as url:
        with pytest.raises(ConnectionFailed):
            http_transport(url, "POST", "verb=Identify", {})


SMUGGLED = b"POST /oai1 HTTP/1.1\r\nContent-Length: 13\r\n\r\nverb=Identify"


@pytest.mark.parametrize("request_", [
    b"GET /oai1?verb=Identify HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(SMUGGLED) + SMUGGLED,
    b"POST /oai1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    + b"%x\r\n" % len(SMUGGLED) + SMUGGLED + b"\r\n0\r\n\r\n",
], ids=["get-with-body", "chunked-post"])
def test_unread_body_is_not_read_as_a_request(server_port, request_):
    # one response, which says the server will close the connection, and
    # exchange() returns once it has
    response = exchange(server_port, request_)
    assert response.count(b"HTTP/1.1 ") == 1
    assert b"\r\nConnection: close\r\n" in response.split(b"\r\n\r\n", 1)[0] + b"\r\n"


def test_idle_kept_alive_connection_is_closed_at_the_timeout(monkeypatch):
    request = b"POST /oai1 HTTP/1.1\r\nContent-Length: 13\r\n\r\nverb=Identify"
    with small_pool(monkeypatch, 1) as (address, seen):
        with socket.create_connection(address, timeout=3) as sock:
            sock.sendall(request)
            assert read_response(sock).endswith(b"</Identify>\n")
            time.sleep(0.2)  # idle, within the 0.3 s timeout
            sock.sendall(request)
            assert read_response(sock).endswith(b"</Identify>\n")
            # the timeout starts again after each response
            began = time.monotonic()
            assert sock.recv(1) == b""
            idle = time.monotonic() - began
    assert 0.2 <= idle < 1.0
    assert seen["accepted"] == 1


def test_server_close_ends_an_idle_connection_at_once():
    server = serve(make_provider(), 0, "127.0.0.1")  # handlers time out after 10 s
    loop = threading.Thread(target=server.serve_forever, args=(POLL_SECONDS,))
    loop.start()
    try:
        url = "http://127.0.0.1:%d/oai1" % server.server_address[1]
        assert http_transport(url, "POST", "verb=Identify", {})[0] == 200
    finally:
        server.shutdown()
        began = time.monotonic()
        server.server_close()
        closing = time.monotonic() - began
        loop.join(timeout=10)
    assert closing < 1.0
    assert not loop.is_alive()


def test_server_close_lets_a_request_in_flight_finish(monkeypatch):
    provider = make_provider()
    entered, release = threading.Event(), threading.Event()
    handle = provider.handle

    def held_handle(*args):
        entered.set()
        release.wait(3)
        return handle(*args)

    monkeypatch.setattr(provider, "handle", held_handle)
    server = serve(provider, 0, "127.0.0.1")
    loop = threading.Thread(target=server.serve_forever, args=(POLL_SECONDS,))
    loop.start()
    url = "http://127.0.0.1:%d/oai1" % server.server_address[1]
    answers = []
    harvester = threading.Thread(
        target=lambda: answers.append(http_transport(url, "POST", "verb=Identify", {})[0]))
    harvester.start()
    try:
        assert entered.wait(3)
        server.shutdown()
        closer = threading.Thread(target=server.server_close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive()  # waiting for the request being handled
    finally:
        release.set()
        harvester.join(timeout=5)
        closer.join(timeout=5)
        loop.join(timeout=5)
    assert answers == [200]
    assert not any(t.is_alive() for t in (harvester, closer, loop))


def test_threads_sharing_kept_connections(monkeypatch):
    # more harvesting threads than cores, switching often, each sending over
    # whichever connection is kept: every request is answered, and one
    # connection at most is kept at the end
    answers = []
    with small_pool(monkeypatch, 8) as (address, _):
        url = "http://%s:%d/oai1" % address

        def harvest():
            for _ in range(10):
                answers.append(http_transport(url, "POST", "verb=Identify", {})[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=harvest) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [200] * 60
        assert list(client._IDLE) == [("http", "%s:%d" % address)]


def requested_url(response: bytes) -> bytes:
    return re.search(rb"<requestURL>(.*)</requestURL>", response).group(1)


def test_get_query_is_read_as_utf8_as_a_post_body_is(server_port):
    query = b"verb=GetRecord&identifier=caf\xc3\xa9&metadataPrefix=oai_dc"
    got = exchange(server_port, b"GET /oai1?" + query + b" HTTP/1.1\r\nConnection: close\r\n\r\n")
    posted = exchange(
        server_port,
        b"POST /oai1 HTTP/1.1\r\nConnection: close\r\n"
        + f"Content-Length: {len(query)}\r\n\r\n".encode() + query,
    )
    assert got.startswith(b"HTTP/1.1 200 OK\r\n")
    assert requested_url(got) == requested_url(posted)
    assert b"identifier=caf%C3%A9" in requested_url(got)


def test_get_query_not_utf8_is_400(server_port):
    request = b"GET /oai1?verb=GetRecord&identifier=\xff&metadataPrefix=oai_dc HTTP/1.1\r\n"
    response = exchange(server_port, request + b"Connection: close\r\n\r\n")
    assert response.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"


def test_ask_prints_the_response_as_sent(capsys):
    assert provider_cli.main(["ask", "verb=Identify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Content-Type: text/xml\n\n<?xml")
    assert out.endswith("</Identify>\n\n")


@pytest.mark.parametrize("command", [["ask", "verb=Identify"], ["serve", "--port", "0"]])
def test_bad_store_file_is_one_error_line(tmp_path, capsys, command):
    catalog = tmp_path / "catalog.xml"
    catalog.write_text(catalog_with(BAD_ITEMS["no datestamp"]), encoding="utf-8")
    config = tmp_path / "repo.conf"
    config.write_text(f"store_file = {catalog}\n", encoding="utf-8")
    assert provider_cli.main(command + ["--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("provider: ") and err.count("\n") == 1 and "'a'" in err


def test_serve_port_0_reports_bound_port():
    src = os.path.dirname(os.path.dirname(oaimh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "oaimh.provider_cli", "serve", "--port", "0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    try:
        first = proc.stderr.readline()
        port = int(first.rsplit(" ", 1)[1])
        assert port != 0
        body = oai_get(
            f"http://127.0.0.1:{port}/oai1", OaiRequest.of(OaiVerb.IDENTIFY), CFG,
            transport=http_transport,
        )
        assert b"<repositoryName>" in body
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stderr.close()
