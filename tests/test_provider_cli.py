"""The `provider serve` HTTP front end, over loopback sockets on port 0."""

import contextlib
import os
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


def post(port: int, content_length: str, body: bytes = b"") -> bytes:
    """Send one raw POST and return the status line, or fail on a timeout."""
    with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
        sock.sendall(
            b"POST /oai1 HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
            + body
        )
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    return response.split(b"\r\n", 1)[0]


@pytest.mark.parametrize(
    "content_length",
    ["-1", "100000000", "abc", pytest.param("9" * 5000, id="5000-digits")],
)
def test_hostile_content_length_is_400(server_port, content_length):
    assert post(server_port, content_length) == b"HTTP/1.0 400 Bad Request"


def test_valid_post_is_200(server_port):
    assert post(server_port, "13", b"verb=Identify") == b"HTTP/1.0 200 OK"


def test_post_body_not_utf8_is_400(server_port):
    # read with U+FFFD in place of the bad byte, this would be a valid request
    body = b"verb=GetRecord&identifier=\xff&metadataPrefix=oai_dc"
    assert post(server_port, str(len(body)), body) == b"HTTP/1.0 400 Bad Request"


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
    assert post(server_port, "13", b"verb=Identify") == b"HTTP/1.0 200 OK"
    assert len(writes) == 1
    assert writes[0].startswith(b"HTTP/1.0 200 OK\r\n")
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
def small_pool(monkeypatch, max_handlers: int):
    """Serve on port 0 with `max_handlers` handlers, each timing out after
    0.3 s; yield the address and a dict that counts the connections
    accepted, the most handlers running at once and the threads that ran
    one. On exit, stop the server."""
    monkeypatch.setattr(provider_cli, "MAX_HANDLERS", max_handlers)
    monkeypatch.setattr(provider_cli._Handler, "timeout", 0.3)
    server = serve(make_provider(), 0, "127.0.0.1")
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
            assert post(address[1], "13", b"verb=Identify") == b"HTTP/1.0 200 OK"
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
            assert second.recv(15) == third.recv(15) == b"HTTP/1.0 200 OK"
            assert idle.recv(1) == b""
    assert accepted_while_busy <= 2
    assert (seen["accepted"], seen["peak"]) == (3, 1)


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
