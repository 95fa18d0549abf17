"""The `provider serve` HTTP front end, over loopback sockets on port 0."""

import os
import socket
import subprocess
import sys
import threading

import pytest

import oaimh
from oaimh.client import ClientConfig, http_transport, oai_get
from oaimh.model import OaiRequest, OaiVerb
from oaimh.provider_cli import serve

from conftest import make_provider

CFG = ClientConfig(contact_email="tester@example.org")


@pytest.fixture
def server_port():
    server = serve(make_provider(), 0, "127.0.0.1")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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
        assert "<repositoryName>" in body
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stderr.close()
