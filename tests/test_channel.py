import socket
import threading
import time

import pytest

from wirespec.channel import (
    PEER_CLOSED,
    TIMEOUT,
    Bytes,
    Listener,
    connect_tcp,
    in_process_pair,
)
from wirespec.errors import ChannelError


def recv_all(ch, n, timeout_ms=2000):
    out = b""
    deadline = time.monotonic() + timeout_ms / 1000
    while len(out) < n and time.monotonic() < deadline:
        r = ch.recv(50)
        if isinstance(r, Bytes):
            out += r.data
        elif r is PEER_CLOSED:
            break
    return out


def test_in_process_loopback():
    a, b = in_process_pair()
    a.send(bytes.fromhex("01"))
    assert recv_all(b, 1) == b"\x01"
    a.close()
    b.close()


def test_in_process_timeout():
    a, b = in_process_pair()
    t0 = time.monotonic()
    assert a.recv(50) is TIMEOUT
    assert 0.03 < time.monotonic() - t0 < 0.5
    a.close()
    b.close()


def test_in_process_close_propagates():
    a, b = in_process_pair()
    b.close()
    assert a.recv(500) is PEER_CLOSED
    assert a.recv(500) is PEER_CLOSED  # sticky


def test_tcp_connect_refused():
    with pytest.raises(ChannelError):
        connect_tcp("127.0.0.1", 1, connect_timeout_ms=500)


def tcp_pair():
    listener = Listener("127.0.0.1", 0)
    port = listener.port
    result = {}

    def accept():
        result["server"] = listener.accept(timeout_ms=2000)

    t = threading.Thread(target=accept)
    t.start()
    client = connect_tcp("127.0.0.1", port)
    t.join()
    listener.close()
    return client, result["server"]


def test_tcp_roundtrip_and_close():
    client, server = tcp_pair()
    client.send(b"hello")
    assert recv_all(server, 5) == b"hello"
    server.send(b"yo")
    assert recv_all(client, 2) == b"yo"
    server.close()
    assert client.recv(1000) is PEER_CLOSED
    client.close()


def test_ordering_preserved():
    a, b = in_process_pair()
    payload = bytes(range(256)) * 8
    for i in range(0, len(payload), 100):
        a.send(payload[i : i + 100])
    assert recv_all(b, len(payload)) == payload
    a.close()
    b.close()


def test_tcp_and_in_process_same_contract():
    """Same send/recv script through both transports, same observations."""

    def script(tx, rx):
        observations = []
        tx.send(b"\x01\x02")
        observations.append(recv_all(rx, 2))
        observations.append(rx.recv(40) is TIMEOUT)
        tx.close()
        observations.append(rx.recv(1000) is PEER_CLOSED)
        return observations

    assert script(*in_process_pair()) == script(*tcp_pair())


# Two small writes per reply: with Nagle on at the writer and delayed ACKs
# at the reader, the second write waits about 40 ms for the first's ACK.
REQUESTS = 20
STALL_FREE_S = 0.4  # well under REQUESTS * 40 ms, with room for a loaded host


def read_line(sock, buf):
    while b"\n" not in buf:
        chunk = sock.recv(100)
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line, rest


def recv_lines(ch, n):
    out = b""
    while out.count(b"\n") < n:
        r = ch.recv(1000)
        assert isinstance(r, Bytes), r
        out += r.data
    return out


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux-only")
def test_tcp_reads_never_wait_on_a_nagle_peer():
    server = socket.create_server(("127.0.0.1", 0))  # Nagle left on

    def peer():
        conn, _ = server.accept()
        with conn:
            buf = b""
            for i in range(REQUESTS):
                _, buf = read_line(conn, buf)
                conn.sendall(b"* %d FETCH\n" % i)
                conn.sendall(b"t%d OK\n" % i)

    t = threading.Thread(target=peer, daemon=True)
    t.start()
    client = connect_tcp("127.0.0.1", server.getsockname()[1])
    t0 = time.monotonic()
    for i in range(REQUESTS):
        client.send(b"t%d FETCH\n" % i)
        assert recv_lines(client, 2) == b"* %d FETCH\nt%d OK\n" % (i, i)
    elapsed = time.monotonic() - t0
    t.join(timeout=5)
    client.close()
    server.close()
    assert elapsed < STALL_FREE_S


def test_tcp_writes_never_wait_on_a_delayed_ack():
    listener = Listener("127.0.0.1", 0)
    result = {}

    def peer():
        with socket.create_connection(("127.0.0.1", listener.port)) as sock:  # delayed ACKs
            buf = b""
            t0 = time.monotonic()
            for i in range(REQUESTS):
                sock.sendall(b"t%d FETCH\n" % i)
                for expected in (b"* %d FETCH" % i, b"t%d OK" % i):
                    line, buf = read_line(sock, buf)
                    assert line == expected
            result["elapsed"] = time.monotonic() - t0

    t = threading.Thread(target=peer, daemon=True)
    t.start()
    server = listener.accept(timeout_ms=2000)
    for i in range(REQUESTS):
        assert recv_lines(server, 1) == b"t%d FETCH\n" % i
        server.send(b"* %d FETCH\n" % i)
        server.send(b"t%d OK\n" % i)
    t.join(timeout=5)
    server.close()
    listener.close()
    assert result["elapsed"] < STALL_FREE_S


def test_tcp_ends_disable_nagle():
    client, server = tcp_pair()
    for ch in (client, server):
        assert ch._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    client.close()
    server.close()


def test_in_process_pair_gets_no_tcp_options(monkeypatch):
    calls = []
    setsockopt = socket.socket.setsockopt
    monkeypatch.setattr(
        socket.socket, "setsockopt", lambda self, *a: calls.append(a) or setsockopt(self, *a)
    )
    a, b = in_process_pair()
    a.send(b"ping")
    assert recv_all(b, 4) == b"ping"
    b.send(b"pong")
    assert recv_all(a, 4) == b"pong"
    a.close()
    b.close()
    assert calls == []
