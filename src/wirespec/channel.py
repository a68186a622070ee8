"""Ordered, reliable, duplex byte transport between the engine and an IUT.

Both the TCP channel and the in-process pair wrap real sockets, so they
are behaviorally identical by construction.  No framing is added at this
layer: message boundaries are entirely the codec's self-delimiting job.

A TCP channel (``AF_INET`` or ``AF_INET6``) disables Nagle's algorithm
(``TCP_NODELAY``), so a reply written in several pieces never waits for
the peer's ACK of the first, and acknowledges every read at once
(``TCP_QUICKACK``, re-armed after each receive), so a peer that keeps
Nagle on never waits for a delayed ACK.  ``TCP_QUICKACK`` is Linux-only;
where ``socket`` lacks it, only Nagle is disabled.  A ``socketpair`` is
``AF_UNIX`` and gets neither.
"""

from __future__ import annotations

import socket

from .errors import ChannelError

_TCP_FAMILIES = (socket.AF_INET, socket.AF_INET6)
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class Bytes:
    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def __repr__(self):
        return f"Bytes({self.data.hex()})"


class _TimeOut:
    def __repr__(self):
        return "TimeOut"


class _PeerClosed:
    def __repr__(self):
        return "PeerClosed"


TIMEOUT = _TimeOut()
PEER_CLOSED = _PeerClosed()

OPEN = "Open"
CLOSED_BY_PEER = "ClosedByPeer"
CLOSED_LOCALLY = "ClosedLocally"


class Channel:
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.state = OPEN
        self._quickack = None
        if sock.family in _TCP_FAMILIES:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._quickack = _QUICKACK

    def send(self, data: bytes) -> None:
        if self.state != OPEN:
            raise ChannelError(f"send on a {self.state} channel")
        try:
            self._sock.sendall(data)
        except OSError as e:
            raise ChannelError(f"send failed: {e}") from e

    def recv(self, timeout_ms: int):
        """Returns Bytes(...) with whatever is available, TIMEOUT, or PEER_CLOSED."""
        if self.state == CLOSED_BY_PEER:
            return PEER_CLOSED
        if self.state != OPEN:
            raise ChannelError("recv on a locally closed channel")
        try:
            self._sock.settimeout(timeout_ms / 1000.0)
            data = self._sock.recv(65536)
            if data and self._quickack is not None:
                # the kernel drops back to delayed ACKs after a while: re-arm
                self._sock.setsockopt(socket.IPPROTO_TCP, self._quickack, 1)
        except socket.timeout:
            return TIMEOUT
        except OSError as e:
            raise ChannelError(f"recv failed: {e}") from e
        if data == b"":
            self.state = CLOSED_BY_PEER
            return PEER_CLOSED
        return Bytes(data)

    def close(self) -> None:
        if self.state == OPEN:
            self.state = CLOSED_LOCALLY
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect_tcp(host: str, port: int, connect_timeout_ms: int = 5000) -> Channel:
    try:
        sock = socket.create_connection((host, port), timeout=connect_timeout_ms / 1000.0)
    except OSError as e:
        raise ChannelError(f"connect to {host}:{port} failed: {e}") from e
    return Channel(sock)


class Listener:
    """Engine-side listening endpoint for client-role IUTs."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_server((host, port))
        except OSError as e:
            raise ChannelError(f"cannot listen on {host}:{port}: {e}") from e

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self, timeout_ms: int | None = None) -> Channel:
        if timeout_ms is not None:
            self._sock.settimeout(timeout_ms / 1000.0)
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise ChannelError("no IUT connected before the accept deadline") from None
        except OSError as e:
            raise ChannelError(f"accept failed: {e}") from e
        return Channel(conn)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def in_process_pair() -> tuple[Channel, Channel]:
    a, b = socket.socketpair()
    return Channel(a), Channel(b)
