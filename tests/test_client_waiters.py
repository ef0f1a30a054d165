"""The client's receive side on its own: who reads the socket, and who
wakes whom.

A scripted peer on a listening socket (no ``ServerHandle``, no server
code) decides what arrives, in which order and in which pieces, so each
test pins one property of leader/follower: the waiting caller reads for
everyone, a departing leader hands the socket on, a follower's timeout
is its own, a dead connection fails every waiter once, and an idle
connection the peer closed is noticed before the next request is sent.
"""

import socket
import sys
import threading
import time

import pytest

from repro.service import ServiceClient
from repro.service import protocol as wire

GUARD = 5.0  # seconds a test waits before it calls a thread hung


class Peer:
    """Accepts connections; runs ``script(index, sock)`` on each."""

    def __init__(self, script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self._script = script
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            index, self.accepted = self.accepted, self.accepted + 1
            threading.Thread(
                target=self._script, args=(index, sock), daemon=True
            ).start()

    def close(self):
        self.listener.close()


def read_requests(sock, count):
    buf, requests = bytearray(), []
    while len(requests) < count:
        chunk = sock.recv(1 << 16)
        assert chunk, f"EOF after {len(requests)} of {count} requests"
        buf += chunk
        frames, error = wire.take_frames(buf)
        assert error is None
        requests.extend(request for request, _ in frames)
    return requests


def reply_to(request):
    return wire.encode_frame(wire.ok_reply(request.get("t"), request))


def join_all(threads):
    deadline = time.monotonic() + GUARD
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads), "a waiter hung"


def test_every_future_gets_its_own_reply_with_no_reader_thread():
    def script(index, sock):
        # All 200 first, then the replies backwards, seven bytes a time:
        # no reply arrives whole, none in the order it was asked for.
        requests = read_requests(sock, 200)
        payload = b"".join(reply_to(r) for r in reversed(requests))
        for i in range(0, len(payload), 7):
            sock.sendall(payload[i:i + 7])

    peer = Peer(script)
    got, errors = {}, []

    def caller(svc, base):
        try:
            futures = [
                (t, svc.submit("lookup", flush=False, t=t))
                for t in range(base, base + 50)
            ]
            svc.flush()
            for t, future in futures:
                got[t] = future.result()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand-offs between the four at every turn
    try:
        with ServiceClient("127.0.0.1", peer.port, timeout=30.0) as svc:
            threads = [
                threading.Thread(target=caller, args=(svc, 1000 * k))
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            join_all(threads)
            names = [thread.name for thread in threading.enumerate()]
    finally:
        sys.setswitchinterval(interval)
        peer.close()
    assert errors == []
    assert got == {t: t for k in range(4) for t in range(1000 * k, 1000 * k + 50)}
    assert "svc-client-reader" not in names


def test_a_followers_timeout_is_its_own_and_closes_the_connection():
    release = threading.Event()

    def script(index, sock):
        read_requests(sock, 2)
        release.wait(GUARD)  # never answers
        sock.close()

    peer = Peer(script)
    outcome = {}
    with ServiceClient("127.0.0.1", peer.port, timeout=30.0) as svc:
        leading = svc.submit("lookup", t=1)
        following = svc.submit("lookup", t=2)

        def lead():
            try:
                leading.result()
            except BaseException as exc:
                outcome["leader"] = exc

        thread = threading.Thread(target=lead)
        thread.start()
        conn = svc._conn
        deadline = time.monotonic() + GUARD
        while not conn.leading:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        started = time.monotonic()
        with pytest.raises(socket.timeout):
            following.result(timeout=0.2)
        assert 0.15 < time.monotonic() - started < 2.0
        # As with a lone caller: the late reply could be matched to a
        # new request's id, so the connection goes -- and the leader,
        # blocked in select, is woken by it.
        assert svc._conn is None and conn.dead is not None
        join_all([thread])
    release.set()
    peer.close()
    assert isinstance(outcome["leader"], ConnectionError)


def test_eof_mid_frame_fails_every_waiter_with_the_one_error():
    def script(index, sock):
        requests = read_requests(sock, 3)
        sock.sendall(reply_to(requests[0])[:-3])
        sock.close()

    peer = Peer(script)
    seen = []

    def wait(future):
        try:
            future.result()
        except BaseException as exc:
            seen.append(exc)

    with ServiceClient("127.0.0.1", peer.port, timeout=30.0) as svc:
        futures = [svc.submit("lookup", t=t) for t in range(3)]
        threads = [threading.Thread(target=wait, args=(f,)) for f in futures]
        for thread in threads:
            thread.start()
        join_all(threads)
    peer.close()
    assert len(seen) == 3
    assert isinstance(seen[0], wire.ConnectionClosedMidFrame)
    assert seen[1] is seen[0] and seen[2] is seen[0]  # shattered once


def test_submit_on_a_connection_closed_while_idle_reconnects():
    hung_up = threading.Event()

    def script(index, sock):
        (request,) = read_requests(sock, 1)
        sock.sendall(wire.encode_frame(wire.ok_reply("pong", request)))
        if index == 0:
            sock.close()  # the peer goes away while the client idles
            hung_up.set()
        else:
            sock.recv(1)  # until the client hangs up

    peer = Peer(script)
    with ServiceClient("127.0.0.1", peer.port, retries=0) as svc:
        assert svc.ping()
        assert hung_up.wait(GUARD)
        time.sleep(0.05)  # the FIN is in the client's socket by now
        # Nobody was reading, so nobody noticed -- until the send path
        # polls the idle connection and dials a new one instead.
        assert svc.submit("ping").result() == "pong"
        assert svc._failures == 0
    assert peer.accepted == 2
    peer.close()
