"""A deterministic, frame-aware network chaos proxy.

The resilience harness (:mod:`repro.rescheck`) does not mock the
network -- it runs real clients against the real server *through* this
proxy, which speaks the service's length-prefixed framing just well
enough to inject faults at frame granularity:

* **drop** -- swallow a frame whole (a lost request or lost reply; the
  client times out and retries).
* **delay** -- hold a frame for a random interval before forwarding
  (reordering across connections, latency spikes).
* **duplicate** -- forward a frame twice (a duplicated request must be
  deduplicated by the server's idempotency window; a duplicated reply
  must be discarded by the client's reply-id matching).
* **truncate** -- forward a prefix of a frame, then kill the
  connection (a mid-frame cut; the receiver sees EOF inside a frame).
* **kill** -- drop the connection outright, both directions (a reset
  between request and reply: the write may or may not have applied,
  which is exactly the ambiguity idempotent retry resolves).

The proxy only parses the 4-byte length prefix, never the frame body:
client traffic and the replication stream get identical fault coverage.

Faults are decided per frame by per-connection-per-direction RNGs
derived from one root seed (:func:`repro.faults.derive_rng`), so a
chaos run is reproducible: same seed, same workload, same faults.
Every injected fault is counted in :attr:`ChaosProxy.injected`.

    plan = ChaosPlan(drop=0.02, duplicate=0.05, truncate=0.01)
    with ChaosProxy(server_host, server_port, plan=plan, seed=7) as proxy:
        client = ServiceClient(proxy.host, proxy.port, ...)
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..faults import derive_rng
from .protocol import _recv_exactly

__all__ = ["ChaosPlan", "ChaosProxy"]

_LEN = struct.Struct(">I")


@dataclass(frozen=True)
class ChaosPlan:
    """Per-frame fault probabilities (independently evaluated)."""

    drop: float = 0.0
    delay: float = 0.0
    #: Uniform delay bounds in seconds when a delay fault fires.
    delay_range: Tuple[float, float] = (0.001, 0.02)
    duplicate: float = 0.0
    truncate: float = 0.0
    kill: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "duplicate", "truncate", "kill"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p} outside [0, 1]")
        lo, hi = self.delay_range
        if lo < 0 or hi < lo:
            raise ValueError(f"bad delay_range {self.delay_range}")

    @property
    def active(self) -> bool:
        return any(
            getattr(self, name) > 0
            for name in ("drop", "delay", "duplicate", "truncate", "kill")
        )


class _Conn:
    """One proxied connection: two frame pumps plus shared teardown."""

    def __init__(self, proxy: "ChaosProxy", index: int, downstream) -> None:
        self.proxy = proxy
        self.index = index
        self.downstream = downstream
        self.upstream: Optional[socket.socket] = None
        self._dead = threading.Event()

    def start(self) -> None:
        try:
            self.upstream = socket.create_connection(
                (self.proxy.upstream_host, self.proxy.upstream_port),
                timeout=5.0,
            )
            self.upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            self.kill()
            return
        for direction, src, dst in (
            ("c2s", self.downstream, self.upstream),
            ("s2c", self.upstream, self.downstream),
        ):
            rng = derive_rng(self.proxy.seed, "conn", self.index, direction)
            thread = threading.Thread(
                target=self._pump,
                args=(src, dst, rng),
                name=f"chaos-{self.index}-{direction}",
                daemon=True,
            )
            thread.start()

    def kill(self) -> None:
        self._dead.set()
        for sock in (self.downstream, self.upstream):
            if sock is None:
                continue
            try:
                sock.close()
            except OSError:
                pass

    def _pump(self, src, dst, rng) -> None:
        plan = self.proxy.plan
        try:
            while not self._dead.is_set():
                frame = self._read_frame(src)
                if frame is None:
                    break
                if plan.kill and rng.random() < plan.kill:
                    self.proxy.count("kill")
                    break
                if plan.drop and rng.random() < plan.drop:
                    self.proxy.count("drop")
                    continue
                if plan.delay and rng.random() < plan.delay:
                    self.proxy.count("delay")
                    lo, hi = plan.delay_range
                    time.sleep(lo + (hi - lo) * rng.random())
                if plan.truncate and rng.random() < plan.truncate:
                    self.proxy.count("truncate")
                    cut = rng.randrange(1, max(2, len(frame)))
                    dst.sendall(frame[:cut])
                    break
                dst.sendall(frame)
                if plan.duplicate and rng.random() < plan.duplicate:
                    self.proxy.count("duplicate")
                    dst.sendall(frame)
        except OSError:
            pass
        finally:
            # A frame pump never half-closes: once either direction
            # ends (EOF, fault, error), the whole connection dies --
            # mirroring how a real middlebox failure looks to both ends.
            self.kill()

    @staticmethod
    def _read_frame(src) -> Optional[bytes]:
        header = _recv_exactly(src, _LEN.size)
        if header is None:
            return None
        (length,) = _LEN.unpack(header)
        body = _recv_exactly(src, length)
        if body is None:
            return None
        return header + body


class ChaosProxy:
    """A TCP proxy injecting frame-level faults between client and server."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        plan: ChaosPlan,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan
        self.seed = seed
        self.host = host
        self.port = port
        self.injected: Dict[str, int] = {}
        self.connections = 0
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: list = []
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # ``close()`` alone does not wake a thread blocked in
            # ``accept()``; the shutdown does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in list(self._conns):
            conn.kill()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                break
            downstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                index = self.connections
                self.connections += 1
            conn = _Conn(self, index, downstream)
            self._conns.append(conn)
            conn.start()

    def retarget(self, upstream_host: str, upstream_port: int) -> None:
        """Re-point *new* connections at a different upstream.

        Existing proxied connections keep their original upstream until
        they die (they will, when the old server goes away); the
        failover harness retargets the proxy at the promoted primary so
        the client under test keeps one stable address across the
        failover, exactly like a VIP or load-balancer would provide.
        """
        with self._lock:
            self.upstream_host = upstream_host
            self.upstream_port = upstream_port

    # ------------------------------------------------------------------
    def count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChaosProxy :{self.port} -> "
            f"{self.upstream_host}:{self.upstream_port} "
            f"injected={self.injected}>"
        )
