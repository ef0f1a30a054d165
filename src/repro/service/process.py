"""``repro serve`` as a killable child process.

The drills (:mod:`repro.rescheck`) and the replica sweep
(:mod:`repro.service.readscale`) need a server they can ``SIGKILL``, so
it has to live in another process.  That process is the one users and
``bench`` start -- ``python -m repro serve`` -- and this module is the
one place outside the CLI that knows its command line and the
ready / kill / restart / promote / wait-applied protocol around it.

Every child is a single-shard journaled SUM index over :data:`SPAN`
persisted under ``--paged DIR`` with a 256-entry dedup window; a
recovery check reopens :attr:`ServeProcess.shard_path` directly.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .client import ServiceClient, ServiceError

__all__ = ["KIND", "SPAN", "ServeProcess"]

KIND = "sum"
SPAN = (0, 100_000)
_HOST = "127.0.0.1"
# A generous semi-sync wait: a flush rides out replication-link chaos (a
# resubscribe takes ~2 s worst case) instead of degrading to async, so
# acked writes survive a failover.
_REPL_ACK_TIMEOUT = 5.0
_START_TIMEOUT = 15.0  # import the CLI, replay the WAL, answer ping
_WAIT_TIMEOUT = 20.0  # drain on SIGINT, subscribe, catch up, promote


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((_HOST, 0))
        return sock.getsockname()[1]


def _poll(check: Callable[[], Any], timeout: float, failure: str) -> Any:
    """Retry *check* until it answers something truthy.

    A refused connection or an error reply means "not yet": the child
    may still be starting, replaying its WAL, or mid-promotion.
    """
    deadline = time.monotonic() + timeout
    last: Optional[BaseException] = None
    while time.monotonic() < deadline:
        try:
            result = check()
            if result:
                return result
        except (ServiceError, OSError) as exc:
            last = exc
        time.sleep(0.05)
    raise RuntimeError(f"{failure} within {timeout}s (last error: {last!r})")


class ServeProcess:
    """One ``repro serve`` child over the page files in *directory*.

    The port is fixed at construction so a killed child can be restarted
    at the same address.  Child output is appended to *log_path* across
    restarts, so a red run can be diagnosed from it.
    """

    def __init__(
        self,
        directory: str,
        *,
        batch_max: int = 64,
        replica_of: Optional[str] = None,
        log_path: Optional[str] = None,
    ) -> None:
        self.directory = directory
        self.port = _free_port()
        self.log_path = log_path
        self.argv: List[str] = [
            sys.executable, "-m", "repro", "serve",
            "--kind", KIND, "--shards", "1",
            "--lo", str(SPAN[0]), "--hi", str(SPAN[1]),
            "--host", _HOST, "--port", str(self.port),
            "--paged", directory, "--journal",
            "--dedup-window", "256", "--health-interval", "0",
            "--batch-max", str(batch_max),
            "--repl-ack-timeout", str(_REPL_ACK_TIMEOUT),
        ]
        if replica_of:
            self.argv += ["--replica-of", replica_of, "--replica-name", self.address]
        self._proc: Optional[subprocess.Popen] = None

    @property
    def address(self) -> str:
        return f"{_HOST}:{self.port}"

    @property
    def shard_path(self) -> str:
        return os.path.join(self.directory, "shard-0.sbt")

    def client(self, **kwargs: Any) -> ServiceClient:
        return ServiceClient(_HOST, self.port, **kwargs)

    # ------------------------------------------------------------------
    def start(self) -> "ServeProcess":
        """Spawn the child and block until it answers ``ping``."""
        log = (
            open(self.log_path, "ab") if self.log_path is not None
            else subprocess.DEVNULL
        )
        try:
            self._proc = proc = subprocess.Popen(
                self.argv, stdout=log, stderr=log,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
        finally:
            if log is not subprocess.DEVNULL:
                log.close()  # the child holds its own descriptor

        def ready() -> bool:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited early with code {proc.returncode}"
                )
            with self.client(timeout=1.0, retries=0) as svc:
                return svc.ping()

        try:
            _poll(ready, _START_TIMEOUT, f"server on port {self.port} not ready")
        except BaseException:
            self.kill()  # never leave a half-started child behind
            raise
        return self

    def kill(self) -> None:
        """``SIGKILL`` -- no drain, no commit, no goodbye."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()

    def restart(self) -> None:
        """Kill, then serve the same directory on the same port."""
        self.kill()
        self.start()

    def stop(self) -> None:
        """``SIGINT``: the child drains, commits and exits."""
        if self._proc is None or self._proc.poll() is not None:
            return
        self._proc.send_signal(signal.SIGINT)
        try:
            self._proc.wait(timeout=_WAIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    # ------------------------------------------------------------------
    def replication_stats(self) -> Dict[str, Any]:
        with self.client(timeout=1.0, retries=0) as svc:
            return (svc.stats() or {}).get("replication") or {}

    def commit_seq(self) -> int:
        """The head of this primary's commit log."""
        return int(self.replication_stats().get("commit", 0))

    def wait_subscribed(self, count: int) -> None:
        """Block until this primary reports *count* live replicas."""
        _poll(
            lambda: sum(
                1 for r in self.replication_stats().get("replicas") or []
                if r.get("connected")
            ) >= count,
            _WAIT_TIMEOUT,
            f"{count} replica(s) did not subscribe to :{self.port}",
        )

    def wait_applied(self, commit: int) -> None:
        """Block until this replica has applied *commit*."""
        _poll(
            lambda: int(self.replication_stats().get("applied", -1)) >= commit,
            _WAIT_TIMEOUT,
            f"replica :{self.port} did not reach commit {commit}",
        )

    def promote(self) -> Dict[str, Any]:
        """Promote this replica, retrying until it claims primaryhood."""

        def attempt() -> Optional[Dict[str, Any]]:
            with self.client(timeout=8.0, retries=0) as svc:
                result = svc._request("promote")
            if result.get("promoted") or result.get("role") == "primary":
                return result
            return None

        return _poll(attempt, _WAIT_TIMEOUT, f"promotion of {self.address} failed")
