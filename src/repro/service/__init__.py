"""Network service over a sharded temporal-aggregate index.

The package splits along the wire:

* :mod:`repro.service.protocol` -- the wire format: length-prefixed
  frames carrying one struct-packed binary codec (version 1), the
  request/reply/error vocabulary shared by both sides, including the
  idempotency-key and deadline fields of the resilience contract, and
  the validation of request fields.
* :mod:`repro.service.server` -- the asyncio TCP server
  (:class:`TemporalAggregateServer`): the composition root that wires
  the four components below, owns the op table, the role flip and
  graceful drain, plus :class:`ServerHandle` for running it on a
  background thread.
* :mod:`repro.service.connection` -- framing, admission control,
  deadline shedding, per-connection backpressure, the reply writer and
  the two read routes.
* :mod:`repro.service.groupcommit` -- group-commit write batching and
  exactly-once idempotency dedup (:class:`GroupCommitter`).
* :mod:`repro.service.views` -- view reads, their tick, catalog writes.
* :mod:`repro.service.dedup` -- the bounded per-client idempotency
  window (:class:`DedupWindow`) and its journaled persistence format.
* :mod:`repro.service.client` -- a blocking, fully pipelined
  :class:`ServiceClient`: many in-flight requests per connection with
  out-of-order reply matching by request id (whoever waits for a
  reply reads the socket), per-request futures, timeouts, safe
  exactly-once retries (capped exponential backoff with jitter and a
  shrinking deadline budget), and a circuit breaker.
* :mod:`repro.service.chaos` -- a deterministic frame-aware network
  chaos proxy (:class:`ChaosProxy`) for the resilience harness.
* :mod:`repro.service.patient` -- the patient exactly-once write driver
  of :mod:`repro.rescheck` (retry each write under its original
  idempotency key until acked).  Load and speed are driven by
  ``python3 -m bench`` (``svc_split``, ``svc_mixed``), not from here.
* :mod:`repro.service.process` -- ``python -m repro serve`` as a
  killable child process (:class:`ServeProcess`): the server every
  drill of :mod:`repro.rescheck` runs.
* :mod:`repro.service.top` -- the ``repro top`` live dashboard
  (pure rendering + a poll loop over the ``stats`` op), including the
  replication panel (per-replica lag on a primary, applied/staleness
  on a follower).
* :mod:`repro.service.replication` -- journal shipping between a
  primary and its read replicas: the CRC-framed record codec, the
  in-memory :class:`CommitLog`, the primary-side :class:`Publisher`
  (fan-out, semi-sync acks) and the replica-side :class:`Follower`.

Requests carry an optional ``trace`` field (see
:mod:`repro.obs.trace`); with tracing enabled, client and server emit
correlated span records for every sampled request.
"""

from .chaos import ChaosPlan, ChaosProxy
from .client import (
    CircuitOpenError,
    ServiceClient,
    ServiceError,
    TransportError,
)
from .dedup import DedupWindow
from .protocol import (
    BINARY_VERSION,
    CODEC_BINARY,
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_FAULT,
    ERR_INTERNAL,
    ERR_NOT_PRIMARY,
    ERR_OVERLOADED,
    ERR_SERVER,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED,
    MAX_FRAME,
    ConnectionClosedMidFrame,
    FrameTooLarge,
    ProtocolError,
)
from .replication import (
    CommitLog,
    ReplicationError,
    decode_records,
    encode_records,
)
from .server import ServerHandle, TemporalAggregateServer
from .top import render_top, run_top

__all__ = [
    "TemporalAggregateServer",
    "ServerHandle",
    "ServiceClient",
    "ServiceError",
    "TransportError",
    "CircuitOpenError",
    "DedupWindow",
    "ChaosPlan",
    "ChaosProxy",
    "ProtocolError",
    "FrameTooLarge",
    "ConnectionClosedMidFrame",
    "MAX_FRAME",
    "CODEC_BINARY",
    "BINARY_VERSION",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_OP",
    "ERR_UNSUPPORTED",
    "ERR_FAULT",
    "ERR_TIMEOUT",
    "ERR_DEADLINE",
    "ERR_OVERLOADED",
    "ERR_SHUTTING_DOWN",
    "ERR_NOT_PRIMARY",
    "ERR_INTERNAL",
    "ERR_SERVER",
    "CommitLog",
    "ReplicationError",
    "encode_records",
    "decode_records",
    "render_top",
    "run_top",
]
