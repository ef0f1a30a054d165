"""Per-client idempotency windows for exactly-once service writes.

Every mutating request may carry an idempotency key ``(client, seq)``
(see :mod:`repro.service.protocol`).  The server records the reply of
each applied key in a :class:`DedupWindow`; a duplicate delivery -- a
blind client retry, a proxy-duplicated frame, a replay after reconnect
-- is answered from the window instead of re-applied, which is what
makes retrying a write whose reply was lost safe for SUM/COUNT/AVG
(the paper's invertible kinds, where a double apply silently corrupts
the aggregate).

The window is bounded two ways: at most ``per_client`` remembered
replies per client (older seqs fall below the client's *floor* and are
answered as evicted duplicates), and at most ``max_clients`` tracked
clients (least-recently-active clients are forgotten entirely).  Both
bounds are safe for the blocking :class:`~repro.service.ServiceClient`,
which keeps one write in flight and only retries its newest seq.

Persistence rides the storage layer's own transaction: the server
serializes the window (:meth:`DedupWindow.encode_with`) into the page
file's header metadata inside the same group-commit that applies the
batch, so the dedup state and the tree data commit in one WAL
transaction, *atomically* -- after a crash, a key is remembered if and
only if its write is durable.  The serialized form keeps only the newest
``persist_per_client`` entries per client, everything older being
represented by the floor, and only as many clients as fit a byte budget
(the header page is one page), the most recently active first.  A client
left out -- like one evicted -- degrades to at-least-once after a crash.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..storage.pager import DEFAULT_PAGE_SIZE

__all__ = ["DedupWindow", "IdemKey"]

IdemKey = Tuple[str, int]

#: What precedes the clients in the serialized window ("}}" follows).
_HEAD = '{"v":1,"clients":{'

#: Dedup-window lookup outcomes.
MISS = "miss"  #: never seen -- apply it
HIT = "hit"  #: applied, reply remembered -- replay it
STALE = "stale"  #: applied, reply evicted -- acknowledge as duplicate


class _ClientWindow:
    """One client's remembered replies plus its eviction floor."""

    __slots__ = ("entries", "floor")

    def __init__(self) -> None:
        self.entries: "OrderedDict[int, Any]" = OrderedDict()
        self.floor = 0  # highest seq ever evicted from ``entries``

    def trim(self, per_client: int) -> None:
        while len(self.entries) > per_client:
            seq, _ = self.entries.popitem(last=False)
            if seq > self.floor:
                self.floor = seq


class DedupWindow:
    """A bounded map of applied idempotency keys to their replies."""

    def __init__(
        self,
        *,
        per_client: int = 128,
        max_clients: int = 1024,
        persist_per_client: int = 8,
    ) -> None:
        if per_client < 1 or max_clients < 1 or persist_per_client < 1:
            raise ValueError("dedup window bounds must be positive")
        self.per_client = per_client
        self.max_clients = max_clients
        self.persist_per_client = min(persist_per_client, per_client)
        self._clients: "OrderedDict[str, _ClientWindow]" = OrderedDict()
        #: Clients the last :meth:`encode_with` left out of its budget.
        self.unpersisted = 0

    # ------------------------------------------------------------------
    def lookup(self, client: str, seq: int) -> Tuple[str, Optional[Any]]:
        """Classify a key: ``(MISS|HIT|STALE, remembered_reply_or_None)``."""
        window = self._clients.get(client)
        if window is None:
            return MISS, None
        self._clients.move_to_end(client)
        if seq in window.entries:
            return HIT, window.entries[seq]
        if seq <= window.floor:
            return STALE, None
        return MISS, None

    def record(self, client: str, seq: int, result: Any) -> None:
        """Remember an applied key's reply (evicting per the bounds)."""
        window = self._clients.get(client)
        if window is None:
            window = self._clients[client] = _ClientWindow()
            while len(self._clients) > self.max_clients:
                self._clients.popitem(last=False)
        else:
            self._clients.move_to_end(client)
        window.entries[seq] = result
        window.trim(self.per_client)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return len(self._clients)

    @property
    def num_entries(self) -> int:
        return sum(len(w.entries) for w in self._clients.values())

    def stats(self) -> Dict[str, int]:
        return {"clients": self.num_clients, "entries": self.num_entries}

    # ------------------------------------------------------------------
    # Persistence (rides the pager's journaled header metadata)
    # ------------------------------------------------------------------
    def encode_with(
        self,
        extra: Iterable[Tuple[IdemKey, Any]] = (),
        budget: int = DEFAULT_PAGE_SIZE // 2,
    ) -> str:
        """Serialize the window plus not-yet-recorded *extra* entries in
        at most *budget* bytes.

        The flush path calls this *before* the batch applies, so the
        payload written inside the commit already covers the batch's own
        keys; they are recorded in memory only after the commit
        succeeds.  Only the newest ``persist_per_client`` entries per
        client are kept verbatim; older ones collapse into the floor.
        Clients are taken most recently active first -- *extra*'s, then
        the window's in LRU order -- until the next would overflow the
        budget; :attr:`unpersisted` counts the rest.
        """
        fresh: Dict[str, Dict[int, Any]] = {}
        for (client, seq), result in extra:
            fresh.setdefault(client, {})[seq] = result
        newest_first = list(reversed(fresh)) + [
            client for client in reversed(self._clients) if client not in fresh
        ]
        parts: List[str] = []
        used = len(_HEAD) + 2
        for client in newest_first:
            window = self._clients.get(client)
            entries = dict(window.entries) if window is not None else {}
            entries.update(fresh.get(client, ()))
            floor = window.floor if window is not None else 0
            ordered = sorted(entries.items())
            if len(ordered) > self.persist_per_client:
                floor = max(floor, ordered[-self.persist_per_client - 1][0])
                ordered = ordered[-self.persist_per_client:]
            part = json.dumps(client) + ":" + json.dumps(
                {"floor": floor, "entries": [[seq, r] for seq, r in ordered]},
                separators=(",", ":"),
            )
            used += len(part) + bool(parts)
            if used > budget:
                break
            parts.append(part)
        self.unpersisted = len(newest_first) - len(parts)
        # Oldest first, so a restored window keeps the LRU order.
        return _HEAD + ",".join(reversed(parts)) + "}}"

    def load(self, payloads: Iterable[Optional[str]]) -> int:
        """Merge persisted payloads (one per shard store) into the window.

        Multiple payloads are merged by keeping every entry and the
        maximum floor per client -- for the single-store case (the
        configuration the resilience harness proves) the merge is exact.
        Malformed payloads are skipped: dedup state is a cache of
        replies, and losing it degrades to at-least-once for evicted
        keys, never to corruption.  Returns the number of entries
        loaded.
        """
        loaded = 0
        for payload in payloads:
            if not payload:
                continue
            try:
                decoded = json.loads(payload)
                clients = decoded["clients"]
            except (ValueError, TypeError, KeyError):
                continue
            if not isinstance(clients, dict):
                continue
            for client, state in clients.items():
                try:
                    floor = int(state.get("floor", 0))
                    entries: List[Any] = list(state.get("entries", []))
                except (TypeError, AttributeError, ValueError):
                    continue
                window = self._clients.get(client)
                if window is None:
                    window = self._clients[client] = _ClientWindow()
                window.floor = max(window.floor, floor)
                for item in entries:
                    if not isinstance(item, list) or len(item) != 2:
                        continue
                    seq, result = item
                    if not isinstance(seq, int) or seq in window.entries:
                        continue
                    window.entries[seq] = result
                    loaded += 1
                window.entries = OrderedDict(sorted(window.entries.items()))
                window.trim(self.per_client)
            while len(self._clients) > self.max_clients:
                self._clients.popitem(last=False)
        return loaded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DedupWindow clients={self.num_clients} "
            f"entries={self.num_entries}>"
        )
