"""Group commit: many writers, one apply, one durable ack -- exactly once.

Writes do not touch the tree directly: their facts join a pending queue,
and a flush starts on the next loop iteration whenever none is running
-- no clock; what arrives while a flush runs is the next batch.  One
flush hands at most ``batch_max`` facts (whole requests, at least one)
to ``apply`` in one call (one write-lock round per touched shard, one
commit), and writers are acknowledged only after their whole batch applied.

Mutating requests may carry an idempotency key ``(client, seq)``.
Applied keys are remembered in a :class:`~repro.service.dedup.DedupWindow`
and a duplicate is answered by replaying the original reply instead of
re-applying; a duplicate of a key whose batch is still in flight *joins*
that batch.  The window is serialized into the commit's metadata
*before* the apply and recorded in memory after it (dedup-before-ack),
so after a crash a key is remembered iff its batch committed.

The committer knows no socket and no tree: it is constructed with

* ``apply(facts, meta, collector)`` -- a coroutine that applies the
  batch and makes it durable (``meta`` is the header metadata to commit
  with it; ``collector`` an optional
  :class:`~repro.obs.trace.SpanCollector` to record the apply under).
  Raising :class:`CommitFailed` means "applied in memory, commit
  failed"; any other exception means "not applied".
* ``on_committed(writes)`` -- a coroutine called with the batch's
  ``(facts, idem)`` pairs once they are applied, before any waiter is
  released (the server publishes them to followers there).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

from .. import obs
from ..obs import trace
from ..storage.pager import DEFAULT_PAGE_SIZE
from . import dedup as dedup_mod
from .dedup import DedupWindow, IdemKey

__all__ = ["GroupCommitter", "Draining", "CommitFailed", "DEDUP_META_KEY"]

#: Header-metadata key the dedup window is persisted under.
DEDUP_META_KEY = "service.dedup"


class Draining(Exception):
    """A write arrived while the committer is draining."""


class CommitFailed(Exception):
    """The batch applied but its durability commit failed."""


class GroupCommitter:
    """The pending queue, its one flusher task, and the dedup window.

    Loop-confined: every method runs on the event loop.  A pending
    entry is ``(facts, future, sctx, idem, enqueued)``: *future*
    resolves when the batch settles, *sctx* is the waiter's trace
    context, *enqueued* the loop time it joined the queue.
    """

    def __init__(
        self,
        apply,
        on_committed,
        *,
        registry: obs.MetricsRegistry,
        batch_max: int = 64,
        dedup_window: int = 128,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        self.batch_max = batch_max
        self.registry = registry
        #: Set by :meth:`drain`: new writes are refused with Draining.
        self.draining = False
        self._apply = apply
        self._on_committed = on_committed
        self._pending: Deque[tuple] = deque()
        #: Alive from an enqueue until the queue is empty again.
        self._flusher: Optional[asyncio.Task] = None
        self._flush_lock: Optional[asyncio.Lock] = None
        self._dedup = DedupWindow(per_client=dedup_window)
        #: Bytes the window may take in a commit's header metadata: the
        #: server sets half its smallest page (the header is one page).
        self.dedup_budget = DEFAULT_PAGE_SIZE // 2
        self._g_unpersisted = registry.gauge("service.dedup.unpersisted_clients")
        # Keys whose batch is in flight: duplicates join the future.
        self._dedup_pending: Dict[IdemKey, asyncio.Future] = {}
        self._m_replays = registry.counter("service.dedup.replays")
        self._h_size = registry.histogram(
            "service.batch.size", bounds=(1, 2, 5, 10, 20, 50, 100, 200, 500)
        )
        self._h_oldest_wait = registry.histogram("service.batch.oldest_wait_us")

    # ------------------------------------------------------------------
    # Dedup window
    # ------------------------------------------------------------------
    def load(self, payloads: Iterable[Optional[str]]) -> None:
        """Restore the window from persisted commit metadata."""
        loaded = self._dedup.load(payloads)
        if loaded:
            self.registry.counter("service.dedup.loaded").inc(loaded)

    def commit_meta(self, idem_entries) -> Dict[str, str]:
        """Header metadata covering the window plus *idem_entries*, its
        most recently active clients first, within :attr:`dedup_budget`."""
        payload = self._dedup.encode_with(idem_entries, self.dedup_budget)
        self._g_unpersisted.set(self._dedup.unpersisted)
        return {DEDUP_META_KEY: payload}

    def remember(self, idem_entries) -> None:
        """Record applied keys (a flush's own, or a follower's stream)."""
        for (client, seq), result in idem_entries:
            self._dedup.record(client, seq, result)

    def replay_for(self, idem: IdemKey) -> Optional[Dict[str, Any]]:
        """The replayed result of an already-applied key, else None."""
        status, stored = self._dedup.lookup(*idem)
        if status == dedup_mod.HIT:
            self._m_replays.inc()
            result = dict(stored) if isinstance(stored, dict) else {"applied": 0}
            result["duplicate"] = True
            return result
        if status == dedup_mod.STALE:
            # Applied, but the remembered reply has been evicted: still
            # a duplicate, acknowledged without re-applying.
            self._m_replays.inc()
            self.registry.counter("service.dedup.evicted_replays").inc()
            return {"applied": 0, "duplicate": True, "evicted": True}
        return None

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def submit(
        self,
        facts: List[tuple],
        idem: Optional[IdemKey] = None,
        sctx: Optional[trace.TraceContext] = None,
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Hand *facts* to the queue without waiting: returns the future
        of the reply's result, resolved once its batch settled.  Raises
        :class:`Draining` (a new write while draining) at once."""
        loop = asyncio.get_running_loop()
        if idem is not None:
            replay = self.replay_for(idem)
            if replay is not None:
                future = loop.create_future()
                future.set_result(replay)
                return future
            pending = self._dedup_pending.get(idem)
            if pending is not None:
                # The original is in flight (the chaos proxy duplicates
                # frames faster than a flush completes): join it.
                self.registry.counter("service.dedup.joins").inc()
                return loop.create_task(self._join(pending, facts, idem, sctx))
        if self.draining:
            raise Draining("server is draining; retry against the new instance")
        future = loop.create_future()
        if idem is not None:
            self._dedup_pending[idem] = future
        self._pending.append((facts, future, sctx, idem, loop.time()))
        if self._flusher is None:
            # The flusher's first step runs on the next loop iteration:
            # whatever else this iteration submits joins its batch.
            self._flusher = loop.create_task(self._flush_until_empty())
        return future

    async def write(
        self,
        facts: List[tuple],
        idem: Optional[IdemKey] = None,
        sctx: Optional[trace.TraceContext] = None,
    ) -> Dict[str, Any]:
        """Apply *facts* exactly once; returns the reply's result."""
        return await self.submit(facts, idem, sctx)

    async def _join(self, pending, facts, idem, sctx) -> Dict[str, Any]:
        """A duplicate's wait for its in-flight original.  The flush
        records applied keys before resolving futures, so the second
        submit replays; if the original failed unapplied (its own waiter
        carries the error) this duplicate re-enters as fresh."""
        try:
            await asyncio.shield(pending)
        except Exception:
            pass
        return await self.submit(facts, idem, sctx)

    async def _flush_until_empty(self) -> None:
        try:
            while self._pending:
                await self.flush()
        finally:
            self._flusher = None

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def serialized(self) -> asyncio.Lock:
        """The flush lock.  Flushes are serialized (each snapshots the
        dedup window into its commit; interleaved snapshots could
        persist each other's keys out of order), and whoever else
        numbers commits -- a view event, a follower's subscription --
        holds this lock so no flush slips between its steps."""
        if self._flush_lock is None:
            self._flush_lock = asyncio.Lock()
        return self._flush_lock

    async def flush(self) -> None:
        """Take the next batch and settle it: whatever is raised after the
        take (a failed apply, a failed publish) reaches that batch's waiters."""
        async with self.serialized():
            batch = self._take_batch()
            if not batch:
                return
            try:
                error = await self._commit(batch)
            except Exception as exc:
                self.registry.counter("service.batch.flush_errors").inc()
                error = exc
            self._settle(batch, error)

    async def drain(self) -> None:
        """Refuse writes from now on, then flush what was accepted."""
        self.draining = True
        await self.flush()  # waits out a running flush first
        while self._pending:
            await self.flush()

    def _take_batch(self) -> List[tuple]:
        """Whole requests from the head of the queue: at most
        ``batch_max`` facts, but at least one request."""
        pending, batch, facts = self._pending, [], 0
        while pending and (
            not batch or facts + len(pending[0][0]) <= self.batch_max
        ):
            batch.append(pending.popleft())
            facts += len(batch[-1][0])
        return batch

    async def _commit(self, batch) -> Optional[BaseException]:
        """Apply and publish *batch*: returns the error its waiters get (None
        when it committed), raises if it was not applied or not published."""
        all_facts = [fact for entry in batch for fact in entry[0]]
        self.registry.counter("service.batch.flushes").inc()
        self._h_size.record(len(all_facts))
        started = asyncio.get_running_loop().time()
        self._h_oldest_wait.record((started - batch[0][4]) * 1e6)
        idem_entries = [
            (idem, {"applied": len(facts)})
            for facts, _, _, idem, _ in batch
            if idem is not None
        ]
        meta = self.commit_meta(idem_entries)
        # One flush serves several requests; its shard/tree spans are
        # recorded once (trace-agnostically) and replayed under every
        # sampled participant's trace after the apply.
        participants = [entry[2] for entry in batch if entry[2] is not None]
        collector = (
            trace.SpanCollector() if trace.TRACING and participants else None
        )
        error: Optional[BaseException] = None
        try:
            try:
                await self._apply(all_facts, meta, collector)
            except CommitFailed as exc:
                # Applied in memory, not on disk: waiters get the error,
                # yet the keys must be remembered -- a retry would
                # otherwise double-apply against the still-running
                # process -- and the batch still goes to on_committed:
                # its facts are in this node's memory and will be durable
                # at the next successful commit, so followers must mirror
                # them or diverge.
                self.registry.counter("service.batch.commit_failures").inc()
                error = exc.__cause__ or exc
            else:
                self.registry.counter("service.batch.commits").inc()
            try:
                await self._on_committed(
                    (facts, idem) for facts, _, _, idem, _ in batch
                )
            finally:
                # Applied: a retry must replay, whatever the publish did.
                self.remember(idem_entries)
        finally:
            self._replay_flush(collector, participants, batch, started)
        return error

    def _settle(self, batch, error: Optional[BaseException]) -> None:
        """Free the batch's in-flight keys and release its waiters."""
        for facts, future, _, idem, _ in batch:
            self._dedup_pending.pop(idem, None)
            if not future.done():
                if error is None:
                    future.set_result({"applied": len(facts)})
                else:
                    future.set_exception(error)
                    # Several waiters share the exception and a joiner
                    # may never await: mark it retrieved.
                    future.exception()

    def _replay_flush(self, collector, participants, batch, started) -> None:
        if collector is None:
            return
        wall_us = (asyncio.get_running_loop().time() - started) * 1e6
        all_facts = sum(len(entry[0]) for entry in batch)
        for index, sctx in enumerate(participants):
            flush_ctx = sctx.child()
            trace.emit_span(
                flush_ctx,
                "service.flush",
                wall_us,
                attrs={
                    "facts": all_facts,
                    "requests": len(batch),
                    "shared": index > 0,
                },
            )
            # Durations fold into the registry histograms once, not once
            # per participant sharing the flush.
            collector.replay(flush_ctx, fold=index == 0)

    def stats(self) -> Dict[str, Any]:
        return {
            "batch": {"max": self.batch_max, "pending": len(self._pending)},
            "dedup": self._dedup.stats(),
        }
