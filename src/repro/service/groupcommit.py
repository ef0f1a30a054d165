"""Group commit: many writers, one apply, one durable ack -- exactly once.

Writes do not touch the tree directly: their facts join a pending batch,
flushed when it reaches ``batch_max`` facts or its oldest waiter has
aged ``batch_delay`` seconds.  One flush hands every fact to ``apply``
in one call (one write-lock round per touched shard, one commit), and
writers are acknowledged only after their whole batch applied.

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
  with it, None when not durable; ``collector`` an optional
  :class:`~repro.obs.trace.SpanCollector` to record the apply under).
  Raising :class:`CommitFailed` means "applied in memory, commit
  failed"; any other exception means "not applied".
* ``on_committed(writes)`` -- a coroutine called with the batch's
  ``(facts, idem)`` pairs once they are applied, before any waiter is
  released (the server publishes them to followers there).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, List, Optional

from .. import obs
from ..obs import trace
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
    """The pending batch, its flush policy, and the dedup window.

    Loop-confined: every method runs on the event loop.  A pending
    entry is ``(facts, future, sctx, idem)``: *future* resolves when the
    batch settles, *sctx* is the waiter's trace context.
    """

    def __init__(
        self,
        apply,
        on_committed,
        *,
        registry: obs.MetricsRegistry,
        batch_max: int = 64,
        batch_delay: float = 0.002,
        dedup_window: int = 128,
        durable: bool = False,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        self.batch_max = batch_max
        self.batch_delay = batch_delay
        self.durable = durable
        self.registry = registry
        #: Set by :meth:`drain`: new writes are refused with Draining.
        self.draining = False
        self._apply = apply
        self._on_committed = on_committed
        self._pending: List[tuple] = []
        self._pending_facts = 0  # mirrors sum(len(e[0]) for e in _pending)
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._flush_lock: Optional[asyncio.Lock] = None
        self._dedup = DedupWindow(per_client=dedup_window)
        # Keys whose batch is in flight: duplicates join the future.
        self._dedup_pending: Dict[IdemKey, asyncio.Future] = {}
        self._m_replays = registry.counter("service.dedup.replays")

    # ------------------------------------------------------------------
    # Dedup window
    # ------------------------------------------------------------------
    def load(self, payloads: Iterable[Optional[str]]) -> None:
        """Restore the window from persisted commit metadata."""
        loaded = self._dedup.load(payloads)
        if loaded:
            self.registry.counter("service.dedup.loaded").inc(loaded)

    def commit_meta(self, idem_entries) -> Dict[str, str]:
        """Header metadata covering the window plus *idem_entries*."""
        return {DEDUP_META_KEY: self._dedup.encode_with(idem_entries)}

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
    async def write(
        self,
        facts: List[tuple],
        idem: Optional[IdemKey] = None,
        sctx: Optional[trace.TraceContext] = None,
    ) -> Dict[str, Any]:
        """Apply *facts* exactly once; returns the reply's result."""
        while idem is not None:
            replay = self.replay_for(idem)
            if replay is not None:
                return replay
            pending = self._dedup_pending.get(idem)
            if pending is None:
                break
            # The original is in flight (the chaos proxy duplicates
            # frames faster than a flush completes): join it.  The flush
            # records applied keys before resolving futures, so the
            # re-lookup replays; if the original failed (its own waiter
            # carries the error) this duplicate re-enters as fresh.
            self.registry.counter("service.dedup.joins").inc()
            try:
                await asyncio.shield(pending)
            except Exception:
                break
        if self.draining:
            raise Draining("server is draining; retry against the new instance")
        future = asyncio.get_running_loop().create_future()
        if idem is not None:
            self._dedup_pending[idem] = future
        await self._enqueue((facts, future, sctx, idem))
        await future
        return {"applied": len(facts)}

    async def _enqueue(self, entry: tuple) -> None:
        self._pending.append(entry)
        self._pending_facts += len(entry[0])
        if self._pending_facts >= self.batch_max:
            self._cancel_timer()
            self.registry.counter("service.batch.size_flushes").inc()
            await self.flush()
        elif self._flush_handle is None:
            self._flush_handle = asyncio.get_running_loop().call_later(
                self.batch_delay, self._deadline_flush
            )

    def _cancel_timer(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    def _deadline_flush(self) -> None:
        self._flush_handle = None
        if self._pending:
            self.registry.counter("service.batch.deadline_flushes").inc()
            asyncio.get_running_loop().create_task(self.flush())

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
        async with self.serialized():
            await self._flush_locked()

    async def drain(self) -> None:
        """Refuse writes from now on, then flush what was accepted."""
        self.draining = True
        self._cancel_timer()
        await self.flush()

    async def _flush_locked(self) -> None:
        batch, self._pending = self._pending, []
        self._pending_facts = 0
        if not batch:
            return
        all_facts = [fact for entry in batch for fact in entry[0]]
        self.registry.counter("service.batch.flushes").inc()
        self.registry.histogram(
            "service.batch.size", bounds=(1, 2, 5, 10, 20, 50, 100, 200, 500)
        ).record(len(all_facts))
        idem_entries = [
            (idem, {"applied": len(facts)})
            for facts, _, _, idem in batch
            if idem is not None
        ]
        meta = self.commit_meta(idem_entries) if self.durable else None
        # One flush serves several requests; its shard/tree spans are
        # recorded once (trace-agnostically) and replayed under every
        # sampled participant's trace after the apply.
        participants = [entry[2] for entry in batch if entry[2] is not None]
        collector = (
            trace.SpanCollector() if trace.TRACING and participants else None
        )
        started = asyncio.get_running_loop().time()
        error: Optional[BaseException] = None
        try:
            await self._apply(all_facts, meta, collector)
        except CommitFailed as exc:
            # Applied in memory, not on disk: waiters get the error, yet
            # the keys must be remembered -- a retry would otherwise
            # double-apply against the still-running process -- and the
            # batch still goes to on_committed: its facts are in this
            # node's memory and will be durable at the next successful
            # commit, so followers must mirror them or diverge.
            self.registry.counter("service.batch.commit_failures").inc()
            error = exc.__cause__ or exc
        except Exception as exc:
            self._replay_flush(collector, participants, batch, started)
            self._forget_pending(batch)
            self._settle(batch, exc)
            return
        else:
            if self.durable:
                self.registry.counter("service.batch.commits").inc()
        await self._on_committed(
            (facts, idem) for facts, _, _, idem in batch
        )
        self.remember(idem_entries)
        self._forget_pending(batch)
        self._replay_flush(collector, participants, batch, started)
        self._settle(batch, error)

    def _forget_pending(self, batch) -> None:
        for entry in batch:
            if entry[3] is not None:
                self._dedup_pending.pop(entry[3], None)

    @staticmethod
    def _settle(batch, error: Optional[BaseException]) -> None:
        """Release every waiter of a flushed batch."""
        for _, future, _, _ in batch:
            if not future.done():
                if error is None:
                    future.set_result(True)
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
            "batch": {
                "max": self.batch_max,
                "delay_s": self.batch_delay,
                "pending": len(self._pending),
            },
            "dedup": self._dedup.stats(),
        }
