"""Pool-pressure handling: reservation, preemption, swap, and spill billing.

:class:`PoolPressure` holds every escalation the engine runs when a bounded
block pool cannot supply an allocation-bearing step — evict/spill cold
prefix-cache chains, release retained finished outputs, materialise swapped
requests' pins, preempt younger victims (swap or recompute), degrade parked
requests, resume swapped chains — and is the one ledger of the PCIe/NVMe
traffic all of that causes: each transfer kind (swap-out, swap-in, spill
settlement, cross-worker migration) is billed by exactly one method, and
:meth:`PoolPressure._charge` is the only place their time reaches the
simulated clock.  The behaviour is documented in detail on
:class:`~repro.serve.InferenceEngine`, which builds one per engine and
reaches it through ``append_blocks_needed``, ``ensure_blocks``,
``preempt_victim``, ``resume_swapped``, ``proactive_swap_out``,
``settle_spill_traffic`` and (the cluster frontend) ``block_nbytes`` /
``bill_migration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CapacityError
from ..llm.kvcache import BlockAllocator, BlockTable, SwapSpace
from ..memory.latency import LatencyModel
from .metrics import EngineMetrics
from .prefix_cache import PrefixCache
from .request import RequestOutput, RequestStatus
from .scheduler import ContinuousBatchingScheduler
from .state import RequestState

__all__ = ["PoolPressure"]


@dataclass(eq=False, repr=False)
class PoolPressure:
    """Pool-pressure escalation ladder and transfer ledger of one engine.

    Built from the parts it uses, never from the engine: requests are ranked
    and parked through ``scheduler``, transfers priced by ``latency`` and
    booked on ``metrics``, blocks moved between ``allocator`` (the GPU
    pool), ``swap_space`` (the CPU/disk tiers) and ``prefix_cache``.
    ``states`` and ``final_outputs`` are the engine's *live* mappings of
    unfinished request states and retained finished outputs, by reference.
    """

    scheduler: "ContinuousBatchingScheduler[RequestState]"
    latency: LatencyModel
    metrics: EngineMetrics
    allocator: BlockAllocator
    swap_space: SwapSpace
    prefix_cache: PrefixCache
    states: "dict[str, RequestState]"
    final_outputs: "dict[str, RequestOutput]"
    #: opt-in preemption witness: assign a list and every successful
    #: claimant→victim preemption appends ``(claimant_priority,
    #: claimant_seq, victim_priority, victim_seq)`` — the QoS fuzz
    #: suite's no-priority-inversion / within-class-age-rule oracle.
    victim_log: "list[tuple[int, int, int, int]] | None" = field(
        default=None, init=False
    )
    #: prefix-cache spill counters already charged to the clock (blocks,
    #: then payload bytes; out then in) — the spill/restore work happens
    #: inside eviction hooks and lookups, so its transfer time is settled
    #: from stat deltas
    _spill_settled: tuple = field(default=(0, 0, 0, 0), init=False)

    # ------------------------------------------------------ QoS ordering

    @staticmethod
    def _may_preempt(claimant: RequestState, victim: RequestState) -> bool:
        """Whether ``claimant`` is entitled to take ``victim``'s blocks.

        Entitlement is lexicographic (priority class descending, submission
        order ascending): a claimant may victimise any strictly
        lower-priority request regardless of age, and same-class requests
        submitted after it.  This preserves the age-rule liveness proof
        *within* each class — the oldest request of the top class outranks
        everyone, so it always completes, then the next, and so on down the
        classes; no preemption cycle is possible.
        """
        if victim.priority != claimant.priority:
            return victim.priority < claimant.priority
        return victim.seq > claimant.seq

    def _outranked_by_active(self, state: RequestState) -> bool:
        """Whether some active request is entitled to finish before ``state``.

        The park condition: when true, ``state``'s unmet demand is not yet
        infeasible — the outranking request will free blocks by finishing.
        Only the top-ranked claimant may raise :class:`CapacityError`.
        """
        return any(
            other.priority > state.priority
            or (other.priority == state.priority and other.seq < state.seq)
            for other in self.states.values()
        )

    # ------------------------------------------------------------ ledger

    def block_nbytes(self) -> int:
        """Modelled bytes of one pool block at the pool's dtype width."""
        return self.allocator.block_nbytes()

    def _charge(self, seconds: float, state: "RequestState | None" = None) -> None:
        """Put transfer time on the clock, and on the request that moved."""
        self.metrics.clock += seconds
        self.metrics.swap_seconds += seconds
        if state is not None:
            state.metrics.swap_seconds += seconds

    def _bill_swap_out(
        self,
        state: "RequestState | None",
        blocks: int,
        demoted: float,
    ) -> None:
        """The downward bill of the swap path: ``blocks`` freshly stored
        positions left the GPU and forced ``demoted`` bytes of CPU→disk
        demotion writes.

        The clock is charged the D2H leg and the disk write.  ``state`` is
        the request whose chain moved (``None`` when only demotions landed).
        """
        nbytes = float(blocks * self.block_nbytes())
        self._charge(self.latency.swap_out_seconds(nbytes, demoted), state)
        self.metrics.swap_out_blocks += blocks
        self.metrics.swap_out_bytes += nbytes
        if state is not None:
            state.metrics.swap_out_bytes += nbytes

    def bill_migration(self, kv_bytes: float, disk_bytes: float) -> float:
        """The cluster frontend's bill for a chain imported from another
        worker: NVMe-read → PCIe-H2D lands on this (the importing) engine's
        clock.  Returns the seconds charged."""
        seconds = self.latency.migration_seconds(kv_bytes, disk_bytes)
        self._charge(seconds)
        return seconds

    def settle_spill_traffic(self) -> None:
        """Charge prefix-cache spill/restore transfers to the clock.

        Spills happen inside the allocator's eviction hook and restores
        inside prefix lookups, so their PCIe/NVMe time is settled from the
        cache's stat deltas: spilled KV crosses D2H then the disk write;
        restored KV is read from disk and crosses H2D; artifact payloads
        (accumulated scores, PQ snapshots) ride the disk leg only.
        """
        stats = self.prefix_cache.stats
        now = (
            stats.spilled_blocks, stats.restored_blocks,
            stats.spilled_payload_bytes, stats.restored_payload_bytes,
        )
        out_blocks, in_blocks, out_payload, in_payload = (
            current - settled
            for current, settled in zip(now, self._spill_settled)
        )
        if not (out_blocks or in_blocks or out_payload or in_payload):
            return
        self._spill_settled = now
        block_bytes = self.block_nbytes()
        # Both directions land on the clock as *one* addition.
        seconds = 0.0
        if out_blocks or out_payload:
            kv_bytes = float(out_blocks * block_bytes)
            seconds += self.latency.swap_out_seconds(
                kv_bytes, kv_bytes + float(out_payload)
            )
            self.metrics.spill_out_bytes += kv_bytes + float(out_payload)
        if in_blocks or in_payload:
            kv_bytes = float(in_blocks * block_bytes)
            seconds += self.latency.swap_in_seconds(
                kv_bytes, kv_bytes + float(in_payload)
            )
            self.metrics.spill_in_bytes += kv_bytes + float(in_payload)
        self._charge(seconds)

    # --------------------------------------------------- pool pressure

    @staticmethod
    def append_blocks_needed(state: RequestState, num_tokens: int) -> int:
        """Pool blocks an append of ``num_tokens`` will allocate.

        Mirrors :meth:`BlockTable.prepare_write` exactly: new tail blocks
        as the write range crosses block boundaries, plus one copy-on-write
        clone when the partially-filled tail block is shared with another
        holder (the prefix cache or a forked request).
        """
        assert state.paged is not None
        allocator = state.paged.allocator
        block = allocator.block_size
        cur = len(state.paged)
        table = state.paged.table.block_ids
        needed = -(-(cur + num_tokens) // block) - len(table)
        if cur % block != 0 and len(table) > cur // block:
            if allocator.refcount(table[cur // block]) > 1:
                needed += 1
        return max(needed, 0)

    def ensure_blocks(self, state: RequestState, needed: int) -> bool:
        """Reserve ``needed`` free pool blocks for ``state``'s next write.

        Escalation order under pressure: (1) evict/spill cold prefix-cache
        chains, (2) release the pool references of retained *finished*
        outputs, oldest first (one store, read through the table: their KV
        goes, and blocks the prefix cache shares become evictable next pass),
        (3) preempt victim requests submitted *after* ``state``
        (:meth:`~repro.serve.ContinuousBatchingScheduler.pick_victim` order
        among them, skipping requests that hold no pool blocks).  Victim
        eligibility is :meth:`_may_preempt`: strictly lower priority classes
        first, then same-class requests submitted after ``state`` — the
        per-class age restriction is the progress guarantee: the top-ranked
        active request can take blocks from everyone, so it always
        completes, then the next, and so on — two requests can never preempt
        each other back and forth without anybody finishing.

        Returns ``False`` when the demand cannot be met but an *outranking*
        request (higher class, or older in the same class) is still active
        (the caller parks ``state``; the outranking request will free blocks
        by finishing).  Raises :class:`~repro.errors.CapacityError` when
        ``state`` is the top-ranked active request and its demand exceeds
        the pool even with everything else preempted and spilled — genuine
        infeasibility.
        """
        allocator = self.allocator
        if needed <= 0 or allocator.capacity_blocks is None:
            return True
        exclude: list[RequestState] = [state]
        while True:
            available = allocator.num_available
            assert available is not None
            if available >= needed:
                return True
            freed = self.prefix_cache.evict(needed - available)
            self.settle_spill_traffic()
            if freed > 0:
                continue
            if self._reclaim_retained_blocks():
                continue
            if self._materialize_swapped_pins(exclude=state):
                continue
            victim = None
            while True:
                candidate = self.scheduler.pick_victim(exclude=tuple(exclude))
                if candidate is None:
                    break
                exclude.append(candidate)
                if (
                    self._may_preempt(state, candidate)
                    and candidate.paged is not None
                    and candidate.paged.table.block_ids
                    and not candidate.paged.table.released
                ):
                    victim = candidate
                    break
            if victim is None:
                if self._degrade_swapped_to_recompute(exclude=state):
                    continue
                if self._outranked_by_active(state):
                    return False
                raise CapacityError(
                    f"KV pool cannot supply {needed} blocks for request "
                    f"{state.request.request_id!r}: "
                    f"{allocator.num_allocated}/{allocator.capacity_blocks} "
                    "blocks in use with nothing left to evict or preempt"
                )
            if not self.preempt_victim(victim):
                continue  # victim unswappable right now; try the next one
            if self.victim_log is not None:
                self.victim_log.append(
                    (state.priority, state.seq, victim.priority, victim.seq)
                )

    def proactive_swap_out(self) -> int:
        """Swap out low-priority running requests ahead of waiting work.

        Runs at the start of a step, before admission: when the pool's free
        fraction has dropped below
        :attr:`SchedulerConfig.proactive_swap_free_fraction` and the waiting
        queue holds *strictly higher-priority* work than some running
        request, the lowest-priority (then youngest) block-holding running
        request is swap-preempted — idle-but-unfinished background work
        yields its blocks before the interactive burst has to stall on a
        reactive mid-allocation preemption.  Swap-only by design: recompute
        would burn the very compute the high-priority work wants.  Stops
        when the threshold is met, no eligible victim remains, or the swap
        tiers are full.  Returns the number of requests swapped out.
        """
        allocator = self.allocator
        threshold = self.scheduler.config.proactive_swap_free_fraction
        if threshold is None or allocator.capacity_blocks is None:
            return 0
        swapped = 0
        while True:
            available = allocator.num_available
            assert available is not None
            if available / allocator.capacity_blocks >= threshold:
                break
            waiting = self.scheduler.waiting_items()
            if not waiting:
                break
            top_waiting = max(item.priority for item in waiting)
            victims = [
                item
                for item in self.scheduler.running_items()
                if item.priority < top_waiting
                and item.paged is not None
                and item.paged.table.block_ids
                and not item.paged.table.released
            ]
            if not victims:
                break
            victim = min(victims, key=lambda it: (it.priority, -it.seq))
            if not self._preempt_swap(victim):
                break  # tiers full — reactive preemption will handle the rest
            swapped += 1
            self.metrics.count("proactive_swap_outs", victim.priority, victim.tenant)
        return swapped

    def _reclaim_retained_blocks(self) -> bool:
        """Release one retained finished output's pool references.

        Finished work is the cheapest thing to reclaim under pressure: the
        output keeps its tokens and logits; its KVCache (one store, read
        through the table) goes, as in :meth:`InferenceEngine.release`.
        Oldest retained output first; one at a time
        so the caller re-checks availability (a released block shared with
        the prefix cache merely becomes evictable/spillable on the next
        pass).
        """
        for output in self.final_outputs.values():
            if output.prefill is not None and not output.prefill.kvcache.released:
                output.prefill.kvcache.release()
                return True
        return False

    def _materialize_swapped_pins(
        self, exclude: "RequestState | None" = None
    ) -> bool:
        """Copy one swapped request's pinned shared blocks into the tiers.

        A swap-preempted request normally keeps *shared* blocks GPU-resident
        by reference (no copy, sharing preserved on resume).  Under extreme
        pressure those pins can stand between an older request and the pool:
        dropping them — after copying the contents down the hierarchy — lets
        the other holder (typically the prefix cache) evict or spill the
        blocks on the next escalation pass.  One handle at a time; the
        copied bytes are billed like any swap-out.  ``exclude`` protects the
        request the reservation is *for* — materialising its own handle
        mid-resume would grow the very allocation it is reserving.
        """
        # Lowest priority class first (stable within a class — see
        # _degrade_swapped_to_recompute for the rationale).
        for state in sorted(self.states.values(), key=lambda s: s.priority):
            if state is exclude:
                continue
            handle = state.swap_handle
            if handle is None or not handle.pinned_blocks:
                continue
            stats = self.swap_space.stats
            demoted_before = stats.demoted_logical_bytes
            moved = self.swap_space.materialize_pins(handle)
            demoted = float(stats.demoted_logical_bytes - demoted_before)
            if handle.tier == "disk":
                demoted += float(moved * self.block_nbytes())
            if moved or demoted > 0.0:
                # Bill every transfer that actually landed — including
                # demotions a materialisation forced before running out of
                # tier room (moved can be 0 with demoted bytes > 0; those
                # are on the clock but not on this request).
                self._bill_swap_out(state if moved else None, moved, demoted)
            if moved:
                return True
        return False

    def preempt_victim(self, victim: RequestState) -> bool:
        """Preempt one running request according to the configured mode.

        Recompute requires the victim's policy to be rebuildable from its
        spec (a precomputed prefill is re-imported from ``Request.prefill``);
        victims that fail it (instance-wrapped policies, selection-hook
        observers that must not fire twice) are swapped instead.  When the
        swap tiers cannot absorb the chain the victim falls back to
        recompute if it can; a victim that can be
        neither swapped nor recomputed right now is left running and
        ``False`` is returned (the caller tries another victim).
        """
        mode = self.scheduler.config.preemption_mode
        recomputable = self._recomputable(victim)
        if mode == "recompute" and recomputable:
            self._preempt_recompute(victim)
            return True
        if self._preempt_swap(victim):
            return True
        if recomputable:
            # Swap tiers full: dropping and replaying still relieves the pool.
            self._preempt_recompute(victim)
            return True
        return False

    def _preempt_swap(self, victim: RequestState) -> bool:
        """Swap a victim's block chain to the CPU tier and park the request.

        The chain contents are copied into the swap space (cold CPU entries
        cascading to disk), the pool references are dropped, and the request
        moves to the front of the waiting queue in the ``SWAPPED`` state;
        re-admission restores the chain bitwise via :meth:`resume_swapped`.
        The simulated clock is charged the D2H transfer plus any demotion
        writes the swap-out forced.  Returns ``False`` — with the victim
        untouched on the GPU, and any partial demotions still charged —
        when the swap tiers cannot absorb the chain.
        """
        assert victim.paged is not None
        stats = self.swap_space.stats
        demoted_before = stats.demoted_logical_bytes
        try:
            handle = self.swap_space.swap_out(
                self.allocator, victim.paged.table.block_ids, tier="cpu"
            )
        except CapacityError:
            demoted = float(stats.demoted_logical_bytes - demoted_before)
            if demoted > 0.0:
                # Demotions that did land before the failure really moved
                # bytes to disk; bill them even though the swap-out aborted.
                self._bill_swap_out(None, 0, demoted)
            return False
        victim.paged.table.release()
        victim.swap_handle = handle
        victim.resume_status = victim.status
        victim.status = RequestStatus.SWAPPED
        self.scheduler.preempt(victim)

        # Only the *stored* positions moved bytes — shared blocks stayed
        # GPU-resident under their pins and cost nothing to park.
        self._bill_swap_out(
            victim,
            handle.stored_blocks,
            float(stats.demoted_logical_bytes - demoted_before),
        )
        self.metrics.count("preemptions", victim.priority, victim.tenant)
        self.metrics.preemptions_swap += 1
        victim.metrics.preemptions += 1
        return True

    @staticmethod
    def _recomputable(state: RequestState) -> bool:
        """Whether a request can be rebuilt + replayed deterministically."""
        spec = state.request.policy_spec
        return (
            (spec is None or spec.supports_rebuild)
            and state.request.selection_hook is None
        )

    def _demote_to_recompute(self, state: RequestState) -> None:
        """Drop a request's KV, policy state and parked chain (if any).

        It restarts through the deterministic recompute/replay path.  The
        generated tokens are kept: after re-prefilling (its own cached chain
        usually makes that a prefix hit) the request replays them through
        the ordinary decode path, reproducing logits and selections bit for
        bit before new tokens are generated.  Demoting an already-``SWAPPED``
        request discards its handle — releasing the pins (the prefix cache
        regains the power to spill those blocks) and the tier room its
        stored copies held — and is a preemption event of its own (the
        request is preempted a second time, in the other mode), so the
        per-mode counters keep summing to the total.
        """
        if state.swap_handle is not None:
            self.swap_space.discard(state.swap_handle)
            state.swap_handle = None
        thrown_away = len(state.paged)
        if state.policy is not None:
            state.policy.release_prefix()
            state.policy = None
        state.paged.release()
        state.paged = None
        state.prefill = None
        state.prefill_state = None
        state.cached_prefix = 0
        state.prefix_acc = None
        state.acc_capture = 0
        state.construction_tail = 0.0
        state.chunk_lens = []
        state.chunk_seconds = 0.0
        state.num_decoded = 0
        state.step_logits = []
        state.selections = []
        state.status = RequestStatus.PREEMPTED
        self.metrics.count("preemptions", state.priority, state.tenant)
        self.metrics.preemptions_recompute += 1
        state.metrics.preemptions += 1
        state.metrics.recomputed_tokens += thrown_away

    def _preempt_recompute(self, victim: RequestState) -> None:
        """Recompute-preempt a running request: demote it, then re-queue it
        at the front of its class."""
        self._demote_to_recompute(victim)
        self.scheduler.preempt(victim)

    def _degrade_swapped_to_recompute(
        self, exclude: "RequestState | None" = None
    ) -> bool:
        """Demote one parked ``SWAPPED`` request to recompute-on-resume.

        The last escalation rung before giving up: when the swap tiers have
        no room to materialise pins, a parked request's pinned shared blocks
        can stand between an older request and the pool.  The request —
        already in the waiting queue — restarts through the recompute/replay
        path instead of a swap-in.
        """
        # Lowest priority class first (stable within a class, so untagged
        # traffic keeps the pre-QoS submission-order scan): a parked
        # high-priority request should not lose its bitwise restore while a
        # low-priority handle could be sacrificed instead.
        for state in sorted(self.states.values(), key=lambda s: s.priority):
            if (
                state is not exclude
                and state.swap_handle is not None
                and self._recomputable(state)
            ):
                self._demote_to_recompute(state)
                return True
        return False

    def resume_swapped(self, state: RequestState) -> bool:
        """Swap a re-admitted request's chain back into the pool.

        When an older request owns the pool, the request stays swapped and
        parks at the *back* of the waiting queue (the older requests get a
        chance to finish and free blocks first).  A chain whose demand
        genuinely exceeds the pool — no older request left to defer to —
        surfaces as a :class:`~repro.errors.CapacityError` from the
        reservation.
        """
        handle = state.swap_handle
        assert handle is not None and state.paged is not None
        # Pinned positions need no allocation — their blocks never left.
        try:
            reserved = self.ensure_blocks(state, handle.stored_blocks)
        except CapacityError:
            # Even as the oldest request the chain cannot come back — often
            # because its *own* pinned shared blocks (a prompt chain the
            # prefix cache fully indexed) are what fills the pool.  Degrade
            # to recompute: dropping the pins lets the cache spill those
            # blocks, and the deterministic replay restarts the request.  A
            # genuinely-too-big request still fails: its recompute prefill
            # raises the same CapacityError at the first chunk.
            if not self._recomputable(state):
                raise
            self._preempt_recompute(state)
            return False
        if not reserved:
            # An older request owns the pool: stay swapped, park at the back
            # of the queue so others can finish and free blocks first.
            self.scheduler.preempt(state, requeue_front=False)
            return False
        stored = handle.stored_blocks
        nbytes = float(stored * self.block_nbytes())
        disk_bytes = nbytes if handle.tier == "disk" else 0.0
        new_ids = self.swap_space.swap_in(handle, self.allocator)
        state.paged.table = BlockTable(self.allocator, new_ids)
        state.swap_handle = None
        state.status = state.resume_status

        # The upward bill: disk read → H2D.
        self._charge(self.latency.swap_in_seconds(nbytes, disk_bytes), state)
        self.metrics.swap_in_blocks += stored
        self.metrics.swap_in_bytes += nbytes
        state.metrics.swap_in_bytes += nbytes
        return True
