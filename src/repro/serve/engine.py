"""The request-centric inference engine.

:class:`InferenceEngine` is the serving front-end of the reproduction: it
accepts :class:`~repro.serve.Request` objects, runs a continuous-batching
loop (admit → prefill → interleaved decode rounds → finish/evict) over the
shared :class:`~repro.llm.TransformerLM`, instantiates one KVCache policy per
request from its :class:`~repro.serve.PolicySpec`, and emits
:class:`~repro.serve.RequestOutput` objects with incrementally streamed
tokens plus per-request serving metrics.

Batching is transparent: each request owns its prefill/KVCache and its
policy, and tokens are picked by masked argmax — so a batched run produces
byte-identical tokens to the same requests run one at a time on a
single-slot engine.

There is one decode round (:meth:`InferenceEngine._run_decode_batch`, planned
by :class:`~repro.serve.decode_batch.DecodeBatch`): one
:meth:`TransformerLM.decode_step_batch` call over its members — dense ops as
one GEMV per decode row, policy selection and maintenance
through the per-class grouped kernels — then a member-by-member billing
tail.  A step walks its ``RUNNING`` requests once, gathering members whose
appends the free list covers into one round; a member that needs the
pool-pressure ladder (which may evict, or park a member) first runs the
gathered members as a round, then reserves and starts the next one.
Per-request state is isolated and the billing walk puts every clock addition
where consecutive rounds of one would, so any grouping yields the same
tokens, logits, selections, simulated clock and counters.

Prefilling runs in one of two modes.  By default an admitted request
prefills its whole prompt during the admission step, as one chunk.  With
``SchedulerConfig.max_prefill_chunk_tokens`` set, prefill is *chunked*: each
step processes at most that many prompt tokens, split fairly across the
batch's ``PREFILLING`` requests via :meth:`TransformerLM.prefill_chunk`, so a
16k-token prompt no longer head-of-line-blocks a short prompt's TTFT.  The
clock is charged per chunk (GPU compute of the chunk), with the residual of
the overlapped construction timeline
(:meth:`~repro.memory.LatencyModel.chunked_prefill_timeline`) settled at
completion; policies that support it (PQCache) build their state
incrementally from the same chunks (sketch fit → stream encode → refine),
whatever the chunk size.

Paged KV and the shared-prefix cache
------------------------------------
Every request's KVCache is a :class:`~repro.llm.kvcache.PagedKVCache` drawing
fixed-size token blocks from the engine's refcounted
:class:`~repro.llm.kvcache.BlockAllocator` (``EngineConfig.pool``, unbounded
by default).  A precomputed ``Request.prefill`` is imported into fresh blocks
at admission: it counts against the pool like any request, but never meets
the prefix cache.  For every other request a
:class:`~repro.serve.PrefixCache` hash-matches the prompt against previously
served block chains.  On a hit the matched blocks are attached
copy-on-write, prefill resumes from the first divergent token
(:meth:`TransformerLM.begin_prefill` with ``prefix_len``), reusable PQ
artifacts (sketch codebooks + codes) are adopted by reference through the
policy's ``attach_prefix`` hook, and the simulated clock charges **zero**
prefill or clustering cost for the cache-hit tokens.  Decode outputs are
byte-identical between the cache-hit and cold paths: the reused keys/values
are the exact arrays an earlier request computed, resumed reductions are
strictly-sequential continuations of snapshotted state, and policies whose
selection depends on prefill aggregates only reuse up to a boundary where
those aggregates were snapshotted exactly
(``KVCachePolicy.needs_prefill_aggregates``).

Preemption and tiered KV under pool pressure
--------------------------------------------
With a *bounded* block pool (``PoolConfig.blocks``) the engine degrades
gracefully instead of failing: before any allocation-bearing step (a prefill
chunk, a decode append, a swap-in) it reserves the blocks that step will
write.  When the pool cannot supply them it first asks the prefix cache to
evict — which, with the disk spill tier, demotes cold chains to NVMe instead
of dropping them — and then *preempts* a victim request
(the most recently admitted of the lowest running class).  Two victim fates
exist (``SchedulerConfig.preemption_mode``):

* ``"swap"`` — the victim's blocks are copied to the CPU tier of the
  :class:`~repro.llm.kvcache.SwapSpace` (cold entries cascade to disk), the
  pool blocks are freed, and on re-admission the chain is restored bitwise
  and decoding continues exactly where it stopped.
* ``"recompute"`` — the victim's blocks are dropped and the request is
  re-enqueued; on re-admission it re-prefills its prompt through the normal
  resumable-prefill machinery (often a prefix-cache hit on its own earlier
  chain) and *replays* its already-generated tokens through the ordinary
  decode path.  Because every stage is deterministic, the replayed logits,
  selections and subsequent tokens are byte-identical to an uninterrupted
  run; replayed tokens are not re-emitted or re-counted.

Swap and spill traffic is charged to the simulated clock as
dependency-linked PCIe/NVMe transfers
(:meth:`~repro.memory.LatencyModel.swap_out_timeline` /
:meth:`~repro.memory.LatencyModel.swap_in_timeline`) and surfaces in
:class:`~repro.serve.EngineMetrics` (``swap_*``/``spill_*`` counters), so
TTFT/TPOT honestly reflect pool pressure.  A :class:`CapacityError` is
raised only when a request's demand exceeds what the pool can offer even
with every other request preempted and every cold chain spilled.

Wall-clock is *simulated*: the engine advances a clock using the analytical
:class:`~repro.memory.LatencyModel` (prefill makespans and per-step TPOT for
the request's method profile), so TTFT/TPOT/throughput come out in the
paper's hardware terms even though the substrate runs in NumPy.  The engine
also owns arrival time: ``submit(request, arrival_time=t)`` holds a request
whose ``t`` lies ahead of the clock until a step reaches it, and a step with
nothing runnable idles the clock to the next held arrival.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace
from typing import Callable, Iterable, Iterator

import numpy as np

from ..baselines.base import KVCachePolicy
from .. import cpu_lane
from ..errors import ConfigurationError
from ..llm.kvcache import BlockAllocator, BlockTable, PagedKVCache, SwapSpace
from ..llm.model import PrefillResult, PrefillState, TransformerLM
from ..memory.devices import HardwareSpec
from ..memory.latency import LatencyModel, resolve_method
from .config import EngineConfig, resolve_config
from .decode_batch import DecodeBatch
from .metrics import EngineMetrics
from .prefix_cache import PrefixCache
from .pressure import PoolPressure
from .request import Request, RequestOutput, RequestStatus
from .scheduler import ContinuousBatchingScheduler
from .state import RequestState

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """Continuous-batching serving engine over the PQCache policy stack.

    Args:
        model: shared transformer substrate (stateless across requests —
            every request owns its KVCache through its prefill result).
        config: scheduler, paged pool, clock model and retention bound
            (:class:`~repro.serve.EngineConfig`); the default is an 8-slot
            batch over an unbounded pool.
        **keywords: shim — the pre-config options (``scheduler_config=``,
            ``enable_prefix_caching=``, …), read by
            :func:`~repro.serve.config.config_from_keywords`; not with ``config``.
    """

    def __init__(
        self,
        model: TransformerLM,
        config: EngineConfig | None = None,
        **keywords,
    ) -> None:
        self.config = config = resolve_config(config, keywords, EngineConfig())
        # PQ construction splits its layers with the process's helper; start
        # it now so that its imports are done before the first prefill.
        cpu_lane.start()
        self.model = model
        self.scheduler: ContinuousBatchingScheduler[RequestState] = (
            ContinuousBatchingScheduler(config.scheduler)
        )
        self.latency = config.latency_model or LatencyModel(
            HardwareSpec.paper_testbed(), model.config
        )
        self.metrics = EngineMetrics()
        self._states: dict[str, RequestState] = {}
        self._seen_ids: set[str] = set()
        self._final_outputs: dict[str, RequestOutput] = {}
        pool, geometry = config.pool, model.config
        self.block_allocator = BlockAllocator(
            geometry.num_layers,
            geometry.num_kv_heads,
            geometry.head_dim,
            block_size=pool.block_size,
            capacity_blocks=pool.blocks,
            dtype_bytes=geometry.dtype_bytes,
        )
        self.swap_space = SwapSpace(
            self.block_allocator,
            cpu_capacity_blocks=pool.cpu_blocks,
            disk_capacity_blocks=pool.disk_blocks,
        )
        self.prefix_cache = PrefixCache(self.swap_space)
        self.block_allocator.eviction_hook = self.prefix_cache.evict
        #: the pool-pressure ladder and transfer ledger over the three
        #: attributes above
        self.pressure = PoolPressure(
            self.scheduler, self.latency, self.metrics,
            self.block_allocator, self.swap_space, self.prefix_cache,
            self._states, self._final_outputs,
        )
        #: shed-on-arrival finals awaiting delivery through the next step()
        #: (so run()/stream() observe them like any other finished output)
        self._pending_shed_outputs: list[RequestOutput] = []
        #: submitted requests whose arrival time the clock has not reached,
        #: a heap of ``(arrival_time, submission order, state)``
        self._held: list[tuple[float, int, RequestState]] = []
        self._num_released = 0

    # ------------------------------------------------------------- intake

    def submit(self, request: Request, arrival_time: float | None = None) -> str:
        """Queue a request for admission; returns its id.

        ``arrival_time`` is the simulated instant the request arrives; TTFT
        and the QoS deadline count from it.  ``None`` stamps the current
        clock.  A time at or before the clock enters the scheduler now; a
        later one is held until the first :meth:`step` whose clock reaches
        it.  Arrivals enter the scheduler in order of time, then submission.
        """
        if request.request_id in self._seen_ids:
            raise ConfigurationError(
                f"duplicate request id {request.request_id!r}"
            )
        if arrival_time is None:
            arrival_time = self.metrics.clock
        elif not (math.isfinite(arrival_time) and arrival_time >= 0):
            raise ConfigurationError(
                f"arrival_time must be finite and >= 0, got {arrival_time!r}"
            )
        state = RequestState(request, arrival_time=float(arrival_time))
        self._seen_ids.add(request.request_id)
        self._states[request.request_id] = state
        heapq.heappush(
            self._held, (state.metrics.arrival_time, self.metrics.requests_submitted, state)
        )
        self.metrics.count("requests_submitted", state.priority, state.tenant)
        self._release_arrivals()
        return request.request_id

    def _release_arrivals(self) -> None:
        """Move every held arrival the clock has reached into the scheduler.

        Each released request gets the next preemption rank (``seq``) and
        passes admission control.
        """
        held = self._held
        while held and held[0][0] <= self.metrics.clock:
            state = heapq.heappop(held)[-1]
            state.seq = self._num_released
            self._num_released += 1
            self.scheduler.submit(state)
            self._admission_control(state)

    def min_ttft_lower_bound(self, num_prompt_tokens: int) -> float:
        """Provable lower bound on the uncontended TTFT of a prompt.

        The bound is the GPU prefill compute alone: every serving method
        must run the prompt through all layers before the first token, and
        offload, clustering and queueing only add to it.  A full-prefix hit
        in the engine's prefix cache could serve all but one token from
        cached blocks, so the provable bound is the one-token suffix's,
        whatever ``num_prompt_tokens`` is, and admission-time deadline
        shedding effectively defers to the mid-wait clock sweep.
        """
        return (
            self.latency.layer_prefill_compute_seconds(1)
            * self.model.config.num_layers
        )

    def _admission_control(self, state: RequestState) -> None:
        """Shed a just-arrived request whose deadline is provably unmeetable.

        With ``shed_missed_deadlines``, a deadline-tagged request whose
        :meth:`min_ttft_lower_bound` alone exceeds its relative deadline is
        shed on arrival: even an idle engine could not produce its first
        token in time.
        """
        if (
            self.scheduler.config.shed_missed_deadlines
            and state.request.qos.deadline is not None
            and self.min_ttft_lower_bound(len(state.request.prompt_ids))
            > state.request.qos.deadline
        ):
            self._shed(state)

    def _shed_missed_deadlines(self) -> int:
        """Shed never-admitted waiting requests whose deadline has passed.

        Runs at the start of every step: a request still ``WAITING`` (never
        admitted — re-queued preemption victims hold generated tokens and
        are never shed) whose resolved deadline lies strictly behind the
        simulated clock can no longer meet it, so it finishes immediately
        with ``finish_reason="deadline"`` instead of burning prefill
        compute on an already-lost SLO.  Returns the number shed.
        """
        if not self.scheduler.config.shed_missed_deadlines:
            return 0
        clock = self.metrics.clock
        expired = [
            item
            for item in self.scheduler.waiting_items()
            if item.status is RequestStatus.WAITING
            and item.deadline_time is not None
            and clock > item.deadline_time
        ]
        for state in expired:
            self._shed(state)
        return len(expired)

    def _shed(self, state: RequestState) -> RequestOutput:
        """Refuse a waiting request for a missed or unmeetable deadline
        (``finish_reason="deadline"``).

        Shed requests have never been admitted, so they hold no pool blocks,
        swap handles, or policy state — only their queue slot and state
        entry are dropped.  The final output is delivered through the next
        :meth:`step` so streaming consumers observe it.
        """
        self.scheduler.remove(state)
        self._finish(state, "deadline")
        output = self._retire(state, self._make_output(state, []), "requests_shed")
        self.metrics.count("deadline_misses", state.priority, state.tenant)
        self._pending_shed_outputs.append(output)
        self._trim_retained_outputs()
        return output

    @property
    def has_unfinished(self) -> bool:
        return bool(self.scheduler.has_work or self._pending_shed_outputs or self._held)

    @property
    def num_waiting(self) -> int:
        return self.scheduler.num_waiting

    @property
    def num_running(self) -> int:
        return self.scheduler.num_running

    # --------------------------------------------------------------- step

    def step(self) -> list[RequestOutput]:
        """Run one engine step: admissions + prefill work + one decode round.

        Admitted requests that bring a precomputed prefill import it into
        the pool.  Unchunked: the others prefill their whole prompt as one
        chunk.  Chunked: the scheduler's per-step token budget is spread
        over the batch's ``PREFILLING`` requests and each allocation
        advances that request by one chunk.  Either way, every
        fully-prefilled running request then gets a decode round.

        A step with nothing runnable first idles: the clock jumps to the
        earliest held arrival.  Held arrivals the clock has reached are then
        released into the scheduler.

        Returns one :class:`RequestOutput` per touched request, carrying the
        tokens that became available during this step (streaming deltas).
        """
        # The CPU lane's helper takes its next queued k-means job, if idle
        # (here, before each prefill chunk and before the decode round).
        cpu_lane.pump()
        if self._held and not (self.scheduler.has_work or self._pending_shed_outputs):
            self.metrics.clock = max(self.metrics.clock, self._held[0][0])
        self._release_arrivals()
        self._shed_missed_deadlines()
        self.pressure.proactive_swap_out()
        shed_outputs = self._pending_shed_outputs
        self._pending_shed_outputs = []
        decision = self.scheduler.schedule()
        if not decision.decodes and not decision.admitted and not decision.prefill_chunks:
            return shed_outputs
        self.metrics.steps += 1
        new_tokens: dict[str, list[int]] = {}
        chunked = self.scheduler.config.chunked_prefill_enabled

        touched: list[RequestState] = []

        def touch(state: RequestState) -> None:
            if state not in touched:
                touched.append(state)

        # One pool growth for the step's imports, instead of one per request.
        block = self.block_allocator.block_size
        self.block_allocator.reserve(sum(
            -(-state.request.prefill.seq_len // block)
            for state in decision.admitted
            if state.request.prefill is not None
            and state.status is not RequestStatus.SWAPPED
        ))

        for state in decision.admitted:
            if not self.scheduler.contains_running(state):
                # An earlier admission's memory reservation preempted this
                # request before it was processed; it is back in the waiting
                # queue and will be re-admitted on a later step.
                continue
            if state.status is RequestStatus.SWAPPED:
                # Re-admission of a swap-preempted request: restore its block
                # chain first, then let the chunk/decode phases pick it up.
                if not self.pressure.resume_swapped(state):
                    continue
            else:
                # A recompute-preempted request restarts here too (fresh
                # policy, fresh prefill or import, possibly a prefix-cache
                # hit on its own earlier chain); generated tokens replay.
                self._begin_prefill(state)
                if state.request.prefill is not None:
                    self._import_prefill(state, new_tokens)
            touch(state)
            if not chunked and state.status is RequestStatus.PREFILLING:
                # Unchunked: the whole remaining prompt is one chunk, now.
                self._run_prefill_chunk(
                    state, state.remaining_prefill_tokens, new_tokens
                )

        for state, num_tokens in decision.prefill_chunks:
            if state.status is not RequestStatus.PREFILLING:
                continue  # preempted (or resume failed) earlier this step
            self._run_prefill_chunk(state, num_tokens, new_tokens)
            touch(state)

        decoding = [
            state
            for state in decision.decodes
            if not state.finished and state.status is RequestStatus.RUNNING
        ]
        self._decode_phase(decoding, new_tokens, touch)

        # Backstop settlement: spills triggered by allocation hooks inside
        # the model's own appends (rare — reservations normally cover them).
        self.pressure.settle_spill_traffic()

        outputs: list[RequestOutput] = []
        for state in touched:
            output = self._make_output(state, new_tokens.get(state.request.request_id, []))
            outputs.append(output)
            if state.finished:
                self.scheduler.finish(state)
                self._retire(state, output, "requests_finished")
                self.metrics.class_bucket(state.priority).observe_finish(state.metrics)
                self.metrics.tenant_bucket(state.tenant).observe_finish(state.metrics)
        self._trim_retained_outputs()
        return shed_outputs + outputs

    def _retire(
        self, state: RequestState, output: RequestOutput, kind: str
    ) -> RequestOutput:
        """Shared tail of a terminal event, ``kind`` = ``requests_finished``
        / ``_aborted`` / ``_shed``: the heavyweight per-request state
        (KVCache, logits) now lives only in ``output``, subject to the
        retention bound the caller trims to."""
        del self._states[state.request.request_id]
        self._final_outputs[state.request.request_id] = output
        self.metrics.count(kind, state.priority, state.tenant)
        return output

    def _trim_retained_outputs(self) -> None:
        """Evict the oldest retained finals beyond the retention bound.

        Under a *bounded* pool, retained outputs do not block progress
        either way: their pool references are reclaimed automatically under
        pressure (one store, read through the table: the KVCache goes).
        """
        bound = self.config.max_retained_outputs
        if bound is None:
            return
        while len(self._final_outputs) > bound:
            output = self._final_outputs.pop(next(iter(self._final_outputs)))
            self._release_blocks(output)

    @staticmethod
    def _release_blocks(output: RequestOutput | None) -> None:
        """Return a retained output's shared KV blocks to the pool.

        They are its KVCache's one store, read through the table: the output
        keeps its tokens and logits, its KVCache refuses reads from now on
        (cached prefix entries keep their own references).
        """
        if output is not None and output.prefill is not None:
            output.prefill.kvcache.release()

    def stream(self) -> Iterator[RequestOutput]:
        """Drive the engine to completion, yielding every streamed output."""
        while self.has_unfinished:
            yield from self.step()

    def run(
        self, requests: Iterable[Request] | None = None
    ) -> dict[str, RequestOutput]:
        """Submit ``requests`` (if given), drain the engine, return finals.

        Returns a mapping ``request_id -> final RequestOutput`` for every
        request that finished during this call (independently of the
        ``EngineConfig.max_retained_outputs`` bound, which only governs what the engine
        keeps pinned afterwards).
        """
        if requests is not None:
            for request in requests:
                self.submit(request)
        finals: dict[str, RequestOutput] = {}
        while self.has_unfinished:
            for output in self.step():
                if output.finished:
                    finals[output.request_id] = output
        return finals

    def final_output(self, request_id: str) -> RequestOutput:
        """Final output of a finished request."""
        try:
            return self._final_outputs[request_id]
        except KeyError:
            raise ConfigurationError(
                f"request {request_id!r} has not finished (or does not exist)"
            ) from None

    def release(self, request_id: str) -> None:
        """Drop a finished request's retained output (frees its KVCache)."""
        self._release_blocks(self._final_outputs.pop(request_id, None))

    def abort(self, request_id: str) -> RequestOutput | None:
        """Cancel an unfinished request and free its scheduler slot.

        Works on requests in any pre-finished state: still waiting, mid-way
        through a chunked prefill (the partially-filled KVCache is dropped),
        or decoding.  The request finishes immediately with
        ``finish_reason="aborted"`` and the returned final
        :class:`RequestOutput` carries whatever tokens were generated before
        the abort.

        Aborting a request that already reached a terminal state — it
        finished, was shed, or was aborted before, e.g. an abort racing a
        same-step shed or finish — is an idempotent no-op: the terminal
        outcome stands, no counter moves, and the retained final output is
        returned unchanged (``None`` once the retention bound evicted it).

        Args:
            request_id: id of the request to cancel.

        Returns:
            The final output — freshly aborted, or the unchanged terminal
            output of an already-finished request (``None`` if no longer
            retained).

        Raises:
            ConfigurationError: if the request id was never submitted.
        """
        state = self._states.get(request_id)
        if state is None:
            if request_id in self._seen_ids:
                return self._final_outputs.get(request_id)
            raise ConfigurationError(
                f"request {request_id!r} was never submitted"
            )
        if not self.scheduler.discard(state):
            # Aborted while held: it never reached the scheduler.
            self._held = [entry for entry in self._held if entry[-1] is not state]
            heapq.heapify(self._held)
        if state.swap_handle is not None:
            # Aborted while swapped out: the parked chain will never be
            # restored, so drop it from the swap space.
            self.swap_space.discard(state.swap_handle)
            state.swap_handle = None
        state.prefill_state = None  # drop the partial KVCache
        if state.paged is not None and state.prefill is None:
            # Aborted mid-prefill: the partial paged cache will never be
            # retained, so return its blocks to the pool right away.
            state.paged.release()
        self._finish(state, "aborted")
        output = self._retire(state, self._make_output(state, []), "requests_aborted")
        self._trim_retained_outputs()
        return output

    # ------------------------------------------------------------ prefill

    def _begin_prefill(self, state: RequestState) -> None:
        """Admission bookkeeping: build the policy, resolve its profile.

        Also the re-entry point after recompute-preemption: the policy is
        rebuilt from its spec (deterministically equal to the original) and
        the prefix lookup runs again, typically hitting the chain this
        request itself inserted before being preempted.  A precomputed
        prefill skips the lookup: its KV is not a function of its prompt ids.
        """
        state.status = RequestStatus.PREFILLING
        if state.metrics.prefill_start is None:
            state.metrics.prefill_start = self.metrics.clock
        if state.request.policy_spec is not None and state.policy is None:
            state.policy = state.request.policy_spec.build()
        state.method = resolve_method(
            state.policy.name if state.policy is not None else None,
            is_dropping=state.policy.is_dropping if state.policy is not None else False,
        )
        if state.request.prefill is None:
            self._setup_prefix(state)

    def _setup_prefix(self, state: RequestState) -> None:
        """Prefix-cache lookup + paged-KVCache construction for one request.

        Decides the reuse length ``R``:

        * policies that read prefill aggregates (and full attention, whose
          final output exposes them) may only resume at a boundary where the
          accumulated-score state was snapshotted exactly, capped so the
          SnapKV-style observation window stays entirely in the recomputed
          suffix — both conditions keep the resumed aggregates bitwise equal
          to a cold prefill's;
        * aggregate-free policies (PQCache) reuse every matched full block,
          up to ``len(prompt) - 1`` (at least one token must be processed to
          produce the first-token logits).

        Then forks the matched block chain copy-on-write and, when the
        policy can, attaches the cached PQ artifacts.
        """
        request = state.request
        policy = state.policy
        prompt_len = len(request.prompt_ids)
        block = self.block_allocator.block_size
        observation = request.sampling.observation_window
        fingerprint = policy.prefix_fingerprint() if policy is not None else None
        needs_aggregates = (
            policy.needs_prefill_aggregates if policy is not None else True
        )

        # Cap the lookup at what this request could actually attach, so a
        # long spilled chain is never restored from disk past the usable
        # prefix: aggregate-reading policies can resume at most before their
        # observation window; aggregate-free ones reuse up to all but the
        # last prompt token.
        useful_cap = (
            prompt_len - observation if needs_aggregates else prompt_len - 1
        )
        match = self.prefix_cache.match(
            request.prompt_ids, fingerprint,
            max_useful_tokens=max(useful_cap, 0),
        )
        # The lookup may have restored spilled chains from the disk tier;
        # charge that traffic before this request's TTFT accrues.
        self.pressure.settle_spill_traffic()
        self.metrics.prefix_cache_queries += 1
        self.metrics.prefix_prompt_tokens += prompt_len

        reuse = 0
        acc_scores = None
        if match is not None:
            if needs_aggregates:
                limit = min(match.matched_tokens, prompt_len - observation)
                candidates = [b for b in match.acc_boundaries if b <= limit]
                if candidates:
                    reuse = max(candidates)
                    acc_scores = match.acc_boundaries[reuse]
            else:
                reuse = min(match.matched_tokens, prompt_len - 1)
                acc_scores = match.acc_boundaries.get(reuse)

        if reuse > 0:
            num_blocks = -(-reuse // block)
            table = BlockTable.fork_from(
                self.block_allocator, match.block_ids[:num_blocks]
            )
            state.paged = PagedKVCache(
                self.block_allocator, prefix_table=table, prefix_len=reuse
            )
            state.cached_prefix = reuse
            state.prefix_acc = acc_scores
            self.metrics.prefix_cache_hits += 1
            self.metrics.prefix_cache_hit_tokens += reuse
            if match.pq_snapshot is not None and policy is not None:
                policy.attach_prefix(
                    self.model.config, state.paged, match.pq_snapshot, reuse
                )
        else:
            state.paged = PagedKVCache(self.block_allocator)
        state.metrics.cached_prefix_tokens = reuse

        # Boundary at which this request's own accumulated-score state will
        # be snapshotted for future consumers: the largest block-aligned
        # point that leaves the observation window in the suffix, if it
        # covers queries this request actually computes.  A request that
        # resumed *without* an exact accumulated-score init (the
        # aggregate-free long-reuse path) must not capture at all — its scan
        # is missing the cached-prefix queries' contributions, and caching
        # that snapshot would poison later aggregate-consuming resumes.
        capture = ((prompt_len - observation) // block) * block
        if capture > state.cached_prefix and (
            state.cached_prefix == 0 or state.prefix_acc is not None
        ):
            state.acc_capture = capture

    def _make_prefill_state(self, state: RequestState) -> PrefillState:
        """Begin the model-side prefill, resuming from a cached prefix."""
        request = state.request
        return self.model.begin_prefill(
            request.prompt_ids,
            observation_window=request.sampling.observation_window,
            kvcache=state.paged,
            prefix_len=state.cached_prefix,
            prefix_acc_scores=state.prefix_acc,
            acc_snapshot_boundaries=[state.acc_capture] if state.acc_capture else None,
        )

    def _import_prefill(
        self, state: RequestState, new_tokens: dict[str, list[int]]
    ) -> None:
        """Copy a precomputed prefill's KV into fresh pool blocks.

        It reserves first, like a prefill chunk: a pool too small for it
        raises :class:`~repro.errors.CapacityError`, and a request outranked
        for the blocks goes back to waiting, holding none.  It is never
        matched against or inserted into the prefix cache (its KV is not a
        function of its prompt ids), and the copy is not billed on the
        simulated clock.  ``Request.prefill`` itself is never written, so a
        recompute-preempted request re-imports it.
        """
        arrived = state.request.prefill
        state.paged = PagedKVCache(self.block_allocator)
        if not self.pressure.ensure_blocks(
            state, self.pressure.append_blocks_needed(state, arrived.seq_len)
        ):
            state.paged = None
            state.status = RequestStatus.WAITING
            self.scheduler.preempt(state, requeue_front=False)
            return
        for layer, source in zip(state.paged.layers, arrived.kvcache.layers):
            layer.append(*source.read())
        self._complete_prefill(state, replace(arrived, kvcache=state.paged), new_tokens)

    def _run_prefill_chunk(
        self, state: RequestState, num_tokens: int, new_tokens: dict[str, list[int]]
    ) -> None:
        """Advance a chunked-prefill request by one scheduled chunk."""
        cpu_lane.pump()
        request = state.request
        if state.prefill_state is None:
            state.prefill_state = self._make_prefill_state(state)
        prefix = state.prefill_state.num_processed
        # Reserve the blocks this chunk will write before the model starts
        # appending — under pool pressure this evicts/spills cold prefix
        # chains and preempts younger victims, so the chunk itself can never
        # fail half-written.  When an older request needs the pool more,
        # this request parks itself instead.
        take = min(num_tokens, state.prefill_state.remaining_tokens)
        if not self.pressure.ensure_blocks(
            state, self.pressure.append_blocks_needed(state, take)
        ):
            self.pressure.preempt_victim(state)
            return
        timings: dict[str, float] = {}
        processed = self.model.prefill_chunk(
            state.prefill_state, num_tokens, timings
        )
        self.metrics.prefill_projection_seconds += timings["projection"]
        self.metrics.prefill_attention_seconds += timings["attention"]
        self.metrics.prefill_aggregates_seconds += timings["aggregates"]
        self.metrics.prefill_ffn_seconds += timings["ffn"]
        state.chunk_lens.append(processed)
        state.metrics.prefill_chunks += 1
        self.metrics.prefill_chunks += 1

        # Per-chunk clock charge: the chunk's GPU compute.  Offload and PQ
        # construction overlap on other resources; their non-hidable residual
        # is settled at completion from the overlapped chunk timeline.
        seconds = self.latency.prefill_chunk_seconds(processed, prefix, state.method)
        self.metrics.clock += seconds
        state.chunk_seconds += seconds
        state.metrics.prefill_seconds += seconds

        if state.policy is not None:
            state.policy.on_prefill_chunk(
                self.model.config,
                state.prefill_state.kvcache,
                prefix,
                prefix + processed,
                state.prefill_state.seq_len,
            )

        if state.prefill_state.is_complete:
            prefill = self.model.finish_prefill(state.prefill_state)
            timeline = self.latency.chunked_prefill_timeline(
                state.chunk_lens,
                state.method,
                cached_prefix_tokens=state.cached_prefix,
            )
            # Split the overlap residual at the first-token-ready point: the
            # prompt's logits exist once the last GPU compute task ends, so
            # only the compute-side residual precedes TTFT; the construction
            # tail beyond it (offload/encode/refine that compute could not
            # hide) gates the first *retrieval* and is charged after the
            # first token is stamped (the paper's TT2T argument — this is
            # also what makes a prefix-cache hit's TTFT reflect the skipped
            # prefix compute rather than the full-prompt refine, which both
            # hit and cold paths still pay before their first decode step).
            gpu_ready = max(
                timeline.resource_makespan("gpu"), state.chunk_seconds
            )
            compute_residual = gpu_ready - state.chunk_seconds
            if compute_residual > 0.0:
                self.metrics.clock += compute_residual
                state.metrics.prefill_seconds += compute_residual
            state.construction_tail = max(timeline.makespan - gpu_ready, 0.0)
            state.prefill_state = None
            self._complete_prefill(state, prefill, new_tokens)

    def _complete_prefill(
        self,
        state: RequestState,
        prefill: PrefillResult,
        new_tokens: dict[str, list[int]],
    ) -> None:
        """Shared tail of a computed and an imported prefill: policy state,
        clock, first token."""
        request = state.request
        state.prefill = prefill
        state.status = RequestStatus.RUNNING

        if state.policy is not None:
            # finish_prefill refines incrementally-built state (PQCache's
            # chunk hooks) and defers to on_prefill for everything else.  An
            # imported prefill's state is built from the arrays it arrived
            # with, not gathered back out of the pool.
            state.policy.finish_prefill(
                self.model.config, request.prefill or prefill
            )

        if request.prefill is None:
            # Cache the prompt's full blocks plus the reusable artifacts:
            # the accumulated-score snapshot at its capture boundary and the
            # policy's pre-refine PQ state (both shared by reference).
            acc_scores = prefill.acc_snapshots.get(state.acc_capture)
            policy = state.policy
            self.prefix_cache.insert(
                request.prompt_ids,
                state.paged.table.block_ids,
                acc_boundary=state.acc_capture if acc_scores is not None else 0,
                acc_scores=acc_scores,
                pq_fingerprint=policy.prefix_fingerprint() if policy else None,
                pq_snapshot=policy.prefix_snapshot() if policy else None,
            )

        if not state.chunk_lens:
            # An imported prefill is charged the overlapped makespan of the
            # monolithic prefill it stands for, once.
            seconds = self.latency.prefill_timeline(
                prefill.seq_len, state.method
            ).makespan
            self.metrics.clock += seconds
            state.metrics.prefill_seconds = seconds
            state.metrics.prefill_chunks = 1
        self.metrics.prefills += 1

        # The first token exists as soon as prefilling ends — for sampled
        # requests it is emitted right away; for teacher-forced requests it
        # is the externally-supplied token that the first decode round will
        # process, so TTFT is the same point on the clock (this used to be
        # skipped, reporting TTFT as 0 for every eval-harness run).  A
        # recompute-preempted request keeps its original TTFT: the client
        # received that token before the preemption.
        if state.metrics.first_token_time is None:
            state.metrics.first_token_time = self.metrics.clock

        if state.construction_tail > 0.0:
            # The non-hidable construction tail (chiefly the full-prompt PQ
            # refinement) completes after the first token exists but before
            # the first retrieval, so it lands on the clock *after* TTFT was
            # stamped and before any decode round — and before a stop-token
            # finish stamps finish_time, keeping e2e >= prefill_seconds.
            self.metrics.clock += state.construction_tail
            state.metrics.prefill_seconds += state.construction_tail
            state.construction_tail = 0.0

        if state.forced is None:
            first = state.pick_token(prefill.logits)
            if state.generated:
                # Recompute-resume replay: the first token was emitted before
                # the preemption; determinism requires the re-prefill to
                # reproduce it bit for bit.
                if first != state.generated[0]:
                    raise ConfigurationError(
                        "recompute replay diverged on the first token: "
                        f"{first} != {state.generated[0]}"
                    )
                return
            state.generated.append(first)
            state.metrics.num_generated_tokens += 1
            self.metrics.generated_tokens += 1
            new_tokens.setdefault(request.request_id, []).append(first)
            if state.is_stop(first):
                # The stop token is emitted but never decoded.
                self._finish(state, "stop")

    # ------------------------------------------------------------- decode

    def _decode_phase(
        self,
        decoding: "list[RequestState]",
        new_tokens: dict[str, list[int]],
        touch: Callable[[RequestState], None],
    ) -> None:
        """One step's decoding, in one walk over ``decoding``.

        A member whose one-token append fits the blocks the free list still
        holds for the pending members joins the pending round.  A member that
        does not first flushes the pending members as one round, then
        reserves through :meth:`PoolPressure.ensure_blocks` — which may
        evict, or park any member, including one that just decoded — and,
        unless it was parked itself, starts the next pending round.  So every
        ladder run sees the state it would after consecutive rounds of one,
        and a skipped reservation is one that would have returned at once:
        the free list covers it, and ``append_blocks_needed`` only shrinks
        as earlier members' copy-on-write copies drop shared refcounts.
        """
        cpu_lane.pump()
        allocator = self.block_allocator
        pending: list[RequestState] = []
        reserved = 0

        def flush() -> None:
            if pending:
                self._run_decode_batch(pending, new_tokens)
                self.metrics.observe_decode_batch(len(pending))
                pending.clear()

        for state in decoding:
            # Eligibility is re-checked per member: an earlier member's
            # reservation may have parked this one.
            if state.finished or state.status is not RequestStatus.RUNNING:
                continue
            touch(state)
            if allocator.capacity_blocks is not None and not state.paged.released:
                needed = self.pressure.append_blocks_needed(state, 1)
                if reserved + needed > allocator.num_available:
                    flush()
                    reserved = 0
                    needed = self.pressure.append_blocks_needed(state, 1)
                    if not self.pressure.ensure_blocks(state, needed):
                        self.pressure.preempt_victim(state)
                        continue
                reserved += needed
            pending.append(state)
        flush()

    def _run_decode_batch(
        self, states: "list[RequestState]", new_tokens: dict[str, list[int]]
    ) -> None:
        """The decode round: one model step over ``states``, then billing.

        The model computes the round layer-major across requests
        (per-request state is isolated, so a member's arithmetic does not
        depend on its batch-mates), policy hooks run through their grouped
        batch kernels, and the billing phase below — counters, attended
        means, GPU-cache hit rate, communication bytes, simulated TPOT,
        maintenance billing, forced/replay/stop handling — walks the members
        in decode order, so every clock addition lands where running the
        members as consecutive rounds of one would put it.

        :meth:`_decode_phase` guarantees every member's append is covered
        by the free list (no allocation can fail, no member can be preempted
        mid-round).
        """
        batch = DecodeBatch.plan(states, self.model.config.num_kv_heads)
        members = batch.members
        logits_list = self.model.decode_step_batch(
            batch.tokens, batch.caches, batch.build_selector(),
            timings=batch.timings,
        )
        batch.run_policy_updates()

        num_layers = self.model.config.num_layers
        for member, logits in zip(members, logits_list):
            state = member.state
            request = state.request
            policy = member.policy
            cache = member.cache
            self._bill_maintenance(state, policy)
            state.num_decoded += 1
            state.step_logits.append(logits)
            state.selections.append(member.step_selections)
            self.metrics.decode_rounds += 1
            state.metrics.decode_steps += 1
            attended = member.attended
            if not member.needs_selector:
                # Full attention without a policy: every cached token
                # participates.
                attended = [float(cache.seq_len)] * num_layers
            state.metrics.attended_tokens += (
                float(np.mean(attended)) if attended else 0.0
            )

            seq_len = cache.seq_len
            hit_rate = 0.0
            if policy is not None:
                hit_rate = policy.step_cache_hit_rate()
                comm = policy.step_communication_bytes(seq_len)
                state.metrics.comm_overlappable_bytes += comm.get("overlappable", 0.0)
                state.metrics.comm_blocking_bytes += comm.get("blocking", 0.0)
            seconds = self.latency.tpot(seq_len, state.method, cache_hit_rate=hit_rate)
            self.metrics.clock += seconds
            state.metrics.decode_seconds += seconds

            if state.forced is not None:
                if state.num_decoded >= len(state.forced):
                    self._finish(state, "length")
                continue

            next_token = state.pick_token(logits)
            if state.num_decoded >= request.sampling.max_new_tokens:
                self._finish(state, "length")
                continue
            if state.num_decoded < len(state.generated):
                # Recompute-resume replay: this round re-derived a token
                # that was already emitted before the preemption — verify
                # determinism and do not re-emit or re-count it.
                if next_token != state.generated[state.num_decoded]:
                    raise ConfigurationError(
                        f"recompute replay diverged at decode step "
                        f"{state.num_decoded}: {next_token} != "
                        f"{state.generated[state.num_decoded]}"
                    )
                continue
            state.generated.append(next_token)
            state.metrics.num_generated_tokens += 1
            self.metrics.generated_tokens += 1
            new_tokens.setdefault(request.request_id, []).append(next_token)
            if state.is_stop(next_token):
                self._finish(state, "stop")

        timings = batch.timings
        self.metrics.decode_select_seconds += timings.get("select", 0.0)
        self.metrics.decode_score_seconds += timings.get("score", 0.0)
        self.metrics.decode_topk_seconds += timings.get("topk", 0.0)
        self.metrics.decode_assemble_seconds += timings.get("assemble", 0.0)
        self.metrics.decode_gather_seconds += timings.get("gather", 0.0)
        self.metrics.decode_attention_seconds += timings.get("attention", 0.0)
        self.metrics.decode_maintenance_seconds += timings.get("maintenance", 0.0)

    def _bill_maintenance(
        self, state: RequestState, policy: KVCachePolicy | None
    ) -> None:
        """Bill a decode step's deferred index maintenance to the clock.

        Policies report periodic maintenance (PQCache's ``refresh_every``
        codebook refresh) through
        :meth:`~repro.baselines.base.KVCachePolicy.consume_maintenance`; the
        engine charges it as a clustering timeline task — the same
        analytical cost model the prefill-time PQ build uses, once per layer
        — so the refresh knob has an honest simulated-latency price.  Runs
        immediately after the policy's post-append hook and before the
        step's TPOT charge.
        """
        if policy is None:
            return
        pending = policy.consume_maintenance()
        if pending is None:
            return
        seconds = self.model.config.num_layers * self.latency.layer_clustering_seconds(
            int(pending["tokens"]), iterations=pending["iterations"]
        )
        self.metrics.clock += seconds
        state.metrics.decode_seconds += seconds
        self.metrics.pq_refreshes += 1
        self.metrics.pq_refresh_seconds += seconds

    # ------------------------------------------------------------- finish

    def _finish(self, state: RequestState, reason: str) -> None:
        state.status = RequestStatus.FINISHED
        state.finish_reason = reason
        state.metrics.finish_time = self.metrics.clock
        if state.policy is not None:
            state.policy.release_prefix()

    def _make_output(self, state: RequestState, fresh: list[int]) -> RequestOutput:
        final = state.finished
        return RequestOutput(
            request_id=state.request.request_id,
            new_token_ids=list(fresh),
            token_ids=list(state.generated),
            finished=final,
            finish_reason=state.finish_reason,
            metrics=state.metrics,
            logits=state.stacked_logits(self.model.config.vocab_size) if final else None,
            selections=list(state.selections) if final else None,
            prefill=state.prefill if final else None,
        )
