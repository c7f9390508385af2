"""Per-request and engine-level serving metrics.

All timestamps live on the engine's *simulated* clock, which is advanced by
the analytical latency model (:class:`repro.memory.LatencyModel`) as requests
are prefilled and decoded: the NumPy substrate cannot measure realistic GPU
wall-clock itself, but the same runs can still be accounted in the paper's
hardware terms (TTFT, TPOT, PCIe bytes).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

from ..errors import ConfigurationError

__all__ = ["RequestMetrics", "EngineMetrics", "QoSClassMetrics", "QuantileDigest"]


class QuantileDigest:
    """Bounded-memory streaming quantile sketch (DDSketch-style log buckets).

    Values map to logarithmically-spaced buckets with growth factor
    ``gamma = (1 + relative_error) / (1 - relative_error)``, so any reported
    quantile lies within ``relative_error`` (relative) of a true sample
    value.  Bucket counts are plain additive integers, which is what makes
    the fleet semantics exact:

    * :meth:`merge` sums counts per bucket — merging two digests equals the
      digest of the concatenated streams (the same guarantee the flat
      engine counters give);
    * :meth:`snapshot` returns a detached copy safe to retain while the
      live digest keeps observing;
    * :meth:`reset` zeroes in place for windowed reporting.

    Memory is bounded by ``max_buckets``: under pressure the lowest two
    buckets collapse (DDSketch's policy), degrading only the extreme low
    tail — never the memory bound and never the upper quantiles that TTFT /
    TPOT SLOs are written against.
    """

    __slots__ = ("relative_error", "max_buckets", "_gamma", "_gamma_log",
                 "_counts", "_zero", "count", "total", "_min", "_max")

    #: values at or below this floor land in the zero bucket
    _FLOOR = 1e-12

    def __init__(self, relative_error: float = 0.01,
                 max_buckets: int = 512) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ConfigurationError("relative_error must be in (0, 1)")
        if max_buckets < 2:
            raise ConfigurationError("max_buckets must be >= 2")
        self.relative_error = relative_error
        self.max_buckets = max_buckets
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._gamma_log = math.log(self._gamma)
        self._counts: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------ observe

    def observe(self, value: "float | None") -> None:
        """Fold one sample in (``None`` is ignored for optional metrics)."""
        if value is None:
            return
        value = float(value)
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value <= self._FLOOR:
            self._zero += 1
            return
        index = math.ceil(math.log(value) / self._gamma_log)
        self._counts[index] = self._counts.get(index, 0) + 1
        if len(self._counts) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest bucket into its neighbour (memory bound)."""
        low, second = sorted(self._counts)[:2]
        self._counts[second] += self._counts.pop(low)

    def __eq__(self, other: object) -> bool:
        """Value equality: same grid, same bucket contents.  Two digests
        fed identical observation streams compare equal — the property
        the engine-metrics identity checks lean on."""
        if not isinstance(other, QuantileDigest):
            return NotImplemented
        return (
            self.relative_error == other.relative_error
            and self.max_buckets == other.max_buckets
            and self._counts == other._counts
            and self._zero == other._zero
            and self.count == other.count
            and self.total == other.total
            and self._min == other._min
            and self._max == other._max
        )

    __hash__ = None  # mutable value type

    # ----------------------------------------------------------- quantiles

    @property
    def mean(self) -> "float | None":
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q: float) -> "float | None":
        """The ``q``-quantile (nearest-rank: ``sorted[round(q*(n-1))]``,
        i.e. ``numpy.percentile(..., method="nearest")``), within the
        digest's relative error.  ``None`` on an empty digest."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = round(q * (self.count - 1))
        cum = self._zero
        if cum > rank:
            return max(min(0.0, self._max), self._min)
        for index in sorted(self._counts):
            cum += self._counts[index]
            if cum > rank:
                estimate = (
                    2.0 * math.exp(index * self._gamma_log)
                    / (1.0 + self._gamma)
                )
                return max(self._min, min(self._max, estimate))
        return self._max  # pragma: no cover — rank < count always lands

    def percentile(self, p: float) -> "float | None":
        """:meth:`quantile` with ``p`` in percent (``p99 = percentile(99)``)."""
        return self.quantile(p / 100.0)

    # ------------------------------------------------ snapshot/merge/reset

    def snapshot(self) -> "QuantileDigest":
        """Detached point-in-time copy."""
        copy = QuantileDigest(self.relative_error, self.max_buckets)
        copy._counts = dict(self._counts)
        copy._zero = self._zero
        copy.count = self.count
        copy.total = self.total
        copy._min = self._min
        copy._max = self._max
        return copy

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Fold ``other`` in bucket-by-bucket (returns ``self``)."""
        if other.relative_error != self.relative_error:
            raise ConfigurationError(
                "cannot merge digests with different relative_error "
                "(their bucket grids disagree)"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._zero += other._zero
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        while len(self._counts) > self.max_buckets:
            self._collapse()
        return self

    def reset(self) -> None:
        """Zero in place (windowed-reporting support)."""
        self._counts.clear()
        self._zero = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


def _report(metrics) -> dict:
    """``as_dict`` of a metrics dataclass: every field outside its
    ``_RAW_ONLY`` (digests and per-key buckets as their own ``as_dict``),
    then every property named in its ``_DERIVED``."""
    out = {}
    for spec in fields(metrics):
        if spec.name in metrics._RAW_ONLY:
            continue
        value = getattr(metrics, spec.name)
        if isinstance(value, QuantileDigest):
            value = value.as_dict()
        elif isinstance(value, dict):
            value = {k: v.as_dict() for k, v in sorted(value.items())}
        out[spec.name] = value
    for name in metrics._DERIVED:
        out[name] = getattr(metrics, name)
    return out


@dataclass
class RequestMetrics:
    """Serving metrics of one request (simulated seconds, modelled bytes).

    Attributes:
        arrival_time: simulated instant the request arrived (``submit``'s
            ``arrival_time``, else the clock at submit).
        prefill_start: clock when prefill began (admission).
        first_token_time: clock when the first token became available.
        finish_time: clock when the request finished.
        prefill_seconds: simulated prefill makespan (the policy's method
            profile decides whether PQ clustering / offload overlap it).
        decode_seconds: simulated decode service time accumulated so far.
        num_prompt_tokens: prompt length.
        num_generated_tokens: tokens emitted (0 in teacher-forcing mode).
        prefill_chunks: prefill chunks executed (1 unchunked or imported).
        decode_steps: decode rounds executed.
        attended_tokens: sum over decode steps of the mean number of cache
            tokens attended per layer/head — divide by ``decode_steps`` for
            the per-step average.
        comm_overlappable_bytes: modelled CPU→GPU traffic that can hide
            behind compute (PQ-code prefetch, block representatives).
        comm_blocking_bytes: modelled traffic on the critical path (top-k
            key/value fetches), accumulated over decode steps.
        cached_prefix_tokens: prompt tokens served from the shared-prefix
            cache (0 when prefix caching is off or the lookup missed);
            these tokens incur no prefill compute or clustering cost.
        preemptions: times this request was preempted under pool pressure.
        swap_out_bytes: modelled bytes this request's KV moved GPU→CPU/disk
            when it was swap-preempted.
        swap_in_bytes: modelled bytes restored on resume.
        swap_seconds: simulated transfer time of this request's own
            swap-out/swap-in events (also folded into the engine clock, so
            it shows up in every later request's queueing delay).
        recomputed_tokens: prompt + generated tokens re-processed because of
            recompute-preemption (0 under swap preemption).
        priority: the request's QoS priority class (0 = default best-effort;
            see :class:`~repro.serve.RequestQoS`).
        tenant: the request's tenant label (``"default"`` when untagged).
        deadline: *absolute* deadline on the engine's simulated clock
            (``arrival_time`` + the QoS-relative deadline), or ``None`` for
            best-effort requests without one.
    """

    arrival_time: float = 0.0
    prefill_start: float | None = None
    first_token_time: float | None = None
    finish_time: float | None = None
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    num_prompt_tokens: int = 0
    num_generated_tokens: int = 0
    prefill_chunks: int = 0
    decode_steps: int = 0
    attended_tokens: float = 0.0
    comm_overlappable_bytes: float = 0.0
    comm_blocking_bytes: float = 0.0
    cached_prefix_tokens: int = 0
    preemptions: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    swap_seconds: float = 0.0
    recomputed_tokens: int = 0
    priority: int = 0
    tenant: str = "default"
    deadline: float | None = None

    # ------------------------------------------------------------- derived

    @property
    def ttft(self) -> float | None:
        """Time-to-first-token: arrival → first token (queueing included)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float | None:
        """Time-per-output-token: mean simulated decode service time."""
        if self.decode_steps == 0:
            return None
        return self.decode_seconds / self.decode_steps

    @property
    def e2e_seconds(self) -> float | None:
        """End-to-end latency: arrival → finish (simulated)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def mean_attended_tokens(self) -> float:
        """Average cache tokens attended per decode step (per layer/head)."""
        if self.decode_steps == 0:
            return 0.0
        return self.attended_tokens / self.decode_steps

    def snapshot(self) -> "RequestMetrics":
        """Point-in-time copy, safe to retain while the request keeps running."""
        return replace(self)

    #: fields :meth:`as_dict` leaves out (it reports the durations and the
    #: per-step mean derived from them) and the properties it adds
    _RAW_ONLY = ("arrival_time", "prefill_start", "first_token_time",
                 "finish_time", "attended_tokens")
    _DERIVED = ("ttft", "tpot", "e2e_seconds", "mean_attended_tokens")

    def as_dict(self) -> dict:
        return _report(self)


@dataclass
class QoSClassMetrics:
    """Aggregate counters of one priority class (or one tenant).

    The engine keeps one instance per priority class in
    ``EngineMetrics.per_class`` and one per tenant in
    ``EngineMetrics.per_tenant``; both follow the same snapshot/merge
    semantics as the flat engine counters (integer counters sum; the
    :attr:`ttft` / :attr:`tpot` :class:`QuantileDigest` streams merge
    bucket-by-bucket, which is equally exact).  Use :attr:`mean_ttft` /
    :attr:`mean_tpot` for the means and ``bucket.ttft.percentile(99)``
    etc. for tail latency — the digests are bounded-memory, so per-class
    p99s are available on long-running engines and across fleet merges
    without retaining per-request samples.
    """

    requests_submitted: int = 0
    requests_finished: int = 0
    requests_aborted: int = 0
    requests_shed: int = 0
    deadline_misses: int = 0
    preemptions: int = 0
    proactive_swap_outs: int = 0
    generated_tokens: int = 0
    ttft: QuantileDigest = field(default_factory=QuantileDigest)
    tpot: QuantileDigest = field(default_factory=QuantileDigest)

    @property
    def mean_ttft(self) -> float | None:
        return self.ttft.mean

    @property
    def mean_tpot(self) -> float | None:
        return self.tpot.mean

    def observe_finish(self, request: "RequestMetrics") -> None:
        """Fold one finished request's latency stats into this bucket."""
        self.ttft.observe(request.ttft)
        self.tpot.observe(request.tpot)
        self.generated_tokens += request.num_generated_tokens

    def snapshot(self) -> "QoSClassMetrics":
        copy = replace(self)
        copy.ttft = self.ttft.snapshot()
        copy.tpot = self.tpot.snapshot()
        return copy

    def merge(self, other: "QoSClassMetrics") -> "QoSClassMetrics":
        """Fold ``other`` in (counters sum, digests merge — returns ``self``)."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            if isinstance(mine, QuantileDigest):
                mine.merge(getattr(other, spec.name))
            else:
                setattr(self, spec.name, mine + getattr(other, spec.name))
        return self

    _RAW_ONLY = ()
    _DERIVED = ("mean_ttft", "mean_tpot")

    def as_dict(self) -> dict:
        return _report(self)


@dataclass
class EngineMetrics:
    """Aggregate counters of one :class:`~repro.serve.InferenceEngine`.

    The ``prefix_cache_*`` counters cover the shared-prefix cache (all zero
    without a ``PoolConfig``) at the *reuse* level: lookups
    performed, lookups whose match was actually attached, prompt tokens
    actually served from cached blocks, and total prompt tokens that went
    through the lookup path.  The cache's own
    :class:`~repro.serve.PrefixCacheStats` counts raw index matches, which
    can exceed these when a policy's constraints cap the reuse.

    Counters are *snapshotable and mergeable* so a fleet of engines can be
    aggregated: :meth:`snapshot` returns a frozen point-in-time copy,
    :meth:`merge` folds another instance in (counters sum; ``clock`` takes
    the max, because parallel engines' clocks overlap in wall time — the
    fleet makespan is the slowest worker, not the sum), and :meth:`reset`
    zeroes the instance in place for windowed reporting.

    ``steps``, ``decode_rounds`` and the ``decode_batch_*`` shape counters
    ---------------------------------------------------------------------
    ``steps`` counts :meth:`~repro.serve.InferenceEngine.step` calls — one
    per scheduler tick regardless of how many requests it served.
    ``decode_rounds`` counts *per-request* decode rounds: a round over N
    requests increments it N times, so dashboards and rate formulas built on
    it do not depend on how a step's decodes were grouped.  The shape
    counters describe how they were: ``decode_batch_rounds`` (rounds
    executed), ``decode_batch_requests`` (members across them, equal to
    ``decode_rounds``; their ratio is the mean batch size) and the
    ``decode_batch_size_*`` histogram buckets.  A step runs one round unless
    a member needs the pool-pressure ladder, which flushes the members
    gathered before it as a round of their own.

    The ``decode_*_seconds`` stage counters are *host wall-clock* seconds
    (``time.perf_counter``), not simulated latency-model seconds, summed over
    every round: they break
    one decode round into ADC scoring, top-k selection, K/V gather,
    attention + dense compute, and policy maintenance (PQ appends /
    codebook refreshes), so regressions in a specific decode stage are
    visible without profiling.  ``decode_select_seconds`` is the total time
    inside policy selection hooks and is a superset of the score and top-k
    stages (policies that cannot split their selection report only the
    total).
    """

    clock: float = 0.0
    steps: int = 0
    requests_submitted: int = 0
    requests_finished: int = 0
    requests_aborted: int = 0
    prefills: int = 0
    prefill_chunks: int = 0
    decode_rounds: int = 0
    generated_tokens: int = 0
    prefix_cache_queries: int = 0
    prefix_cache_hits: int = 0
    prefix_cache_hit_tokens: int = 0
    prefix_prompt_tokens: int = 0
    #: preemption / tiered-KV counters (all zero without a bounded pool):
    #: requests preempted per mode, blocks and modelled bytes moved between
    #: the GPU pool and the CPU/disk swap tiers, prefix chains spilled to or
    #: restored from the disk tier, and the simulated seconds the clock
    #: charged for all of that traffic.
    preemptions: int = 0
    preemptions_swap: int = 0
    preemptions_recompute: int = 0
    #: QoS accounting (all zero/empty without tagged traffic): requests
    #: shed before admission, all of them for a missed or
    #: provably-unmeetable deadline (``finish_reason="deadline"``, so
    #: ``deadline_misses`` equals ``requests_shed``), proactive swap-outs
    #: of idle low-priority work, and per-priority-class / per-tenant
    #: counter buckets (see :class:`QoSClassMetrics`; dict values merge per
    #: key, counters sum).
    requests_shed: int = 0
    deadline_misses: int = 0
    proactive_swap_outs: int = 0
    per_class: dict = field(default_factory=dict)
    per_tenant: dict = field(default_factory=dict)
    swap_out_blocks: int = 0
    swap_in_blocks: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    spill_out_bytes: float = 0.0
    spill_in_bytes: float = 0.0
    swap_seconds: float = 0.0
    #: decode-round observability: rounds / members / batch-size histogram
    #: and host wall-clock stage breakdown of every round, and PQ
    #: drift-refresh accounting
    #: (``pq_refresh_seconds`` is *simulated* clustering time billed to the
    #: clock, unlike the ``decode_*_seconds`` wall-clock stages).
    decode_batch_rounds: int = 0
    decode_batch_requests: int = 0
    decode_batch_size_1: int = 0
    decode_batch_size_2_4: int = 0
    decode_batch_size_5_8: int = 0
    decode_batch_size_9_16: int = 0
    decode_batch_size_17_plus: int = 0
    decode_select_seconds: float = 0.0
    decode_score_seconds: float = 0.0
    decode_topk_seconds: float = 0.0
    decode_assemble_seconds: float = 0.0
    decode_gather_seconds: float = 0.0
    decode_attention_seconds: float = 0.0
    decode_maintenance_seconds: float = 0.0
    pq_refreshes: int = 0
    pq_refresh_seconds: float = 0.0
    #: host wall-clock stage breakdown of every model prefill chunk
    #: (``TransformerLM.prefill_chunk(timings=...)``): norm + Q/K/V/O
    #: projections + RoPE + cache append, tiled causal attention, the
    #: per-key score folds the dropping baselines read, and the FFN.
    prefill_projection_seconds: float = 0.0
    prefill_attention_seconds: float = 0.0
    prefill_aggregates_seconds: float = 0.0
    prefill_ffn_seconds: float = 0.0

    def observe_decode_batch(self, batch_size: int) -> None:
        """Record one decode round of ``batch_size`` members."""
        if batch_size <= 0:
            return
        self.decode_batch_rounds += 1
        self.decode_batch_requests += batch_size
        if batch_size == 1:
            self.decode_batch_size_1 += 1
        elif batch_size <= 4:
            self.decode_batch_size_2_4 += 1
        elif batch_size <= 8:
            self.decode_batch_size_5_8 += 1
        elif batch_size <= 16:
            self.decode_batch_size_9_16 += 1
        else:
            self.decode_batch_size_17_plus += 1

    # ------------------------------------------------------- QoS buckets

    def count(self, kind: str, priority: int, tenant: str) -> None:
        """Bump request-event counter ``kind`` — flat, per-class and
        per-tenant together, so each flat value stays the sum over either
        dict."""
        for ledger in (self, self.class_bucket(priority), self.tenant_bucket(tenant)):
            vars(ledger)[kind] += 1

    def class_bucket(self, priority: int) -> QoSClassMetrics:
        """The (auto-created) per-priority-class counter bucket."""
        bucket = self.per_class.get(priority)
        if bucket is None:
            bucket = self.per_class[priority] = QoSClassMetrics()
        return bucket

    def tenant_bucket(self, tenant: str) -> QoSClassMetrics:
        """The (auto-created) per-tenant counter bucket."""
        bucket = self.per_tenant.get(tenant)
        if bucket is None:
            bucket = self.per_tenant[tenant] = QoSClassMetrics()
        return bucket

    # -------------------------------------------------- snapshot / merge

    def snapshot(self) -> "EngineMetrics":
        """Point-in-time copy (the live instance keeps accumulating).

        The per-class/per-tenant buckets are copied bucket-by-bucket so the
        snapshot stays frozen while the live instance keeps counting.
        """
        copy = replace(self)
        copy.per_class = {k: v.snapshot() for k, v in self.per_class.items()}
        copy.per_tenant = {k: v.snapshot() for k, v in self.per_tenant.items()}
        return copy

    def merge(self, other: "EngineMetrics") -> "EngineMetrics":
        """Fold ``other``'s counters into this instance (returns ``self``).

        Every counter is summed; ``clock`` takes the maximum, since two
        engines running in parallel overlap in wall time — a fleet's
        aggregated clock is its slowest worker's.  The per-class/per-tenant
        dicts merge per key (each bucket's counters sum).  Merge snapshots
        (or deltas of snapshots) when aggregating live engines so a counter
        is never folded in twice.
        """
        for spec in fields(self):
            if spec.name == "clock":
                self.clock = max(self.clock, other.clock)
            elif spec.name in ("per_class", "per_tenant"):
                ours = getattr(self, spec.name)
                for key, bucket in getattr(other, spec.name).items():
                    if key in ours:
                        ours[key].merge(bucket)
                    else:
                        ours[key] = bucket.snapshot()
            else:
                value = getattr(self, spec.name) + getattr(other, spec.name)
                setattr(self, spec.name, value)
        return self

    def reset(self) -> None:
        """Zero every counter in place (windowed-reporting support)."""
        for spec in fields(self):
            if spec.default_factory is not MISSING:  # type: ignore[misc]
                setattr(self, spec.name, spec.default_factory())  # type: ignore[misc]
            else:
                setattr(self, spec.name, spec.default)

    # ------------------------------------------------------------ derived

    @property
    def requests_per_second(self) -> float:
        """Finished requests per simulated second."""
        if self.clock <= 0.0:
            return 0.0
        return self.requests_finished / self.clock

    @property
    def tokens_per_second(self) -> float:
        """Emitted tokens per simulated second."""
        if self.clock <= 0.0:
            return 0.0
        return self.generated_tokens / self.clock

    @property
    def mean_decode_batch_size(self) -> float:
        """Average RUNNING requests served per decode round."""
        if self.decode_batch_rounds == 0:
            return 0.0
        return self.decode_batch_requests / self.decode_batch_rounds

    @property
    def decode_batch_size_histogram(self) -> dict:
        """Decode-round batch sizes bucketed as ``{label: rounds}``."""
        return {
            "1": self.decode_batch_size_1,
            "2-4": self.decode_batch_size_2_4,
            "5-8": self.decode_batch_size_5_8,
            "9-16": self.decode_batch_size_9_16,
            "17+": self.decode_batch_size_17_plus,
        }

    # Read-only aliases of the byte counters under their pre-raw names,
    # kept while ``bench/adapters.py`` still reads them; parking is raw, so
    # the wire bytes are the modelled bytes.
    swap_out_wire_bytes = property(lambda self: self.swap_out_bytes)
    swap_in_wire_bytes = property(lambda self: self.swap_in_bytes)
    spill_out_wire_bytes = property(lambda self: self.spill_out_bytes)
    spill_in_wire_bytes = property(lambda self: self.spill_in_bytes)

    @property
    def prefix_cache_hit_rate(self) -> float:
        """Fraction of prefix-cache lookups that matched at least one block."""
        if self.prefix_cache_queries == 0:
            return 0.0
        return self.prefix_cache_hits / self.prefix_cache_queries

    @property
    def prefix_token_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from cached blocks."""
        if self.prefix_prompt_tokens == 0:
            return 0.0
        return self.prefix_cache_hit_tokens / self.prefix_prompt_tokens

    #: fields :meth:`as_dict` leaves out (a rate's denominator, the histogram
    #: buckets it reports as one dict) and the properties it adds
    _RAW_ONLY = ("prefix_prompt_tokens", "decode_batch_size_1",
                 "decode_batch_size_2_4", "decode_batch_size_5_8",
                 "decode_batch_size_9_16", "decode_batch_size_17_plus")
    _DERIVED = ("requests_per_second", "tokens_per_second",
                "prefix_cache_hit_rate", "prefix_token_hit_rate",
                "mean_decode_batch_size", "decode_batch_size_histogram")

    def as_dict(self) -> dict:
        return _report(self)
