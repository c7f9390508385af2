"""Metric names, units and bounds, and how each is computed from a pass.

The names fixed here are the ones ``BENCHMARK.json`` lists and every later
issue refers to.  Two clock families: ``wall_*`` is what the NumPy substrate
costs on this host, ``sim_*`` is what ``LatencyModel`` says the paper's
testbed would cost (a deterministic function of workload, seed and code).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .driver import Replay
from .trace import Tracer, layer_of

__all__ = [
    "END_TO_END", "PER_LAYER", "Metric", "end_to_end", "per_layer",
    "tokens_sha256", "is_exact", "failed",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: "float | None" = None


#: what a user of the system sees.  Every one is defined on every workload.
#: A bound is the share of the parent's median by which the metric may worsen.
#: Simulated numbers move in the fourth digit between seeds, so their bounds
#: are tight; wall numbers on this 2-core VM spread by 4-19 % over ten runs
#: (the host's speed wanders at every time scale), so theirs are as wide as
#: the contract allows.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_tok_s", "tokens/s", "higher", 0.25),
    Metric("wall_ttft_p50_ms", "ms", "lower", 0.25),
    Metric("wall_tpot_p50_ms", "ms", "lower", 0.25),
    Metric("wall_tpot_p95_ms", "ms", "lower", 0.25),
    Metric("sim_ttft_p50_ms", "ms", "lower", 0.03),
    Metric("sim_ttft_p95_ms", "ms", "lower", 0.03),
    Metric("sim_tpot_p50_ms", "ms", "lower", 0.03),
    Metric("sim_tpot_p99_ms", "ms", "lower", 0.10),
    Metric("sim_slo_met_share", "share", "higher", 0.04),
    Metric("sim_makespan_s", "s", "lower", 0.03),
    Metric("pq_recall", "share", "higher", 0.08),
    Metric("served_share", "share", "higher", 0.02),
)

_LOWER, _HIGHER = "lower", "higher"

#: single layers, from the traced pass.  ``_s`` metrics are span *self* time
#: summed over the pass; counts are exact and repeat for one seed.
PER_LAYER = tuple(Metric(*row) for row in (
    ("harness.wall_s", "s", _LOWER),
    ("harness.host_factor", "ratio", _LOWER),
    ("harness.steps", "count", _LOWER),
    ("harness.step_p50_ms", "ms", _LOWER),
    ("harness.step_p99_ms", "ms", _LOWER),
    ("harness.submit_lag_p95_ms", "ms", _LOWER),
    ("harness.trace_overhead_share", "share", _LOWER),
    ("harness.uncovered_share", "share", _LOWER),
    ("harness.missing_spans", "count", _LOWER),
    ("serve.engine.step_self_s", "s", _LOWER),
    ("serve.engine.submit_s", "s", _LOWER),
    ("serve.engine.mean_decode_batch", "count", _HIGHER),
    ("serve.engine.fused_round_share", "share", _HIGHER),
    ("serve.scheduler.schedule_calls", "count", _LOWER),
    ("serve.scheduler.schedule_s", "s", _LOWER),
    ("serve.scheduler.queue_wait_p50_ms", "ms", _LOWER),
    ("serve.scheduler.queue_wait_p95_ms", "ms", _LOWER),
    ("serve.scheduler.shed_share", "share", _LOWER),
    ("serve.scheduler.deadline_met_share", "share", _HIGHER),
    ("serve.prefix_cache.match_calls", "count", _LOWER),
    ("serve.prefix_cache.match_s", "s", _LOWER),
    ("serve.prefix_cache.insert_s", "s", _LOWER),
    ("serve.prefix_cache.evict_s", "s", _LOWER),
    ("serve.prefix_cache.hit_token_share", "share", _HIGHER),
    ("serve.prefix_cache.restored_blocks", "count", _LOWER),
    ("serve.pressure.preemptions_swap", "count", _LOWER),
    ("serve.pressure.preemptions_recompute", "count", _LOWER),
    ("serve.pressure.proactive_swap_outs", "count", _LOWER),
    ("serve.pressure.recomputed_tokens", "count", _LOWER),
    ("serve.pressure.swap_stall_sim_s", "s", _LOWER),
    ("llm.kvcache.swap_out_s", "s", _LOWER),
    ("llm.kvcache.swap_in_s", "s", _LOWER),
    ("llm.kvcache.swap_out_blocks", "count", _LOWER),
    ("llm.kvcache.swap_in_blocks", "count", _LOWER),
    ("llm.kvcache.pool_used_share_mean", "share", _HIGHER),
    ("llm.kvcache.pool_used_share_peak", "share", _HIGHER),
    ("llm.kvcodec.encode_calls", "count", _LOWER),
    ("llm.kvcodec.encode_s", "s", _LOWER),
    ("llm.kvcodec.decode_s", "s", _LOWER),
    ("llm.kvcodec.wire_ratio", "ratio", _HIGHER),
    ("llm.model.prefill_chunk_s", "s", _LOWER),
    ("llm.model.prefill_tokens", "count", _LOWER),
    ("llm.model.decode_batch_s", "s", _LOWER),
    ("llm.model.decode_looped_s", "s", _LOWER),
    ("llm.model.decode_rows", "count", _LOWER),
    ("llm.model.decode_gather_s", "s", _LOWER),
    ("llm.model.decode_attention_s", "s", _LOWER),
    ("baselines.pqcache_policy.select_s", "s", _LOWER),
    ("baselines.pqcache_policy.maintenance_s", "s", _LOWER),
    ("baselines.pqcache_policy.on_prefill_chunk_s", "s", _LOWER),
    ("baselines.pqcache_policy.finish_prefill_s", "s", _LOWER),
    ("core.pqcache.build_s", "s", _LOWER),
    ("core.pqcache.build_tokens", "count", _LOWER),
    ("core.pqcache.score_s", "s", _LOWER),
    ("core.pqcache.topk_s", "s", _LOWER),
    ("core.pqcache.append_s", "s", _LOWER),
    ("core.pqcache.attach_calls", "count", _HIGHER),
    ("core.kmeans.fit_calls", "count", _LOWER),
    ("core.kmeans.fit_s", "s", _LOWER),
    ("core.kmeans.refine_s", "s", _LOWER),
    ("core.gpu_cache.access_s", "s", _LOWER),
    ("core.gpu_cache.hit_share", "share", _HIGHER),
    ("serve.cluster.place_calls", "count", _LOWER),
    ("serve.cluster.place_s", "s", _LOWER),
    ("serve.cluster.prefix_affinity_share", "share", _HIGHER),
    ("serve.cluster.migrations", "count", _LOWER),
    ("serve.cluster.migrated_wire_bytes", "bytes", _LOWER),
    ("serve.cluster.migration_sim_s", "s", _LOWER),
    ("serve.cluster.load_imbalance", "ratio", _LOWER),
    ("serve.cluster.clock_skew_sim_s", "s", _LOWER),
    ("memory.latency.calls", "count", _LOWER),
    ("memory.latency.wall_s", "s", _LOWER),
    ("memory.latency.sim_prefill_s", "s", _LOWER),
    ("memory.latency.sim_decode_s", "s", _LOWER),
    ("memory.latency.sim_swap_s", "s", _LOWER),
))

#: wall-clock metrics whose names do not say so with a ``wall_`` prefix or an
#: ``_s`` suffix
_WALL_BY_NAME = {
    "setup_s", "harness.host_factor", "harness.step_p50_ms", "harness.step_p99_ms",
    "harness.trace_overhead_share", "harness.uncovered_share",
}


def is_exact(name: str) -> bool:
    """Whether two runs of one commit and seed must agree on it exactly:
    everything but wall-clock time — simulated times, counts, shares."""
    if name in _WALL_BY_NAME or name.startswith("wall_"):
        return False
    simulated = "_sim_" in name or name.startswith(("sim_", "memory.latency.sim_"))
    return simulated or not name.endswith("_s")


#: a request that finished any other way than by producing its tokens; one
#: that never finished has reason ``None``
_FAILED_REASONS = ("shed", "deadline", "aborted", None)


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def tokens_sha256(run: Replay) -> str:
    """Digest over every ``(request_id, token_ids)`` of a pass."""
    digest = hashlib.sha256()
    for key in sorted(run.served):
        digest.update(f"{key}:{run.served[key].tokens};".encode())
    return digest.hexdigest()


def _gaps(stamps: "list[float]") -> np.ndarray:
    return np.diff(np.asarray(stamps)) if len(stamps) > 1 else np.empty(0)


def _served_ok(run: Replay, wrong: "set[str]") -> list:
    return [r for r in run.served.values()
            if r.finish_reason not in _FAILED_REASONS and r.arrival.key not in wrong]


def failed(run: Replay, wrong: "set[str]") -> int:
    """Requests of a pass that were shed, aborted, never finished, or failed
    the token check (``wrong``): the complement of ``served_share``."""
    return len(run.served) - len(_served_ok(run, wrong))


def end_to_end(run: Replay, workload, wrong: "set[str]") -> dict:
    """The end-to-end metrics of one pass (``setup_s`` and ``pq_recall`` are
    measured outside the pass and added by the caller).

    ``wrong`` holds the ids of requests that failed the token check; together
    with shed and aborted requests they count as not served and as SLO misses.
    Wall times are divided by the pass's host factor (see ``hostspeed``).
    """
    served = list(run.served.values())
    ok = _served_ok(run, wrong)
    tokens = sum(
        len(r.tokens) + (r.prompt_tokens if workload.prefills_prompts else 0) for r in ok)
    first = [r for r in served if r.token_sim]
    wall_gaps = np.concatenate([_gaps(r.token_wall) for r in served])
    sim_gaps = np.concatenate([_gaps(r.token_sim) for r in served])
    sim_ttft = [r.token_sim[0] - r.due for r in first]
    met = 0
    for r in ok:
        if not r.token_sim or r.token_sim[0] - r.due > workload.ttft_limit:
            continue
        gaps = _gaps(r.token_sim)
        if gaps.size and gaps.mean() > workload.gap_limit:
            continue
        if r.arrival.deadline is not None and r.finish_sim - r.due > r.arrival.deadline:
            continue
        met += 1
    to_ms = 1e3 / run.host_factor
    return {
        "wall_tok_s": _ratio(tokens, run.wall_seconds) * run.host_factor,
        "wall_ttft_p50_ms": _percentile(
            [r.token_wall[0] - r.submit_wall for r in first], 50) * to_ms,
        "wall_tpot_p50_ms": _percentile(wall_gaps, 50) * to_ms,
        "wall_tpot_p95_ms": _percentile(wall_gaps, 95) * to_ms,
        "sim_ttft_p50_ms": _percentile(sim_ttft, 50) * 1e3,
        "sim_ttft_p95_ms": _percentile(sim_ttft, 95) * 1e3,
        "sim_tpot_p50_ms": _percentile(sim_gaps, 50) * 1e3,
        "sim_tpot_p99_ms": _percentile(sim_gaps, 99) * 1e3,
        "sim_slo_met_share": _ratio(met, len(served)),
        "sim_makespan_s": run.makespan,
        "served_share": _ratio(len(ok), len(served)),
    }


def per_layer(run: Replay, tracer: Tracer, counters: dict, span_cost: float) -> dict:
    """Per-layer metrics of one traced pass.

    A metric whose span did not resolve is omitted, never reported as zero;
    a span that resolved but was never called reports zero.
    """
    totals = tracer.totals()
    missing = set(tracer.missing)

    def self_s(*spans: str) -> "float | None":
        if any(span in missing for span in spans):
            return None
        return sum(totals.get(span, {}).get("self_s", 0.0) for span in spans)

    def calls(span: str) -> "int | None":
        return None if span in missing else totals.get(span, {}).get("calls", 0)

    def summed(key: str, *spans: str) -> "float | None":
        if any(span in missing for span in spans):
            return None
        return sum(tracer.sums.get(f"{span}.{key}", 0.0) for span in spans)

    served = list(run.served.values())
    finished = [r.engine_metrics for r in served if r.engine_metrics is not None]
    queue_wait = [m.prefill_start - r.due for r in served
                  if (m := r.engine_metrics) is not None and m.prefill_start is not None]
    deadlines = [r for r in served if r.arrival.deadline is not None]
    deadline_met = [r for r in deadlines
                    if r.finish_reason not in _FAILED_REASONS
                    and r.finish_sim - r.due <= r.arrival.deadline]
    latency_spans = [name for name in totals if layer_of(name) == "memory.latency"]
    latency_missing = "memory.latency" in missing
    overhead = len(tracer) * span_cost
    hits = summed("hit_tokens", "core.gpu_cache.access")
    misses = summed("miss_tokens", "core.gpu_cache.access")
    logical = summed("logical_bytes", "llm.kvcodec.encode")
    wire = summed("wire_bytes", "llm.kvcodec.encode")
    c = counters
    values = {
        "harness.wall_s": run.wall_seconds,
        "harness.host_factor": run.host_factor,
        "harness.steps": len(run.step_wall),
        "harness.step_p50_ms": _percentile(run.step_wall, 50) * 1e3,
        "harness.step_p99_ms": _percentile(run.step_wall, 99) * 1e3,
        "harness.submit_lag_p95_ms": _percentile(
            [max(r.submit_sim - r.due, 0.0) for r in served], 95) * 1e3,
        "harness.trace_overhead_share": _ratio(overhead, run.wall_seconds - overhead),
        "harness.uncovered_share": 1.0 - _ratio(tracer.root_seconds(), run.wall_seconds),
        "harness.missing_spans": len(missing),
        "serve.engine.step_self_s": self_s("serve.engine.step"),
        "serve.engine.submit_s": self_s("serve.engine.submit"),
        "serve.engine.mean_decode_batch": _ratio(
            c["decode_batch_requests"], c["decode_batch_rounds"]),
        "serve.engine.fused_round_share": _ratio(
            c["decode_batch_requests"], c["decode_rounds"]),
        "serve.scheduler.schedule_calls": calls("serve.scheduler.schedule"),
        "serve.scheduler.schedule_s": self_s("serve.scheduler.schedule"),
        "serve.scheduler.queue_wait_p50_ms": _percentile(queue_wait, 50) * 1e3,
        "serve.scheduler.queue_wait_p95_ms": _percentile(queue_wait, 95) * 1e3,
        "serve.scheduler.shed_share": _ratio(c["requests_shed"], c["requests_submitted"]),
        "serve.scheduler.deadline_met_share": _ratio(len(deadline_met), len(deadlines)),
        "serve.prefix_cache.match_calls": calls("serve.prefix_cache.match"),
        "serve.prefix_cache.match_s": self_s("serve.prefix_cache.match"),
        "serve.prefix_cache.insert_s": self_s(
            "serve.prefix_cache.insert", "serve.prefix_cache.import_chain"),
        "serve.prefix_cache.evict_s": self_s(
            "serve.prefix_cache.evict", "serve.prefix_cache.export_chain"),
        "serve.prefix_cache.hit_token_share": _ratio(
            c["prefix_cache_hit_tokens"], c["prefix_prompt_tokens"]),
        "serve.prefix_cache.restored_blocks": c["restored_blocks"],
        "serve.pressure.preemptions_swap": c["preemptions_swap"],
        "serve.pressure.preemptions_recompute": c["preemptions_recompute"],
        "serve.pressure.proactive_swap_outs": c["proactive_swap_outs"],
        "serve.pressure.recomputed_tokens": sum(m.recomputed_tokens for m in finished),
        "serve.pressure.swap_stall_sim_s": c["swap_seconds"],
        "llm.kvcache.swap_out_s": self_s("llm.kvcache.swap_out"),
        "llm.kvcache.swap_in_s": self_s("llm.kvcache.swap_in"),
        "llm.kvcache.swap_out_blocks": c["swap_out_blocks"],
        "llm.kvcache.swap_in_blocks": c["swap_in_blocks"],
        "llm.kvcache.pool_used_share_mean": float(np.mean(run.pool_used)) if run.pool_used else 0.0,
        "llm.kvcache.pool_used_share_peak": max(run.pool_used, default=0.0),
        "llm.kvcodec.encode_calls": calls("llm.kvcodec.encode"),
        "llm.kvcodec.encode_s": self_s("llm.kvcodec.encode"),
        "llm.kvcodec.decode_s": self_s("llm.kvcodec.decode"),
        "llm.kvcodec.wire_ratio": None if logical is None else _ratio(logical, wire),
        "llm.model.prefill_chunk_s": self_s("llm.model.prefill_chunk"),
        "llm.model.prefill_tokens": summed("tokens", "llm.model.prefill_chunk"),
        "llm.model.decode_batch_s": self_s("llm.model.decode_step_batch"),
        "llm.model.decode_looped_s": self_s("llm.model.decode_step"),
        "llm.model.decode_rows": summed("rows", "llm.model.decode_step_batch"),
        "llm.model.decode_gather_s": c["decode_gather_seconds"],
        "llm.model.decode_attention_s": c["decode_attention_seconds"],
        "baselines.pqcache_policy.select_s": self_s("baselines.pqcache_policy.select_batch"),
        "baselines.pqcache_policy.maintenance_s": self_s(
            "baselines.pqcache_policy.on_decode_step_batch"),
        "baselines.pqcache_policy.on_prefill_chunk_s": self_s(
            "baselines.pqcache_policy.on_prefill_chunk"),
        "baselines.pqcache_policy.finish_prefill_s": self_s(
            "baselines.pqcache_policy.finish_prefill"),
        "core.pqcache.build_s": self_s(
            "core.pqcache.build", "core.pqcache.build_incremental", "core.pqcache.refine"),
        "core.pqcache.build_tokens": summed(
            "tokens", "core.pqcache.build", "core.pqcache.build_incremental",
            "core.pqcache.refine"),
        "core.pqcache.score_s": c["decode_score_seconds"],
        "core.pqcache.topk_s": c["decode_topk_seconds"],
        "core.pqcache.append_s": self_s("core.pqcache.append_tokens_grouped"),
        "core.pqcache.attach_calls": calls("core.pqcache.attach"),
        "core.kmeans.fit_calls": calls("core.kmeans.kmeans_fit"),
        "core.kmeans.fit_s": self_s("core.kmeans.kmeans_fit"),
        "core.kmeans.refine_s": self_s("core.kmeans.kmeans_refine"),
        "core.gpu_cache.access_s": self_s("core.gpu_cache.access"),
        "core.gpu_cache.hit_share": None if hits is None else _ratio(hits, hits + misses),
        "serve.cluster.place_calls": calls("serve.cluster.place"),
        "serve.cluster.place_s": self_s("serve.cluster.place"),
        "serve.cluster.prefix_affinity_share": _ratio(
            c["affinity_placements"], c["placements"]),
        "serve.cluster.migrations": c["migrations"],
        "serve.cluster.migrated_wire_bytes": (
            c["migrated_kv_wire_bytes"] + c["migrated_disk_wire_bytes"]),
        "serve.cluster.migration_sim_s": c["migration_seconds"],
        "serve.cluster.load_imbalance": c["load_imbalance"],
        "serve.cluster.clock_skew_sim_s": c["clock_skew"],
        "memory.latency.calls": None if latency_missing else sum(
            totals[name]["entry_calls"] for name in latency_spans),
        "memory.latency.wall_s": None if latency_missing else sum(
            totals[name]["self_s"] for name in latency_spans),
        "memory.latency.sim_prefill_s": sum(m.prefill_seconds for m in finished),
        "memory.latency.sim_decode_s": sum(m.decode_seconds for m in finished),
        "memory.latency.sim_swap_s": sum(m.swap_seconds for m in finished),
    }
    return {name: float(value) for name, value in values.items() if value is not None}
