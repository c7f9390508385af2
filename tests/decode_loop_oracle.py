"""Oracle for the decode round: the per-request loop it replaced.

* :func:`decode_step` — ``TransformerLM.decode_step``'s own layer loop, as it
  was before it became the :meth:`~repro.llm.TransformerLM.decode_step_batch`
  round of one.
* :class:`LoopedDecodeEngine` / :class:`LoopedDecodeWorker` — an
  :class:`~repro.serve.InferenceEngine` (a cluster
  :class:`~repro.serve.cluster.Worker`) whose every decode goes through
  :meth:`LoopedDecodeRounds._run_decode_round`, the engine's former
  per-request round with its own selector closure and billing tail,
  arithmetic and order of clock additions as they were — what
  ``decode_batching=False`` used to select.  It calls neither
  ``_can_fuse_decodes`` nor ``_run_decode_batch``, so the ``decode_batch_*``
  shape counters and the ``decode_*_seconds`` stage timers stay zero.

The production round must yield the same tokens, logits, selections,
per-request metrics, simulated clock and counters.
"""

import numpy as np

from repro.errors import ConfigurationError
from repro.llm.model import _decode_rows
from repro.llm.rope import rope_frequencies
from repro.serve import InferenceEngine, RequestStatus
from repro.serve.cluster import Worker


def decode_step(model, token_id, cache, selector=None):
    """One generated token through ``model``, one request, layer by layer."""
    cfg = model.config
    rope = rope_frequencies(cfg.head_dim, [cache.seq_len], model.rope_base)
    hidden = model.embedding[int(token_id)][None, :]  # (1, d)

    for layer_index, layer in enumerate(model.layers):
        ((q, k, v),) = model._decode_project_qkv(layer, hidden, rope)
        layer_cache = cache[layer_index]
        layer_cache.append(k[:, 0, :], v[:, 0, :])
        query = q[:, 0, :]  # (h, d_h)

        selected = None
        if selector is not None:
            selected = selector(layer_index, query, cache)

        (attn_out,) = model._decode_attention(
            [query], [layer_cache.keys], [layer_cache.values], [selected]
        )

        hidden = hidden + _decode_rows(
            layer.o_proj, attn_out.reshape(1, cfg.hidden_dim)
        )
        hidden = hidden + _decode_rows(layer.ffn, layer.ffn_norm(hidden))

    final = model.final_norm(hidden[0])
    return model.lm_head @ final


def gpu_cache_hit_rate(policy):
    """GPU block-cache hit rate of the current decode step, read off the
    policy's manager the way the engine did before policies reported it
    themselves (``KVCachePolicy.step_cache_hit_rate``)."""
    manager = getattr(policy, "manager", None)
    gpu_cache = getattr(manager, "gpu_cache", None)
    if gpu_cache is None or not gpu_cache.stats.lookups:
        return 0.0
    return float(gpu_cache.stats.step_hit_rate)


class LoopedDecodeRounds:
    """Mixed in ahead of an engine class: its decode phase, request by request."""

    def _decode_phase(self, decoding, new_tokens, touch):
        # Eligibility is re-checked per iteration: an earlier round's
        # reservation may preempt (park) a later member of this batch.
        for state in decoding:
            if not state.finished and state.status is RequestStatus.RUNNING:
                touch(state)
                self._run_decode_round(state, new_tokens)

    def _run_decode_round(self, state, new_tokens):
        assert state.prefill is not None
        request = state.request
        policy = state.policy
        cache = state.prefill.kvcache
        if state.paged is not None and not state.paged.released:
            # One appended token may need a fresh tail block and/or a COW
            # copy of a shared tail block; reserve before the model writes.
            # If an older request owns the pool, park and resume later.
            pressure = self.pressure
            if not pressure.ensure_blocks(
                state, pressure.append_blocks_needed(state, 1)
            ):
                pressure.preempt_victim(state)
                return
        token = state.next_input_token()

        step_selections = []
        attended = []
        num_kv_heads = self.model.config.num_kv_heads
        hook = request.selection_hook

        selector = None
        if policy is not None or hook is not None:

            def selector(layer_index, query, kvcache):
                chosen = (
                    policy.select(layer_index, query, kvcache)
                    if policy is not None
                    else None
                )
                if chosen is None:
                    normalised = None
                    attended.append(float(len(kvcache[layer_index])))
                elif isinstance(chosen, (list, tuple)):
                    normalised = [np.asarray(c, dtype=np.int64) for c in chosen]
                    attended.append(float(np.mean([c.size for c in normalised])))
                else:
                    arr = np.asarray(chosen, dtype=np.int64)
                    normalised = [arr] * num_kv_heads
                    attended.append(float(arr.size))
                if hook is not None:
                    hook(layer_index, query, kvcache, normalised)
                step_selections.append(normalised)
                return chosen

        logits = decode_step(self.model, token, cache, selector)
        if policy is not None:
            policy.on_decode_step(cache)
        self._bill_maintenance(state, policy)
        state.num_decoded += 1
        state.step_logits.append(logits)
        state.selections.append(step_selections)
        self.metrics.decode_rounds += 1
        state.metrics.decode_steps += 1
        if selector is None:
            # Full attention without a policy: every cached token participates.
            attended = [float(cache.seq_len)] * self.model.config.num_layers
        state.metrics.attended_tokens += float(np.mean(attended)) if attended else 0.0

        seq_len = cache.seq_len
        hit_rate = gpu_cache_hit_rate(policy)
        if policy is not None:
            comm = policy.step_communication_bytes(seq_len)
            state.metrics.comm_overlappable_bytes += comm.get("overlappable", 0.0)
            state.metrics.comm_blocking_bytes += comm.get("blocking", 0.0)
        seconds = self.latency.tpot(seq_len, state.method, cache_hit_rate=hit_rate)
        self.metrics.clock += seconds
        state.metrics.decode_seconds += seconds

        if state.forced is not None:
            if state.num_decoded >= len(state.forced):
                self._finish(state, "length")
            return

        next_token = state.pick_token(logits)
        if state.num_decoded >= request.sampling.max_new_tokens:
            self._finish(state, "length")
            return
        if state.num_decoded < len(state.generated):
            # Recompute-resume replay: this round re-derived a token that was
            # already emitted before the preemption — verify determinism and
            # do not re-emit or re-count it.
            if next_token != state.generated[state.num_decoded]:
                raise ConfigurationError(
                    f"recompute replay diverged at decode step "
                    f"{state.num_decoded}: {next_token} != "
                    f"{state.generated[state.num_decoded]}"
                )
            return
        state.generated.append(next_token)
        state.metrics.num_generated_tokens += 1
        self.metrics.generated_tokens += 1
        new_tokens.setdefault(request.request_id, []).append(next_token)
        if state.is_stop(next_token):
            self._finish(state, "stop")


class LoopedDecodeEngine(LoopedDecodeRounds, InferenceEngine):
    pass


class LoopedDecodeWorker(LoopedDecodeRounds, Worker):
    pass
