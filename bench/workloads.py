"""The four named workloads: sizes, traffic, and what each must exercise.

Two closed loops on the wall clock (``prefill_long``, ``decode_long``) and
two open loops on the simulated clock (``chat_pressure``, ``cluster_burst``).
Every constant that fixes an operating point is frozen here: sizes, the SLO
limits, and for the open loops the whole arrival schedule (rate at the knee,
who speaks when, where the bursts fall).  ``--seed`` draws what the requests
*contain* — token ids, key/value tensors — and a small length jitter.  Tail
latency near the knee swings by tens of percent with the arrival interleaving
alone; a schedule redrawn per seed would force regression bounds that wide.

``prepare(seed, smoke)`` does everything that precedes the first ``submit``
(weights, synthesized KV, traces, prompts) and is what ``setup_s`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import adapters
from .driver import Arrival

__all__ = ["WORKLOADS", "Prepared", "Workload"]


@dataclass
class Prepared:
    """One pass's worth of fresh state (engines and KV are consumed by it)."""

    target: adapters.EngineTarget
    arrivals: "list[Arrival]"
    source: object
    model: object
    #: prefill chunk size the reference engine must share (see adapters)
    chunk: "int | None"
    #: ids of the requests the correctness pass replays alone
    sample: "list[str]"
    #: tokens each replayed request generates at most (a prefix check)
    replay_tokens: int
    #: recall probe cadence in selector calls
    recall_every: int = 1
    #: context length the paper-shape report evaluates the latency model at
    report_seq_len: int = 0
    #: seeds of the synthesized prefills, by request id (``decode_long``)
    kv_seeds: dict = field(default_factory=dict)


class FixedSource:
    """Requests that do not depend on earlier answers."""

    def __init__(self, requests: dict) -> None:
        self.requests = requests

    def request_for(self, arrival: Arrival):
        return self.requests[arrival.key]

    def finished(self, arrival: Arrival, token_ids) -> None:
        pass


class Workload:
    name = ""
    why = ""
    loop = ""
    #: SLO limits in simulated seconds: time to first token, mean token gap
    ttft_limit = 0.0
    gap_limit = 0.0
    #: whether the engine prefills the prompts (they then count as work done)
    prefills_prompts = True
    #: which of the paper's Fig 12 decompositions the report sets beside the
    #: measured one: ``"prefill"`` (12a), ``"decode"`` (12b) or neither
    paper_phase = None

    def prepare(self, seed: int, smoke: bool) -> Prepared:
        raise NotImplementedError

    def describe(self, smoke: bool) -> dict:
        raise NotImplementedError

    def exercised(self, counters: dict, run) -> "dict[str, bool]":
        """The mechanisms this workload exists to reach, checked every run."""
        raise NotImplementedError

    def replay_prefill(self, prepared: Prepared, key: str):
        """Precomputed prefill a replayed request must carry, if any."""
        return None


# ------------------------------------------------------------ prefill_long


class PrefillLong(Workload):
    name = "prefill_long"
    loop = "closed"
    why = ("one client, unshared 2k-4k-token prompts, 64-128 new tokens: the "
           "write side of KV and the PQ index; decode, prefix cache, pressure "
           "and cluster idle")
    #: every request runs alone, so any finite limit is met; kept for the
    #: shared SLO arithmetic
    ttft_limit = 1.0
    gap_limit = 1.0

    paper_phase = "prefill"

    #: (prompt tokens, new tokens) per request.  Both medians are meant to
    #: survive one stall of the host.  The long prompt goes first and takes
    #: the process's cold start with it, so the median time to first token
    #: lies among three like, warm requests.  A token gap grows with the
    #: context, and the long prompt's gaps are the slow seventh of the pool,
    #: so the pooled p95 lies among its steady gaps, not on a tail.
    REQUESTS = ((4096, 64), (2048, 128), (2048, 128), (2048, 128))
    CHUNK = 512
    SMOKE_REQUESTS = ((224, 6), (160, 12))
    SMOKE_CHUNK = 32
    #: tokens of the replayed request the correctness pass compares
    REPLAY_TOKENS = 64

    def describe(self, smoke: bool) -> dict:
        requests = self.SMOKE_REQUESTS if smoke else self.REQUESTS
        return {"loop": self.loop, "clients": 1,
                "prompt_tokens": [length for length, _ in requests],
                "new_tokens": [new for _, new in requests],
                "chunk": self.SMOKE_CHUNK if smoke else self.CHUNK}

    def prepare(self, seed: int, smoke: bool) -> Prepared:
        sizes = self.SMOKE_REQUESTS if smoke else self.REQUESTS
        chunk = self.SMOKE_CHUNK if smoke else self.CHUNK
        rng = np.random.default_rng([seed, 10])
        model = adapters.build_model(layers=2, hidden=256, heads=8, kv_heads=4,
                                     name="prefill-long")
        policy = adapters.pqcache_policy(token_ratio=0.2, kmeans_iters=8,
                                         gpu_cache_tokens=4096)
        engine = adapters.build_engine(model, max_batch=1, chunk=chunk)
        requests, arrivals = {}, []
        previous = None
        for index, (base, new_tokens) in enumerate(sizes):
            # up to 0.8 % shorter, so simulated times differ between seeds while
            # every seed prefills the same number of chunks
            length = base - int(rng.integers(0, base // 128 + 1))
            prompt = rng.integers(4, 512, size=length).tolist()
            key = f"prefill-{index}"
            requests[key] = adapters.build_request(key, prompt, new_tokens, policy)
            arrivals.append(Arrival(key, after=previous, tenant="prefill"))
            previous = key
        sample = [arrivals[1].key] if not smoke else [a.key for a in arrivals]
        return Prepared(adapters.EngineTarget(engine), arrivals, FixedSource(requests),
                        model, chunk, sample, self.REPLAY_TOKENS,
                        report_seq_len=max(length for length, _ in sizes))

    def exercised(self, counters: dict, run) -> "dict[str, bool]":
        chunks = [record.engine_metrics.prefill_chunks for record in run.served.values()]
        return {"chunks_per_request>=4": min(chunks) >= 4}


# ------------------------------------------------------------- decode_long


class DecodeLong(Workload):
    name = "decode_long"
    loop = "closed"
    why = ("concurrent clients decoding over synthesized 16k-token KV: the read "
           "side of the PQ index (ADC score, top-k, gather) in fused rounds; "
           "no real prefill, sharing or pressure")
    ttft_limit = 60.0
    gap_limit = 1.0
    prefills_prompts = False  # the prefill is precomputed
    paper_phase = "decode"

    CLIENTS = 4
    SEQ_LEN = 16384
    NEW_TOKENS = 160
    SMOKE = (2, 512, 10)

    def _sizes(self, smoke: bool) -> "tuple[int, int, int]":
        return self.SMOKE if smoke else (self.CLIENTS, self.SEQ_LEN, self.NEW_TOKENS)

    def describe(self, smoke: bool) -> dict:
        clients, seq_len, new_tokens = self._sizes(smoke)
        return {"loop": self.loop, "clients": clients, "context_tokens": seq_len,
                "new_tokens": new_tokens}

    def prepare(self, seed: int, smoke: bool) -> Prepared:
        clients, seq_len, new_tokens = self._sizes(smoke)
        rng = np.random.default_rng([seed, 20])
        seq_len -= int(rng.integers(0, seq_len // 128 + 1))
        model = adapters.build_model(layers=2, hidden=512, heads=8, kv_heads=4,
                                     name="decode-long")
        policy = adapters.pqcache_policy(token_ratio=0.05, kmeans_iters=2,
                                         gpu_cache_tokens=4096)
        engine = adapters.build_engine(model, max_batch=clients,
                                       prefills_per_step=clients)
        requests, arrivals, kv_seeds = {}, [], {}
        for index in range(clients):
            key = f"decode-{index}"
            kv_seeds[key] = [seed, 21, index]
            requests[key] = adapters.build_request(
                key, [0] * seq_len, new_tokens, policy,
                prefill=adapters.synth_prefill(model, seq_len, kv_seeds[key]))
            arrivals.append(Arrival(key, tenant="decode"))
        return Prepared(adapters.EngineTarget(engine), arrivals, FixedSource(requests),
                        model, None, [arrivals[0].key],
                        replay_tokens=min(new_tokens, 48),
                        recall_every=1 if smoke else 4, report_seq_len=seq_len,
                        kv_seeds=kv_seeds)

    def replay_prefill(self, prepared: Prepared, key: str):
        # decoding appended to the loaded run's cache: synthesize it afresh
        return adapters.synth_prefill(
            prepared.model, prepared.report_seq_len, prepared.kv_seeds[key])

    def exercised(self, counters: dict, run) -> "dict[str, bool]":
        clients = len(run.served)
        rounds = counters["decode_batch_rounds"]
        return {
            "every_round_fused": counters["decode_batch_requests"] == counters["decode_rounds"],
            "mean_decode_batch==clients": rounds > 0
            and counters["decode_batch_requests"] == clients * rounds,
        }


# ------------------------------------------- chat traffic (both open loops)


@dataclass(frozen=True)
class ChatShape:
    """Everything that sizes one of the open-loop workloads."""

    users: int
    apps: int
    turns: int
    system_tokens: int
    turn_tokens: int
    answer_tokens: int
    bursts: int
    burst_size: int
    background_tokens: int
    background_new: int
    #: chat turns offered per simulated second (frozen at the knee)
    rate: float
    #: KV pool of one engine, in blocks of ``BLOCK`` tokens
    pool_blocks: int
    max_batch: int
    #: relative completion deadline of every chat turn, simulated seconds
    deadline: "float | None" = None
    #: (share, low, high): this share of the turns is urgent instead, with a
    #: deadline drawn from [low, high)
    urgent: "tuple[float, float, float] | None" = None

    @property
    def requests(self) -> int:
        return self.users * self.turns + self.bursts * self.burst_size


BLOCK = 16
CHUNK = 512

#: SLO limits of both open loops, frozen from the seed code.  An unloaded chat
#: turn has a median simulated TTFT of 1.74 ms; the limit is 5x that.  A lone
#: request's token gap is 0.0496 ms, but a fused round of N is billed as N
#: serial steps, so a full batch of 6 runs at 0.30 ms with nothing wrong; the
#: limit is 3x the full-batch gap.
CHAT_TTFT_LIMIT = 0.0087
CHAT_GAP_LIMIT = 0.0009


class ChatSource:
    """Multi-turn chat (prompts embed earlier answers) plus one-shot background."""

    def __init__(self, shape: ChatShape, seed: int, policy) -> None:
        self.shape = shape
        self.policy = policy
        self.conversations = adapters.chat_population(
            users=shape.users, apps=shape.apps, turns=shape.turns,
            system_tokens=shape.system_tokens, turn_tokens=shape.turn_tokens,
            seed=seed)
        self.histories = [c.initial_history() for c in self.conversations]
        self.prompts: dict = {}
        rng = np.random.default_rng([seed, 5])
        self.background = rng.integers(
            4, 512, size=(shape.bursts * shape.burst_size, shape.background_tokens))

    def request_for(self, arrival: Arrival):
        shape = self.shape
        if arrival.tenant == "chat":
            prompt = self.conversations[arrival.user].prompt_for_turn(
                arrival.turn, self.histories[arrival.user])
            self.prompts[arrival.key] = prompt
            return adapters.build_request(
                arrival.key, prompt, shape.answer_tokens, self.policy,
                request_qos=adapters.qos(priority=2, tenant="chat", weight=4.0,
                                         deadline=arrival.deadline))
        return adapters.build_request(
            arrival.key, self.background[arrival.user].tolist(), shape.background_new,
            self.policy, request_qos=adapters.qos(priority=0, tenant="batch", weight=1.0))

    def finished(self, arrival: Arrival, token_ids) -> None:
        if arrival.tenant == "chat":
            conversation = self.conversations[arrival.user]
            self.histories[arrival.user] = conversation.extend_history(
                self.prompts.pop(arrival.key), token_ids)


def _arrivals(events) -> "list[Arrival]":
    """Arrival events as driver arrivals; a chat turn waits for the one before."""
    arrivals = []
    for event in adapters.merge_arrivals(events):
        key = f"{event.tenant}-u{event.user}-t{event.turn}"
        after = (f"chat-u{event.user}-t{event.turn - 1}"
                 if event.tenant == "chat" and event.turn > 0 else None)
        arrivals.append(Arrival(key, event.time, after, event.tenant, event.user,
                                event.turn, event.deadline))
    return arrivals


def _background(shape: ChatShape, horizon: float, schedule_seed: int):
    """Stampedes of one-shot requests; every event is its own user."""
    events = adapters.stampede_arrivals(
        bursts=shape.bursts, burst_size=shape.burst_size, horizon=horizon,
        spread=0.02, seed=schedule_seed, tenant="batch", priority=0)
    return [replace(event, user=event.turn * shape.burst_size + event.user, turn=0)
            for event in events]


def _spread_sample(arrivals: "list[Arrival]", count: int) -> "list[str]":
    """A fixed spread of requests over the trace, both tenants included."""
    picks = np.linspace(0, len(arrivals) - 1, count).round().astype(int)
    return [arrivals[i].key for i in sorted(set(picks.tolist()))]


class ChatWorkload(Workload):
    """What the two open loops share: model, policy, shapes, SLO limits."""

    loop = "open"
    ttft_limit = CHAT_TTFT_LIMIT
    gap_limit = CHAT_GAP_LIMIT
    FULL: ChatShape
    SMOKE: ChatShape
    #: seed of the frozen arrival schedule
    SCHEDULE = 0

    def describe(self, smoke: bool) -> dict:
        shape = self.SMOKE if smoke else self.FULL
        return {"loop": self.loop, "requests": shape.requests, "block_tokens": BLOCK,
                "chunk": CHUNK, **{k: v for k, v in vars(shape).items() if v is not None}}

    def _model_and_policy(self):
        model = adapters.build_model(layers=2, hidden=64, heads=4, kv_heads=2, name="chat")
        policy = adapters.pqcache_policy(token_ratio=0.2, kmeans_iters=8,
                                         gpu_cache_tokens=512)
        return model, policy

    def _prepared(self, target, arrivals, shape: ChatShape, seed: int, model, policy,
                  smoke: bool) -> Prepared:
        return Prepared(target, arrivals, ChatSource(shape, seed, policy), model, CHUNK,
                        _spread_sample(arrivals, 4 if smoke else 8),
                        replay_tokens=shape.background_new)


class ChatPressure(ChatWorkload):
    name = "chat_pressure"
    why = ("multi-turn chat sharing system prompts plus bursty background on one "
           "engine whose pool holds half the working set: scheduler, prefix "
           "cache, pressure ladder, swap tiers and codec under load")

    FULL = ChatShape(users=16, apps=4, turns=4, system_tokens=1024, turn_tokens=64,
                     answer_tokens=16, bursts=6, burst_size=8, background_tokens=256,
                     background_new=24, rate=120.0, pool_blocks=256, max_batch=6)
    SMOKE = ChatShape(users=4, apps=2, turns=3, system_tokens=128, turn_tokens=32,
                      answer_tokens=6, bursts=2, burst_size=3, background_tokens=64,
                      background_new=6, rate=1000.0, pool_blocks=36, max_batch=6)

    def prepare(self, seed: int, smoke: bool) -> Prepared:
        shape = self.SMOKE if smoke else self.FULL
        model, policy = self._model_and_policy()
        engine = adapters.build_engine(
            model, max_batch=shape.max_batch, chunk=CHUNK, prefix_caching=True,
            block_size=BLOCK, pool_blocks=shape.pool_blocks, proactive_swap=0.25)
        chat = adapters.chat_arrivals(
            users=shape.users, turns=shape.turns, rate=shape.rate, seed=self.SCHEDULE,
            tenant="chat", priority=2)
        arrivals = _arrivals(chat + _background(shape, chat[-1].time, self.SCHEDULE))
        return self._prepared(adapters.EngineTarget(engine), arrivals, shape, seed,
                              model, policy, smoke)

    def exercised(self, counters: dict, run) -> "dict[str, bool]":
        return {
            "prefix_hits>0": counters["prefix_cache_hits"] > 0,
            "swap_preemptions>0": counters["preemptions_swap"] > 0,
            "spill_out_bytes>0": counters["spill_out_bytes"] > 0,
            "spill_in_bytes>0": counters["spill_in_bytes"] > 0,
        }


class ClusterBurst(ChatWorkload):
    name = "cluster_burst"
    why = ("flash crowds of deadline-tagged chat turns on a 4-worker cache-aware "
           "fleet with small pools: routing, fingerprint directory, spilled-chain "
           "migration, EDF ordering and deadline shedding")

    FULL = ChatShape(users=24, apps=4, turns=3, system_tokens=1024, turn_tokens=64,
                     answer_tokens=16, bursts=4, burst_size=8, background_tokens=256,
                     background_new=24, rate=600.0, pool_blocks=176, max_batch=4,
                     deadline=0.030, urgent=(0.15, 0.0015, 0.005))
    SMOKE = ChatShape(users=16, apps=6, turns=2, system_tokens=128, turn_tokens=32,
                      answer_tokens=6, bursts=1, burst_size=4, background_tokens=64,
                      background_new=6, rate=8000.0, pool_blocks=24, max_batch=3,
                      deadline=0.006, urgent=(0.3, 0.0002, 0.0008))
    WORKERS = 4
    #: mean lag of a stampede's arrivals, as a share of the gap between stampedes
    SPREAD = 0.1
    SCHEDULE = 1  # another schedule than chat_pressure's

    def prepare(self, seed: int, smoke: bool) -> Prepared:
        shape = self.SMOKE if smoke else self.FULL
        model, policy = self._model_and_policy()
        cluster = adapters.build_cluster(
            model, workers=self.WORKERS, max_batch=shape.max_batch, chunk=CHUNK,
            block_size=BLOCK, pool_blocks=shape.pool_blocks)
        # every user's turn k arrives in stampede k: a flash crowd per turn
        horizon = shape.users * shape.turns / shape.rate
        chat = adapters.stampede_arrivals(
            bursts=shape.turns, burst_size=shape.users, horizon=horizon,
            spread=self.SPREAD, seed=self.SCHEDULE, tenant="chat", priority=2,
            deadline=shape.deadline, urgent=shape.urgent)
        arrivals = _arrivals(chat + _background(shape, horizon, self.SCHEDULE + 100))
        return self._prepared(adapters.ClusterTarget(cluster), arrivals, shape, seed,
                              model, policy, smoke)

    def exercised(self, counters: dict, run) -> "dict[str, bool]":
        return {
            "migrations>0": counters["migrations"] > 0,
            "deadline_sheds>0": counters["deadline_misses"] > 0,
            "prefix_affinity_placements>0": counters["affinity_placements"] > 0,
        }


WORKLOADS: "dict[str, Workload]" = {
    w.name: w for w in (PrefillLong(), DecodeLong(), ChatPressure(), ClusterBurst())
}
