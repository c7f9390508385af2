"""The one replay loop: open- and closed-loop traffic against a target.

An :class:`Arrival` is due at a simulated time and may name a request that
must finish first.  Open-loop traffic is a timed schedule (a chat turn waits
for the previous turn's answer); a closed loop is the special case where
every arrival is due at time 0 and each client's requests form a chain.  The
driver submits an arrival once the target's simulated clock has passed its
due time, fast-forwards the clock over idle gaps, and times every request
from its *due* time, with first-token and inter-token instants read from the
serving engine's clock after the ``step()`` that returned the token.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter

from .hostspeed import HostSpeed

__all__ = ["Arrival", "Replay", "Served", "replay"]


@dataclass(frozen=True)
class Arrival:
    """One request the generator will send.

    Attributes:
        key: request id.
        time: earliest simulated second it may be sent.
        after: id of the request that must finish first, if any.
        tenant: traffic class label (``"chat"``, ``"batch"``, ...).
        user / turn: position in a conversation (0 for one-shot requests).
        deadline: relative completion deadline in simulated seconds.
    """

    key: str
    time: float = 0.0
    after: "str | None" = None
    tenant: str = "default"
    user: int = 0
    turn: int = 0
    deadline: "float | None" = None


@dataclass
class Served:
    """What the driver observed about one request."""

    arrival: Arrival
    prompt_tokens: int
    due: float
    submit_wall: float
    submit_sim: float = 0.0
    token_sim: "list[float]" = field(default_factory=list)
    token_wall: "list[float]" = field(default_factory=list)
    tokens: "list[int]" = field(default_factory=list)
    finish_reason: "str | None" = None
    finish_sim: "float | None" = None
    #: the engine's own ``RequestMetrics`` of the request, once finished
    engine_metrics: object = None


@dataclass
class Replay:
    """Everything one pass over a workload produced."""

    served: "dict[str, Served]"
    #: the ``Request`` objects sent, by id (the correctness pass replays some)
    requests: dict
    step_wall: "list[float]"
    wall_seconds: float
    #: how much slower than its quiet speed the host ran during the pass; the
    #: wall stamps and durations above are raw, ``metrics`` divides by this
    host_factor: float
    makespan: float
    #: pool occupancy sampled after each step (traced passes only)
    pool_used: "list[float]"


def replay(target, arrivals: "list[Arrival]", source, sample_pool: bool = False) -> Replay:
    """Send ``arrivals`` to ``target`` and drain it.

    ``source.request_for(arrival)`` builds the request at send time (a chat
    turn's prompt embeds earlier answers) and ``source.finished(arrival,
    token_ids)`` is told each outcome.
    """
    ready: list = []
    blocked: dict = {}
    for order, arrival in enumerate(arrivals):
        if arrival.after is None:
            heapq.heappush(ready, (arrival.time, order, arrival))
        else:
            blocked.setdefault(arrival.after, []).append((order, arrival))
    served: dict[str, Served] = {}
    requests: dict = {}
    step_wall: list[float] = []
    pool_used: list[float] = []
    host = HostSpeed()

    def clock() -> float:
        return perf_counter() - host.spent

    start = clock()
    while ready or target.has_unfinished:
        if not target.has_unfinished:
            target.advance_to(ready[0][0])
        now = target.now()
        while ready and ready[0][0] <= now:
            due, _, arrival = heapq.heappop(ready)
            request = source.request_for(arrival)
            record = Served(arrival, len(request.prompt_ids), due, clock())
            target.submit(request)
            record.submit_sim = target.clock_of(arrival.key)
            served[arrival.key] = record
            requests[arrival.key] = request
        step_start = clock()
        outputs = target.step()
        step_end = clock()
        step_wall.append(step_end - step_start)
        host.sample(due_only=True)
        for output in outputs:
            record = served[output.request_id]
            if output.new_token_ids:
                sim = target.clock_of(output.request_id)
                record.token_sim.extend([sim] * len(output.new_token_ids))
                record.token_wall.extend([step_end] * len(output.new_token_ids))
            if output.finished:
                record.tokens = list(output.token_ids)
                record.finish_reason = output.finish_reason
                record.finish_sim = target.clock_of(output.request_id)
                record.engine_metrics = output.metrics
                source.finished(record.arrival, record.tokens)
                for order, successor in blocked.pop(output.request_id, ()):
                    due = max(successor.time, record.finish_sim)
                    heapq.heappush(ready, (due, order, successor))
        if sample_pool:
            used = target.pool_used_share()
            if used is not None:
                pool_used.append(used)
    wall_seconds = clock() - start
    host.sample()
    if blocked:
        raise RuntimeError(f"requests never released: {sorted(blocked)}")
    return Replay(served, requests, step_wall, wall_seconds, host.factor(),
                  target.makespan(), pool_used)
