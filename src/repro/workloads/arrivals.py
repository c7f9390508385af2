"""Request arrival traces for multi-user serving workloads.

Seeded Poisson and bursty multi-user generators (:func:`poisson_arrivals`,
:func:`bursty_arrivals`) emitting :class:`ArrivalEvent` streams that the
cluster benchmark and example replay against a
:class:`~repro.serve.cluster.ClusterFrontend`, plus the tagging and merging
helpers that compose per-tenant traces into one timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..utils import as_rng

__all__ = ["ArrivalEvent", "poisson_arrivals", "bursty_arrivals",
           "tag_arrivals", "merge_arrivals", "tag_deadlines",
           "random_deadlines"]


@dataclass(frozen=True)
class ArrivalEvent:
    """One request arrival in a multi-user trace.

    Attributes:
        time: arrival timestamp in seconds from trace start.
        user: id of the issuing user (``0 .. num_users - 1``); in a
            conversation replay each user owns one dialogue.
        turn: how many requests this user issued before this one — the
            conversation turn index the event maps to.
        tenant: QoS tenant label the replay attaches to the request (maps
            to :class:`~repro.serve.RequestQoS`; ``"default"`` when the
            trace is untagged).
        priority: QoS priority class of the request (0 = best-effort).
        deadline: *relative* completion deadline in seconds from this
            event's arrival (maps to ``RequestQoS.deadline``), or ``None``
            for best-effort events without one.
    """

    time: float
    user: int
    turn: int
    tenant: str = "default"
    priority: int = 0
    deadline: "float | None" = None


def tag_arrivals(
    events: list[ArrivalEvent], tenant: str, priority: int = 0
) -> list[ArrivalEvent]:
    """Stamp every event of a trace with one tenant/priority tag.

    The multi-tenant replay idiom: generate each tenant's trace with its
    own generator (and seed), tag it, then :func:`merge_arrivals` the
    tenants into one timeline.
    """
    return [replace(event, tenant=tenant, priority=priority) for event in events]


def tag_deadlines(
    events: list[ArrivalEvent], deadline: float
) -> list[ArrivalEvent]:
    """Stamp every event with one relative deadline (seconds from arrival).

    The uniform-SLO idiom: one deadline per traffic class, composed with
    :func:`tag_arrivals` before merging the tenants' timelines.
    """
    if deadline <= 0:
        raise ValueError("deadline must be > 0 seconds")
    return [replace(event, deadline=float(deadline)) for event in events]


def random_deadlines(
    events: list[ArrivalEvent],
    low: float,
    high: float,
    fraction: float = 1.0,
    seed: "int | np.random.Generator | None" = 0,
) -> list[ArrivalEvent]:
    """Draw per-event relative deadlines uniformly from ``[low, high)``.

    ``fraction`` < 1 leaves the remaining events untagged — best-effort
    traffic mixed into the same timeline, the shape the EDF scheduler's
    within-class ordering is designed for.  Both the deadline values and
    the tagged subset are drawn from the seeded rng, so the tagging is
    reproducible trace data like everything else here.
    """
    if not 0 < low <= high:
        raise ValueError("deadline bounds must satisfy 0 < low <= high")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = as_rng(seed)
    deadlines = rng.uniform(low, high, size=len(events))
    tagged = rng.random(size=len(events)) < fraction
    return [
        replace(event, deadline=float(deadline)) if keep else event
        for event, deadline, keep in zip(events, deadlines, tagged)
    ]


def merge_arrivals(*traces: list[ArrivalEvent]) -> list[ArrivalEvent]:
    """Interleave per-tenant traces into one timeline, sorted by time.

    The sort is stable with a deterministic tie-break (time, tenant,
    user, turn), so replays of the merged trace are reproducible.
    """
    merged = [event for trace in traces for event in trace]
    merged.sort(key=lambda e: (e.time, e.tenant, e.user, e.turn))
    return merged


def _assign_users(
    times: np.ndarray, num_users: int, rng: np.random.Generator
) -> list[ArrivalEvent]:
    """Attach uniformly-drawn users and per-user turn counters to sorted
    arrival times."""
    users = rng.integers(0, num_users, size=times.size)
    turns: dict[int, int] = {}
    events = []
    for time, user in zip(times, users):
        user = int(user)
        turn = turns.get(user, 0)
        turns[user] = turn + 1
        events.append(ArrivalEvent(time=float(time), user=user, turn=turn))
    return events


def poisson_arrivals(
    num_events: int,
    rate: float = 1.0,
    num_users: int = 1,
    seed: "int | np.random.Generator | None" = 0,
) -> list[ArrivalEvent]:
    """Seeded Poisson-process arrival trace.

    Inter-arrival gaps are i.i.d. exponential with mean ``1 / rate``; each
    event is issued by a uniformly random user.  Deterministic for a fixed
    seed — the trace is data, so benchmarks replaying it are reproducible.

    Args:
        num_events: total number of arrivals.
        rate: mean arrivals per second (> 0).
        num_users: users the arrivals are spread over (>= 1).
        seed: anything :func:`repro.utils.as_rng` accepts.
    """
    if num_events < 0:
        raise ValueError("num_events must be >= 0")
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    rng = as_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=num_events)
    times = np.cumsum(gaps)
    return _assign_users(times, num_users, rng)


def bursty_arrivals(
    num_bursts: int,
    burst_size: int,
    burst_rate: float = 0.2,
    within_burst_rate: float = 50.0,
    num_users: int = 1,
    seed: "int | np.random.Generator | None" = 0,
) -> list[ArrivalEvent]:
    """Seeded bursty (Poisson cluster process) arrival trace.

    Burst *onsets* form a Poisson process with mean ``1 / burst_rate``
    seconds between bursts; each onset releases ``burst_size`` arrivals
    whose offsets are exponential with mean ``1 / within_burst_rate`` — a
    stampede followed by quiet, the adversarial load shape for admission
    and preemption.  Events are globally sorted by time (bursts may
    overlap), and users are drawn uniformly as in :func:`poisson_arrivals`.
    """
    if num_bursts < 0:
        raise ValueError("num_bursts must be >= 0")
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    if burst_rate <= 0 or within_burst_rate <= 0:
        raise ValueError("burst_rate and within_burst_rate must be > 0")
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    rng = as_rng(seed)
    onsets = np.cumsum(rng.exponential(scale=1.0 / burst_rate, size=num_bursts))
    offsets = rng.exponential(
        scale=1.0 / within_burst_rate, size=(num_bursts, burst_size)
    )
    times = np.sort((onsets[:, None] + offsets).ravel())
    return _assign_users(times, num_users, rng)
