"""Trace replay: serve a timed arrival trace on one engine.

:func:`replay` is the library's open- and closed-loop driver.  Timed events
go to :meth:`InferenceEngine.submit` with their ``arrival_time`` up front, so
the engine holds each until its clock reaches it and idles over the gaps; an
event chained with ``after`` is built once its predecessor finishes (a chat
turn's prompt embeds the previous answer).  Latencies are the engine's own,
counted from each request's arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError
from ..workloads.arrivals import ArrivalEvent
from .engine import InferenceEngine
from .request import Request, RequestOutput

__all__ = ["Replay", "replay"]


@dataclass
class Replay:
    """What one replay produced, keyed by request id."""

    #: each request's final output (its ``metrics`` carry TTFT and friends)
    outputs: "dict[str, RequestOutput]" = field(default_factory=dict)
    #: the simulated instant each streamed token became available
    token_times: "dict[str, list[float]]" = field(default_factory=dict)


def replay(
    engine: InferenceEngine,
    trace: "list[ArrivalEvent]",
    request_for: "Callable[[ArrivalEvent], Request]",
    on_finish: "Callable[[ArrivalEvent, RequestOutput], None] | None" = None,
) -> Replay:
    """Serve ``trace`` on ``engine`` and drain it.

    ``request_for(event)`` builds an event's request.  An event with
    ``after`` is built and submitted when the request of the event whose
    ``key`` it names finishes, due at the later of its own ``time`` and the
    engine clock after that step; ``on_finish(event, output)`` sees every
    final output before its successors are built.  Events that fall due
    together enter the engine in order of time, then trace position.

    Raises:
        ConfigurationError: if an ``after`` names no event's ``key``, or
            events wait on each other in a cycle.
    """
    keys = {event.key for event in trace}
    waiting_on: dict[str, list[tuple[int, ArrivalEvent]]] = {}
    timed = []
    for index, event in enumerate(trace):
        if event.after is None:
            timed.append((event.time, index, event))
        elif event.after in keys:
            waiting_on.setdefault(event.after, []).append((index, event))
        else:
            raise ConfigurationError(
                f"event {index} waits on unknown key {event.after!r}"
            )
    result = Replay()
    event_of: dict[str, ArrivalEvent] = {}

    def send(due: float, event: ArrivalEvent) -> None:
        request = request_for(event)
        event_of[request.request_id] = event
        engine.submit(request, arrival_time=due)

    for due, _, event in sorted(timed):
        send(due, event)
    while engine.has_unfinished:
        outputs = engine.step()
        now = engine.metrics.clock
        due_now = []
        for output in outputs:
            times = result.token_times.setdefault(output.request_id, [])
            times.extend([now] * len(output.new_token_ids))
            if not output.finished:
                continue
            result.outputs[output.request_id] = output
            event = event_of.get(output.request_id)
            if event is None:
                continue
            if on_finish is not None:
                on_finish(event, output)
            due_now.extend(
                (max(successor.time, now), index, successor)
                for index, successor in waiting_on.pop(event.key, ())
            )
        for due, _, event in sorted(due_now):
            send(due, event)
    if waiting_on:
        raise ConfigurationError(
            f"predecessors never finished: {sorted(waiting_on)}"
        )
    return result
