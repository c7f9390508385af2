"""The hand-clock replay loop that ``submit(…, arrival_time=)`` replaced.

Before the engine owned arrival time, an open-loop driver rebuilt it from
outside: it fast-forwarded ``engine.metrics.clock`` over idle gaps and
submitted each event once the clock had passed its time, so the engine
stamped the request's arrival at that later release clock.  The equivalence
tests in ``test_arrivals.py`` replay a trace through this loop and through
the engine's own held-arrival queue and require the same decisions.
"""

from __future__ import annotations


def replay_by_hand(engine, events, requests) -> dict:
    """Serve ``requests`` (one per time-sorted event) and return the finals."""
    finals: dict = {}
    i = 0
    while i < len(events) or engine.has_unfinished:
        if not engine.has_unfinished and i < len(events):
            engine.metrics.clock = max(engine.metrics.clock, events[i].time)
        while i < len(events) and events[i].time <= engine.metrics.clock:
            engine.submit(requests[i])
            i += 1
        for output in engine.step():
            if output.finished:
                finals[output.request_id] = output
    return finals
