"""Measure one workload: set-up, untraced pass, traced pass, correctness.

A *pass* is one full replay of the workload's traffic against fresh engines:
a fixed amount of work, because the simulated metrics must be a function of
the seed alone.  End-to-end metrics come from one untraced pass, per-layer
metrics from one separate traced pass.  Set-up is repeated and its median
reported.  Correctness runs outside every timed phase.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

from . import adapters, metrics
from .driver import Replay, replay
from .trace import Tracer, span_cost_seconds
from .workloads import Prepared, Workload

__all__ = ["DEFAULT_SECONDS", "OUT_DIR", "measure"]

#: seconds one run measures for; ``BENCHMARK.json`` carries the same number
DEFAULT_SECONDS = 20
OUT_DIR = Path(__file__).resolve().parent / "out"

#: set-up is repeated, and the median reported: at least ``_SETUP_MIN`` times,
#: then up to ``_SETUP_MAX`` while all of it fits this share of the run's
#: seconds (a millisecond set-up needs more samples than a 3-second one)
_SETUP_MIN = 5
_SETUP_MAX = 31
_SETUP_SHARE = 0.05


def _timed_prepare(workload: Workload, seed: int, smoke: bool, into: "list[float]") -> Prepared:
    start = perf_counter()
    prepared = workload.prepare(seed, smoke)
    into.append(perf_counter() - start)
    return prepared


def _check_tokens(workload: Workload, prepared: Prepared, run: Replay) -> "tuple[set, float, int]":
    """Replay a fixed sample of requests alone; returns (ids whose tokens
    differ, mean PQ recall, requests replayed)."""
    finished = [key for key, record in run.served.items()
                if record.finish_reason in ("length", "stop")]
    sample = [key for key in prepared.sample if key in finished]
    wrong: set[str] = set()
    recalls: list[float] = []
    for key in sample:
        original = run.requests[key]
        probe = adapters.RecallProbe(
            original.policy_spec, len(original.prompt_ids), prepared.recall_every)
        engine = adapters.reference_engine(prepared.model, prepared.chunk)
        request = adapters.build_request(
            key, original.prompt_ids,
            min(original.sampling.max_new_tokens, prepared.replay_tokens),
            original.policy_spec, prefill=workload.replay_prefill(prepared, key),
            selection_hook=probe)
        tokens = engine.run([request])[key].token_ids
        if tokens != run.served[key].tokens[: len(tokens)] or not tokens:
            wrong.add(key)
        recalls.extend(probe.recalls)
    recall = sum(recalls) / len(recalls) if recalls else 0.0
    return wrong, recall, len(sample)


def measure(
    workload: Workload,
    *,
    seed: int,
    smoke: bool,
    seconds: float,
    end_to_end: bool,
    traced: bool,
    import_seconds: float,
) -> dict:
    """Run one workload and return its result record."""
    setups: list[float] = []
    problems: list[str] = []
    runs: list[Replay] = []
    tracer = None

    if end_to_end:
        prepared = _timed_prepare(workload, seed, smoke, setups)
        runs.append(replay(prepared.target, prepared.arrivals, prepared.source))
        if traced:
            runs[0].requests.clear()  # only the last pass is replayed
    if traced:
        prepared = _timed_prepare(workload, seed, smoke, setups)
        with Tracer(adapters.TRACE_TARGETS) as tracer:
            runs.append(replay(prepared.target, prepared.arrivals, prepared.source,
                               sample_pool=True))
    last = runs[-1]
    counters = prepared.target.counters()

    # ---- correctness, outside every timed phase
    wrong, recall, replayed = _check_tokens(workload, prepared, last)
    if wrong:
        problems.append(f"tokens differ from the solo replay: {sorted(wrong)}")
    if not replayed:
        problems.append("no request could be sampled for the token check")
    digests = {metrics.tokens_sha256(run) for run in runs}
    if len(digests) > 1:
        problems.append("passes of one seed produced different tokens")
    exercised = workload.exercised(counters, last)
    problems.extend(f"not exercised: {name}" for name, ok in exercised.items() if not ok)

    while len(setups) < _SETUP_MIN or (
            len(setups) < _SETUP_MAX and sum(setups) < _SETUP_SHARE * seconds):
        _timed_prepare(workload, seed, smoke, setups)

    result = {
        "describe": workload.describe(smoke),
        "attempted": len(last.served),
        "failed": metrics.failed(last, wrong),
        "requests_replayed": replayed,
        "exercised": exercised,
        "tokens_sha256": digests.pop() if len(digests) == 1 else None,
        "problems": problems,
        #: diagnostics, not gated: one sample of Python import time per process
        "import_s": import_seconds,
        "setup_samples_s": setups,
    }

    if end_to_end:
        values = metrics.end_to_end(runs[0], workload, wrong)
        values["setup_s"] = statistics.median(setups)
        values["pq_recall"] = recall
        result["host_factor"] = runs[0].host_factor
        result["end_to_end"] = {m.name: values[m.name] for m in metrics.END_TO_END}

    if traced:
        cost = span_cost_seconds()
        result["per_layer"] = metrics.per_layer(last, tracer, counters, cost)
        result["spans"] = len(tracer)
        result["missing_spans"] = sorted(tracer.missing)
        result["report_seq_len"] = prepared.report_seq_len
        if workload.paper_phase:
            result["paper_phase"] = workload.paper_phase
            result["latency_model"] = adapters.paper_decomposition(
                prepared.target, workload.paper_phase, prepared.report_seq_len)
        if end_to_end:
            base = runs[0].wall_seconds
            result["trace_wall_delta_share"] = (last.wall_seconds - base) / base
        for parent, child in _negative_self_times(tracer):
            problems.append(f"span {child} outlasts its parent {parent}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_perfetto(OUT_DIR / f"{workload.name}.trace.json")

    result["correct"] = not problems
    return result


def _negative_self_times(tracer: Tracer, slack: float = 1e-6) -> "list[tuple[str, str]]":
    """(parent, child) names where children cover more than their parent."""
    bad = []
    self_times = tracer.self_times()
    for index in (self_times < -slack).nonzero()[0].tolist():
        child = next(i for i, p in enumerate(tracer.parents) if p == index)
        bad.append((tracer.names[index], tracer.names[child]))
    return bad
