"""Figure 8 — prefill compute vs offload vs clustering, and their overlap.

Paper: per-layer GPU compute grows quadratically with the prompt length while
KVCache offloading and K-Means clustering grow linearly, so beyond a few
thousand tokens the compute fully hides both, enabling overhead-free PQ
construction.  The adaptive iteration budget (Eq. 3) grows accordingly.

Rebuilt on the chunked-prefill pipeline: the overlap claim is now exercised
through :meth:`LatencyModel.chunked_prefill_timeline`, which schedules the
per-chunk offload / sketch-clustering / stream-encode / refine tasks as
dependency-linked :class:`Task` objects on serial GPU/D2H/CPU resources
(Figure 7's pipeline view).  The asserted property is the paper's headline:
the overlapped makespan stays strictly below the sequential sum of compute +
offload + clustering, and construction is almost entirely hidden behind
compute.  The overlap study runs one 64k configuration.
"""

import pytest

from conftest import print_series
from repro.core import AdaptiveIterationPlanner
from repro.memory import Resource

SEQ_LENS = (4096, 16384, 65536, 131072)

#: (seq_len, chunk_tokens) of the overlap study.
OVERLAP_CONFIG = (65536, 8192)


def test_prefill_component_scaling(benchmark, latency_model):
    def run():
        rows = {}
        for seq_len in SEQ_LENS:
            rows[seq_len] = latency_model.prefill_decomposition(seq_len)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series("Figure 8 (per-layer prefill time decomposition, seconds)", rows)

    # Crossover: computation dominates offload and clustering for long prompts.
    longest = rows[SEQ_LENS[-1]]
    assert longest["compute"] > longest["offload"]
    assert longest["compute"] > longest["clustering"]
    # Quadratic vs linear growth rates.
    compute_growth = rows[131072]["compute"] / rows[16384]["compute"]
    offload_growth = rows[131072]["offload"] / rows[16384]["offload"]
    assert compute_growth > 3 * offload_growth

    # Adaptive iteration budget grows with the sequence length (Eq. 3).
    planner = AdaptiveIterationPlanner.from_device_model(
        compute_seconds_fn=latency_model.layer_prefill_compute_seconds,
        clustering_seconds_per_point=2e-8,
        max_iterations=200,
    )
    budgets = {s: planner.max_iterations_for(s) for s in SEQ_LENS}
    print_series("Adaptive K-Means iteration budget (Eq. 3)", budgets)
    assert budgets[131072] >= budgets[4096]


def test_chunked_prefill_overlap(benchmark, latency_model):
    """The chunked pipeline's makespan vs sequential execution (Figure 7/8)."""

    def run():
        seq_len, chunk_tokens = OVERLAP_CONFIG
        chunks = [chunk_tokens] * (seq_len // chunk_tokens)
        timeline = latency_model.chunked_prefill_timeline(
            chunks, "pqcache", iterations=16
        )
        gpu = timeline.resource_busy_time(Resource.GPU)
        d2h = timeline.resource_busy_time(Resource.D2H)
        cpu = timeline.resource_busy_time(Resource.CPU)
        return {
            f"s={seq_len}, chunk={chunk_tokens}": {
                "makespan_s": timeline.makespan,
                "compute_s": gpu,
                "offload_s": d2h,
                "construction_s": cpu,
                "sequential_s": gpu + d2h + cpu,
                "hidden_frac": 1.0 - timeline.makespan / (gpu + d2h + cpu),
                "tasks": len(timeline),
            }
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series("Chunked prefill overlap (Figure 7/8 pipeline)", rows)

    for name, row in rows.items():
        # Headline claim: genuinely overlapped, strictly below sequential.
        assert row["makespan_s"] < row["sequential_s"], name
        # Offload + construction are almost fully hidden behind compute.
        assert row["makespan_s"] < 1.05 * row["compute_s"], name
        # And the schedule cannot beat its serial-GPU lower bound.
        assert row["makespan_s"] >= row["compute_s"], name


def test_chunked_overlap_matches_monolithic_model(latency_model):
    """Chunking the prefill does not change the modelled total makespan."""
    seq_len, chunk_tokens = OVERLAP_CONFIG
    chunks = [chunk_tokens] * (seq_len // chunk_tokens)
    chunked = latency_model.chunked_prefill_timeline(
        chunks, "pqcache", iterations=16
    ).makespan
    mono = latency_model.prefill_timeline(seq_len, "pqcache", iterations=16).makespan
    assert chunked == pytest.approx(mono, rel=0.1)
