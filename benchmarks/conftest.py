"""Shared fixtures and helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper.  The
quality benchmarks run the full evaluation pipeline on scaled-down synthetic
suites (no pretrained weights or LongBench data exist offline, so a coupled
random-initialised model and planted-evidence tasks stand in); the efficiency
benchmarks use the analytical latency/memory models.  Each module prints the
rows/series it reproduces so `pytest benchmarks/ --benchmark-only -s` yields a
report alongside the timing numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SelectionBudget, build_policy
from repro.core import PQCacheConfig
from repro.eval import EvaluationHarness
from repro.llm import ModelConfig
from repro.memory import HardwareSpec, LatencyModel

#: scaled-down experiment sizes (the paper's contexts are 10k-100k tokens; the
#: NumPy substrate evaluates the same code paths at hundreds of tokens).
LONGBENCH_SEQ_LEN = 448
INFINITEBENCH_SEQ_LEN = 768
SAMPLES_PER_DATASET = 3

#: PQ configurations used by the paper for the two suites.
LONGBENCH_PQ = PQCacheConfig(num_partitions=2, num_bits=6, max_kmeans_iters=12,
                             gpu_cache_tokens=0)
INFINITEBENCH_PQ = PQCacheConfig(num_partitions=4, num_bits=6, max_kmeans_iters=12,
                                 gpu_cache_tokens=0)


def make_budget(token_ratio: float, comm_ratio: float) -> SelectionBudget:
    """Budget with the reserved segments used throughout the benchmarks."""
    return SelectionBudget(token_ratio=token_ratio, comm_ratio=comm_ratio,
                           num_initial=4, num_local=16)


def table_policy_factories(budget: SelectionBudget, pq_config: PQCacheConfig,
                           names: tuple[str, ...] | None = None) -> dict:
    """Policy factories for the Table 2/4 line-up."""
    spec = {
        "full": lambda: build_policy("full", budget),
        "oracle": lambda: build_policy("oracle", budget),
        "h2o(c)": lambda: build_policy("h2o", budget, compensated=True),
        "snapkv(c)": lambda: build_policy("snapkv", budget, compensated=True),
        "pyramidkv(c)": lambda: build_policy("pyramidkv", budget, compensated=True),
        "infllm": lambda: build_policy("infllm", budget),
        "sparq": lambda: build_policy("sparq", budget),
        "pqcache": lambda: build_policy("pqcache", budget, pq_config=pq_config),
    }
    if names is None:
        return spec
    return {name: spec[name] for name in names}


@pytest.fixture(scope="session")
def harness() -> EvaluationHarness:
    """Shared evaluation harness (model + prefill cache) for quality benches."""
    return EvaluationHarness(ModelConfig.tiny(), seed=0, qk_coupling=1.0)


@pytest.fixture(scope="session")
def latency_model() -> LatencyModel:
    """Latency model of the paper's testbed (RTX 4090 + PCIe 1.0 x16, 8B model)."""
    return LatencyModel(
        HardwareSpec.paper_testbed(),
        ModelConfig.llama3_8b(),
        PQCacheConfig(num_partitions=2, num_bits=6),
        token_ratio=0.2,
        comm_ratio=1.0 / 128.0,
    )


def print_table(title: str, table: dict) -> None:
    """Print a {row: {column: value}} table in the paper's layout."""
    print(f"\n=== {title} ===")
    print(EvaluationHarness.format_table(table))


def print_series(title: str, series: dict) -> None:
    """Print a simple {x: value-or-dict} series."""
    print(f"\n=== {title} ===")
    for key, value in series.items():
        if isinstance(value, dict):
            rendered = ", ".join(f"{k}={v:.4g}" for k, v in value.items())
        elif isinstance(value, float):
            rendered = f"{value:.4g}"
        else:
            rendered = str(value)
        print(f"  {key}: {rendered}")
