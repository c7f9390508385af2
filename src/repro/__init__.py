"""PQCache reproduction: Product Quantization-based KVCache management for
long-context LLM inference (SIGMOD 2025).

Public API highlights
---------------------
* :class:`repro.serve.InferenceEngine` — the request-centric serving engine:
  submit :class:`repro.serve.Request` objects (prompt + per-request
  :class:`repro.serve.SamplingParams` + :class:`repro.serve.PolicySpec`), get
  continuous-batched decoding with incrementally streamed
  :class:`repro.serve.RequestOutput` tokens and per-request serving metrics
  (TTFT, TPOT, tokens attended, communication bytes) on a simulated clock.
  One frozen :class:`repro.serve.EngineConfig` configures an engine, a
  cluster worker and a fleet alike.
* :class:`repro.core.PQCacheManager` / :class:`repro.core.PQCacheConfig` —
  the PQ-based KVCache index.
* :class:`repro.baselines.PQCachePolicy` and the baseline policies —
  selective-attention strategies; build them per request through
  :func:`repro.baselines.build_policy` / :class:`repro.serve.PolicySpec`.
* :class:`repro.llm.TransformerLM` — the NumPy decoder-only substrate
  (stateless across requests; one KVCache per request).
* :mod:`repro.workloads` — synthetic long-context task generators.
* :mod:`repro.eval` — quality evaluation harness (drives the engine in
  teacher-forcing mode).
* :mod:`repro.memory` — latency and memory models, also powering the
  engine's simulated wall-clock accounting.
"""

from . import baselines, core, cpu_lane, eval, llm, memory, serve, workloads
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    NotFittedError,
    ReproError,
    SchedulingError,
    WorkloadError,
)

__version__ = "1.1.0"

__all__ = [
    "baselines",
    "core",
    "eval",
    "llm",
    "memory",
    "serve",
    "workloads",
    "ReproError",
    "ConfigurationError",
    "DimensionError",
    "NotFittedError",
    "CapacityError",
    "SchedulingError",
    "WorkloadError",
    "__version__",
]
