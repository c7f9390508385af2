"""Synthetic long-context workloads standing in for the paper's benchmarks."""

from .arrivals import (
    ArrivalEvent,
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
    random_deadlines,
    tag_arrivals,
    tag_deadlines,
)
from .base import Sample, TaskDataset, VocabLayout
from .conversation import Conversation, multi_turn_conversation
from .generators import (
    cot_arithmetic,
    counting,
    few_shot_recall,
    kv_retrieval,
    multi_hop_qa,
    passkey_retrieval,
    single_fact_qa,
    summarization,
)
from .needle import NeedleGrid
from .suites import (
    INFINITEBENCH_TASKS,
    LONGBENCH_TASKS,
    infinitebench_suite,
    longbench_qa_suite,
    longbench_suite,
)
from .traces import (
    AttentionTrace,
    collect_decode_attention,
    mass_concentration,
    power_law_exponent,
)

__all__ = [
    "Sample",
    "TaskDataset",
    "VocabLayout",
    "Conversation",
    "multi_turn_conversation",
    "cot_arithmetic",
    "counting",
    "few_shot_recall",
    "kv_retrieval",
    "multi_hop_qa",
    "passkey_retrieval",
    "single_fact_qa",
    "summarization",
    "NeedleGrid",
    "INFINITEBENCH_TASKS",
    "LONGBENCH_TASKS",
    "infinitebench_suite",
    "longbench_qa_suite",
    "longbench_suite",
    "ArrivalEvent",
    "AttentionTrace",
    "bursty_arrivals",
    "collect_decode_attention",
    "mass_concentration",
    "merge_arrivals",
    "poisson_arrivals",
    "power_law_exponent",
    "random_deadlines",
    "tag_arrivals",
    "tag_deadlines",
]
