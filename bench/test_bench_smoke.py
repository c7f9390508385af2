"""Smoke test of the benchmark: all four workloads at ``--smoke`` sizes.

Collected by the tier-1 command (``PYTHONPATH=src python -m pytest -x -q``).
Checks the result schema and the ``BENCHMARK.json`` contract, that the trace
is self-consistent, that every workload reaches the mechanisms it was chosen
for, that the token check passes, and that simulated numbers repeat exactly.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import adapters, compare, harness, metrics, run
from bench.trace import Tracer
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _measure(name: str, traced: bool) -> dict:
    return harness.measure(WORKLOADS[name], seed=0, smoke=True, seconds=0.0,
                           end_to_end=True, traced=traced, import_seconds=0.0)


@pytest.fixture(scope="module")
def results() -> "dict[str, tuple[dict, dict]]":
    """Each workload measured twice: with the traced pass and without."""
    return {name: (_measure(name, True), _measure(name, False)) for name in WORKLOADS}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert spec["run_seconds"] == harness.DEFAULT_SECONDS
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [tuple(m.values()) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"setup_s"} <= {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_correct_and_complete(results, name):
    traced, plain = results[name]
    for record in (traced, plain):
        assert record["correct"], record["problems"]
        # attempted is one pass's requests; failed the ones it shed (only
        # cluster_burst sheds, and must)
        assert record["attempted"] == WORKLOADS[name].describe(True).get(
            "requests", record["attempted"]) >= 1
        assert record["failed"] == round(
            (1 - record["end_to_end"]["served_share"]) * record["attempted"])
        assert (record["failed"] > 0) == (name == "cluster_burst")
        assert record["requests_replayed"] >= 1
        assert all(record["exercised"].values()), record["exercised"]
        assert list(record["end_to_end"]) == [m.name for m in metrics.END_TO_END]
        assert all(np.isfinite(v) and v > 0 for v in record["end_to_end"].values())
    assert list(traced["per_layer"]) == [m.name for m in metrics.PER_LAYER]
    assert traced["failed"] == round(
        traced["per_layer"]["serve.scheduler.shed_share"] * traced["attempted"])
    assert traced["missing_spans"] == [] and traced["spans"] > 0
    assert all(np.isfinite(v) and v >= 0 for v in traced["per_layer"].values())
    assert (harness.OUT_DIR / f"{name}.trace.json").exists()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_simulated_numbers_repeat_exactly(results, name):
    traced, plain = results[name]
    assert traced["tokens_sha256"] == plain["tokens_sha256"]
    for metric, value in traced["end_to_end"].items():
        if metrics.is_exact(metric):
            assert plain["end_to_end"][metric] == value, metric


def test_trace_nests_and_restores_the_program():
    workload = WORKLOADS["chat_pressure"]
    prepared = workload.prepare(0, True)
    engine_step = type(prepared.target.engine).step
    with Tracer(adapters.TRACE_TARGETS) as tracer:
        assert type(prepared.target.engine).step is not engine_step
        harness.replay(prepared.target, prepared.arrivals, prepared.source)
    assert type(prepared.target.engine).step is engine_step
    # a child never outlasts its parent: self times are non-negative
    assert tracer.self_times().min() > -1e-6
    starts, ends, parents = map(np.asarray, (tracer.starts, tracer.ends, tracer.parents))
    child = parents >= 0
    assert (starts[child] >= starts[parents[child]]).all()
    assert (ends[child] <= ends[parents[child]]).all()
    steps = [i for i, name in enumerate(tracer.names) if name == "serve.engine.step"]
    assert steps and all("sim_clock" in tracer.args[i] for i in steps)


def test_unresolvable_target_is_listed_not_fatal():
    from bench.trace import Target

    with Tracer([Target("llm.model.gone", "repro.llm.model:TransformerLM.no_such_method"),
                 Target("no.module", "repro.no_such_module:f")]) as tracer:
        pass
    assert tracer.missing == ["llm.model.gone", "no.module"]


def test_driver_form_prints_the_contract_line(capsys, monkeypatch):
    for var in run.THREAD_VARS:  # main() pins them; restore afterwards
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--smoke", "--workload", "prefill_long", "--seconds", "0",
                     "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m.name for m in metrics.END_TO_END]
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "lower", 0.1) == "improved"
    assert compare.verdict(steady, [x * 1.01 for x in steady], "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.1) == "regressed"
    noisy = [100.0, 150.0, 60.0, 130.0]
    assert compare.verdict(noisy, [110.0, 160.0, 70.0, 200.0], "lower", 0.1) == "unresolved"
