"""Human-readable tables for a benchmark result."""

from __future__ import annotations

from . import metrics

__all__ = ["print_result"]


def _fmt(value: "float | None") -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _table(title: str, names_units, columns: "dict[str, dict]") -> None:
    rows = [(name, unit, [_fmt(values.get(name)) for values in columns.values()])
            for name, unit in names_units
            if any(name in values for values in columns.values())]
    if not rows:
        return
    name_w = max(len(r[0]) for r in rows)
    unit_w = max(len(r[1]) for r in rows)
    widths = [max(len(head), *(len(r[2][i]) for r in rows))
              for i, head in enumerate(columns)]
    print(f"\n== {title}")
    print("  ".join([" " * name_w, " " * unit_w]
                    + [head.rjust(w) for head, w in zip(columns, widths)]))
    for name, unit, cells in rows:
        print("  ".join([name.ljust(name_w), unit.ljust(unit_w)]
                        + [cell.rjust(w) for cell, w in zip(cells, widths)]))


def _shares(parts: "dict[str, float]") -> "dict[str, float]":
    total = sum(parts.values())
    return {name: (value / total if total else 0.0) for name, value in parts.items()}


def _paper_shape(name: str, record: dict) -> None:
    """Measured wall breakdown beside the latency model's, as shares, in the
    categories of the paper's Fig 12a (prefill) / Fig 12b (decode)."""
    layer = record["per_layer"]
    model = record["latency_model"]
    get = lambda key: layer.get(key, 0.0)  # noqa: E731
    if record["paper_phase"] == "prefill":
        figure = "Fig 12a"
        measured = {
            "compute": get("llm.model.prefill_chunk_s"),
            # the NumPy substrate writes KV in place: there is no transfer
            "offload": 0.0,
            "clustering": sum(get(key) for key in (
                "baselines.pqcache_policy.on_prefill_chunk_s",
                "baselines.pqcache_policy.finish_prefill_s",
                "core.pqcache.build_s", "core.kmeans.fit_s", "core.kmeans.refine_s")),
        }
        modelled = {key: model[key] for key in ("compute", "offload", "clustering")}
    else:
        figure = "Fig 12b"
        gather, attention = get("llm.model.decode_gather_s"), get("llm.model.decode_attention_s")
        measured = {
            "dense compute": get("llm.model.decode_batch_s") - gather - attention,
            "pq search": get("baselines.pqcache_policy.select_s"),
            "fetch": gather + get("core.gpu_cache.access_s"),
            "attention": attention,
        }
        modelled = {
            "dense compute + attention": model["llm_compute"],
            "pq search": model["pq_compute"],
            "fetch (blocking)": model["blocking_comm"],
            "fetch (overlappable)": model["overlappable_comm"],
        }
    print(f"\n== {name}: paper shape ({figure}) at {record['report_seq_len']} tokens, shares")
    width = max(len(key) for key in (*measured, *modelled))
    print(f"  {'measured wall'.ljust(width)}         | {'LatencyModel'.ljust(width)}")
    rows = max(len(measured), len(modelled))
    left = list(_shares(measured).items()) + [("", None)] * (rows - len(measured))
    right = list(_shares(modelled).items()) + [("", None)] * (rows - len(modelled))
    for (lname, lshare), (rname, rshare) in zip(left, right):
        lcell = f"{lshare:7.1%}" if lshare is not None else " " * 7
        rcell = f"{rshare:7.1%}" if rshare is not None else " " * 7
        print(f"  {lname.ljust(width)}  {lcell} | {rname.ljust(width)}  {rcell}")


def print_result(result: dict) -> None:
    """Every metric by name with its unit, one column per workload."""
    workloads = result["workloads"]
    _table("end-to-end (tracing off)",
           [(m.name, m.unit) for m in metrics.END_TO_END],
           {name: rec["end_to_end"] for name, rec in workloads.items()
            if "end_to_end" in rec})
    traced = {name: rec for name, rec in workloads.items() if "per_layer" in rec}
    _table("per layer (traced pass)",
           [(m.name, m.unit) for m in metrics.PER_LAYER],
           {name: rec["per_layer"] for name, rec in traced.items()})
    for name, rec in traced.items():
        if "latency_model" in rec:
            _paper_shape(name, rec)
    print()
    for name, rec in workloads.items():
        line = (f"{name}: {'ok' if rec['correct'] else 'FAILED'}  "
                f"requests={rec['attempted']} failed={rec['failed']} "
                f"replayed_alone={rec['requests_replayed']} "
                f"tokens_sha256={(rec['tokens_sha256'] or '?')[:16]}")
        if "host_factor" in rec:
            line += f" host_factor={rec['host_factor']:.3f}"
        if "trace_wall_delta_share" in rec:
            line += f" traced_wall_delta={rec['trace_wall_delta_share']:+.1%}"
        if rec.get("missing_spans"):
            line += f" missing_spans={rec['missing_spans']}"
        print(line)
        for problem in rec["problems"]:
            print(f"  ! {problem}")
