"""Compare benchmark results: ``python3 bench/compare.py A.json B.json [more...]``.

The files are results written by ``bench/run.py --out``.  The first half of
them are runs of the parent, the rest runs of the change.  Per (end-to-end
metric, workload) the tool prints both medians and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — the change's median is worse by more than the bound;
* ``unresolved`` — the run-to-run spread is wider than the bound, and the two
  sides' runs overlap, so the comparison cannot tell;
* ``improved``   — better by more than the parent's own spread, winning at
  least nine tenths of the pairs;
* ``unchanged``  — anything else.

With ``--same-commit`` the files are runs of one commit: for equal seeds every
simulated metric, count and token digest must then be *equal*.  The exit code
is non-zero on any regression, on a drop of ``served_share``, and (with
``--same-commit``) on any inequality.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.metrics import is_exact  # noqa: E402


def _spread(values: "list[float]") -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def verdict(parent: "list[float]", change: "list[float]", better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base, new = statistics.median(parent), statistics.median(change)
    worse_by = sign * (new - base) / abs(base) if base else 0.0
    spread = max(_spread(parent), _spread(change))
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound:
        return "regressed" if spread <= bound or all_worse else "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    # one run says nothing about its own spread: fall back on the bound
    noise = _spread(parent) if len(parent) > 1 else bound
    if -worse_by > noise and wins >= 0.9 * len(pairs):
        return "improved"
    if spread > bound and not (all_worse or all_better):
        return "unresolved"
    return "unchanged"


def _values(files: "list[dict]", workload: str, section: str, name: str) -> "list[float]":
    return [f["workloads"][workload][section][name] for f in files
            if name in f["workloads"].get(workload, {}).get(section, {})]


def _inequalities(files: "list[dict]") -> "list[str]":
    """Exact quantities that differ between runs of one commit and seed."""
    found = []
    by_seed: dict = {}
    for result in files:
        by_seed.setdefault((result["seed"], result["smoke"]), []).append(result)
    for (seed, _), group in by_seed.items():
        first = group[0]
        for other in group[1:]:
            for workload, record in first["workloads"].items():
                theirs = other["workloads"].get(workload)
                if theirs is None:
                    continue
                if record["tokens_sha256"] != theirs["tokens_sha256"]:
                    found.append(f"seed {seed} {workload}: tokens_sha256 differs")
                for section in ("end_to_end", "per_layer"):
                    for name, value in record.get(section, {}).items():
                        if is_exact(name) and theirs.get(section, {}).get(name, value) != value:
                            found.append(f"seed {seed} {workload}: {name} "
                                         f"{value!r} != {theirs[section][name]!r}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--same-commit", action="store_true",
                        help="all files are runs of one commit: exact quantities must be equal")
    args = parser.parse_args(argv)
    if len(args.files) < 2:
        parser.error("need at least two result files")
    files = [json.loads(path.read_text()) for path in args.files]
    split = len(files) // 2
    parent, change = files[:split], files[split:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    failures = []
    print(f"{'workload':<14} {'metric':<20} {'parent':>12} {'change':>12} {'delta':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = _values(parent, workload, "end_to_end", metric["name"])
            b = _values(change, workload, "end_to_end", metric["name"])
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            delta = (new - base) / abs(base) if base else 0.0
            print(f"{workload:<14} {metric['name']:<20} {base:>12.5g} {new:>12.5g} "
                  f"{delta:>+8.1%}  {outcome}")
            if outcome == "regressed":
                failures.append(f"{workload}: {metric['name']} regressed")
            if metric["name"] == "served_share" and new < base:
                failures.append(f"{workload}: served_share fell from {base} to {new}")
    if args.same_commit:
        failures.extend(_inequalities(files))
    for failure in failures:
        print(f"! {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
