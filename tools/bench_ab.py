#!/usr/bin/env python
"""Alternate benchmark runs of a parent commit and this checkout, then compare.

Usage::

    python tools/bench_ab.py <parent-ref> [--workload W] [--seeds 0-4]

The parent is exported (``git archive``) into a temporary directory; for every
seed one untraced ``bench/run.py --no-trace --out ...`` runs on each side —
parent first on even pairs, change first on odd ones, so a drift of the
host's speed falls on both sides alike — and the result files go to the
change's ``bench/compare.py``, parent half first, whose verdict table and exit
code are this tool's.  The change is the working tree as it stands, committed
or not.

Under the verdicts comes one line per (seed, workload) for the quantities a
seed fixes exactly — ``tokens_sha256``, every ``sim_*``, ``pq_recall``,
``served_share``: ``equal``, or ``moved`` and ``old -> new`` for each that did.
An exact kernel shows ``equal`` everywhere; a change that moves bits shows
where.

Each run is one process on a quiet machine: start nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.metrics import is_exact  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"0-4"`` -> ``[0, 1, 2, 3, 4]``; ``"1,3"`` and ``"7"`` work too."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_bench(tree: Path, seed: int, workload: "str | None", out: Path) -> None:
    command = [sys.executable, str(tree / "bench" / "run.py"),
               "--no-trace", "--seed", str(seed), "--out", str(out)]
    if workload:
        command += ["--workload", workload]
    print(f"$ {' '.join(command)}", flush=True)
    subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)


def export(ref: str, tree: Path) -> None:
    """The files of commit ``ref`` under ``tree``."""
    tarball = tree.with_suffix(".tar")
    subprocess.run(["git", "archive", "-o", str(tarball), ref], cwd=ROOT, check=True)
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(tarball), "-C", str(tree)], check=True)


def exact_quantities(record: dict) -> dict:
    """What a workload's result holds that its seed alone determines."""
    exact = {name: value for name, value in record["end_to_end"].items() if is_exact(name)}
    return {"tokens_sha256": record["tokens_sha256"], **exact}


def print_exact_table(parent: dict, change: dict, seed: int) -> None:
    """Per workload both results ran: ``equal``, or a line per quantity that moved."""
    for workload, record in parent["workloads"].items():
        if workload not in change["workloads"]:
            continue
        old = exact_quantities(record)
        new = exact_quantities(change["workloads"][workload])
        moved = [name for name in old if old[name] != new.get(name)]
        print(f"seed {seed:<3} {workload:<14} {'moved' if moved else 'equal'}")
        for name in moved:
            print(f"{'':<9}{name:<20} {old[name]} -> {new.get(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seeds", type=parse_seeds, default="0-4",
                        help="one pair of runs per seed, e.g. 0-4 or 1,3 (default: 0-4)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": ROOT}
        export(args.parent, sides["parent"])
        results = {side: [Path(tmp) / f"{side}-{seed}.json" for seed in args.seeds]
                   for side in sides}
        for pair, seed in enumerate(args.seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run_bench(sides[side], seed, args.workload, results[side][pair])
        verdicts = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "compare.py"),
             *results["parent"], *results["change"]], cwd=ROOT,
        ).returncode
        print()
        for seed, old, new in zip(args.seeds, results["parent"], results["change"]):
            print_exact_table(json.loads(old.read_text()), json.loads(new.read_text()), seed)
        return verdicts


if __name__ == "__main__":
    sys.exit(main())
