#!/usr/bin/env python
"""Alternate benchmark runs of a parent commit and this checkout, then compare.

Usage::

    python tools/bench_ab.py <parent-ref> [--workload W] [--seeds 0-4]

The parent is checked out into a temporary ``git worktree`` (removed again on
exit); for every seed one untraced ``bench/run.py --no-trace --out ...`` runs
on each side — parent first on even pairs, change first on odd ones, so a
drift of the host's speed falls on both sides alike — and the result files go
to the change's ``bench/compare.py``, parent half first, whose verdict table
and exit code are this tool's.  The change is the working tree as it stands,
committed or not.

Each run is one process on a quiet machine: start nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seeds", type=parse_seeds, default="0-4",
                        help="one pair of runs per seed, e.g. 0-4 or 1,3 (default: 0-4)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        parent_tree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), args.parent],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            sides = {"parent": parent_tree, "change": ROOT}
            for pair, seed in enumerate(args.seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run_bench(sides[side], seed, args.workload,
                              Path(tmp) / f"{side}-{seed}.json")
            results = [str(Path(tmp) / f"{side}-{seed}.json")
                       for side in sides for seed in args.seeds]
            return subprocess.run(
                [sys.executable, str(ROOT / "bench" / "compare.py"), *results], cwd=ROOT
            ).returncode
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                           cwd=ROOT, check=False)


if __name__ == "__main__":
    sys.exit(main())
