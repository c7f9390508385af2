#!/usr/bin/env python
"""How far the generated tokens of this checkout match a parent commit's.

Usage::

    python tools/token_match.py <parent-ref> [--seed S] [--smoke]

The parent is exported (``git archive``, as ``tools/bench_ab.py`` does) into a
temporary directory.  Each tree then replays the four benchmark workloads in a
process of its own, through its own ``bench.workloads`` and ``bench.driver``,
with BLAS pinned to one thread as ``bench/run.py`` pins it.  Per workload the
table gives:

* ``tokens``: generated tokens equal position by position, over the longer
  side's tokens summed over requests;
* ``requests``: requests whose whole output is identical;
* ``first diff``: the median position of the first differing token over the
  requests that differ (``-`` when none does).

A change that moves no bits prints every workload at 100 %.  A declared bits
move (a new float dtype, a different k-means) reads here how far it moved
them.  Exit status is 0 whatever matched: the table informs, it does not gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def replay_tree(tree: Path, seed: int, smoke: bool) -> dict:
    """``{workload: {request id: tokens}}`` of every workload, replayed in
    ``tree``.  Runs in the calling process: call it once per process."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from bench import driver, workloads

    tokens = {}
    for name, workload in workloads.WORKLOADS.items():
        prepared = workload.prepare(seed, smoke)
        run = driver.replay(prepared.target, prepared.arrivals, prepared.source)
        tokens[name] = {key: list(record.tokens) for key, record in run.served.items()}
    return tokens


def tokens_of(tree: Path, seed: int, smoke: bool) -> dict:
    """:func:`replay_tree` of ``tree`` in a child process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--replay-tree", str(tree),
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, cwd=tree, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def match(old: dict, new: dict) -> "tuple[int, int, int, int, float | None]":
    """``(equal tokens, tokens, identical requests, requests, median first
    divergence)`` of one workload's ``{request id: tokens}`` pair."""
    equal = total = identical = 0
    firsts: list[int] = []
    keys = sorted(set(old) | set(new))
    for key in keys:
        a, b = old.get(key, []), new.get(key, [])
        same = [x == y for x, y in zip(a, b)]
        equal += sum(same)
        total += max(len(a), len(b))
        if a == b:
            identical += 1
        else:
            firsts.append(same.index(False) if False in same else min(len(a), len(b)))
    median = statistics.median(firsts) if firsts else None
    return equal, total, identical, len(keys), median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="git ref of the parent commit")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument("--smoke", action="store_true", help="the workloads' smoke sizes")
    parser.add_argument("--replay-tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.replay_tree is not None:
        print(json.dumps(replay_tree(args.replay_tree.resolve(), args.seed, args.smoke)))
        return 0
    if args.parent is None:
        parser.error("a parent ref is required")

    # bench_ab imports this checkout's ``bench``: only the parent process may
    from bench_ab import export

    with tempfile.TemporaryDirectory(prefix="token-match-") as tmp:
        parent = Path(tmp) / "parent"
        export(args.parent, parent)
        old = tokens_of(parent, args.seed, args.smoke)
    new = tokens_of(ROOT, args.seed, args.smoke)

    print(f"seed {args.seed}{' (smoke)' if args.smoke else ''}: {args.parent} -> working tree")
    print(f"{'workload':<14} {'tokens':>22} {'requests':>10} {'first diff':>11}")
    for name in old:
        equal, total, identical, requests, first = match(old[name], new.get(name, {}))
        share = f"{equal}/{total} ({100.0 * equal / max(total, 1):.1f} %)"
        where = "-" if first is None else f"{first:g}"
        print(f"{name:<14} {share:>22} {f'{identical}/{requests}':>10} {where:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
