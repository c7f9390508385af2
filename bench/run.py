"""The repository's benchmark.

    python3 bench/run.py [--workload W] [--seed S] [--smoke] [--no-trace] [--out FILE]

runs the four workloads, prints every metric by name with its unit, checks
that outputs are correct and (with ``--out``) writes one result JSON.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

is the form the benchmark driver calls: one workload, one kind of pass, and
one JSON object as the last line of standard output.

Single process, no threads of its own.  BLAS is pinned to one thread before
NumPy is imported: on a 2-core box, two BLAS threads make step times swing
with whatever else is running.  Run as a script, it also tells glibc's malloc
to keep freed memory (see ``_keep_freed_memory``).
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _keep_freed_memory() -> None:
    """Serve large blocks from the heap, not ``mmap``, and never trim it.

    NumPy's 64-128 MB attention temporaries otherwise go back to the OS after
    every prefill chunk and fault in again for the next.  On this VM the
    page-fault path is the noisiest thing the program does: over six runs of
    ``decode_long`` system time ranged 7-15 s (interquartile range 0.8 of the
    median) while user time stayed within 5 %.  With this, ``prefill_long``
    takes 35 k page faults instead of 152 k.  glibc only; elsewhere a no-op.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-4, 0)            # M_MMAP_MAX: no block comes from mmap
    mallopt(-1, 2**31 - 1)    # M_TRIM_THRESHOLD: the heap is not given back
    mallopt(-2, 1 << 26)      # M_TOP_PAD: grow it 64 MB at a time


def _import_benchmark():
    """Import the program and the harness from this checkout; returns the
    harness modules and how long the imports took (recorded as ``import_s``)."""
    start = perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"repro was imported from {repro.__file__}, not this checkout")
    from bench import harness, metrics, report, workloads

    return (numpy, harness, metrics, report, workloads), perf_counter() - start


def _environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, help="what one run is sized for; a pass is fixed work, so this "
                             "only budgets the repeated set-up")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (seconds, not minutes)")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    args = parser.parse_args(argv)

    try:
        (numpy, harness, metrics, report, workloads), import_seconds = _import_benchmark()
    except ImportError as error:
        print(f"bench/run.py: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    driver_form = args.trace is not None
    if driver_form and args.workload is None:
        parser.error("--trace needs --workload")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    seconds = args.seconds if args.seconds is not None else harness.DEFAULT_SECONDS

    result = {
        "schema": 1,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": seconds,
        "environment": _environment(numpy),
        "workloads": {},
    }
    for name in names:
        result["workloads"][name] = harness.measure(
            workloads.WORKLOADS[name],
            seed=args.seed,
            smoke=args.smoke,
            seconds=seconds,
            end_to_end=args.trace != 1,
            traced=args.trace == 1 or (not driver_form and not args.no_trace),
            import_seconds=import_seconds,
        )
    report.print_result(result)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    correct = all(record["correct"] for record in result["workloads"].values())

    if driver_form:
        record = result["workloads"][args.workload]
        units = {m.name: m.unit for m in metrics.END_TO_END + metrics.PER_LAYER}
        values = record["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    _keep_freed_memory()
    sys.exit(main())
