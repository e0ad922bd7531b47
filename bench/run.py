"""Benchmark polymkl end to end, or per layer with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload wide --seed 7 --seconds 30 --trace 0

Each run calls `polymkl.harness.run_experiment` (the CLI code path) on the
named workload, once to warm up and then in a closed loop of one until
--seconds have passed, checks every repeat's artifacts, prints each metric by
name and unit, and ends with one JSON line: correct, attempted, failed and the
metrics (the end-to-end ones, or the per-layer ones when traced). The exit
code is nonzero when any repeat failed the correctness gate. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> str | None:
    """Pin every BLAS thread variable that is unset to 1, before numpy loads.
    Returns an error message when one is set to anything else."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    wrong = [f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS if os.environ[var] != "1"]
    if wrong:
        return f"BLAS must run on one thread; unset or set to 1: {', '.join(wrong)}"
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    error = pin_blas_threads()
    if error:
        print(f"refusing to run: {error}", file=sys.stderr)
        return 2
    # the program under test is the checkout's own source tree, never an
    # installed copy
    if not (ROOT / "src" / "polymkl" / "__init__.py").is_file():
        print(f"no polymkl source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(measure.WORKLOADS)}")
    workload = measure.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    return measure.measure(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
