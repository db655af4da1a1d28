"""Layered benchmark for wgqed.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload spectra --seed 1 --seconds 15 --trace 0

Jobs run one at a time in this process, as a closed loop: wgqed is a
batch toolkit, so its user starts the next experiment when the previous
one has finished, and no arrival process exists.  A job is one
``cli.run_config`` call on a generated config or one call of a fit
function on a generated trace.  A run repeats the workload's job list in
whole passes; the pass count is fixed by --seconds and the workload's
nominal pass time, so every commit measures the same jobs and the tail
percentile always has the same sample count.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes, reports the per-layer metrics of
the traced passes (per pass) and the tracing overhead, and writes the
spans to .bench_out/spans/.  Outputs are checked by the oracles in
oracles.py after each job, outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _prepare_environment() -> dict:
    """User-default threading: WGQED_THREADS unset, BLAS threads at most nproc.

    Must run before numpy is imported.  Returns the values found.
    """
    nproc = len(os.sched_getaffinity(0))
    found = {"WGQED_THREADS": os.environ.pop("WGQED_THREADS", None)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        found[var] = os.environ.get(var)
        if found[var] is not None and found[var].isdigit() and int(found[var]) > nproc:
            os.environ[var] = str(nproc)
    return found


def _import_wgqed():
    if not (SRC / "wgqed" / "__init__.py").is_file():
        sys.exit(f"error: no wgqed sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import wgqed
    import wgqed.cli  # loads every module the CLI uses

    if Path(wgqed.__file__).resolve().parent != SRC / "wgqed":
        sys.exit(f"error: imported wgqed from {wgqed.__file__}, not from {SRC}")
    return wgqed


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    env_found = _prepare_environment()
    import workloads  # imports numpy, so only now

    args = _parse(argv, workloads.WORKLOADS)
    wgqed = _import_wgqed()

    if args.setup_only:
        for job in workloads.make_jobs(args.workload, args.seed, Path(args.setup_only)):
            if job.config_path is not None:
                wgqed.cli.load_config(job.config_path)
        return 0

    import harness

    return harness.run(wgqed, args, env_found, Path(__file__).resolve(), OUT)


if __name__ == "__main__":
    sys.exit(main())
