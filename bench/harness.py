"""Closed-loop job runner, metrics and report for bench/run.py."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads

# Nominal seconds per pass on a 2-core Xeon with OpenBLAS at the commit
# that added this benchmark.  Passes per run = round(seconds / nominal),
# at least two, so that every job's time is a median over repeats; a
# traced run alternates untraced and traced passes.
NOMINAL_PASS_S = {"spectra": 3.0, "protocols": 2.5, "driven_n5": 15.0, "fits": 3.0}
MIN_PASSES = 2
SETUP_REPEATS = 3
# Median seconds of reference_seconds() on that machine; timings are
# reported at this reference speed (see speed_scale).
REFERENCE_S = 0.0113
# Workloads whose time is in large multithreaded LAPACK calls, which the
# machine's speed swings barely touch: scaling them by the kernel would
# import the swings (driven_n5 over ten seeds: raw spread 0.05 of the
# median, scaled 0.13).  Their timings are raw.
RAW_TIMING = {"driven_n5"}
TAIL_BEYOND = 10
WAIT_NOTE = ("no wait-time metric: wgqed neither queues nor waits "
             "(one process, one job at a time, no locks or pools in use)")
EXPECTED_ERROR_NAMES = ("FitConvergenceError", "FitError")


def expected_errors(wgqed) -> tuple[type, ...]:
    """The named fit rejections, wherever the package defines them."""
    found = []
    for module in (wgqed.protocols, wgqed.spectroscopy, wgqed.records):
        for name in EXPECTED_ERROR_NAMES:
            cls = getattr(module, name, None)
            if isinstance(cls, type) and issubclass(cls, Exception) and cls not in found:
                found.append(cls)
    return tuple(found)


# ---------------------------------------------------------------------------
# host block


def _blas_threads() -> str:
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def host_block(env_found: dict) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "env": {k: ("unset" if v is None else v) for k, v in env_found.items()},
        "WGQED_THREADS_in_run": os.environ.get("WGQED_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# machine speed


_REF_A = np.random.default_rng(0).standard_normal((64, 64))
_REF_B = np.random.default_rng(1).standard_normal((16, 16))
_REF_T = np.linspace(0.0, 5.0, 60)
_REF_Y = 0.7 * np.exp(-_REF_T / 1.3) * np.cos(4.0 * _REF_T) + 0.1


def _ref_model(t, a, tau, w, c):
    return a * np.exp(-t / tau) * np.cos(w * t) + c


def reference_seconds() -> float:
    """Seconds of one run of a fixed kernel that mixes wgqed's kinds of work.

    The kernel does small dense SVDs, Kronecker products, a Python loop
    and a small curve fit, and needs no wgqed code.
    """
    from scipy.optimize import curve_fit

    start = time.perf_counter()
    for _ in range(6):
        np.linalg.svd(_REF_A)
        np.kron(_REF_B, _REF_B) @ np.ones(256)
        sum(i * i for i in range(2000))
    curve_fit(_ref_model, _REF_T, _REF_Y, p0=[1.0, 1.0, 3.8, 0.0])
    return time.perf_counter() - start


def speed_scale(reference_samples: list[float]) -> float:
    """Factor that puts timings taken among these kernel samples at reference speed.

    Shared machines swing in speed by a third over tens of seconds, which
    would swamp any regression bound.  The reference kernel runs before
    the first and after every timed job of a pass; the pass's job seconds
    are reported multiplied by REFERENCE_S / (median kernel seconds), i.e.
    as they would be at the reference speed.  Raw wall times are printed
    as well.
    """
    return REFERENCE_S / statistics.median(reference_samples)


# ---------------------------------------------------------------------------
# set-up


def measure_setup(run_script: Path, args, run_dir: Path) -> list[float]:
    """Wall seconds of fresh processes that import wgqed and make and load the inputs.

    These are raw wall times: the reference kernel tracks numeric work,
    not interpreter start-up and imports.
    """
    times = []
    for k in range(SETUP_REPEATS):
        target = run_dir / f"setup{k}"
        cmd = [sys.executable, str(run_script), "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=run_script.parent.parent, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        shutil.rmtree(target, ignore_errors=True)
    return times


# ---------------------------------------------------------------------------
# jobs


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, wgqed, jobs, run_dir: Path, scaled: bool):
        self.wgqed = wgqed
        self.scaled = scaled
        self.jobs = jobs
        self.out_dir = run_dir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.rejections = expected_errors(wgqed)
        self.records = []  # (pass, job name, wall seconds, speed scale, failure reason or None)
        self.digests: dict[str, set[str]] = {}
        self.bytes_per_pass: list[int] = []
        self.tracer = None

    def _call(self, job):
        w = self.wgqed
        if job.kind == "config":
            return w.cli.run_config(job.config, str(self.out_dir / job.name))
        if job.kind == "lorentzian_fit":
            return w.spectroscopy.lorentzian_fit(job.record)
        return getattr(w.protocols, job.kind)(job.record)

    def prepare(self):
        """Load the written configs back, as a user of the CLI would."""
        for job in self.jobs:
            if job.config_path is not None:
                job.config = self.wgqed.cli.load_config(job.config_path)
            elif job.kind == "lorentzian_fit":
                job.record = self.wgqed.records.SpectrumScan(job.data["t"], job.data["y"])
            else:
                job.record = self.wgqed.records.TimeTrace(job.data["t"], job.data["y"])

    def run_pass(self, index: int) -> float:
        """Run every job once; returns the summed job seconds at reference speed."""
        written = 0
        reference = reference_seconds if self.scaled else (lambda: REFERENCE_S)
        finished, refs = [], [reference()]
        for job in self.jobs:
            root = self.tracer.open_job(f"{index}:{job.name}") if self.tracer else None
            result = error = None
            start = time.perf_counter()
            try:
                result = self._call(job)
            except Exception as err:  # judged by _check: a named rejection or a failure
                error = err
            elapsed = time.perf_counter() - start
            if root is not None:
                self.tracer.close_job(root, type(error).__name__ if error else None)
            refs.append(reference())
            reason, digest, nbytes = self._check(job, result, error)
            written += nbytes
            finished.append((job.name, elapsed, reason))
            self.digests.setdefault(job.name, set()).add(digest)
        self.bytes_per_pass.append(written)
        factor = speed_scale(refs)
        self.records += [(index, name, elapsed, factor, reason) for name, elapsed, reason in finished]
        return factor * sum(elapsed for _, elapsed, _ in finished)

    def _check(self, job, result, error):
        """Oracle verdict, artifact digest and artifact bytes of one finished job."""
        expect_reject = job.expect.get("reject", False)
        if error is not None:
            named = isinstance(error, self.rejections)
            reason = None if (named and expect_reject) else f"raised {type(error).__name__}: {error}"
            return reason, f"{type(error).__name__}: {error}", 0
        if expect_reject:
            return "unidentifiable input was not rejected", repr(result), 0
        try:
            if job.kind == "config":
                artifacts = [p for p in result if not p.name.endswith("_manifest.json")]
                reason = oracles.check_config_job(self.wgqed, job, result)
                return reason, _digest(artifacts), sum(p.stat().st_size for p in result)
            reason = oracles.check_fit_job(job, result)
            if job.kind == "lorentzian_fit":
                return reason, repr(result), 0
            return reason, self.wgqed.records.fit_result_json(result), 0
        except Exception as err:  # a malformed artifact fails the job
            return f"oracle could not read the output: {type(err).__name__}: {err}", "", 0

    def nondeterministic(self) -> int:
        return sum(len(d) > 1 for d in self.digests.values())


# ---------------------------------------------------------------------------
# metrics


def tail(typical: list[float], passes: int) -> tuple[float, float, int]:
    """Job seconds at the highest percentile with at least ten samples beyond it.

    The samples are the jobs of every pass, each at its typical time (its
    median over passes): the jobs are deterministic, so what varies
    between repeats of one job is the machine, not the program.  Returns
    (value, percentile, sample count).  Below twenty samples that
    percentile would not lie above the median; the slowest job is
    reported instead, as p100.
    """
    ordered = sorted(typical * passes)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND  # 1-based rank with exactly ten samples after it
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics at the reference speed (see speed_scale).

    Every pass runs the same jobs, so a job's typical time is its median
    over passes.  job_p50_s is the median of those typical times, and the
    throughput is that of a typical pass: the points of one pass over the
    sum of the typical times.
    """
    typical = [
        statistics.median(s * f for _, name, s, f, _ in runner.records if name == job.name)
        for job in runner.jobs
    ]
    points = sum(j.points for j in runner.jobs)
    median_pass = sum(typical)
    value, pct, n = tail(typical, len(runner.records) // len(runner.jobs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "points_per_s": {"value": points / median_pass, "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(typical), "unit": "s"},
        "job_tail_s": {"value": value, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    raw_typical = [
        statistics.median(s for _, name, s, _, _ in runner.records if name == job.name) for job in runner.jobs
    ]
    raw_pass = sum(raw_typical)
    factors = [r[3] for r in runner.records]
    failed = sum(r[4] is not None for r in runner.records)
    notes = [
        f"job_tail_s is p{pct:.1f} of {n} jobs"
        + (" (under twenty jobs: the slowest job)" if n < 2 * TAIL_BEYOND else ""),
        f"failed_ratio = {failed}/{len(runner.records)} = {failed / len(runner.records):.4g}",
        f"speed scale (reference {REFERENCE_S} s / measured) of the passes: "
        f"{', '.join(f'{f:.3f}' for f in sorted(set(factors), key=factors.index))}",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}",
        f"raw wall: points_per_s {points / raw_pass:.6g}; "
        f"job_p50_s {statistics.median(raw_typical):.4g}",
        f"points per pass: {points}; median pass at reference speed: {median_pass:.3f} s",
    ]
    return metrics, notes


_PER_LAYER_UNITS = {"calls": "count", "points": "count", "nfev": "count", "rejected": "count",
                    "out_bytes": "B", "self_s": "s"}


def per_layer(runner: Runner, tracer, traced_busy, untraced_busy, expected_names) -> dict:
    """Per-layer metrics per traced pass; busy lists hold seconds at reference speed."""
    passes = len(traced_busy)
    values = tracing.layer_metrics(tracer.summary(set(expected_names)))
    metrics = {}
    for name, value in values.items():
        unit = _PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "ratio")
        if unit != "ratio":
            value = value / passes
        metrics[name] = {"value": value, "unit": unit}
    metrics["records.bytes_written"] = {"value": statistics.mean(runner.bytes_per_pass), "unit": "B"}
    metrics["records.nondeterministic_outputs"] = {"value": runner.nondeterministic(), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.mean(t - u for t, u in zip(traced_busy, untraced_busy)),
        "unit": "s",
    }
    return metrics


# ---------------------------------------------------------------------------
# entry


def run(wgqed, args, env_found: dict, run_script: Path, out_root: Path) -> int:
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        host = host_block(env_found)
        setup = None if args.trace else measure_setup(run_script, args, run_dir)
        jobs = workloads.make_jobs(args.workload, args.seed, run_dir / "inputs")
        runner = Runner(wgqed, jobs, run_dir, scaled=args.workload not in RAW_TIMING)
        runner.prepare()
        passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        tracer = tracing.Tracer() if args.trace else None
        busy = []
        for k in range(2 * (passes // 2) if tracer else passes):
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install(wgqed)
                runner.tracer = tracer
            try:
                busy.append(runner.run_pass(k))
            finally:
                if traced:
                    runner.tracer = None
                    tracer.uninstall()
        if tracer:
            names = [cls.__name__ for cls in runner.rejections]
            metrics = per_layer(runner, tracer, busy[1::2], busy[0::2], names)
            spans_dir = out_root / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            notes = [
                f"per-layer values are per traced pass ({len(busy) // 2} traced, "
                f"{len(busy) // 2} untraced, alternating)",
                f"pass seconds at reference speed: {', '.join(f'{b:.3f}' for b in busy)}",
                f"spans: {spans_path.relative_to(out_root.parent)} ({len(tracer.spans)} spans)",
            ]
        else:
            metrics, notes = end_to_end(runner, setup)
        notes.append(WAIT_NOTE)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in runner.records if r[4] is not None]
    print(f"wgqed benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(jobs)}")
    print("host: " + json.dumps(host, sort_keys=True))
    for name in sorted({r[1] for r in runner.records}, key=[j.name for j in jobs].index):
        secs = [r[2] for r in runner.records if r[1] == name]
        print(f"  job {name:<28s} wall median {statistics.median(secs):9.4f} s over {len(secs)} passes")
    for index, name, _, _, reason in failed:
        print(f"FAILED pass {index} job {name}: {reason}")
    for note in notes:
        print("note: " + note)
    for name, entry in metrics.items():
        print(f"  {name:<48s} {entry['value']:>16.6g} {entry['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(runner.records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0
