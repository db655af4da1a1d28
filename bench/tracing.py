"""Span tracing around wgqed's public functions, installed from outside.

``Tracer.install`` wraps every public function of each wgqed module and
rebinds the wrapper wherever the original is bound in a wgqed namespace:
on its own module, so that intra-module calls are caught, and on modules
that imported it by name.  Two third-party entry points that wgqed
imports by name are wrapped too, ``lindblad.solve_ivp`` and
``protocols.curve_fit``.  No file of the package changes.

Spans live in memory as (id, parent, job, name, start, end, extra, error)
and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "records", "core", "lindblad", "spectroscopy", "protocols", "calibration", "util")
EXTERNAL = (("lindblad", "solve_ivp"), ("protocols", "curve_fit"))
SIMULATE = ("iswap", "run_sequence")


def _nbytes(obj) -> int:
    """Bytes held by a dense array or by the index and value arrays of a sparse one."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    parts = ("data", "indices", "indptr", "row", "col", "offsets")
    return sum(int(getattr(obj, p).nbytes) for p in parts if hasattr(getattr(obj, p, None), "nbytes"))


def _detunings_arg(args, kwargs):
    grid = kwargs.get("detunings", args[2] if len(args) > 2 else ())
    return len(grid)


# per-span counters read from a call's arguments or result
_ON_RESULT = {
    "lindblad.assemble_liouvillian": _nbytes,
    "lindblad.solve_ivp": lambda result: int(getattr(result, "nfev", 0)),
}
_ON_ARGS = {"spectroscopy.multi_qubit_transmission": _detunings_arg}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_result, on_args = _ON_RESULT.get(name), _ON_ARGS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            extra = on_args(args, kwargs) if on_args else None
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result:
                    extra = on_result(result)
                return result
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.job, name, start, end, extra, error)

        return span

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = []
        for layer in LAYERS:
            module = getattr(package, layer, None)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets.append((f"{layer}.{attr}", obj))
        for layer, attr in EXTERNAL:
            obj = getattr(getattr(package, layer, None), attr, None)
            if obj is not None:
                targets.append((f"{layer}.{attr}", obj))
        wrappers = {id(obj): self._wrap(name, obj) for name, obj in targets}
        originals = {id(obj): obj for _, obj in targets}
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    # -- job root spans and output -----------------------------------------

    def open_job(self, job_id: str) -> int:
        """Start the root span of one job; returns its index."""
        self.job = job_id
        span_id = len(self.spans)
        self.spans.append((span_id, None, job_id, "job", time.perf_counter(), None, None, None))
        self._stack.append(span_id)
        return span_id

    def close_job(self, span_id: int, error: str | None) -> None:
        self._stack.pop()
        sid, parent, job, name, start, _, extra, _ = self.spans[span_id]
        self.spans[span_id] = (sid, parent, job, name, start, time.perf_counter(), extra, error)
        self.job = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, extra, error in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end, "extra": extra, "error": error}) + "\n")

    # -- aggregation ------------------------------------------------------

    def summary(self, expected_errors: set[str]) -> dict[str, dict]:
        """Per span name: calls, self seconds, summed extras, raised and rejected calls.

        Only spans inside a job count; the oracles call wgqed after a job's
        root span has closed.  A call is rejected when it raised one of the
        expected, named errors.
        """
        in_jobs = [span for span in self.spans if span[2] is not None]  # not the oracles' calls
        child = defaultdict(float)
        for _, parent, _, _, start, end, _, _ in in_jobs:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "extra": 0, "raised": 0, "rejected": 0}
        )
        for sid, _, _, name, start, end, extra, error in in_jobs:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[sid]
            entry["extra"] += extra or 0
            entry["raised"] += error is not None
            entry["rejected"] += error in expected_errors
        return out


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a span summary."""

    def pick(predicate):
        entries = [e for n, e in summary.items() if predicate(n)]
        return {key: sum(e[key] for e in entries) for key in ("calls", "self_s", "extra", "raised", "rejected")}

    def one(name):
        return pick(lambda n: n == name)

    def layer(prefix):
        return pick(lambda n: n.startswith(prefix + "."))

    build = one("lindblad.build_model")
    assemble = one("lindblad.assemble_liouvillian")
    steady = one("lindblad.steady_state")
    evolve = one("lindblad.evolve")
    ivp = one("lindblad.solve_ivp")
    mqt = one("spectroscopy.multi_qubit_transmission")
    fits = pick(lambda n: n.startswith("protocols.fit_"))
    curve_fit = one("protocols.curve_fit")
    parallel = one("util.parallel_map")
    core = layer("core")
    simulate = {f"protocols.{name}" for name in SIMULATE}
    return {
        "cli.run_config.self_s": one("cli.run_config")["self_s"],
        "records.write.self_s": layer("records")["self_s"],
        "core.calls": core["calls"],
        "core.self_s": core["self_s"],
        "lindblad.build_model.calls": build["calls"],
        "lindblad.build_model.self_s": build["self_s"],
        "lindblad.assemble_liouvillian.calls": assemble["calls"],
        "lindblad.assemble_liouvillian.self_s": assemble["self_s"],
        "lindblad.assemble_liouvillian.out_bytes": assemble["extra"],
        "lindblad.assemblies_per_model": assemble["calls"] / build["calls"] if build["calls"] else 0.0,
        "lindblad.steady_state.calls": steady["calls"],
        "lindblad.steady_state.self_s": steady["self_s"],
        "lindblad.evolve.calls": evolve["calls"],
        "lindblad.evolve.self_s": evolve["self_s"],
        "lindblad.solve_ivp.calls": ivp["calls"],
        "lindblad.solve_ivp.self_s": ivp["self_s"],
        "lindblad.solve_ivp.nfev": ivp["extra"],
        "lindblad.dominant_oscillation.self_s": one("lindblad.dominant_oscillation")["self_s"],
        "spectroscopy.multi_qubit_transmission.self_s": mqt["self_s"],
        "spectroscopy.multi_qubit_transmission.points": mqt["extra"],
        "spectroscopy.lorentzian_fit.self_s": one("spectroscopy.lorentzian_fit")["self_s"],
        "protocols.simulate.self_s": pick(
            lambda n: n.startswith("protocols.simulate_") or n in simulate
        )["self_s"],
        "protocols.fit.calls": fits["calls"],
        "protocols.fit.self_s": fits["self_s"],
        "protocols.fit.rejected": fits["rejected"],
        "protocols.curve_fit.calls": curve_fit["calls"],
        "protocols.curve_fit.self_s": curve_fit["self_s"],
        "protocols.curve_fit.useful_ratio": (
            (fits["calls"] - fits["raised"]) / curve_fit["calls"] if curve_fit["calls"] else 0.0
        ),
        "calibration.self_s": layer("calibration")["self_s"],
        "util.parallel_map.calls": parallel["calls"],
        "util.parallel_map.self_s": parallel["self_s"],
    }
