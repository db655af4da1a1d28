"""Result records (spectra, time traces, fits) and their file formats.

CSV files are UTF-8 with LF line endings and %.12e numeric formatting so
repeated runs of the same configuration are byte-identical.  Every artifact
goes through write_text, which rewrites an existing file in place.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import core

__all__ = [
    "SpectrumScan",
    "TimeTrace",
    "FitResult",
    "write_text",
    "write_table_csv",
    "write_scan_csv",
    "write_trace_csv",
    "fit_result_payload",
    "fit_result_json",
]

_FMT = "%.12e"


class FitError(RuntimeError):
    """A fit failed or its data cannot identify the model.

    Raised by the lineshape fits of spectroscopy and the trace fits of
    protocols; best holds the best parameters found so far, if any.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SpectrumScan:
    """Complex transmission amplitude versus drive detuning (MHz)."""

    detunings: np.ndarray
    t_complex: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        det = np.asarray(self.detunings, dtype=float)
        t = np.asarray(self.t_complex, dtype=complex)
        if det.shape != t.shape or det.ndim != 1:
            raise ValueError("detunings and t_complex must be equal-length 1D arrays")
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "t_complex", t)

    @property
    def abs_t(self) -> np.ndarray:
        return np.abs(self.t_complex)

    @property
    def abs_t_sq(self) -> np.ndarray:
        return np.abs(self.t_complex) ** 2


@dataclass(frozen=True)
class TimeTrace:
    """Real-valued observable (population or coherence) versus time in ns.

    The times are a grid the master equation could step: finite and
    strictly increasing in ns and in us (core.time_grid_us).
    """

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be equal-length 1D arrays")
        core.time_grid_us(t, "ns")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit output with one-sigma parameter uncertainties."""

    model: str
    parameters: dict[str, tuple[float, float]]
    residual_norm: float

    def __post_init__(self):
        for name, (value, sigma) in self.parameters.items():
            if sigma < 0 or not np.isfinite(value):
                raise ValueError(f"bad fit parameter {name}: {value} +/- {sigma}")

    def value(self, name: str) -> float:
        return self.parameters[name][0]

    def sigma(self, name: str) -> float:
        return self.parameters[name][1]


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 bytes, rewriting an existing file in place.

    The file is opened without O_TRUNC, written from its start and then cut
    to the new length, so a rerun reuses the file's blocks instead of freeing
    and allocating them again; a shorter rewrite leaves no stale tail.  As
    with a text file opened for writing, an existing file keeps its inode
    and mode, a new file gets 0o666 & ~umask, and a missing directory raises
    FileNotFoundError.  Nothing is fsynced and the write is not atomic: a
    reader, or a crash, during the write can see a mix of old and new bytes.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_table_csv(header, rows, path, metadata: dict | None = None) -> None:
    """Write one CSV table: optional "# key=value" lines, header, data rows.

    Integers are written as is, every other value with %.12e.  Each column
    holds one kind of value, so the cell formats are read once, from the
    first row, into one %-format string that formats every row.
    """
    lines = [f"# {key}={metadata[key]}" for key in sorted(metadata or {})]
    lines.append(",".join(header))
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        first = tuple(first)
        fmt = ",".join("%s" if isinstance(x, (int, np.integer)) else _FMT for x in first)
        lines.append(fmt % first)
        lines.extend(fmt % tuple(row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def write_scan_csv(scan: SpectrumScan, path) -> None:
    # |t| once per row: np.hypot rounds like abs() of each complex, np.abs
    # (and so abs_t) can differ in the last bit; the square stays a ** 2
    t = scan.t_complex
    columns = (scan.detunings, t.real, t.imag, np.hypot(t.real, t.imag))
    rows = ((d, re, im, a, a ** 2) for d, re, im, a in zip(*(c.tolist() for c in columns)))
    write_table_csv(("detuning_mhz", "re_t", "im_t", "abs_t", "abs_t_sq"), rows, path, scan.metadata)


def write_trace_csv(trace: TimeTrace, path) -> None:
    rows = zip(trace.times.tolist(), trace.values.tolist())
    write_table_csv(("time_ns", "value"), rows, path, trace.metadata)


def fit_result_payload(fit: FitResult) -> dict:
    """The JSON object of a fit: model, parameters with their uncertainties, residual norm."""
    return {
        "model": fit.model,
        "parameters": {
            name: {"value": value, "uncertainty": sigma}
            for name, (value, sigma) in sorted(fit.parameters.items())
        },
        "residual_norm": fit.residual_norm,
    }


def fit_result_json(fit: FitResult) -> str:
    return json.dumps(fit_result_payload(fit), indent=2, sort_keys=True)
