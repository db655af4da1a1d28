"""Result records (spectra, time traces, fits) and their file formats.

write is the one artifact writer: it turns each record into the bytes of
its file format, a CSV table or strict JSON.  CSV files are UTF-8 with LF
line endings and %.12e numeric formatting so repeated runs of the same
configuration are byte-identical.  Every file goes through write_text,
which rewrites an existing file in place.
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
    "write",
    "write_text",
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
            if not sigma >= 0 or not np.isfinite(value):  # a NaN uncertainty fails
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


def write(record, path) -> None:
    """Write one artifact in the format of its record.

    A SpectrumScan or a TimeTrace is a CSV table with its metadata as
    "# key=value" lines, a (header, rows) tuple a CSV table, and anything
    else strict JSON (indent 2, sorted keys, no NaN or infinity, final LF).
    In a table, integers are written as is and every other value with
    %.12e.  Each column holds one kind of value, so the cell formats are
    read once, from the first row, into one %-format string.
    """
    if isinstance(record, SpectrumScan):
        # |t| once per row: np.hypot rounds like abs() of each complex, np.abs
        # (and so abs_t) can differ in the last bit; the square stays a ** 2
        t = record.t_complex
        columns = (record.detunings, t.real, t.imag, np.hypot(t.real, t.imag))
        header = ("detuning_mhz", "re_t", "im_t", "abs_t", "abs_t_sq")
        rows = ((d, re, im, a, a ** 2) for d, re, im, a in zip(*(c.tolist() for c in columns)))
        metadata = record.metadata
    elif isinstance(record, TimeTrace):
        header = ("time_ns", "value")
        rows, metadata = zip(record.times.tolist(), record.values.tolist()), record.metadata
    elif isinstance(record, tuple):
        (header, rows), metadata = record, {}
    else:
        write_text(path, json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
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


def fit_result_payload(fit: FitResult, derived: dict | None = None) -> dict:
    """The JSON object of a fit: model, parameters with their uncertainties, residual norm.

    A non-empty derived adds its values, the quantities a run reads off
    the fit, as the "derived" block.
    """
    payload = {
        "model": fit.model,
        "parameters": {
            name: {"value": value, "uncertainty": sigma}
            for name, (value, sigma) in sorted(fit.parameters.items())
        },
        "residual_norm": fit.residual_norm,
    }
    if derived:
        payload["derived"] = derived
    return payload


def fit_result_json(fit: FitResult) -> str:
    return json.dumps(fit_result_payload(fit), indent=2, sort_keys=True)
