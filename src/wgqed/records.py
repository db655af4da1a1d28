"""Result records (spectra, time traces, fits) and their file formats.

write is the one artifact writer: it turns each record into the bytes of
its file format, a CSV table or strict JSON.  CSV files are UTF-8 with LF
line endings, integers as str(n) and every other number as CPython's
'%.12e' % x, so repeated runs of the same configuration are
byte-identical.  Tables are formatted column by column by one numpy
kernel, _cells, which matches '%.12e' byte for byte.  Every file goes
through write_text, which rewrites an existing file in place.
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
# the kernel's tables cover decimal exponents -_EXP to _EXP: room for the
# correction and the carry of |v| in [1e-280, 1e280], and 10**(12 + _EXP)
# is still a finite double
_EXP = 290


def _kernel_tables():
    """The tables of _cells: _MUL, _DIV, _EXPONENTS (by exponent e + _EXP) and _DIGITS.

    a * _MUL[e] / _DIV[e] scales 10**e to 1e12 with one correctly rounded
    power of ten; _EXPONENTS holds the field "e+dd" or "e+ddd" of each e,
    NUL-padded to 5 bytes, and _DIGITS the 4-byte groups "0000" to "9999".
    """
    powers = np.array([float(10**k) for k in range(_EXP + 13)])
    e = np.arange(-_EXP, _EXP + 1)
    a = np.abs(e)
    exponents = np.stack([
        np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
        np.where(a < 100, 0, a // 100 + 48), a // 10 % 10 + 48, a % 10 + 48,
    ], axis=1).astype(np.uint8)
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1)
    return (powers[np.maximum(12 - e, 0)], powers[np.maximum(e - 12, 0)],
            exponents.view("V5").ravel(), digits.view("V4").ravel())


_MUL, _DIV, _EXPONENTS, _DIGITS = _kernel_tables()


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


def _cells(x: np.ndarray) -> np.ndarray:
    """The bytes of '%.12e' % v for every double v in x, as NUL-padded 21-byte cells.

    |v| is scaled by a correctly rounded power of ten into a 13-digit
    mantissa m; its exponent, estimated by log10, is corrected once by the
    strict test (m >= 1e13 up, m < 1e12 down), and a mantissa that rounds
    to 1e13 carries into it.  m carries at most two roundings, about
    0.0022 at 1e13, so it rounds like the exact |v| unless it lies within
    0.004 of a tie; those cells, +-0, NaN, +-inf and |v| outside
    [1e-280, 1e280] are formatted by CPython, in one batch.  The last byte
    of each cell is left for its separator.
    """
    x = x.ravel()
    a = np.abs(x)
    exact = (a >= 1e-280) & (a <= 1e280)  # False for NaN
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) + _EXP
    m = a * _MUL[e] / _DIV[e]
    e += m >= 1e13
    e -= m < 1e12
    m = a * _MUL[e] / _DIV[e]
    r = np.rint(m)
    exact &= np.abs(m - r) < 0.496
    carry = r == 1e13
    e += carry
    r[carry] = 1e12
    q = r.astype(np.int64)
    head = q // 10**8  # the leading digit and the next four
    tail = q - head * 10**8
    cells = np.zeros((x.size, 21), np.uint8)
    cells[:, 0] = (x < 0) * 45  # "-"
    cells[:, 1] = head // 10**4 + 48
    cells[:, 2] = 46  # "."
    groups = np.stack([head % 10**4, tail // 10**4, tail % 10**4], axis=1)
    cells[:, 3:15] = _DIGITS.take(groups).view(np.uint8).reshape(-1, 12)
    cells[:, 15:20] = _EXPONENTS.take(e).view(np.uint8).reshape(-1, 5)
    (inexact,) = np.nonzero(~exact)
    if inexact.size:
        text = np.array([_FMT % v for v in x[inexact].tolist()], dtype="S20")
        cells[inexact, :20] = text.view(np.uint8).reshape(-1, 20)
    return cells


def _table(columns) -> bytes:
    """The CSV rows of a table given by its columns, integers as str(n), the rest as %.12e."""
    values = [np.asarray(c) for c in columns]
    table = _cells(np.stack(values, axis=1, dtype=float)).reshape(len(values[0]), len(values), 21)
    for j, v in enumerate(values):
        if v.dtype.kind in "iu":
            table[:, j, :20] = v.astype("S20").view(np.uint8).reshape(-1, 20)
    table[:, :, 20] = ord(",")
    table[:, -1, 20] = ord("\n")
    return table.tobytes().translate(None, b"\0")


def write(record, path) -> None:
    """Write one artifact in the format of its record.

    A SpectrumScan or a TimeTrace is a CSV table with its metadata as
    "# key=value" lines, a (header, columns) tuple a CSV table, and
    anything else strict JSON (indent 2, sorted keys, no NaN or infinity,
    final LF).  A table is formatted column by column: an integer column
    is written as str(n), and every other number as CPython's '%.12e' % x,
    byte for byte.  A scan's abs_t_sq is abs_t ** 2 as CPython rounds it,
    through libm pow, of each float: abs_t * abs_t and np.power differ
    from it in the last bit in about one value in 1,200.
    """
    if isinstance(record, SpectrumScan):
        # np.hypot rounds like abs() of each complex; np.abs (and so abs_t)
        # can differ in the last bit
        t = record.t_complex
        abs_t = np.hypot(t.real, t.imag)
        columns = (record.detunings, t.real, t.imag, abs_t, [a ** 2 for a in abs_t.tolist()])
        header = ("detuning_mhz", "re_t", "im_t", "abs_t", "abs_t_sq")
        metadata = record.metadata
    elif isinstance(record, TimeTrace):
        header, columns = ("time_ns", "value"), (record.times, record.values)
        metadata = record.metadata
    elif isinstance(record, tuple):
        (header, columns), metadata = record, {}
    else:
        write_text(path, json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    lines = [f"# {key}={metadata[key]}\n" for key in sorted(metadata or {})]
    lines.append(",".join(header) + "\n")
    write_text(path, "".join(lines) + _table(columns).decode("ascii"))


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
