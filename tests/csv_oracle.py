"""The row-wise CSV writer that records.write replaced, kept as its oracle.

write is the former records.write, unchanged: each row is formatted with
one %-format string read from its first row, integers with %s and every
other value with %.12e.  A table record is (header, rows).
"""

import json

import numpy as np

from wgqed.records import SpectrumScan, TimeTrace, write_text

_FMT = "%.12e"


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

