import math
import os
from importlib.resources import files

import csv_oracle
import numpy as np
import pytest

from wgqed import cli, core, records, spectroscopy

BUNDLED = sorted(entry.name[:-4] for entry in files("wgqed").joinpath("configs").iterdir())
# |t| values whose square CPython (libm pow) rounds apart from t * t, each
# across a 13-digit boundary, so that '%.12e' shows which of the two was written
POW_SQUARES = [
    0.01902831463585911, 0.028003570143186208, 0.37367685632167535, 0.3590177195868611,
    0.02624938033730606, 0.9567000925220767, 0.09805378242563874, 0.05948751539218544,
]


def test_fit_result_rejects_a_nan_uncertainty():
    # a NaN uncertainty passed "sigma < 0" and reached the strict JSON writer
    with pytest.raises(ValueError, match=r"^bad fit parameter lifetime_ns: 100.0 \+/- nan$"):
        records.FitResult("exponential", {"lifetime_ns": (100.0, math.nan)}, 0.0)


class TestWriteText:
    @pytest.mark.parametrize("old, new", [("x" * 5000 + "\n", "short\n"), ("short\n", "y" * 5000 + "\n")])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "artifact.csv"
        records.write_text(path, old)
        records.write_text(path, new)
        assert path.read_bytes() == new.encode("utf-8")

    def test_text_is_written_as_utf8_with_lf(self, tmp_path):
        path = tmp_path / "artifact.json"
        records.write_text(path, "a\nµ\n")
        assert path.read_bytes() == b"a\n\xc2\xb5\n"

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "artifact.csv"
        records.write_text(path, "first\n")
        os.chmod(path, 0o640)
        before = os.stat(path)
        records.write_text(path, "second, longer\n")
        after = os.stat(path)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_matches_open_for_writing(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "reference.csv", "w") as fh:
                fh.write("x\n")
            records.write_text(tmp_path / "artifact.csv", "x\n")
        finally:
            os.umask(previous)
        reference = os.stat(tmp_path / "reference.csv").st_mode
        assert os.stat(tmp_path / "artifact.csv").st_mode == reference

    def test_missing_parent_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            records.write_text(tmp_path / "missing" / "artifact.csv", "x\n")


def written(tmp_path, write, record) -> bytes:
    path = tmp_path / "artifact.csv"
    write(record, path)
    return path.read_bytes()


def row_record(record):
    """A record as the row-wise writer takes it: a table's columns become rows of Python numbers."""
    if isinstance(record, tuple):
        header, columns = record
        return header, zip(*(np.asarray(column).tolist() for column in columns))
    return record


def checked_run(config) -> dict:
    experiment, spec, params, checked = cli._checked(config)
    return experiment.run(spec, params, checked)


class TestRowWiseOracle:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_artifacts_match_the_row_wise_writer(self, tmp_path, name):
        config = cli.load_config(files("wgqed").joinpath(f"configs/{name}.cfg"))
        for record in checked_run(config).values():
            assert written(tmp_path, records.write, record) == written(tmp_path, csv_oracle.write, row_record(record))

    def test_state_and_modes_tables_match_the_former_rows(self, tmp_path):
        # no bundled config runs steady or modes; the rows are built as the
        # producers built them before they handed over columns
        system = cli.load_config(files("wgqed").joinpath("configs/fig2c_cavity.cfg"))["system"]
        spec = cli.build_system(system)
        steady = {"experiment": "steady", "system": system, "params": {"detuning_mhz": 1.5, "omega_rabi": 0.5}}
        rho = spectroscopy.driven_steady_state(spec, cli._checked(steady)[3], 1.5)
        row, col = np.indices(rho.shape).reshape(2, -1).tolist()
        values = rho.reshape(-1)
        state = (("row", "col", "re", "im"), zip(row, col, values.real.tolist(), values.imag.tolist()))
        modes_rows = []
        for k, mode in enumerate(core.collective_modes(spec)):
            modes_rows.append([k, mode.decay_rate, mode.frequency_shift])
            for amp in mode.amplitudes:
                modes_rows[-1] += [amp.real, amp.imag]
        header = ["mode", "decay_mhz", "shift_mhz"] + [f"{p}_amp{j}" for j in range(3) for p in ("re", "im")]
        for suffix, config, former in [
            ("state.csv", steady, state),
            ("modes.csv", {"experiment": "modes", "system": system}, (header, modes_rows)),
        ]:
            record = checked_run(config)[suffix]
            assert written(tmp_path, records.write, record) == written(tmp_path, csv_oracle.write, former)

    @pytest.mark.parametrize("record", [
        (("a", "b"), ([], [])),
        records.SpectrumScan([], [], {"probe": "P", "omega_rabi": 0.02}),
        records.TimeTrace([0.0, 1.5, 3.0], [1.0, -0.5, 2e-300], {"qubit": "Q", "unit": "\u00b5s"}),
        (("n", "x"), ([0, -7, 2**62], [0.0, -0.0, 1e300])),
    ], ids=["header-only", "empty-scan-with-metadata", "trace-with-metadata", "integers"])
    def test_edge_tables_match_the_row_wise_writer(self, tmp_path, record):
        assert written(tmp_path, records.write, record) == written(tmp_path, csv_oracle.write, row_record(record))


def adversarial_doubles(rng) -> np.ndarray:
    """Doubles where a %.12e formatter that scales by powers of ten can go wrong, with their negatives."""
    nan_payloads = (np.uint64(0x7FF) << np.uint64(52)) | rng.integers(1, 2**52, 1000, dtype=np.uint64)
    special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    near = [powers, powers * (1 - 5e-14), powers * (1 + 5e-14)]
    for _ in range(3):
        near += [np.nextafter(near[-3], 0), np.nextafter(near[-2], math.inf)]
    # 13-digit ties (k + 1/2) 10**e and their neighbours
    ties = np.array([
        float(f"{k}5e{e - 13}")
        for k, e in zip(rng.integers(10**12, 10**13, 20000).tolist(), rng.integers(-290, 290, 20000).tolist())
    ])
    ties = [ties, np.nextafter(ties, 0), np.nextafter(ties, math.inf), np.nextafter(np.nextafter(ties, 0), 0)]
    # where the exponent gains a third digit
    digits = np.array([
        float(f"{m}e{e}") for e in (99, 100, -99, -100, -101)
        for m in ("1", "9.999999999999", "9.9999999999995", "9.99999999999949", "9.9999999999999")
    ])
    x = np.concatenate([
        rng.integers(0, 2**64, 60000, dtype=np.uint64).view(float), nan_payloads.view(float), special,
        *near, *ties, digits, np.nextafter(digits, 0), np.nextafter(digits, math.inf),
    ])
    return np.concatenate([x, -x])


def test_every_double_is_written_as_cpython_formats_it(tmp_path):
    x = adversarial_doubles(np.random.default_rng(46)).reshape(2, -1)  # ',' and '\n' separators
    path = tmp_path / "doubles.csv"
    records.write((("u", "v"), (x[0], x[1])), path)
    expected = ["%.12e,%.12e" % row for row in zip(*x.tolist())]
    assert path.read_text().splitlines() == ["u,v"] + expected


def test_abs_t_sq_is_cpython_power(tmp_path):
    assert any(v ** 2 != v * v for v in POW_SQUARES)
    scan = records.SpectrumScan(np.arange(len(POW_SQUARES), dtype=float), np.array(POW_SQUARES, dtype=complex))
    lines = written(tmp_path, records.write, scan).decode().splitlines()[1:]
    assert [line.split(",")[4] for line in lines] == ["%.12e" % (v ** 2) for v in POW_SQUARES]
