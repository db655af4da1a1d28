import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from wgqed import cli


def bundled(name):
    return str(files("wgqed").joinpath(f"configs/{name}.cfg"))


def read_csv(path, skip_comments=True):
    lines = path.read_text().splitlines()
    if skip_comments:
        lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, rows


class TestValidation:
    def test_empty_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("{}")
        assert cli.main(["run", str(path)]) == 1
        assert "experiment" in capsys.readouterr().err

    def test_unknown_experiment_names_nearest(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps({"experiment": "rabii"}))
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "rabii" in err and "rabi" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        config = json.loads(files("wgqed").joinpath("configs/fig3a_type1.cfg").read_text())
        config["params"]["bogus_knob"] = 1
        path = tmp_path / "extra.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 1
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda params: params.update(points="x"),
                "config error at $.params.points: 'x' is not of type 'integer'",
            ),
            (
                lambda params: params.pop("points"),
                "config error at $.params: 'points' is a required property",
            ),
            (
                lambda params: params.update(bogus_knob=1),
                "config error at $.params: Additional properties are not allowed "
                "('bogus_knob' was unexpected)",
            ),
        ],
        ids=["type", "missing", "unknown"],
    )
    def test_params_error_path_exact(self, tmp_path, capsys, edit, message):
        config = json.loads(Path(bundled("fig3a_type1")).read_text())
        edit(config["params"])
        path = tmp_path / "params.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_bundled_configs_all_validate(self):
        for entry in files("wgqed").joinpath("configs").iterdir():
            assert cli.main(["validate", str(entry)]) == 0

    @pytest.mark.parametrize(
        "section, key, value", [("system", "probe", "nope"), ("params", "xy_qubit", 7)]
    )
    def test_unknown_qubit_reference_named(self, tmp_path, capsys, section, key, value):
        config = json.loads(Path(bundled("fig2e_xy")).read_text())
        config[section][key] = value
        path = tmp_path / "ref.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 1
        assert f"$.{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, key",
        [
            ("tableS1_calib", lambda config: config.update(params={}), "$.params"),
            (
                "tableS1_calib",
                lambda config: config["params"].pop("transmon"),
                "$.params.resonator.eta_mhz",
            ),
            (
                "fig3d_shelve",
                lambda config: config["system"]["qubits"].append(
                    {"label": "M3", "gamma_1d": 13.4, "phase_pi": 2.0}
                ),
                "$.system",
            ),
        ],
        ids=["calib-no-block", "calib-no-eta", "shelve-third-qubit"],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, name, edit, key):
        config = json.loads(Path(bundled(name)).read_text())
        edit(config)
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 1
        message = capsys.readouterr().err
        assert f"config error at {key}:" in message
        assert cli.main(["run", str(path), "--output", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == message

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("not json at all")
        assert cli.main(["validate", str(path)]) == 1


class TestListing:
    def test_eleven_experiments(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        names = [ln.split()[0] for ln in out.splitlines() if ln and not ln.startswith(" ")]
        assert len(names) == 11

    def test_json_listing(self, capsys):
        assert cli.main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["experiments"]) == 11
        assert {"name", "description", "parameters"} <= set(payload["experiments"][0])
        rabi = next(e for e in payload["experiments"] if e["name"] == "rabi")
        assert set(rabi["parameters"]) == {"tau_max_ns", "points", "probe_detuning_mhz", "fit"}
        assert all(rabi["parameters"].values())


class TestRun:
    def test_rabi_artifact_recovers_coupling(self, tmp_path):
        prefix = tmp_path / "rabi"
        assert cli.main(["run", bundled("fig3a_type1"), "--output", str(prefix)]) == 0
        fit = json.loads((tmp_path / "rabi_fit.json").read_text())
        assert fit["derived"]["coupling_2j_mhz"] == pytest.approx(5.65, rel=0.01)
        _, rows = read_csv(tmp_path / "rabi_trace.csv")
        assert rows.shape == (181, 2)

    def test_extinction_spectrum(self, tmp_path):
        prefix = tmp_path / "q1"
        assert cli.main(["run", bundled("fig1c_q1"), "--output", str(prefix)]) == 0
        header, rows = read_csv(tmp_path / "q1_spectrum.csv")
        assert header == ["detuning_mhz", "re_t", "im_t", "abs_t", "abs_t_sq"]
        assert rows[:, 4].min() == pytest.approx(2.07e-5, rel=0.05)

    def test_calib_report(self, tmp_path):
        prefix = tmp_path / "calib"
        assert cli.main(["run", bundled("tableS1_calib"), "--output", str(prefix)]) == 0
        report = json.loads((tmp_path / "calib_calib.json").read_text())
        assert report["resonator"]["chi_mhz"] == pytest.approx(-2.05, rel=0.02)
        assert report["transmon"]["f_max_ghz"] == pytest.approx(6.638, rel=0.01)
        assert report["crosstalk"]["bias_v"][0] == pytest.approx(0.0372, abs=2e-4)
        assert (tmp_path / "calib_flux.csv").exists()

    def test_manifest_contents(self, tmp_path):
        prefix = tmp_path / "modes"
        config = {
            "experiment": "modes",
            "system": {
                "qubits": [
                    {"label": "A", "gamma_1d": 13.4, "phase_pi": 0.0},
                    {"label": "B", "gamma_1d": 13.4, "phase_pi": 1.0},
                ]
            },
            "seed": 7,
        }
        path = tmp_path / "modes.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(prefix)]) == 0
        manifest = json.loads((tmp_path / "modes_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["tool_version"]
        assert manifest["outputs"] == ["modes_modes.csv"]
        _, rows = read_csv(tmp_path / "modes_modes.csv")
        assert rows[0, 1] == pytest.approx(2 * 13.4, rel=1e-9)

    def test_seed_override_recorded(self, tmp_path):
        config = {
            "experiment": "modes",
            "system": {"qubits": [{"label": "A", "gamma_1d": 1.0, "phase_pi": 0.0}]},
        }
        path = tmp_path / "m.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "m"), "--seed", "99"]) == 0
        manifest = json.loads((tmp_path / "m_manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_steady_state_artifact(self, tmp_path):
        config = {
            "experiment": "steady",
            "system": {
                "qubits": [
                    {"label": "Q", "gamma_1d": 13.4, "gamma_loss": 0.0065,
                     "gamma_phi": 0.21, "phase_pi": 0.0}
                ]
            },
            "params": {"detuning_mhz": 0.0, "omega_rabi": 1.0},
        }
        path = tmp_path / "steady.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "st")]) == 0
        header, rows = read_csv(tmp_path / "st_state.csv")
        assert header == ["row", "col", "re", "im"]
        from wgqed.lindblad import thermal_qubit_steady

        rho_ee, _ = thermal_qubit_steady(13.4, 0.0065, 0.21, 0.0, 1.0, 0.0)
        excited = rows[(rows[:, 0] == 1) & (rows[:, 1] == 1)][0, 2]
        assert excited == pytest.approx(rho_ee, abs=1e-9)

    @pytest.mark.parametrize("target", [7, -1, "Q9"])
    def test_bad_xy_qubit_is_config_error(self, tmp_path, capsys, target):
        config = json.loads(Path(bundled("fig2e_xy")).read_text())
        config["params"].update(points=11, xy_qubit=target)
        path = tmp_path / "xy.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "xy")]) == 1
        assert "$.params.xy_qubit" in capsys.readouterr().err

    def test_thermal_compound_runs_in_full_space(self, tmp_path):
        config = json.loads(Path(bundled("fig4_compound")).read_text())
        config["system"]["n_th"] = 0.02
        config["params"].update(tau_max_ns=200.0, points=21)
        path = tmp_path / "compound.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "c")]) == 0
        for dark in ("dark1", "dark2"):
            _, rows = read_csv(tmp_path / f"c_{dark}.csv")
            assert rows[0, 1] == pytest.approx(1.0)
            assert np.all((rows[:, 1] > 0.0) & (rows[:, 1] < 1.0 + 1e-9))

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # lossless pair with no drive: degenerate steady state
        config = {
            "experiment": "steady",
            "system": {
                "qubits": [
                    {"label": "A", "gamma_1d": 13.4, "phase_pi": 0.0},
                    {"label": "B", "gamma_1d": 13.4, "phase_pi": 1.0},
                ]
            },
            "params": {"detuning_mhz": 0.0, "omega_rabi": 0.0001},
        }
        path = tmp_path / "degenerate.cfg"
        path.write_text(json.dumps(config))
        code = cli.main(["run", str(path), "--output", str(tmp_path / "s")])
        assert code == 2
        assert "failed" in capsys.readouterr().err


class TestBundledConfigs:
    def test_every_bundled_config_runs(self, tmp_path):
        import time

        for entry in sorted(files("wgqed").joinpath("configs").iterdir()):
            workdir = tmp_path / entry.name.replace(".cfg", "")
            workdir.mkdir()
            started = time.time()
            assert cli.main(["run", str(entry), "--output", str(workdir / "run")]) == 0
            assert time.time() - started < 60.0
            manifest = json.loads((workdir / "run_manifest.json").read_text())
            for name in manifest["outputs"]:
                assert (workdir / name).exists()


class TestReproducibility:
    def numeric_bodies(self, directory):
        bodies = {}
        for path in sorted(directory.iterdir()):
            if path.name.endswith("manifest.json"):
                continue
            bodies[path.name] = path.read_bytes()
        return bodies

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir(), second.mkdir()
        configs = sorted(files("wgqed").joinpath("configs").iterdir())
        assert len(configs) == 17
        for directory in (first, second):
            for entry in configs:
                name = entry.name.replace(".cfg", "")
                assert cli.main(["run", str(entry), "--output", str(directory / name)]) == 0
        bodies = self.numeric_bodies(first)
        assert len(bodies) == 30 and bodies == self.numeric_bodies(second)
        for entry in configs:
            manifest = entry.name.replace(".cfg", "_manifest.json")
            m1 = json.loads((first / manifest).read_text())
            m2 = json.loads((second / manifest).read_text())
            m1.pop("wall_time_s"), m2.pop("wall_time_s")
            assert m1 == m2


class TestShelveExperiment:
    def test_transparency_jump_artifacts(self, tmp_path):
        prefix = tmp_path / "shelve"
        assert cli.main(["run", bundled("fig3d_shelve"), "--output", str(prefix)]) == 0
        _, shelved = read_csv(tmp_path / "shelve_shelved.csv")
        _, reference = read_csv(tmp_path / "shelve_reference.csv")
        mid = shelved.shape[0] // 2
        # pulse-averaged on-resonance intensity jumps when shelved
        assert shelved[mid, 4] > 0.3
        assert reference[mid, 4] < 0.05
        # bandwidth averaging makes the reference extinction shallower than CW
        gamma_b = 2 * 13.4 + 0.0065 + 2 * 0.210
        cw = abs(1 - (1 - 0.0) * 13.4 / (gamma_b / 2)) ** 2
        assert reference[mid, 4] > cw


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is only needed by peak_splitting, which no experiment calls
    code = "import sys, wgqed.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"
