import ast
import copy
import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from wgqed import calibration, cli, core, lindblad, records, spectroscopy
from wgqed.records import FitError


def bundled(name):
    return str(files("wgqed").joinpath(f"configs/{name}.cfg"))


def read_csv(path, skip_comments=True):
    lines = path.read_text().splitlines()
    if skip_comments:
        lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, rows


def probe_only(config):
    """Keep only the probe qubit of a config's system, and drop what names the others."""
    system = config["system"]
    system["qubits"] = [q for q in system["qubits"] if q["label"] == system["probe"]]
    for key in ("dephasing_correlations", "direct_couplings"):
        system.pop(key, None)


def dark_probe(config):
    """Move the probe to phase pi, where it exchanges only with the bright state of mirrors at +-pi/2."""
    system = config["system"]
    next(q for q in system["qubits"] if q["label"] == system["probe"]).update(phase_pi=1.0)


def node_probe(config):
    """Move the probe to phase pi/2, onto M2 and pi from M1: a node of both mirrors' exchange."""
    system = config["system"]
    next(q for q in system["qubits"] if q["label"] == system["probe"]).update(phase_pi=0.5)


def full_correlation(config):
    """Correlate the dephasing of the first and last qubits at 1 MHz, above their own gamma_phi."""
    system = config["system"]
    system["dephasing_correlations"] = [[0, len(system["qubits"]) - 1, 1.0]]


def underflowing_power(config):
    """Drive by a power_dbm alone, whose input field underflows to zero."""
    del config["params"]["omega_rabi"]
    config["params"]["power_dbm"] = -4000.0


def underflowing_photon(config):
    """Drive by a power_dbm alone at a working frequency whose photon energy underflows to zero."""
    del config["params"]["omega_rabi"]
    config["params"]["power_dbm"] = -30.0
    config["system"]["working_frequency_ghz"] = 1e-320


def probe_rate_underflow(config):
    """Set the probe's gamma_1d to the smallest subnormal, 5e-324 MHz."""
    system = config["system"]
    next(q for q in system["qubits"] if q["label"] == system["probe"]).update(gamma_1d=5e-324)


def float_leaves(node, path=()):
    """The key path of every float in a JSON document."""
    if isinstance(node, float):
        yield path
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from float_leaves(value, path + (key,))


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

    @pytest.mark.parametrize("literal, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e999", "inf"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, literal, shown):
        # json.loads reads these literals; run would sweep a NaN grid to NaN rows
        config = json.loads(Path(bundled("fig1c_q1")).read_text())
        config["params"]["start_mhz"] = "@"
        path = tmp_path / "nan.cfg"
        path.write_text(json.dumps(config).replace('"@"', literal))
        message = f"config error at $.params.start_mhz: {shown} is not a finite number\n"
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == message
        assert cli.main(["run", str(path), "--output", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == message
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("content, message", [
        (b'{"experiment": "rabi\xff"}', "cannot read config: 'utf-8' codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "config is not valid JSON: maximum recursion depth"),
    ], ids=["not-utf8", "nested"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, content, message):
        # a file that is not UTF-8, or JSON nested past the parser's depth,
        # is a config error (exit 1, one line), not a failed run
        path = tmp_path / "bad.cfg"
        path.write_bytes(content)
        for command in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "run")]):
            assert cli.main(command) == 1
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

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
        "name, relabel, edit, message",
        [
            # qubit 2 of fig3a_type1 relabelled "P" named the probe, qubit 1, silently
            ("fig3a_type1", "P", lambda config: None, "$.system.probe: qubit label 'P' names qubits [1, 2]"),
            (
                "fig2e_xy",
                "M1",
                lambda config: config["params"].update(xy_qubit="M1"),
                "$.params.xy_qubit: qubit label 'M1' names qubits [0, 2]",
            ),
        ],
        ids=["probe", "xy-qubit"],
    )
    def test_ambiguous_qubit_label_is_config_error(self, tmp_path, capsys, name, relabel, edit, message):
        config = json.loads(Path(bundled(name)).read_text())
        config["system"]["qubits"][2]["label"] = relabel
        edit(config)
        path = tmp_path / "ambiguous.cfg"
        path.write_text(json.dumps(config))
        for command in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "run")]):
            assert cli.main(command) == 1
            assert capsys.readouterr().err == f"config error at {message}\n"

    def test_duplicate_labels_that_no_key_names_stay_valid(self, tmp_path):
        # both references by index; the shared label "M1" names nothing
        config = json.loads(Path(bundled("fig2e_xy")).read_text())
        config["system"]["qubits"][2]["label"] = "M1"
        config["system"]["probe"] = 1
        config["params"]["xy_qubit"] = 1
        path = tmp_path / "duplicate.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 0

    def test_large_gamma_1d_is_rejected_at_the_spec(self, tmp_path, capsys):
        # at gamma_1d = 1e200 eigh rounds the zero eigenvalue of the Gram decay
        # matrix sqrt(g_i g_j) cos(phi_i - phi_j) to about -4.6, and the steady
        # state's pivot block to rcond 1e-199; the spec is past MAX_MHZ
        config = json.loads(Path(bundled("fig2a_pair")).read_text())
        config["system"]["qubits"][0]["gamma_1d"] = 1e200
        config["system"]["qubits"][1]["phase_pi"] = 0.3
        config["params"]["points"] = 5
        path = tmp_path / "large.cfg"
        path.write_text(json.dumps(config))
        for command in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "run")]):
            assert cli.main(command) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error at $.system: rates, detunings and couplings add up to 1e+200")
            assert "positive semidefinite" not in err

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
            # int() ran each of these as qubit 0
            (
                "fig4_compound",
                lambda config: config["system"]["direct_couplings"][0].__setitem__(0, 0.9),
                "$.system.direct_couplings[0][0]",
            ),
            (
                "fig4_compound",
                lambda config: config["system"]["direct_couplings"][1].__setitem__(1, -0.5),
                "$.system.direct_couplings[1][1]",
            ),
            (
                "fig3b_t1dark_type2",
                lambda config: config["system"]["dephasing_correlations"][0].__setitem__(0, 0.5),
                "$.system.dephasing_correlations[0][0]",
            ),
            (
                "fig3b_t1dark_type2",
                lambda config: config["system"]["dephasing_correlations"][0].__setitem__(1, -1),
                "$.system.dephasing_correlations[0][1]",
            ),
            # run stopped on "times must be strictly increasing" (exit 2)
            (
                "fig3b_t1dark_type1",
                lambda config: config["params"].update(delay_min_ns=2500.0),
                "$.params.delay_min_ns",
            ),
            (
                "fig3c_ramsey_type2",
                lambda config: config["params"].update(delay_min_ns=700.0),
                "$.params.delay_min_ns",
            ),
            # each of these validated, then failed the run (exit 2)
            (
                "tableS1_calib",
                lambda config: config["params"]["crosstalk"]["m"].pop(),
                "$.params.crosstalk",
            ),
            (
                "tableS1_calib",
                lambda config: config["params"]["crosstalk"]["targets"].pop(),
                "$.params.crosstalk",
            ),
            (
                "tableS1_calib",
                lambda config: config["params"]["crosstalk"].update(m=[0.0] * 9),
                "$.params.crosstalk",
            ),
            (
                "tableS1_calib",
                lambda config: config["params"]["transmon"].update(ej1=3.0),
                "$.params.transmon",
            ),
            (
                "tableS1_calib",
                lambda config: config["params"]["transmon"].update(ec=0.0),
                "$.params.transmon",
            ),
            (
                "tableS1_calib",
                lambda config: config["params"]["resonator"].update(qi=0.0),
                "$.params.resonator",
            ),
            (
                "tableS1_calib",
                lambda config: config["params"]["resonator"].update(f_q=5.156),
                "$.params.resonator",
            ),
            ("fig3a_type1", lambda config: config["system"].pop("probe"), "$.system.probe"),
            ("fig3b_t1dark_type1", lambda config: config["system"].pop("probe"), "$.system.probe"),
            ("fig3c_ramsey_type1", lambda config: config["system"].pop("probe"), "$.system.probe"),
            ("fig3f_twoexc", lambda config: config["system"].pop("probe"), "$.system.probe"),
            ("fig4_compound", lambda config: config["system"].pop("probe"), "$.system.probe"),
            ("fig4_compound", lambda config: config["system"].pop("direct_couplings"), "$.system"),
            ("fig3b_t1dark_type1", probe_only, "$.system"),
            ("fig3c_ramsey_type1", probe_only, "$.system"),
            ("fig3f_twoexc", probe_only, "$.system"),
            # the swap took about 1e18 ns: the run failed on a constant trace,
            # on no visible periods or on no oscillating mode (exit 2)
            ("fig3b_t1dark_type1", dark_probe, "$.system"),
            ("fig3c_ramsey_type1", dark_probe, "$.system"),
            ("fig3f_twoexc", dark_probe, "$.system"),
            # the exchange row was itself rounding (5.6e-16 MHz), so 2J cleared
            # a floor relative to it: a constant trace, a trace of 1.749 at
            # t = 6.3e14 us or no oscillating mode (exit 2)
            ("fig3b_t1dark_type1", node_probe, "$.system"),
            ("fig3c_ramsey_type2", node_probe, "$.system"),
            ("fig3f_twoexc", node_probe, "$.system"),
            # build_model found the dephasing matrix not positive semidefinite (exit 2)
            ("fig2a_pair", full_correlation, "$.system"),
            ("fig3b_t1dark_type1", full_correlation, "$.system"),
            # the run's own drive and pulse average rejected these (exit 2)
            ("fig1c_q1", lambda config: config["params"].update(power_dbm=-120.0), "$.params"),
            ("fig1c_q1", underflowing_power, "$.params"),
            (
                "fig1c_q1",
                lambda config: config["system"]["qubits"][0].update(gamma_1d=0.0, gamma_loss=1.0),
                "$.params",
            ),
            (
                "fig1c_q1",
                lambda config: config.update(
                    experiment="steady",
                    params={"detuning_mhz": 0.0, "omega_rabi": 0.001, "power_dbm": -120.0},
                ),
                "$.params",
            ),
            ("fig3d_shelve", lambda config: config["params"].update(pulse_ns=10.0), "$.params.pulse_ns"),
            # each of these crashed validate with a traceback and failed the
            # run (exit 2): 1/(pulse_ns * 1e-3) and the photon energy divide
            # by an underflowed zero, and g_ghz**2 overflows
            ("fig3d_shelve", lambda config: config["params"].update(pulse_ns=5e-324), "$.params.pulse_ns"),
            ("fig1c_q1", underflowing_photon, "$.params"),
            (
                "tableS1_calib",
                lambda config: config["params"]["resonator"].update(g_mhz=1e200),
                "$.params.resonator",
            ),
            # validated and ran, writing Infinity into calib.json and inf into the flux table
            (
                "tableS1_calib",
                lambda config: config["params"]["transmon"].update(ej1=1e308, ej2=1e308),
                "$.params.transmon",
            ),
            # the ns grid collapses in us: "times must be strictly increasing:
            # time 0 us follows 0 us" (exit 2)
            ("fig3a_type1", lambda config: config["params"].update(tau_max_ns=1e-320), "$.params.tau_max_ns"),
            ("fig3f_twoexc", lambda config: config["params"].update(tau_max_ns=5e-324), "$.params.tau_max_ns"),
            # a Liouvillian entry overflowed: "rate matrix entry (0, 0) is not
            # finite", "bordered generator entry (0, 3) couples sectors 0 and
            # 2", "hamiltonian entry (1, 2) is not finite" (exit 2)
            (
                "fig1c_q1",
                lambda config: config["system"]["qubits"][0].update(gamma_1d=1e308),
                "$.system",
            ),
            (
                "fig3b_t1dark_type1",
                lambda config: config["system"]["qubits"][1].update(gamma_loss=1e308),
                "$.system",
            ),
            (
                "fig3c_ramsey_type2",
                lambda config: config["system"]["qubits"][0].update(gamma_phi=1e308),
                "$.system",
            ),
            (
                "fig4_compound",
                lambda config: config["system"]["direct_couplings"][0].__setitem__(2, 1e308),
                "$.system",
            ),
            # a_in overflowed or underflowed: "hamiltonian entry (0, 0) is not
            # finite", "transmission t = (nan+nanj) is not finite" (exit 2)
            ("fig1c_q4", lambda config: config["params"].update(omega_rabi=1e308), "$.params"),
            ("fig1c_q4", lambda config: config["params"].update(omega_rabi=5e-324), "$.params"),
            ("fig2e_xy", lambda config: config["params"].update(omega_rabi=5e-324), "$.params"),
            # a run's own MHz values overflowed: a hamiltonian entry, "cannot
            # convert float infinity to integer", a degenerate steady state (exit 2)
            (
                "fig3a_type1",
                lambda config: config["params"].update(probe_detuning_mhz=1e308),
                "$.params.probe_detuning_mhz",
            ),
            (
                "fig3b_t1dark_type1",
                lambda config: config["params"].update(park_detuning_mhz=1e308),
                "$.params.park_detuning_mhz",
            ),
            (
                "fig3c_ramsey_type1",
                lambda config: config["params"].update(artificial_detuning_mhz=-1e308),
                "$.params.artificial_detuning_mhz",
            ),
            ("fig1c_q1", lambda config: config["params"].update(start_mhz=-1e308), "$.params.start_mhz"),
            ("fig1c_q1", lambda config: config["params"].update(stop_mhz=-1e308), "$.params.stop_mhz"),
            # 2J passed the relative floor, which underflows with the probe's
            # rate: "trace nan differs from 1 beyond 1e-9" after a 1.6e163 ns
            # swap, and "no oscillating mode found above the frequency floor"
            # for the linear-cavity companion (exit 2)
            ("fig3b_t1dark_type2", probe_rate_underflow, "$.system"),
            ("fig3c_ramsey_type2", probe_rate_underflow, "$.system"),
            ("fig3f_twoexc", probe_rate_underflow, "$.system"),
        ],
        ids=[
            "calib-no-block", "calib-no-eta", "shelve-third-qubit", "coupling-fraction",
            "coupling-negative-fraction", "correlation-fraction", "correlation-negative",
            "t1-equal-delays", "ramsey-decreasing-delays", "crosstalk-m-short",
            "crosstalk-targets-short", "crosstalk-singular", "transmon-ej1-below-ej2",
            "transmon-no-charging", "resonator-no-qi", "resonator-on-qubit", "rabi-no-probe",
            "t1-no-probe", "ramsey-no-probe", "two-excitation-no-probe", "compound-no-probe",
            "compound-no-couplings", "t1-no-mirror", "ramsey-no-mirror", "two-excitation-no-mirror",
            "t1-dark-probe", "ramsey-dark-probe", "two-excitation-dark-probe",
            "t1-node-probe", "ramsey-node-probe", "two-excitation-node-probe",
            "spectrum-dephasing-not-psd", "t1-dephasing-not-psd",
            "spectrum-two-strengths", "spectrum-power-underflow", "spectrum-no-coupled-qubit",
            "steady-two-strengths", "shelve-short-pulse", "shelve-pulse-underflow",
            "spectrum-photon-underflow", "resonator-coupling-overflow", "transmon-report-overflow",
            "rabi-grid-collapse", "two-excitation-grid-collapse", "spectrum-gamma-1d-overflow",
            "t1-gamma-loss-overflow", "ramsey-gamma-phi-overflow", "compound-coupling-overflow",
            "spectrum-omega-overflow", "spectrum-omega-underflow", "xy-omega-underflow",
            "rabi-probe-detuning-overflow", "t1-park-overflow", "ramsey-artificial-overflow",
            "spectrum-start-overflow", "spectrum-stop-overflow",
            "t1-probe-rate-underflow", "ramsey-probe-rate-underflow",
            "two-excitation-probe-rate-underflow",
        ],
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

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "fig3a_type1",
                lambda config: config["params"].update(points=181.0),
                "$.params.points: 181.0 is not of type 'integer'",
            ),
            ("fig3a_type1", lambda config: config.update(seed=1.0), "$.seed: 1.0 is not of type 'integer'"),
            (
                "tableS1_calib",
                lambda config: config["params"]["transmon"].update(flux_points=101.0),
                "$.params.transmon.flux_points: 101.0 is not of type 'integer'",
            ),
            (
                "fig2e_xy",
                lambda config: config["system"].update(probe=1.0),
                "$.system.probe: 1.0 is not of type 'string', 'integer'",
            ),
            (
                "fig4_compound",
                lambda config: config["system"]["direct_couplings"][0].__setitem__(1, 1.0),
                "$.system.direct_couplings[0][1]: 1.0 is not of type 'integer'",
            ),
            # no computation reads a qubit's frequency range
            (
                "fig1c_q1",
                lambda config: config["system"]["qubits"][0].update(f_max=7.1),
                "$.system.qubits[0]: Additional properties are not allowed ('f_max' was unexpected)",
            ),
        ],
        ids=["points", "seed", "flux_points", "probe", "coupling-index", "qubit-f-max"],
    )
    def test_integer_written_as_float_rejected(self, tmp_path, capsys, name, edit, message):
        # jsonschema counts 181.0 as an integer; run then failed on points = 181.0
        # with "'float' object cannot be interpreted as an integer" (exit 2)
        config = json.loads(Path(bundled(name)).read_text())
        edit(config)
        path = tmp_path / "float.cfg"
        path.write_text(json.dumps(config))
        for command in (["validate", str(path)], ["run", str(path), "--output", str(tmp_path / "run")]):
            assert cli.main(command) == 1
            assert capsys.readouterr().err == f"config error at {message}\n"

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("not json at all")
        assert cli.main(["validate", str(path)]) == 1

    # numpy warns on overflow for such inputs, and calibration.crosstalk_bias
    # on a target far from its linearization point; the subject here is the
    # exit code of the checks, so those warnings are ignored in this test alone
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:target is more than 100 MHz from the linearization point:UserWarning")
    def test_extreme_finite_values_validate_or_name_a_key(self, tmp_path):
        # every float of every bundled config set, one at a time, to the
        # smallest subnormal and to +-1e308: validate accepts the config or
        # rejects it by a ConfigError, and raises nothing else
        path, swept = tmp_path / "extreme.cfg", 0
        for entry in sorted(files("wgqed").joinpath("configs").iterdir()):
            config = json.loads(entry.read_text())
            for leaf in list(float_leaves(config)):
                for value in (5e-324, 1e308, -1e308):
                    mutant = copy.deepcopy(config)
                    target = mutant
                    for step in leaf[:-1]:
                        target = target[step]
                    target[leaf[-1]] = value
                    path.write_text(json.dumps(mutant))
                    assert cli.main(["validate", str(path)]) in (0, 1), (entry.name, leaf, value)
                    swept += 1
        assert swept == 768

    # calibration.crosstalk_bias warns on a target far from its linearization
    # point, as the sweep's extreme targets are; numpy's warnings stay errors
    @pytest.mark.filterwarnings("ignore:target is more than 100 MHz from the linearization point:UserWarning")
    def test_extreme_finite_values_that_validate_also_run(self, tmp_path):
        # the sweep above: every config that validate accepts runs, or fails by
        # FitError, a trace that cannot identify its model; a 1.6e163 ns swap
        # overflowed its exponential, and the linear-cavity companion found no
        # oscillating mode, after validate had accepted the spec
        swept = 0
        for entry in sorted(files("wgqed").joinpath("configs").iterdir()):
            config = json.loads(entry.read_text())
            for leaf in list(float_leaves(config)):
                for value in (5e-324, 1e308, -1e308):
                    mutant = copy.deepcopy(config)
                    target = mutant
                    for step in leaf[:-1]:
                        target = target[step]
                    target[leaf[-1]] = value
                    swept += 1
                    try:
                        cli.validate_config(mutant)
                        cli._checked(mutant)
                    except cli.ConfigError:
                        continue
                    try:
                        cli.run_config(mutant, str(tmp_path / "run"))
                    except FitError:
                        pass
                    except Exception as err:
                        pytest.fail(f"{entry.name} {leaf} = {value}: {type(err).__name__}: {err}")
        assert swept == 768

    # a drive of 0.9 MAX_MHZ saturates its qubits and a crosstalk target of
    # 0.9 MAX_MHZ lies far from its linearization point, each a UserWarning
    # that names a run outside its regime; numpy's warnings stay errors
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_values_near_the_bound_that_validate_also_run(self, tmp_path):
        # every float of the bundled configs, and of a steady and a modes config
        # on fig2c_cavity's system, set to 0.9 MAX_MHZ one at a time: a config
        # that validates runs, or fails in one of the README's named ways
        cavity = json.loads(Path(bundled("fig2c_cavity")).read_text())
        configs = [json.loads(entry.read_text()) for entry in sorted(files("wgqed").joinpath("configs").iterdir())]
        configs.append({**cavity, "experiment": "steady", "params": {"detuning_mhz": 0.5, "omega_rabi": 0.5}})
        configs.append({**cavity, "experiment": "modes", "params": {}})
        swept = ran = 0
        for config in configs:
            for leaf in list(float_leaves(config)):
                mutant = copy.deepcopy(config)
                target = mutant
                for step in leaf[:-1]:
                    target = target[step]
                target[leaf[-1]] = 0.9 * core.MAX_MHZ
                swept += 1
                try:
                    cli.validate_config(mutant)
                    cli._checked(mutant)
                except cli.ConfigError:
                    continue
                try:
                    cli.run_config(mutant, str(tmp_path / "run"))
                    ran += 1
                except (FitError, lindblad.DegenerateSteadyStateError):
                    pass
                except ValueError as err:
                    if str(err) != "no oscillating mode found above the frequency floor":
                        pytest.fail(f"{config['output']} {leaf}: ValueError: {err}")
                except Exception as err:
                    pytest.fail(f"{config['output']} {leaf}: {type(err).__name__}: {err}")
        assert swept == 284 and ran >= 200

    @pytest.mark.parametrize(
        "name, experiment, leaf, value, key",
        [
            # each validated at 5.7e305 MHz and failed its run unnamed or as a
            # degenerate steady state: a hold's trace 1.0374, a trace nan, rcond
            # 1.6e-201, a steady-state residual, a mode of decay rate -12.2
            ("fig3a_type1", None, ("system", "qubits", 0, "gamma_1d"), 1e100, "$.system"),
            ("fig3a_freedecay", None, ("params", "probe_detuning_mhz"), 1e100, "$.params.probe_detuning_mhz"),
            ("fig1c_q1", None, ("system", "qubits", 0, "gamma_1d"), 1e200, "$.system"),
            ("fig1c_q1", None, ("params", "start_mhz"), 1e200, "$.params.start_mhz"),
            ("fig2c_cavity", "modes", ("system", "qubits", 0, "gamma_1d"), 1e200, "$.system"),
            # a phase whose float spacing exceeds a separation: "rate matrix is
            # not positive semidefinite" or "non-passive transmission amplitude"
            ("fig2c_cavity", None, ("system", "qubits", 0, "phase_pi"), 1e100, "$.system"),
            ("fig3a_type1", None, ("system", "qubits", 0, "phase_pi"), 1e100, "$.system"),
            ("fig2a_pair", None, ("system", "qubits", 0, "phase_pi"), 1e100, "$.system"),
            ("fig4_compound", None, ("system", "qubits", 0, "phase_pi"), 1e20, "$.system"),
        ],
        ids=[
            "type1-gamma-1d", "freedecay-probe-detuning", "q1-gamma-1d", "q1-start", "modes-gamma-1d",
            "cavity-phase", "type1-phase", "pair-phase", "compound-phase",
        ],
    )
    def test_values_past_the_physical_range_are_config_errors(
        self, tmp_path, capsys, name, experiment, leaf, value, key
    ):
        config = json.loads(Path(bundled(name)).read_text())
        if experiment:
            config.update(experiment=experiment, params={})
        target = config
        for step in leaf[:-1]:
            target = target[step]
        target[leaf[-1]] = value
        path = tmp_path / "past.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error at {key}: ")
        assert "physical range" in err or "below 2^22 rad" in err

    @pytest.mark.parametrize("tau_max_ns", [1e5, 1e6, 1e7])
    def test_decay_faster_than_the_grid_step_is_a_fit_error(self, tmp_path, capsys, tau_max_ns):
        # the run wrote lifetime_ns 139.222 +- 0.062, 496.193 +- 1.95e-10 and
        # 692.239 +- 1.4e-14 for a decay of about 110 ns sampled every 1.7-170 us
        config = json.loads(Path(bundled("fig3a_freedecay")).read_text())
        config["params"]["tau_max_ns"] = tau_max_ns
        path = tmp_path / "coarse.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: fitted lifetime ")
        assert f"is shorter than the first grid step {tau_max_ns / 60:.6g} ns" in err

    def test_fit_with_an_infinite_covariance_entry_is_a_fit_error(self, tmp_path, capsys):
        # an infinite covariance entry times a zero residual variance wrote an
        # uncertainty of nan: "Out of range float values are not JSON compliant"
        config = json.loads(Path(bundled("fig3a_freedecay")).read_text())
        qubits = config["system"]["qubits"]
        qubits[0]["gamma_1d"], qubits[2]["gamma_1d"], qubits[1]["gamma_phi"] = 1.3527e-5, 5.0805e-6, 1.8118e-4
        config["params"]["tau_max_ns"] = 578076882.77
        path = tmp_path / "flat.cfg"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--output", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("run failed: fitted amplitude ")


def jsonschema_check(schema, document):
    """The oracle: cli._check_schema done by jsonschema's Draft 2020-12 validator."""
    errors = sorted(
        jsonschema.Draft202012Validator(schema).iter_errors(document),
        key=lambda error: list(error.absolute_path),
    )
    if errors:
        path = errors[0].absolute_path
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise cli.ConfigError(f"config error at ${where}: {errors[0].message}")


# values each key is set to; none is an integer written as a float, which
# the validator alone rejects (test_integer_written_as_float_rejected)
MUTANTS = (None, True, 1.5, -1, 0, "x", [], [1, 2], {})
DELETE, RENAME = object(), object()


def single_key_mutations(config):
    """Copies of config with one key or list item set to each of MUTANTS, deleted,
    or renamed to an unexpected key (a list gets an extra item instead)."""

    def containers(node, path=()):
        if isinstance(node, (dict, list)):
            yield path, node
            for key in node if isinstance(node, dict) else range(len(node)):
                yield from containers(node[key], path + (key,))

    for path, node in list(containers(config)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edits = [(key, value) for key in keys for value in MUTANTS + (DELETE,)]
        if isinstance(node, dict):
            edits += [(key, RENAME) for key in keys]
        else:
            edits.append((len(node), 1))
        for key, value in edits:
            mutant = copy.deepcopy(config)
            target = mutant
            for step in path:
                target = target[step]
            if value is RENAME:
                target["extra"] = target.pop(key)
            elif value is DELETE:
                del target[key]
            elif key == len(target):
                target.append(value)
            else:
                target[key] = value
            yield mutant


class TestSchemaValidator:
    @staticmethod
    def verdicts(configs):
        verdicts = []
        for config in configs:
            try:
                cli.validate_config(config)
                verdicts.append(None)
            except cli.ConfigError as err:
                verdicts.append(str(err))
        return verdicts

    def test_matches_jsonschema_on_single_key_mutations(self, monkeypatch):
        configs = []
        for entry in sorted(files("wgqed").joinpath("configs").iterdir()):
            config = json.loads(entry.read_text())
            configs += [config, *single_key_mutations(config)]
        # two unexpected keys, given out of order: jsonschema names them sorted
        two_extras = json.loads(Path(bundled("fig3a_type1")).read_text())
        two_extras["params"].update(zeta=1, alpha=2)
        configs.append(two_extras)
        ours = self.verdicts(configs)
        monkeypatch.setattr(cli, "_check_schema", jsonschema_check)
        expected = self.verdicts(configs)
        for config, mine, theirs in zip(configs, ours, expected):
            assert mine == theirs, config
        # the mutations reach every kind of error, not only acceptance
        for kind in (
            "is not of type", "is not one of", "is less than the minimum", "is less than or equal",
            "is greater than the maximum", "should be non-empty", "is too short", "is too long",
            "is a required property", "was unexpected", "were unexpected",
        ):
            assert any(kind in (verdict or "") for verdict in expected), kind


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

    def test_park_detuning_default_is_listed(self, capsys):
        # the default lives in core, and protocols reads the same value
        from wgqed import core, protocols

        assert protocols.PARK_DETUNING is core.PARK_DETUNING
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "park_detuning_mhz: probe parking offset during the wait (MHz; default -50)" in out


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
        from wgqed.core import thermal_qubit_steady

        rho_ee, _ = thermal_qubit_steady(13.4, 0.0065, 0.21, 0.0, 1.0, 0.0)
        excited = rows[(rows[:, 0] == 1) & (rows[:, 1] == 1)][0, 2]
        assert excited == pytest.approx(rho_ee, abs=1e-9)

    def test_json_artifact_is_strict(self, tmp_path):
        # json.dumps writes NaN and Infinity by default, which a strict reader rejects
        path = tmp_path / "record.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            records.write({"chi_mhz": float("nan")}, path)
        assert not path.exists()

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

    def test_time_domain_configs_form_these_exponentials(self, tmp_path, monkeypatch):
        # every hold forms its own exponentials, one per class of equal steps:
        # a T1 run exponentiates its swap twice, a Ramsey run's first delay is
        # its grid step, and a cache that reuses work must lower these counts
        expected = {
            "fig3a_freedecay": (1, 1), "fig3a_type1": (1, 1), "fig3a_type2": (1, 1),
            "fig3b_t1dark_type1": (4, 1), "fig3b_t1dark_type2": (4, 1),
            "fig3c_ramsey_type1": (3, 1), "fig3c_ramsey_type2": (3, 1),
            "fig3f_twoexc": (3, 3), "fig4_compound": (2, 1),
        }
        counts = {}
        for name in ("_expm", "_sector_generator"):
            real = getattr(lindblad, name)

            def counting(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(lindblad, name, counting)
        seen = {}
        for config in expected:
            counts.update(_expm=0, _sector_generator=0)
            cli.run_config(cli.load_config(bundled(config)), str(tmp_path / config))
            seen[config] = counts["_expm"], counts["_sector_generator"]
        assert seen == expected


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

    def test_rerun_into_same_prefix_rewrites_in_place(self, tmp_path):
        # a rerun writes over the first run's files, keeping each inode; a
        # junk tail appended in between must be cut, and the bytes match a
        # run into an empty directory
        fresh, again = tmp_path / "fresh", tmp_path / "again"
        fresh.mkdir(), again.mkdir()
        configs = {
            entry.name.replace(".cfg", ""): cli.load_config(str(entry))
            for entry in sorted(files("wgqed").joinpath("configs").iterdir())
        }
        for directory in (fresh, again):
            for name, config in configs.items():
                cli.run_config(config, str(directory / name))
        inodes = {path.name: path.stat().st_ino for path in again.iterdir()}
        for path in again.iterdir():
            with open(path, "ab") as fh:
                fh.write(b"stale tail\n")
        for name, config in configs.items():
            cli.run_config(config, str(again / name))
        bodies = self.numeric_bodies(fresh)
        assert len(bodies) == 30 and bodies == self.numeric_bodies(again)
        assert {path.name: path.stat().st_ino for path in again.iterdir()} == inodes

    def test_wall_time_ignores_a_system_clock_step(self, tmp_path, monkeypatch):
        # the system clock is set back an hour during the run
        real, calls = cli.time.time, []

        def stepped():
            calls.append(None)
            return real() - (3600.0 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(cli.time, "time", stepped)
        cli.run_config(cli.load_config(bundled("fig1c_q1")), str(tmp_path / "q1"))
        manifest = json.loads((tmp_path / "q1_manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0


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


def count_calls(monkeypatch, module, name) -> list:
    """The arguments of each call of module.name from here on."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneBuildPerRun:
    # run_config hands what an experiment's check built to its run, which
    # builds it no second time; validate runs the check alone

    @pytest.mark.parametrize("name", ["fig1c_q1", "fig2e_xy", "steady"])
    def test_drive_is_built_once(self, tmp_path, monkeypatch, name):
        if name == "steady":
            config = {
                "experiment": "steady",
                "system": {"qubits": [{"label": "Q", "gamma_1d": 13.4, "phase_pi": 0.0}]},
                "params": {"detuning_mhz": 0.5, "omega_rabi": 1.0},
            }
        else:
            config = cli.load_config(bundled(name))
            config["params"]["points"] = 11
        built = count_calls(monkeypatch, spectroscopy, "DriveSpec")
        cli.run_config(config, str(tmp_path / "run"))
        assert len(built) == 1

    def test_calibration_is_evaluated_once(self, tmp_path, monkeypatch):
        config = cli.load_config(bundled("tableS1_calib"))
        names = ("TransmonModel", "dispersive_shift", "crosstalk_bias")
        calls = {name: count_calls(monkeypatch, calibration, name) for name in names}
        cli.run_config(config, str(tmp_path / "calib"))
        assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(names, 1)

    def test_shelve_check_averages_no_scan(self, tmp_path, monkeypatch, capsys):
        averaged = count_calls(monkeypatch, spectroscopy, "pulse_bandwidth_average")
        assert cli.main(["validate", bundled("fig3d_shelve")]) == 0
        assert averaged == []
        cli.run_config(cli.load_config(bundled("fig3d_shelve")), str(tmp_path / "shelve"))
        assert len(averaged) == 2


def test_cli_uses_public_library_names_alone():
    # the checks reach the library through its public preconditions
    modules = {"calibration", "core", "lindblad", "protocols", "records", "spectroscopy"}
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert private == []


def loaded_after(code: str, modules) -> list:
    """The modules of this list that a fresh interpreter has loaded after running code."""
    code += f"\nimport sys; print([name for name in {tuple(modules)!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_signal_unloaded():
    # nothing of the package uses scipy.signal; scipy.optimize loads at the
    # first fit, jsonschema only in the tests, evolve finds its blocks
    # without scipy.sparse.csgraph, and spectroscopy writes out its SI
    # constants; the Liouvillian layer (lindblad, and with it scipy.linalg
    # and scipy.sparse) loads only where a run needs protocols or a solve,
    # so loading every bundled config and the closed forms leave it unloaded
    lazy = (
        "scipy.signal", "scipy.optimize", "jsonschema", "scipy.sparse.csgraph", "scipy.constants",
        "scipy.linalg", "scipy.sparse", "wgqed.lindblad", "wgqed.protocols",
    )
    code = """
from importlib.resources import files
from wgqed import cli, dark_state_rates, thermal_qubit_steady
for entry in sorted(files("wgqed").joinpath("configs").iterdir()):
    cli.load_config(entry)
"""
    assert loaded_after("import wgqed.cli", lazy) == []
    assert loaded_after(code, lazy) == []


def test_checks_and_runs_without_protocols_leave_scipy_linalg_unloaded(tmp_path):
    # every check reads core, spectroscopy and calibration alone, and the
    # shelve and calib runs call neither protocols nor a solver
    validated = sorted(Path(bundled("fig1c_q1")).parent.glob("*.cfg"))
    assert len(validated) == 17
    commands = [["validate", str(path)] for path in validated]
    commands += [
        ["run", bundled(name), "--output", str(tmp_path / name)] for name in ("fig3d_shelve", "tableS1_calib")
    ]
    code = f"""
from wgqed import cli
for argv in {commands!r}:
    if cli.main(argv) != 0:
        raise SystemExit(f"failed: {{argv}}")
"""
    assert loaded_after(code, ("scipy.linalg", "wgqed.lindblad", "wgqed.protocols")) == []
    assert (tmp_path / "tableS1_calib_calib.json").is_file()


def test_protocols_import_loads_the_liouvillian_layer():
    # protocols imports lindblad, and lindblad scipy.linalg, at module level:
    # whatever first touches protocols pays the import, so the first hold or
    # steady state of a run does not
    expected = ["wgqed.lindblad", "scipy.linalg", "scipy.sparse"]
    assert loaded_after("import wgqed.protocols", expected) == expected
    assert loaded_after("import wgqed; wgqed.protocols", expected) == expected


# the names the package exports, by the module that defines them
PACKAGE_EXPORTS = {
    "core": (
        "AsymmetricPair", "CollectiveMode", "Placement", "QubitParams", "SystemSpec",
        "build_effective_hamiltonian", "cavity_spec", "collective_modes", "compound_mirror_spec",
        "cooperativity", "coupling_rate_2j", "dark_bright_asymmetric", "dark_state_rates",
        "mirror_pair_spec", "phase_mismatch_decay", "probe_dark_coupling", "purcell_factor",
        "second_excitation_cooperativity", "thermal_qubit_steady",
    ),
    "lindblad": (
        "LindbladModel", "ProductBasis", "assemble_liouvillian", "build_model",
        "dominant_oscillation", "evolve", "steady_states",
    ),
    "records": ("FitResult", "SpectrumScan", "TimeTrace"),
}


def test_package_exports_resolve_to_their_modules():
    import importlib

    import wgqed

    listed = dir(wgqed)
    for module_name, names in PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"wgqed.{module_name}")
        assert getattr(wgqed, module_name) is module and module_name in listed
        for name in names:
            namespace = {}
            exec(f"from wgqed import {name}", namespace)
            assert namespace[name] is getattr(module, name), name
            assert name in listed
    for module_name in ("calibration", "cli", "protocols", "spectroscopy"):
        assert getattr(wgqed, module_name) is importlib.import_module(f"wgqed.{module_name}")
        assert module_name in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wgqed.no_such_name


def test_cli_runs_without_jsonschema_or_scipy_optimize(tmp_path):
    # both imports blocked: every bundled config validates, and a run that
    # fits nothing completes
    code = """
import sys
sys.modules["jsonschema"] = sys.modules["scipy.optimize"] = None
from importlib.resources import files
from wgqed import cli
for entry in sorted(files("wgqed").joinpath("configs").iterdir()):
    cli.main(["validate", str(entry)])
sys.exit(cli.main(["run", str(files("wgqed").joinpath("configs/fig2c_cavity.cfg")), "--output", sys.argv[1]]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "cavity")], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(": ok\n") == 17
    assert (tmp_path / "cavity_spectrum.csv").is_file()
