"""Config-driven experiment runner.

Subcommands: ``wgqed run <config>``, ``wgqed list [--json]``,
``wgqed validate <config>``.  A config is a single JSON document (by
convention with a .cfg extension); every run emits deterministic CSV and
JSON artifacts plus a manifest, so identical config + seed reproduce
byte-identical numeric outputs.  Exit codes: 0 success, 1 config/schema
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, calibration, core, lindblad, protocols, spectroscopy
from .records import fit_result_json, write_scan_csv, write_table_csv, write_trace_csv


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schemas

_QUBIT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label", "gamma_1d", "phase_pi"],
    "properties": {
        "label": {"type": "string"},
        "gamma_1d": {"type": "number", "minimum": 0},
        "gamma_loss": {"type": "number", "minimum": 0},
        "gamma_phi": {"type": "number", "minimum": 0},
        "phase_pi": {"type": "number"},
        "f_max": {"type": "number"},
        "f_min": {"type": "number"},
    },
}

_SYSTEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["qubits"],
    "properties": {
        "qubits": {"type": "array", "minItems": 1, "maxItems": 5, "items": _QUBIT_SCHEMA},
        "probe": {"type": ["string", "integer"]},
        "detunings": {"type": "array", "items": {"type": "number"}},
        "direct_couplings": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 3,
                "maxItems": 3,
                "items": {"type": "number"},
            },
        },
        "dephasing_correlations": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 3,
                "maxItems": 3,
                "items": {"type": "number"},
            },
        },
        "n_th": {"type": "number", "minimum": 0},
        "working_frequency_ghz": {"type": "number", "exclusiveMinimum": 0},
    },
}

_GRID = {
    "start_mhz": {"type": "number"},
    "stop_mhz": {"type": "number"},
    "points": {"type": "integer", "minimum": 3},
}

_DRIVE = {
    "omega_rabi": {"type": "number", "exclusiveMinimum": 0},
    "power_dbm": {"type": "number"},
}


def _params_schema(properties, required=()):
    return {
        "type": "object",
        "additionalProperties": False,
        "required": list(required),
        "properties": properties,
    }


_EXPERIMENTS: dict[str, dict] = {
    "spectrum": {
        "description": "waveguide transmission spectrum over a detuning grid",
        "needs_system": True,
        "schema": _params_schema({**_GRID, **_DRIVE}, required=["start_mhz", "stop_mhz", "points"]),
        "docs": {
            "start_mhz/stop_mhz/points": "detuning grid relative to the working frequency",
            "omega_rabi | power_dbm": "drive strength (default: saturation 0.01)",
        },
    },
    "xy-spectrum": {
        "description": "local-drive to waveguide-output spectrum (no bright background)",
        "needs_system": True,
        "schema": _params_schema(
            {**_GRID, "omega_rabi": _DRIVE["omega_rabi"], "xy_qubit": {"type": ["string", "integer"]}},
            required=["start_mhz", "stop_mhz", "points", "omega_rabi"],
        ),
        "docs": {
            "start_mhz/stop_mhz/points": "detuning grid",
            "omega_rabi": "local drive Rabi rate (MHz)",
            "xy_qubit": "driven qubit label or index (default: the probe)",
        },
    },
    "rabi": {
        "description": "probe excited-state population versus interaction time",
        "needs_system": True,
        "schema": _params_schema(
            {
                "tau_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 8},
                "probe_detuning_mhz": {"type": "number"},
                "fit": {"enum": ["sinusoid", "exponential", "none"]},
            },
            required=["tau_max_ns", "points"],
        ),
        "docs": {
            "tau_max_ns/points": "interaction-time grid",
            "probe_detuning_mhz": "probe offset from the mirrors during the hold",
            "fit": "sinusoid (default), exponential (free decay) or none",
        },
    },
    "t1-dark": {
        "description": "dark-state population decay via swap-in / wait / swap-out",
        "needs_system": True,
        "schema": _params_schema(
            {
                "delay_min_ns": {"type": "number", "minimum": 0},
                "delay_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 8},
                "park_detuning_mhz": {"type": "number"},
            },
            required=["delay_min_ns", "delay_max_ns", "points"],
        ),
        "docs": {
            "delay_min_ns/delay_max_ns/points": "storage-delay grid",
            "park_detuning_mhz": "probe parking offset during the wait (default -50)",
        },
    },
    "ramsey-dark": {
        "description": "dark-state Ramsey fringes via half-swaps",
        "needs_system": True,
        "schema": _params_schema(
            {
                "delay_min_ns": {"type": "number", "minimum": 0},
                "delay_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 8},
                "artificial_detuning_mhz": {"type": "number"},
                "park_detuning_mhz": {"type": "number"},
            },
            required=["delay_min_ns", "delay_max_ns", "points"],
        ),
        "docs": {
            "delay_min_ns/delay_max_ns/points": "free-evolution delay grid",
            "artificial_detuning_mhz": "fringe detuning applied to the mirrors (default 2)",
            "park_detuning_mhz": "probe parking offset (default -50)",
        },
    },
    "shelve": {
        "description": "mirror-pair transmission with shelved dark population",
        "needs_system": True,
        "schema": _params_schema(
            {
                **_GRID,
                "rho_dd": {"type": "number", "minimum": 0, "maximum": 1},
                "pulse_ns": {"type": "number", "exclusiveMinimum": 0},
            },
            required=["start_mhz", "stop_mhz", "points", "rho_dd"],
        ),
        "docs": {
            "start_mhz/stop_mhz/points": "probe detuning grid",
            "rho_dd": "shelved dark-state population",
            "pulse_ns": "optional rectangular-pulse duration for bandwidth averaging",
        },
    },
    "two-excitation": {
        "description": "probe dynamics with a second excitation, plus linear-cavity companion",
        "needs_system": True,
        "schema": _params_schema(
            {
                "tau_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 8},
            },
            required=["tau_max_ns", "points"],
        ),
        "docs": {"tau_max_ns/points": "interaction-time grid"},
    },
    "compound": {
        "description": "probe Rabi traces against the dark states of compound mirrors",
        "needs_system": True,
        "schema": _params_schema(
            {
                "tau_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 8},
            },
            required=["tau_max_ns", "points"],
        ),
        "docs": {"tau_max_ns/points": "interaction-time grid"},
    },
    "calib": {
        "description": "transmon frequency model, dispersive shift and flux crosstalk",
        "needs_system": False,
        "schema": _params_schema(
            {
                "transmon": _params_schema(
                    {
                        "ej1": {"type": "number"},
                        "ej2": {"type": "number"},
                        "ec": {"type": "number"},
                        "flux_points": {"type": "integer", "minimum": 2},
                    },
                    required=["ej1", "ej2", "ec"],
                ),
                "resonator": _params_schema(
                    {
                        "f_r": {"type": "number"},
                        "g_mhz": {"type": "number"},
                        "qi": {"type": "number"},
                        "qe": {"type": "number"},
                        "f_q": {"type": "number"},
                        "eta_mhz": {"type": "number"},
                    },
                    required=["f_r", "g_mhz", "qi", "qe", "f_q"],
                ),
                "crosstalk": _params_schema(
                    {
                        "m": {"type": "array", "items": {"type": "number"}},
                        "f0": {"type": "array", "items": {"type": "number"}},
                        "v0": {"type": "array", "items": {"type": "number"}},
                        "targets": {"type": "array", "items": {"type": "number"}},
                    },
                    required=["m", "f0", "v0", "targets"],
                ),
            }
        ),
        "docs": {
            "transmon": "junction/charging energies (GHz); optional flux sweep",
            "resonator": "readout resonator parameters for chi and Purcell estimate",
            "crosstalk": "linearized bias matrix and target frequencies",
        },
    },
    "steady": {
        "description": "driven steady-state density matrix",
        "needs_system": True,
        "schema": _params_schema(
            {"detuning_mhz": {"type": "number"}, **_DRIVE}, required=["detuning_mhz"]
        ),
        "docs": {
            "detuning_mhz": "drive detuning from the working frequency",
            "omega_rabi | power_dbm": "drive strength (default: saturation 0.01)",
        },
    },
    "modes": {
        "description": "collective-mode decomposition of the emitter array",
        "needs_system": True,
        "schema": _params_schema({}),
        "docs": {},
    },
}

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": sorted(_EXPERIMENTS)},
        "system": _SYSTEM_SCHEMA,
        "params": {"type": "object"},
        "output": {"type": "string"},
        "seed": {"type": "integer"},
    },
}


# ---------------------------------------------------------------------------
# config handling


def _format_error(error: jsonschema.ValidationError) -> str:
    path = "$" + "".join(
        f"[{p}]" if isinstance(p, int) else f".{p}" for p in error.absolute_path
    )
    return f"config error at {path}: {error.message}"


def validate_config(config: dict) -> None:
    """Schema-validate a config dict; raises ConfigError naming the key."""
    if not isinstance(config, dict):
        raise ConfigError("config error at $: document must be a JSON object")
    experiment = config.get("experiment")
    if isinstance(experiment, str) and experiment not in _EXPERIMENTS:
        close = difflib.get_close_matches(experiment, _EXPERIMENTS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"config error at $.experiment: unknown experiment {experiment!r}{hint}")
    validator = jsonschema.Draft202012Validator(_CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        raise ConfigError(_format_error(errors[0]))
    entry = _EXPERIMENTS[config["experiment"]]
    if entry["needs_system"] and "system" not in config:
        raise ConfigError("config error at $.system: this experiment needs a system block")
    params = config.get("params", {})
    sub = jsonschema.Draft202012Validator(entry["schema"])
    errors = sorted(sub.iter_errors(params), key=lambda e: list(e.absolute_path))
    if errors:
        raise ConfigError("config error at $.params" + _format_error(errors[0])[15:])


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    validate_config(config)
    return config


def _resolve_qubit(labels, ref, where: str) -> int:
    """Index of the qubit named by ref (label or index); errors name the key path where."""
    if isinstance(ref, int):
        if not 0 <= ref < len(labels):
            raise ConfigError(f"config error at {where}: qubit index {ref} out of range")
        return ref
    if ref not in labels:
        raise ConfigError(f"config error at {where}: unknown qubit label {ref!r}")
    return labels.index(ref)


def build_system(system: dict) -> core.SystemSpec:
    probe = system.get("probe")
    labels = [q["label"] for q in system["qubits"]]
    probe_index = None if probe is None else _resolve_qubit(labels, probe, "$.system.probe")
    try:
        qubits = tuple(
            (
                core.QubitParams(
                    label=q["label"],
                    gamma_1d=q["gamma_1d"],
                    gamma_loss=q.get("gamma_loss", 0.0),
                    gamma_phi=q.get("gamma_phi", 0.0),
                    f_max=q.get("f_max"),
                    f_min=q.get("f_min"),
                ),
                core.Placement(q["phase_pi"] * math.pi),
            )
            for q in system["qubits"]
        )
        return core.SystemSpec(
            qubits=qubits,
            probe_index=probe_index,
            detunings=system.get("detunings"),
            direct_couplings=tuple(
                (int(i), int(j), float(g)) for i, j, g in system.get("direct_couplings", ())
            ),
            dephasing_correlations=tuple(
                (int(i), int(j), float(r))
                for i, j, r in system.get("dephasing_correlations", ())
            ),
            n_th=system.get("n_th", 0.0),
            working_frequency=system.get("working_frequency_ghz", 6.6),
        )
    except ValueError as err:
        raise ConfigError(f"config error at $.system: {err}") from err


# ---------------------------------------------------------------------------
# experiment runners


def _drive_from_params(params: dict) -> spectroscopy.DriveSpec:
    return spectroscopy.DriveSpec(
        omega_rabi=params.get("omega_rabi"), power_dbm=params.get("power_dbm")
    )


def _grid(params: dict) -> np.ndarray:
    return np.linspace(params["start_mhz"], params["stop_mhz"], params["points"])


def _taus(params: dict) -> np.ndarray:
    return np.linspace(0.0, params["tau_max_ns"], params["points"])


def _delays(params: dict) -> np.ndarray:
    return np.linspace(params["delay_min_ns"], params["delay_max_ns"], params["points"])


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fit_payload(fit, extra=None) -> dict:
    payload = json.loads(fit_result_json(fit))
    if extra:
        payload["derived"] = extra
    return payload


def _run_spectrum(spec, params, prefix: Path) -> list[Path]:
    scan = spectroscopy.multi_qubit_transmission(spec, _drive_from_params(params), _grid(params))
    out = prefix.with_name(prefix.name + "_spectrum.csv")
    write_scan_csv(scan, out)
    return [out]


def _xy_qubit(spec, params: dict) -> int:
    """Index of the xy-driven qubit: params.xy_qubit, or the probe by default."""
    target = params.get("xy_qubit")
    if target is None:
        if spec.probe_index is None:
            raise ConfigError("config error at $.params.xy_qubit: no probe to default to")
        return spec.probe_index
    return _resolve_qubit([q.label for q in spec.params], target, "$.params.xy_qubit")


def _run_xy_spectrum(spec, params, prefix: Path) -> list[Path]:
    index = _xy_qubit(spec, params)
    drive = spectroscopy.DriveSpec(port="xy", xy_qubit=index, omega_rabi=params["omega_rabi"])
    scan = spectroscopy.multi_qubit_transmission(spec, drive, _grid(params))
    out = prefix.with_name(prefix.name + "_spectrum.csv")
    write_scan_csv(scan, out)
    return [out]


def _run_rabi(spec, params, prefix: Path) -> list[Path]:
    trace = protocols.simulate_vacuum_rabi(
        spec, _taus(params), probe_detuning=params.get("probe_detuning_mhz")
    )
    trace_path = prefix.with_name(prefix.name + "_trace.csv")
    write_trace_csv(trace, trace_path)
    outputs = [trace_path]
    mode = params.get("fit", "sinusoid")
    if mode != "none":
        if mode == "exponential":
            fit = protocols.fit_exponential(trace)
            extra = None
        else:
            fit = protocols.fit_damped_sinusoid(trace)
            detuning = params.get("probe_detuning_mhz")
            if detuning is None:
                detuning = protocols.interaction_detuning(spec)
            frequency = fit.value("frequency_mhz")
            extra = {
                "coupling_2j_mhz": math.sqrt(max(frequency**2 - detuning**2, 0.0)),
                "probe_detuning_mhz": detuning,
            }
        fit_path = prefix.with_name(prefix.name + "_fit.json")
        _write_json(_fit_payload(fit, extra), fit_path)
        outputs.append(fit_path)
    return outputs


def _run_t1_dark(spec, params, prefix: Path) -> list[Path]:
    trace, fit = protocols.simulate_t1_dark(
        spec, _delays(params), park_detuning=params.get("park_detuning_mhz", protocols.PARK_DETUNING)
    )
    trace_path = prefix.with_name(prefix.name + "_trace.csv")
    fit_path = prefix.with_name(prefix.name + "_fit.json")
    write_trace_csv(trace, trace_path)
    _write_json(
        _fit_payload(fit, {"gamma1_dark_mhz": fit.value("rate_mhz"), "t1_dark_ns": fit.value("lifetime_ns")}),
        fit_path,
    )
    return [trace_path, fit_path]


def _run_ramsey_dark(spec, params, prefix: Path) -> list[Path]:
    trace, fit = protocols.simulate_ramsey_dark(
        spec,
        _delays(params),
        artificial_detuning=params.get("artificial_detuning_mhz", 2.0),
        park_detuning=params.get("park_detuning_mhz", protocols.PARK_DETUNING),
    )
    trace_path = prefix.with_name(prefix.name + "_trace.csv")
    fit_path = prefix.with_name(prefix.name + "_fit.json")
    write_trace_csv(trace, trace_path)
    _write_json(
        _fit_payload(fit, {"gamma2_dark_mhz": fit.value("rate_mhz"), "t2_dark_ns": fit.value("lifetime_ns")}),
        fit_path,
    )
    return [trace_path, fit_path]


def _run_shelve(spec, params, prefix: Path) -> list[Path]:
    mirrors = [spec.params[m] for m in (spec.mirror_indices or range(spec.n_qubits))]
    if len(mirrors) != 2:
        raise ConfigError("config error at $.system: shelving needs a two-mirror pair")
    g1d = float(np.mean([q.gamma_1d for q in mirrors]))
    gamma_b = sum(q.gamma_1d for q in mirrors) + float(np.mean([q.gamma_prime for q in mirrors]))
    grid = _grid(params)
    outputs = []
    for name, rho_dd in (("shelved", params["rho_dd"]), ("reference", 0.0)):
        t = np.array(
            [spectroscopy.shelved_transmission(g1d, gamma_b, rho_dd, d) for d in grid]
        )
        scan = spectroscopy.SpectrumScan(
            grid, t, metadata={"rho_dd": rho_dd, "gamma_b_mhz": gamma_b, "g1d_mhz": g1d}
        )
        if "pulse_ns" in params:
            scan = spectroscopy.pulse_bandwidth_average(scan, params["pulse_ns"])
        path = prefix.with_name(f"{prefix.name}_{name}.csv")
        write_scan_csv(scan, path)
        outputs.append(path)
    return outputs


def _run_two_excitation(spec, params, prefix: Path) -> list[Path]:
    atomic, companion = protocols.simulate_two_excitation(spec, _taus(params))
    atomic_path = prefix.with_name(prefix.name + "_atomic.csv")
    linear_path = prefix.with_name(prefix.name + "_linear.csv")
    write_trace_csv(atomic, atomic_path)
    write_trace_csv(companion, linear_path)
    model, ops = protocols.linear_cavity_model(spec)
    ground_one = np.zeros(model.dimension, dtype=complex)
    ground_one[3] = 1.0
    f_first, _ = lindblad.dominant_oscillation(
        model, np.outer(ground_one, ground_one.conj()), ops["probe_number"]
    )
    excited_one = ops["excited_one_photon"]
    f_second, _ = lindblad.dominant_oscillation(
        model, np.outer(excited_one, excited_one.conj()), ops["probe_number"]
    )
    summary_path = prefix.with_name(prefix.name + "_summary.json")
    _write_json(
        {
            "companion_first_manifold_mhz": f_first,
            "companion_second_manifold_mhz": f_second,
            "companion_frequency_ratio": f_second / f_first,
        },
        summary_path,
    )
    return [atomic_path, linear_path, summary_path]


def _run_compound(spec, params, prefix: Path) -> list[Path]:
    result = protocols.simulate_compound_mirrors(spec, _taus(params))
    outputs = []
    for k, trace in enumerate(result.traces, start=1):
        path = prefix.with_name(f"{prefix.name}_dark{k}.csv")
        write_trace_csv(trace, path)
        outputs.append(path)
    summary_path = prefix.with_name(prefix.name + "_summary.json")
    _write_json(
        {
            "splitting_mhz": result.splitting_mhz,
            "dark_frequencies_mhz": list(result.dark_frequencies),
        },
        summary_path,
    )
    outputs.append(summary_path)
    return outputs


def _run_calib(_spec, params, prefix: Path) -> list[Path]:
    report: dict = {}
    outputs: list[Path] = []
    transmon = None
    if "transmon" in params:
        block = params["transmon"]
        transmon = calibration.TransmonModel(block["ej1"], block["ej2"], block["ec"])
        report["transmon"] = {
            "f_max_ghz": calibration.transmon_frequency(transmon, 0.0),
            "f_min_ghz": calibration.transmon_frequency(transmon, 0.5),
            "asymmetry": transmon.asymmetry,
            "ej_over_ec": (transmon.ej1 + transmon.ej2) / transmon.ec,
        }
        if "flux_points" in block:
            flux = np.linspace(0.0, 1.0, block["flux_points"])
            flux_path = prefix.with_name(prefix.name + "_flux.csv")
            write_table_csv(
                ("flux_phi0", "f01_ghz"),
                ((value, calibration.transmon_frequency(transmon, value)) for value in flux),
                flux_path,
            )
            outputs.append(flux_path)
    if "resonator" in params:
        block = params["resonator"]
        resonator = calibration.ReadoutResonator(block["f_r"], block["g_mhz"], block["qi"], block["qe"])
        eta = block.get("eta_mhz")
        if eta is None:
            if transmon is None:
                raise ConfigError(
                    "config error at $.params.resonator.eta_mhz: give eta or a transmon block"
                )
            eta = -transmon.ec * 1e3
        report["resonator"] = {
            "chi_mhz": calibration.dispersive_shift(
                block["g_mhz"], block["f_q"] - block["f_r"], eta
            ),
            "purcell_estimate_khz": calibration.resonator_purcell_estimate(resonator, block["f_q"]),
        }
    if "crosstalk" in params:
        block = params["crosstalk"]
        ct = calibration.CrosstalkMatrix(
            m=np.asarray(block["m"], dtype=float).reshape(len(block["f0"]), len(block["f0"])),
            f0=block["f0"],
            v0=block["v0"],
        )
        report["crosstalk"] = {
            "bias_v": list(calibration.crosstalk_bias(ct, np.asarray(block["targets"]))),
        }
    if not report:
        raise ConfigError("config error at $.params: calib needs at least one block")
    path = prefix.with_name(prefix.name + "_calib.json")
    _write_json(report, path)
    return outputs + [path]


def _run_steady(spec, params, prefix: Path) -> list[Path]:
    rho = spectroscopy.driven_steady_state(
        spec, _drive_from_params(params), params["detuning_mhz"]
    )
    dim = rho.dimension
    path = prefix.with_name(prefix.name + "_state.csv")
    write_table_csv(
        ("row", "col", "re", "im"),
        ((i, j, rho.elements[i, j].real, rho.elements[i, j].imag) for i in range(dim) for j in range(dim)),
        path,
    )
    return [path]


def _run_modes(spec, _params, prefix: Path) -> list[Path]:
    header = ["mode", "decay_mhz", "shift_mhz"]
    for j in range(spec.n_qubits):
        header += [f"re_amp{j}", f"im_amp{j}"]
    rows = []
    for k, mode in enumerate(core.collective_modes(spec)):
        row = [k, mode.decay_rate, mode.frequency_shift]
        for amp in mode.amplitudes:
            row += [amp.real, amp.imag]
        rows.append(row)
    path = prefix.with_name(prefix.name + "_modes.csv")
    write_table_csv(header, rows, path)
    return [path]


_RUNNERS = {
    "spectrum": _run_spectrum,
    "xy-spectrum": _run_xy_spectrum,
    "rabi": _run_rabi,
    "t1-dark": _run_t1_dark,
    "ramsey-dark": _run_ramsey_dark,
    "shelve": _run_shelve,
    "two-excitation": _run_two_excitation,
    "compound": _run_compound,
    "calib": _run_calib,
    "steady": _run_steady,
    "modes": _run_modes,
}


# ---------------------------------------------------------------------------
# commands


def run_config(config: dict, output_prefix: str | None = None) -> list[Path]:
    """Execute a validated config, returning all artifact paths."""
    started = time.time()
    experiment = config["experiment"]
    spec = build_system(config["system"]) if "system" in config else None
    prefix = Path(output_prefix or config.get("output") or experiment)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[experiment](spec, config.get("params", {}), prefix)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    manifest = {
        "config_sha256": digest,
        "tool_version": __version__,
        "experiment": experiment,
        "seed": config.get("seed"),
        "wall_time_s": time.time() - started,
        "outputs": [p.name for p in outputs],
    }
    manifest_path = prefix.with_name(prefix.name + "_manifest.json")
    _write_json(manifest, manifest_path)
    return outputs + [manifest_path]


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 1
    try:
        outputs = run_config(config, output_prefix=args.output)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 1
    except Exception as err:  # numerical failure from the physics layers
        print(f"run failed: {err}", file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


def _cmd_list(args) -> int:
    if args.json:
        payload = [
            {
                "name": name,
                "description": entry["description"],
                "parameters": entry["docs"],
                "needs_system": entry["needs_system"],
            }
            for name, entry in _EXPERIMENTS.items()
        ]
        print(json.dumps({"experiments": payload}, indent=2))
        return 0
    width = max(len(name) for name in _EXPERIMENTS)
    for name, entry in _EXPERIMENTS.items():
        print(f"{name:<{width}}  {entry['description']}")
        for param, doc in entry["docs"].items():
            print(f"{'':<{width}}    {param}: {doc}")
    return 0


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
        spec = build_system(config["system"]) if "system" in config else None
        if config["experiment"] == "xy-spectrum":
            _xy_qubit(spec, config.get("params", {}))
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 1
    print(f"{args.config}: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgqed", description="waveguide QED experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a config and write artifacts")
    run_parser.add_argument("config")
    run_parser.add_argument("--output", help="artifact path prefix (default: config output field)")
    run_parser.add_argument("--seed", type=int, help="override the config seed")
    run_parser.set_defaults(func=_cmd_run)
    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(func=_cmd_list)
    validate_parser = sub.add_parser("validate", help="check a config's schema and qubit names")
    validate_parser.add_argument("config")
    validate_parser.set_defaults(func=_cmd_validate)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
