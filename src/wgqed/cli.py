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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# checks read core, spectroscopy and calibration, and only runs import
# protocols (and with it lindblad and scipy.linalg), so listing, loading and
# validating any config run without the Liouvillian layer
from . import __version__, calibration, core, records, spectroscopy


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schemas


def _object_schema(properties, required=()):
    """Schema of a JSON object with exactly these properties."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": list(required),
        "properties": properties,
    }


_QUBIT_SCHEMA = _object_schema(
    {
        "label": {"type": "string"},
        "gamma_1d": {"type": "number", "minimum": 0},
        "gamma_loss": {"type": "number", "minimum": 0},
        "gamma_phi": {"type": "number", "minimum": 0},
        "phase_pi": {"type": "number"},
    },
    required=["label", "gamma_1d", "phase_pi"],
)

_NUMBERS = {"type": "array", "items": {"type": "number"}}

# (i, j, value) entries of a pairwise table over qubit indices i and j
_INDEX = {"type": "integer", "minimum": 0}
_TRIPLE = {"type": "array", "prefixItems": [_INDEX, _INDEX, {"type": "number"}]}
_TRIPLES = {"type": "array", "items": {**_TRIPLE, "minItems": 3, "maxItems": 3}}

_SYSTEM_SCHEMA = _object_schema(
    {
        "qubits": {"type": "array", "minItems": 1, "maxItems": 5, "items": _QUBIT_SCHEMA},
        "probe": {"type": ["string", "integer"]},
        "detunings": _NUMBERS,
        "direct_couplings": _TRIPLES,
        "dephasing_correlations": _TRIPLES,
        "n_th": {"type": "number", "minimum": 0},
        "working_frequency_ghz": {"type": "number", "exclusiveMinimum": 0},
    },
    required=["qubits"],
)

# ---------------------------------------------------------------------------
# config handling


# type names of the schemas and what each admits; unlike jsonschema, an
# integer is a Python int, so 181.0 is not one (run would fail on it)
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}


def _schema_errors(schema: dict, instance, path=()):
    """(key path, message) of each way instance fails schema, in jsonschema's order.

    Checks only the keywords the config schemas use (type, enum, minimum,
    exclusiveMinimum, maximum, minItems, maxItems, items, prefixItems,
    required, properties, additionalProperties: false) and passes over any
    other, such as description.  Keywords are checked in the schema's order,
    descending into properties and items as they come, and each message is
    that of jsonschema's Draft 2020-12 validator, so the first error at the
    smallest key path is the one jsonschema would name.
    """
    number = _TYPES["number"](instance)
    for keyword, value in schema.items():
        if keyword == "type":
            names = [value] if isinstance(value, str) else value
            if not any(_TYPES[name](instance) for name in names):
                yield path, f"{instance!r} is not of type {', '.join(map(repr, names))}"
        elif keyword == "enum":
            if instance not in value:
                yield path, f"{instance!r} is not one of {value!r}"
        elif keyword == "minimum":
            if number and instance < value:
                yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "exclusiveMinimum":
            if number and instance <= value:
                yield path, f"{instance!r} is less than or equal to the minimum of {value!r}"
        elif keyword == "maximum":
            if number and instance > value:
                yield path, f"{instance!r} is greater than the maximum of {value!r}"
        elif keyword == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                yield path, f"{instance!r} " + ("should be non-empty" if value == 1 else "is too short")
        elif keyword == "maxItems":
            if isinstance(instance, list) and len(instance) > value:
                yield path, f"{instance!r} is too long"
        elif keyword == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from _schema_errors(value, item, path + (index,))
        elif keyword == "prefixItems":
            if isinstance(instance, list):
                for index, (subschema, item) in enumerate(zip(value, instance)):
                    yield from _schema_errors(subschema, item, path + (index,))
        elif keyword == "required":
            if isinstance(instance, dict):
                for name in value:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
        elif keyword == "properties":
            if isinstance(instance, dict):
                for name, subschema in value.items():
                    if name in instance:
                        yield from _schema_errors(subschema, instance[name], path + (name,))
        elif keyword == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                extras = sorted(name for name in instance if name not in schema["properties"])
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _check_schema(schema: dict, document) -> None:
    """ConfigError naming the first failing key path of document under schema."""
    # min keeps the first of equal paths, as jsonschema's errors sorted stably by path
    error = min(_schema_errors(schema, document), key=lambda error: error[0], default=None)
    if error is not None:
        raise _config_error(*error)


def _config_error(path: tuple, message: str) -> ConfigError:
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return ConfigError(f"config error at ${where}: {message}")


@contextmanager
def _config_errors(where: str):
    """Raise a library error from the block as a ConfigError at the key path where.

    The library rejects an input by ValueError, and an input past float
    range fails by ArithmeticError (an overflow, or a division by a value
    that underflowed to zero); both are errors of the config.  A
    ConfigError, itself a ValueError, passes unchanged.
    """
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(f"config error at {where}: {err}") from err


def _non_finite(document, path=()):
    """(key path, value) of each NaN or infinite number (json.loads reads NaN, Infinity, 1e999)."""
    if isinstance(document, float) and not math.isfinite(document):
        yield path, document
    elif isinstance(document, (dict, list)):
        items = document.items() if isinstance(document, dict) else enumerate(document)
        for key, value in items:
            yield from _non_finite(value, path + (key,))


def validate_config(config: dict) -> None:
    """Schema-validate a config dict, all numbers finite; raises ConfigError naming the key."""
    if not isinstance(config, dict):
        raise ConfigError("config error at $: document must be a JSON object")
    experiment = config.get("experiment")
    if isinstance(experiment, str) and experiment not in _EXPERIMENTS:
        close = difflib.get_close_matches(experiment, _EXPERIMENTS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"config error at $.experiment: unknown experiment {experiment!r}{hint}")
    _check_schema(_CONFIG_SCHEMA, config)
    entry = _EXPERIMENTS[config["experiment"]]
    if entry.needs_system and "system" not in config:
        raise ConfigError("config error at $.system: this experiment needs a system block")
    # wrapped in its key, so error paths read $.params.<key>
    _check_schema(
        _object_schema({"params": _object_schema(entry.params, entry.required)}),
        {"params": config.get("params", {})},
    )
    for path, value in _non_finite(config):
        raise _config_error(path, f"{value!r} is not a finite number")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from err
    try:
        config = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # nesting past the parser's depth
        raise ConfigError(f"config is not valid JSON: {err}") from err
    validate_config(config)
    return config


def _resolve_qubit(labels, ref, where: str) -> int:
    """Index of the qubit named by ref (label or index); errors name the key path where.

    A label must name exactly one qubit: one that two qubits carry is ambiguous.
    """
    if isinstance(ref, int):
        if not 0 <= ref < len(labels):
            raise ConfigError(f"config error at {where}: qubit index {ref} out of range")
        return ref
    indices = [i for i, label in enumerate(labels) if label == ref]
    if not indices:
        raise ConfigError(f"config error at {where}: unknown qubit label {ref!r}")
    if len(indices) > 1:
        raise ConfigError(f"config error at {where}: qubit label {ref!r} names qubits {indices}")
    return indices[0]


def build_system(system: dict) -> core.SystemSpec:
    probe = system.get("probe")
    labels = [q["label"] for q in system["qubits"]]
    probe_index = None if probe is None else _resolve_qubit(labels, probe, "$.system.probe")
    with _config_errors("$.system"):
        qubits = tuple(
            (
                core.QubitParams(
                    label=q["label"],
                    gamma_1d=q["gamma_1d"],
                    gamma_loss=q.get("gamma_loss", 0.0),
                    gamma_phi=q.get("gamma_phi", 0.0),
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
                (i, j, float(g)) for i, j, g in system.get("direct_couplings", ())
            ),
            dephasing_correlations=tuple(
                (i, j, float(r)) for i, j, r in system.get("dephasing_correlations", ())
            ),
            n_th=system.get("n_th", 0.0),
            working_frequency=system.get("working_frequency_ghz", 6.6),
        )


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment, declared once.

    params maps each parameter to its JSON schema, with a "description"
    that ``wgqed list`` prints.  check(spec, params) raises ConfigError for
    what the schema cannot express (qubit references, block combinations,
    the library's own preconditions) and returns what the run takes: the
    DriveSpec of spectrum, xy-spectrum and steady, shelve's mirror pair,
    calib's artifacts, or None.  One rule, _config_errors, turns a library
    error into a config error: a ValueError or ArithmeticError raised where
    a check calls the library is a ConfigError at the key path the check
    names for that call.  ``run`` calls check once and hands its
    product to run(spec, params, checked), which returns the artifacts in
    order as {file suffix: record}, where a record is a TimeTrace, a
    SpectrumScan, a (header, rows) table or a JSON-ready dict;
    ``validate`` calls check alone and discards its product.
    """

    description: str
    params: dict
    run: Callable
    required: tuple = ()
    needs_system: bool = True
    check: Callable = lambda spec, params: None


def _number(description: str, **limits) -> dict:
    return {"type": "number", "description": description, **limits}


def _points(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum, "description": "number of grid points"}


def _block(description: str, fields: dict, required) -> dict:
    return {**_object_schema(fields, required), "description": description}


_GRID = {
    "start_mhz": _number("first detuning of the grid (MHz from the working frequency)"),
    "stop_mhz": _number("last detuning of the grid (MHz)"),
    "points": _points(3),
}

_DRIVE = {
    "omega_rabi": _number("drive Rabi rate (MHz; default: saturation 0.01)", exclusiveMinimum=0),
    "power_dbm": _number("drive power (dBm), instead of omega_rabi"),
}

_TAUS = {
    "tau_max_ns": _number("last interaction time, from 0 (ns)", exclusiveMinimum=0),
    "points": _points(8),
}

_DELAYS = {
    "delay_min_ns": _number("first delay of the grid (ns)", minimum=0),
    "delay_max_ns": _number("last delay of the grid (ns)", exclusiveMinimum=0),
    "points": _points(8),
    "park_detuning_mhz": _number(
        f"probe parking offset during the wait (MHz; default {core.PARK_DETUNING:g})"
    ),
}


def _grid(params: dict) -> np.ndarray:
    return np.linspace(params["start_mhz"], params["stop_mhz"], params["points"])


def _taus(params: dict) -> np.ndarray:
    return np.linspace(0.0, params["tau_max_ns"], params["points"])


def _delays(params: dict) -> np.ndarray:
    return np.linspace(params["delay_min_ns"], params["delay_max_ns"], params["points"])


def _check_added_mhz(spec, params: dict, keys) -> None:
    """The MHz values a run adds to the spec, each key in turn (core.require_representable).

    Each value present is added to those before it, and the first that
    takes the sum past core.MAX_MHZ is a ConfigError at $.params.<key>.
    """
    added = []
    for key in keys:
        if key in params:
            added.append(params[key])
            with _config_errors(f"$.params.{key}"):
                core.require_representable(spec, *added)


def _drive(port: str, spec, params: dict) -> spectroscopy.DriveSpec:
    """The check of a spectrum, xy-spectrum or steady run: the DriveSpec the run takes.

    An xy drive acts on params.xy_qubit, or on the probe by default.  The
    DriveSpec and its per-qubit amplitudes (spectroscopy.drive_amplitudes)
    are formed here, so a drive they reject, such as both omega_rabi and
    power_dbm, an input field that is zero, subnormal or not finite, or no
    waveguide-coupled qubit, is a ConfigError at $.params.  The drive
    detunings the run sweeps must be representable (_check_added_mhz).
    """
    xy_qubit = None
    if port == "xy":
        target = params.get("xy_qubit", spec.probe_index)
        if target is None:
            raise ConfigError("config error at $.params.xy_qubit: no probe to default to")
        xy_qubit = _resolve_qubit([q.label for q in spec.params], target, "$.params.xy_qubit")
    with _config_errors("$.params"):
        # the strengths omega_rabi and power_dbm (_DRIVE), None where unset
        drive = spectroscopy.DriveSpec(port, xy_qubit, **{key: params.get(key) for key in _DRIVE})
        spectroscopy.drive_amplitudes(spec, drive)
    _check_added_mhz(spec, params, ("start_mhz", "stop_mhz", "detuning_mhz"))
    return drive


def _run_spectrum(spec, params, drive) -> dict:
    return {"spectrum.csv": spectroscopy.multi_qubit_transmission(spec, drive, _grid(params))}


def _run_rabi(spec, params, _none) -> dict:
    from . import protocols

    detuning = params.get("probe_detuning_mhz")
    trace = protocols.simulate_vacuum_rabi(spec, _taus(params), probe_detuning=detuning)
    mode = params.get("fit", "sinusoid")
    if mode == "none":
        return {"trace.csv": trace}
    if mode == "exponential":
        return {"trace.csv": trace, "fit.json": records.fit_result_payload(protocols.fit_exponential(trace))}
    fit = protocols.fit_damped_sinusoid(trace)
    if detuning is None:
        detuning = core.interaction_detuning(spec)
    frequency = fit.value("frequency_mhz")
    extra = {
        "coupling_2j_mhz": math.sqrt(max(frequency**2 - detuning**2, 0.0)),
        "probe_detuning_mhz": detuning,
    }
    return {"trace.csv": trace, "fit.json": records.fit_result_payload(fit, extra)}


# dark-sequence params and the simulator keywords they set
_DARK_OPTIONS = dict(park_detuning_mhz="park_detuning", artificial_detuning_mhz="artificial_detuning")


def _check_holds(precondition, mhz_keys, spec, params) -> None:
    """The check of a run of holds: the core rules its simulator applies, at their keys.

    A probe (core.require_probe) at $.system.probe; the simulator's
    precondition on the spec, if any, at $.system: core.iswap_duration_ns
    for the swap of t1-dark, ramsey-dark and two-excitation,
    core.check_compound_mirrors for compound; the hold grid
    (core.time_grid_us) of _taus at $.params.tau_max_ns, or of _delays at
    $.params.delay_max_ns once delay_min_ns is below delay_max_ns; and the
    MHz values of mhz_keys that the run adds (_check_added_mhz).
    """
    with _config_errors("$.system.probe"):
        core.require_probe(spec)
    if precondition is not None:
        with _config_errors("$.system"):
            precondition(spec)
    if "tau_max_ns" in params:
        grid, key = _taus(params), "tau_max_ns"
    else:
        if not params["delay_min_ns"] < params["delay_max_ns"]:
            raise ConfigError(
                f"config error at $.params.delay_min_ns: {params['delay_min_ns']:g} ns is not below "
                f"delay_max_ns {params['delay_max_ns']:g} ns"
            )
        grid, key = _delays(params), "delay_max_ns"
    with _config_errors(f"$.params.{key}"):
        core.time_grid_us(grid, "ns")
    _check_added_mhz(spec, params, mhz_keys)


def _run_dark(simulate: str, fit_trace: str, kind: int, spec, params, _none) -> dict:
    """A dark-state sequence's trace and its fit, which gives gamma<kind> and T<kind>.

    simulate and fit_trace name the protocols functions, looked up at run
    time, so a traced or patched one is the one called.
    """
    from . import protocols

    options = {name: params[key] for key, name in _DARK_OPTIONS.items() if key in params}
    trace = getattr(protocols, simulate)(spec, _delays(params), **options)
    fit = getattr(protocols, fit_trace)(trace)
    derived = {
        f"gamma{kind}_dark_mhz": fit.value("rate_mhz"),
        f"t{kind}_dark_ns": fit.value("lifetime_ns"),
    }
    return {"trace.csv": trace, "fit.json": records.fit_result_payload(fit, derived)}


def _check_shelve(spec, params) -> list:
    """The two-mirror pair the run takes, and a pulse_ns whose bandwidth average the grid admits."""
    mirrors = [spec.params[m] for m in (spec.mirror_indices or range(spec.n_qubits))]
    if len(mirrors) != 2:
        raise ConfigError("config error at $.system: shelving needs a two-mirror pair")
    if "pulse_ns" in params:
        with _config_errors("$.params.pulse_ns"):
            spectroscopy.check_pulse_average(_grid(params), params["pulse_ns"])
    return mirrors


def _run_shelve(spec, params, mirrors) -> dict:
    g1d = float(np.mean([q.gamma_1d for q in mirrors]))
    gamma_b = sum(q.gamma_1d for q in mirrors) + float(np.mean([q.gamma_prime for q in mirrors]))
    grid = _grid(params)
    artifacts = {}
    for name, rho_dd in (("shelved", params["rho_dd"]), ("reference", 0.0)):
        t = np.array(
            [spectroscopy.shelved_transmission(g1d, gamma_b, rho_dd, d) for d in grid]
        )
        scan = spectroscopy.SpectrumScan(
            grid, t, metadata={"rho_dd": rho_dd, "gamma_b_mhz": gamma_b, "g1d_mhz": g1d}
        )
        if "pulse_ns" in params:
            scan = spectroscopy.pulse_bandwidth_average(scan, params["pulse_ns"])
        artifacts[f"{name}.csv"] = scan
    return artifacts


def _run_two_excitation(spec, params, _none) -> dict:
    from . import protocols

    atomic, companion, (f_first, f_second) = protocols.simulate_two_excitation(spec, _taus(params))
    summary = {
        "companion_first_manifold_mhz": f_first,
        "companion_second_manifold_mhz": f_second,
        "companion_frequency_ratio": f_second / f_first,
    }
    return {"atomic.csv": atomic, "linear.csv": companion, "summary.json": summary}


def _run_compound(spec, params, _none) -> dict:
    from . import protocols

    result = protocols.simulate_compound_mirrors(spec, _taus(params))
    artifacts = {f"dark{k}.csv": trace for k, trace in enumerate(result.traces, start=1)}
    artifacts["summary.json"] = {
        "splitting_mhz": result.splitting_mhz,
        "dark_frequencies_mhz": list(result.dark_frequencies),
    }
    return artifacts


def _finite_report(report: dict) -> dict:
    """report, or ValueError naming its first NaN or infinite value."""
    for path, value in _non_finite(report):
        raise ValueError(f"{path[0]} is not finite ({value})")
    return report


def _check_calib(_spec, params) -> dict:
    """Each block's report, the artifacts of the run: a calib run only evaluates closed forms.

    A block that calibration rejects, or whose report holds a NaN or an
    infinity, is a ConfigError at $.params.<block>.
    """
    if not params:
        raise ConfigError("config error at $.params: calib needs at least one block")
    resonator = params.get("resonator")
    if resonator is not None and "eta_mhz" not in resonator and "transmon" not in params:
        raise ConfigError(
            "config error at $.params.resonator.eta_mhz: give eta or a transmon block"
        )
    report: dict = {}
    artifacts: dict = {}
    if "transmon" in params:
        block = params["transmon"]
        with _config_errors("$.params.transmon"):
            transmon = calibration.TransmonModel(block["ej1"], block["ej2"], block["ec"])
            report["transmon"] = _finite_report({
                "f_max_ghz": calibration.transmon_frequency(transmon, 0.0),
                "f_min_ghz": calibration.transmon_frequency(transmon, 0.5),
                "asymmetry": transmon.asymmetry,
                "ej_over_ec": (transmon.ej1 + transmon.ej2) / transmon.ec,
            })
            if "flux_points" in block:
                flux = np.linspace(0.0, 1.0, block["flux_points"])
                artifacts["flux.csv"] = (
                    ("flux_phi0", "f01_ghz"),
                    ((value, calibration.transmon_frequency(transmon, value)) for value in flux),
                )
    if "resonator" in params:
        block = params["resonator"]
        with _config_errors("$.params.resonator"):
            resonator = calibration.ReadoutResonator(block["f_r"], block["g_mhz"], block["qi"], block["qe"])
            eta = block["eta_mhz"] if "eta_mhz" in block else -params["transmon"]["ec"] * 1e3
            report["resonator"] = _finite_report({
                "chi_mhz": calibration.dispersive_shift(
                    block["g_mhz"], block["f_q"] - block["f_r"], eta
                ),
                "purcell_estimate_khz": calibration.resonator_purcell_estimate(resonator, block["f_q"]),
            })
    if "crosstalk" in params:
        block = params["crosstalk"]
        with _config_errors("$.params.crosstalk"):
            ct = calibration.CrosstalkMatrix(
                m=np.asarray(block["m"], dtype=float).reshape(len(block["f0"]), len(block["f0"])),
                f0=block["f0"],
                v0=block["v0"],
            )
            report["crosstalk"] = _finite_report({
                "bias_v": list(calibration.crosstalk_bias(ct, np.asarray(block["targets"]))),
            })
    return {**artifacts, "calib.json": report}


def _run_steady(spec, params, drive) -> dict:
    rho = spectroscopy.driven_steady_state(spec, drive, params["detuning_mhz"])
    # Python ints and floats, in the row-major order of np.ndenumerate
    row, col = np.indices(rho.shape).reshape(2, -1).tolist()
    values = rho.reshape(-1)
    rows = zip(row, col, values.real.tolist(), values.imag.tolist())
    return {"state.csv": (("row", "col", "re", "im"), rows)}


def _run_modes(spec, _params, _none) -> dict:
    header = ["mode", "decay_mhz", "shift_mhz"]
    for j in range(spec.n_qubits):
        header += [f"re_amp{j}", f"im_amp{j}"]
    rows = []
    for k, mode in enumerate(core.collective_modes(spec)):
        row = [k, mode.decay_rate, mode.frequency_shift]
        for amp in mode.amplitudes:
            row += [amp.real, amp.imag]
        rows.append(row)
    return {"modes.csv": (header, rows)}


_EXPERIMENTS: dict[str, Experiment] = {
    "spectrum": Experiment(
        "waveguide transmission spectrum over a detuning grid",
        {**_GRID, **_DRIVE},
        _run_spectrum,
        required=("start_mhz", "stop_mhz", "points"),
        check=partial(_drive, "waveguide"),
    ),
    "xy-spectrum": Experiment(
        "local-drive to waveguide-output spectrum (no bright background)",
        {
            **_GRID,
            "omega_rabi": _number("local drive Rabi rate (MHz)", exclusiveMinimum=0),
            "xy_qubit": {
                "type": ["string", "integer"],
                "description": "driven qubit label or index (default: the probe)",
            },
        },
        _run_spectrum,
        required=("start_mhz", "stop_mhz", "points", "omega_rabi"),
        check=partial(_drive, "xy"),
    ),
    "rabi": Experiment(
        "probe excited-state population versus interaction time",
        {
            **_TAUS,
            "probe_detuning_mhz": _number("probe offset from the mirrors during the hold (MHz)"),
            "fit": {
                "enum": ["sinusoid", "exponential", "none"],
                "description": "sinusoid (default), exponential (free decay) or none",
            },
        },
        _run_rabi,
        required=("tau_max_ns", "points"),
        check=partial(_check_holds, None, ("probe_detuning_mhz",)),
    ),
    "t1-dark": Experiment(
        "dark-state population decay via swap-in / wait / swap-out",
        _DELAYS,
        partial(_run_dark, "simulate_t1_dark", "fit_exponential", 1),
        required=("delay_min_ns", "delay_max_ns", "points"),
        check=partial(_check_holds, core.iswap_duration_ns, tuple(_DARK_OPTIONS)),
    ),
    "ramsey-dark": Experiment(
        "dark-state Ramsey fringes via half-swaps",
        {
            **_DELAYS,
            "artificial_detuning_mhz": _number(
                "fringe detuning applied to the mirrors (MHz; default 2)"
            ),
        },
        partial(_run_dark, "simulate_ramsey_dark", "fit_damped_sinusoid", 2),
        required=("delay_min_ns", "delay_max_ns", "points"),
        check=partial(_check_holds, core.iswap_duration_ns, tuple(_DARK_OPTIONS)),
    ),
    "shelve": Experiment(
        "mirror-pair transmission with shelved dark population",
        {
            **_GRID,
            "rho_dd": _number("shelved dark-state population", minimum=0, maximum=1),
            "pulse_ns": _number(
                "optional rectangular-pulse duration for bandwidth averaging (ns)",
                exclusiveMinimum=0,
            ),
        },
        _run_shelve,
        required=("start_mhz", "stop_mhz", "points", "rho_dd"),
        check=_check_shelve,
    ),
    "two-excitation": Experiment(
        "probe dynamics with a second excitation, plus linear-cavity companion",
        _TAUS,
        _run_two_excitation,
        required=("tau_max_ns", "points"),
        check=partial(_check_holds, core.iswap_duration_ns, ()),
    ),
    "compound": Experiment(
        "probe Rabi traces against the dark states of compound mirrors",
        _TAUS,
        _run_compound,
        required=("tau_max_ns", "points"),
        check=partial(_check_holds, core.check_compound_mirrors, ()),
    ),
    "calib": Experiment(
        "transmon frequency model, dispersive shift and flux crosstalk",
        {
            "transmon": _block(
                "energies ej1, ej2, ec (GHz) of the transmon; optional flux_points sweep",
                {**dict.fromkeys(("ej1", "ej2", "ec"), {"type": "number"}), "flux_points": _points(2)},
                required=("ej1", "ej2", "ec"),
            ),
            "resonator": _block(
                "readout resonator f_r (GHz), g_mhz, qi, qe and qubit f_q (GHz) for chi and the "
                "Purcell estimate; eta_mhz defaults to -ec of the transmon block",
                dict.fromkeys(("f_r", "g_mhz", "qi", "qe", "f_q", "eta_mhz"), {"type": "number"}),
                required=("f_r", "g_mhz", "qi", "qe", "f_q"),
            ),
            "crosstalk": _block(
                "linearized bias matrix m, f0, v0 and target frequencies",
                dict.fromkeys(("m", "f0", "v0", "targets"), _NUMBERS),
                required=("m", "f0", "v0", "targets"),
            ),
        },
        lambda _spec, _params, artifacts: artifacts,  # built by _check_calib
        needs_system=False,
        check=_check_calib,
    ),
    "steady": Experiment(
        "driven steady-state density matrix",
        {"detuning_mhz": _number("drive detuning from the working frequency (MHz)"), **_DRIVE},
        _run_steady,
        required=("detuning_mhz",),
        check=partial(_drive, "waveguide"),
    ),
    "modes": Experiment("collective-mode decomposition of the emitter array", {}, _run_modes),
}

_CONFIG_SCHEMA = _object_schema(
    {
        "experiment": {"enum": sorted(_EXPERIMENTS)},
        "system": _SYSTEM_SCHEMA,
        "params": {"type": "object"},
        "output": {"type": "string"},
        "seed": {"type": "integer"},
    },
    required=["experiment"],
)

# ---------------------------------------------------------------------------
# commands


def _checked(config: dict) -> tuple[Experiment, core.SystemSpec | None, dict, object]:
    """The experiment, system and params of a config, and what the experiment's check returns."""
    experiment = _EXPERIMENTS[config["experiment"]]
    spec = build_system(config["system"]) if "system" in config else None
    params = config.get("params", {})
    return experiment, spec, params, experiment.check(spec, params)


def run_config(config: dict, output_prefix: str | None = None) -> list[Path]:
    """Execute a validated config, returning all artifact paths."""
    started = time.perf_counter()
    experiment, spec, params, checked = _checked(config)
    prefix = Path(output_prefix or config.get("output") or config["experiment"])
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    artifacts = experiment.run(spec, params, checked)
    outputs = [prefix.with_name(f"{prefix.name}_{suffix}") for suffix in artifacts]
    for record, path in zip(artifacts.values(), outputs):
        records.write(record, path)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    manifest = {
        "config_sha256": digest,
        "tool_version": __version__,
        "experiment": config["experiment"],
        "seed": config.get("seed"),
        "wall_time_s": time.perf_counter() - started,
        "outputs": [p.name for p in outputs],
    }
    manifest_path = prefix.with_name(prefix.name + "_manifest.json")
    records.write(manifest, manifest_path)
    return outputs + [manifest_path]


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
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
    listing = [
        {
            "name": name,
            "description": entry.description,
            "parameters": {param: schema["description"] for param, schema in entry.params.items()},
            "needs_system": entry.needs_system,
        }
        for name, entry in _EXPERIMENTS.items()
    ]
    if args.json:
        print(json.dumps({"experiments": listing}, indent=2))
        return 0
    width = max(len(name) for name in _EXPERIMENTS)
    for item in listing:
        print(f"{item['name']:<{width}}  {item['description']}")
        for param, doc in item["parameters"].items():
            print(f"{'':<{width}}    {param}: {doc}")
    return 0


def _cmd_validate(args) -> int:
    try:
        _checked(load_config(args.config))
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
    validate_parser = sub.add_parser("validate", help="check a config as run does, without running")
    validate_parser.add_argument("config")
    validate_parser.set_defaults(func=_cmd_validate)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
