"""Seed-driven inputs for the four benchmark workloads.

Every workload is a list of jobs.  A job is one ``cli.run_config`` call on
a generated config, or one call of a library fit function on a generated
trace.  The same (workload, seed) always yields the same jobs, and the
program only ever sees the generated configs and traces: templates are
copied from the bundled experiments into this file, so a change to the
package's own configs does not change the benchmark.

Each job carries what its correctness oracle needs (see ``oracles.py``):
the truth behind a synthetic trace, or the expected vacuum-Rabi
frequency of a cavity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("spectra", "protocols", "driven_n5", "fits")


@dataclass
class Job:
    """One unit of timed work.

    kind is "config" (run through the CLI) or the name of a fit function
    ("fit_damped_sinusoid", "fit_exponential", "lorentzian_fit").
    points counts the output samples the job produces: spectrum
    detunings, trace times or delays, or fitted trace points.
    """

    name: str
    kind: str
    points: int
    config: dict | None = None
    data: dict | None = None
    expect: dict = field(default_factory=dict)
    config_path: Path | None = None
    record: object = None  # the TimeTrace or SpectrumScan handed to a fit


# ---------------------------------------------------------------------------
# helpers


def _qubit(label, g1d, gphi, phase_pi, gloss=0.0065):
    return {
        "label": label,
        "gamma_1d": g1d,
        "gamma_loss": gloss,
        "gamma_phi": gphi,
        "phase_pi": phase_pi,
    }


def _cavity(mirror, probe, n_mirrors=2, **extra):
    """lambda/2 mirrors at odd multiples of pi/2 around a centered probe."""
    (g1d_m, gphi_m), (g1d_p, gphi_p) = mirror, probe
    offsets = [(2 * k - 1) * 0.5 for k in range(1, n_mirrors // 2 + 1)]
    left = [-x for x in reversed(offsets)]
    qubits = [_qubit(f"M{i + 1}", g1d_m, gphi_m, x) for i, x in enumerate(left)]
    qubits.append(_qubit("P", g1d_p, gphi_p, 0.0))
    qubits += [
        _qubit(f"M{len(left) + i + 1}", g1d_m, gphi_m, x) for i, x in enumerate(offsets)
    ]
    return {"working_frequency_ghz": 6.6, "qubits": qubits, "probe": "P", **extra}


def _config(experiment, system, params, name, seed):
    config = {"experiment": experiment, "params": params, "output": name, "seed": seed}
    if system is not None:
        config["system"] = system
    return config


class _Jitter:
    """Multiplicative jitter drawn from one seeded generator, in call order."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def __call__(self, value: float, rel: float = 0.05) -> float:
        return float(value * self.rng.uniform(1.0 - rel, 1.0 + rel))

    def uniform(self, low: float, high: float) -> float:
        return float(self.rng.uniform(low, high))


def _two_j(n_mirrors: int, g1d_mirror: float, g1d_probe: float) -> float:
    """Cooperative probe-dark coupling sqrt(N g1d g1d_p) of ideal lambda/2 mirrors."""
    return math.sqrt(n_mirrors * g1d_mirror * g1d_probe)


# ---------------------------------------------------------------------------
# spectra: the six bundled spectrum / xy-spectrum experiments

# (name, experiment, working frequency, qubits as (label, g1d, gphi, phase_pi),
#  probe, grid (start, stop, points), omega_rabi).  Grids keep the bundled
# spans at a quarter of the bundled 801-1201 points, so that a 15 s run
# holds five passes and its timings can be medians; the per-point work,
# which every spectrum engine acts on, is unchanged.
_SPECTRA = (
    ("fig1c_q1", "spectrum", 6.052, [("Q1", 94.1, 0.21175, 0.0)], None, (-60.0, 60.0, 301), 0.001),
    ("fig1c_q4", "spectrum", 6.638, [("Q4", 0.91, 0.03725, 0.0)], None, (-8.0, 8.0, 201), 0.001),
    ("fig1c_q6", "spectrum", 6.817, [("Q6", 18.1, 0.08925, 0.0)], None, (-40.0, 40.0, 201), 0.001),
    (
        "fig2a_pair", "spectrum", 6.6,
        [("M1", 13.4, 0.21, 0.0), ("M2", 13.4, 0.21, 1.0)], None, (-60.0, 60.0, 301), 0.02,
    ),
    (
        "fig2c_cavity", "spectrum", 6.6,
        [("M1", 13.4, 0.21, -0.5), ("P", 1.19, 0.191, 0.0), ("M2", 13.4, 0.21, 0.5)],
        "P", (-10.0, 10.0, 251), 0.02,
    ),
    (
        "fig2e_xy", "xy-spectrum", 6.6,
        [("M1", 13.4, 0.21, -0.5), ("P", 1.19, 0.191, 0.0), ("M2", 13.4, 0.21, 0.5)],
        "P", (-10.0, 10.0, 251), 0.05,
    ),
)


def spectra_jobs(seed: int) -> list[Job]:
    jit = _Jitter(seed)
    jobs = []
    for name, experiment, f_ghz, qubits, probe, (start, stop, points), omega in _SPECTRA:
        system = {
            "working_frequency_ghz": f_ghz,
            "qubits": [_qubit(lbl, jit(g1d), jit(gphi), ph) for lbl, g1d, gphi, ph in qubits],
        }
        if probe is not None:
            system["probe"] = probe
        params = {
            "start_mhz": jit(start),
            "stop_mhz": jit(stop),
            "points": points,
            "omega_rabi": jit(omega, 0.1),
        }
        if experiment == "xy-spectrum":
            params["xy_qubit"] = probe
        jobs.append(Job(name, "config", points, _config(experiment, system, params, name, seed)))
    return jobs


# ---------------------------------------------------------------------------
# protocols: the nine time-domain experiments plus shelve and calib

_TYPE1 = ((13.4, 0.21), (1.19, 0.191))
_TYPE2 = ((96.7, 0.581), (0.87, 0.332))
# dark-state runs: mirror dephasing and its correlation (MHz)
_DARK1 = ((13.4, 0.36275), (1.19, 0.191), 0.15925)
_DARK2 = ((96.7, 0.83475), (0.87, 0.332), 0.26025)


def protocols_jobs(seed: int) -> list[Job]:
    """The nine time-domain experiments plus shelve and calib.

    The four experiments whose traces go to the multi-start sinusoid fit
    (two vacuum-Rabi, two dark Ramsey) keep the bundled parameters: that
    fit's cost swings twentyfold under a 0.5% change of the trace, so
    jittering them would make the workload's cost follow the seed instead
    of the code.  Every other experiment is seed-jittered.
    """
    jit = _Jitter(seed)
    jobs = []

    def cavity(pair, corr=None, jittered=True):
        (g1d_m, gphi_m), (g1d_p, gphi_p) = pair
        j = jit if jittered else (lambda value, rel=0.0: value)
        scale = j(1.0)
        mirror = (j(g1d_m), gphi_m * scale)
        extra = {}
        if corr is not None:
            extra["dephasing_correlations"] = [[0, 2, corr * scale]]
        return _cavity(mirror, (j(g1d_p), j(gphi_p)), **extra)

    system = cavity(_TYPE1)
    params = {"tau_max_ns": jit(1200.0, 0.03), "points": 61,
              "probe_detuning_mhz": jit(-50.0), "fit": "exponential"}
    jobs.append(Job("fig3a_freedecay", "config", 61,
                    _config("rabi", system, params, "fig3a_freedecay", seed)))
    for name, pair, tau, points, detuning in (
        ("fig3a_type1", _TYPE1, 900.0, 181, 1.0),
        ("fig3a_type2", _TYPE2, 400.0, 161, 5.9),
    ):
        system = cavity(pair, jittered=False)
        params = {"tau_max_ns": tau, "points": points, "probe_detuning_mhz": detuning}
        (g1d_m, _), (g1d_p, _) = pair
        expect = {"rabi_mhz": math.hypot(_two_j(2, g1d_m, g1d_p), detuning)}
        jobs.append(Job(name, "config", points, _config("rabi", system, params, name, seed), expect=expect))

    for name, (mirror, probe, corr), lo, hi, points in (
        ("fig3b_t1dark_type1", _DARK1, 250.0, 2500.0, 26),
        ("fig3b_t1dark_type2", _DARK2, 120.0, 1000.0, 23),
    ):
        system = cavity((mirror, probe), corr)
        params = {"delay_min_ns": lo, "delay_max_ns": jit(hi, 0.03), "points": points}
        jobs.append(Job(name, "config", points, _config("t1-dark", system, params, name, seed)))

    for name, (mirror, probe, corr), lo, hi, points, art in (
        ("fig3c_ramsey_type1", _DARK1, 20.0, 1300.0, 65, 3.0),
        ("fig3c_ramsey_type2", _DARK2, 10.0, 600.0, 60, 6.0),
    ):
        system = cavity((mirror, probe), corr, jittered=False)
        params = {"delay_min_ns": lo, "delay_max_ns": hi, "points": points,
                  "artificial_detuning_mhz": art}
        jobs.append(Job(name, "config", points, _config("ramsey-dark", system, params, name, seed)))

    system = cavity(_TYPE1)
    params = {"tau_max_ns": jit(700.0, 0.03), "points": 141}
    jobs.append(Job("fig3f_twoexc", "config", 2 * 141,
                    _config("two-excitation", system, params, "fig3f_twoexc", seed)))

    g1d_m, gphi_m, g = jit(13.4), jit(0.146), jit(46.0)
    system = {
        "working_frequency_ghz": 6.6,
        "qubits": [
            _qubit("M1a", g1d_m, gphi_m, -0.5), _qubit("M1b", g1d_m, gphi_m, -0.5),
            _qubit("P", jit(1.19), jit(0.191), 0.0),
            _qubit("M2a", g1d_m, gphi_m, 0.5), _qubit("M2b", g1d_m, gphi_m, 0.5),
        ],
        "probe": "P",
        "direct_couplings": [[0, 1, g], [3, 4, g]],
    }
    params = {"tau_max_ns": jit(800.0, 0.03), "points": 161}
    jobs.append(Job("fig4_compound", "config", 2 * 161,
                    _config("compound", system, params, "fig4_compound", seed)))

    g1d_m, gphi_m = jit(13.4), jit(0.21)
    system = {"working_frequency_ghz": 6.6,
              "qubits": [_qubit("M1", g1d_m, gphi_m, 0.0), _qubit("M2", g1d_m, gphi_m, 1.0)]}
    params = {"start_mhz": -15.0, "stop_mhz": 15.0, "points": 601,
              "rho_dd": jit(0.58, 0.1), "pulse_ns": jit(260.0)}
    jobs.append(Job("fig3d_shelve", "config", 2 * 601,
                    _config("shelve", system, params, "fig3d_shelve", seed)))

    m = [0.2683, -0.0245, -0.0033, -0.0141, -0.531, 0.017, 0.0016, 0.0245, 0.4933]
    params = {
        "transmon": {"ej1": jit(18.4, 0.02), "ej2": jit(3.5, 0.02), "ec": jit(0.272, 0.02),
                     "flux_points": 101},
        "resonator": {"f_r": 5.156, "g_mhz": jit(116.0, 0.02), "qi": 130000.0, "qe": 980.0,
                      "f_q": jit(6.638, 0.002)},
        "crosstalk": {"m": [jit(x, 0.02) for x in m], "f0": [6.6, 6.6, 6.6], "v0": [0.0, 0.0, 0.0],
                      "targets": [jit(6.61, 0.001), 6.6, 6.6]},
    }
    jobs.append(Job("tableS1_calib", "config", 101,
                    _config("calib", None, params, "tableS1_calib", seed)))
    return jobs


# ---------------------------------------------------------------------------
# driven_n5: five-qubit arrays outside the weak-drive regime


def driven_n5_jobs(seed: int) -> list[Job]:
    """Four lambda/2 mirrors around a probe, and two compound mirror pairs.

    Each array runs a three-point spectrum, one steady-state point and a
    full-space vacuum Rabi trace.  The mirror array's spectrum and steady
    state are strongly driven (mirror saturation near 0.3); the compound
    array's spectrum sits in a thermal waveguide.  The Rabi traces skip
    the library fit: their frequency is checked by the oracle's own fit,
    so this workload measures the master-equation engine alone.
    """
    jit = _Jitter(seed)
    jobs = []

    g1d_m, g1d_p = jit(13.4), jit(1.19)
    mirrors = _cavity((g1d_m, jit(0.21)), (g1d_p, jit(0.191)), n_mirrors=4)
    omega = jit(5.0, 0.2)
    params = {"start_mhz": jit(-5.0, 0.2), "stop_mhz": jit(5.0, 0.2), "points": 3, "omega_rabi": omega}
    jobs.append(Job("mirrors4_spectrum", "config", 3,
                    _config("spectrum", mirrors, params, "mirrors4_spectrum", seed)))
    params = {"detuning_mhz": jit.uniform(-2.0, 2.0), "omega_rabi": omega}
    jobs.append(Job("mirrors4_steady", "config", 1,
                    _config("steady", mirrors, params, "mirrors4_steady", seed)))
    detuning = jit.uniform(0.5, 1.5)
    params = {"tau_max_ns": jit(600.0, 0.03), "points": 121, "probe_detuning_mhz": detuning, "fit": "none"}
    jobs.append(Job("mirrors4_rabi", "config", 121,
                    _config("rabi", mirrors, params, "mirrors4_rabi", seed),
                    expect={"rabi_mhz": math.hypot(_two_j(4, g1d_m, g1d_p), detuning)}))

    # co-located pairs: the symmetric mode of each pair sits at +g and
    # radiates at 2 g1d, so the probe sees a lambda/2 pair of such modes
    g1d_m, gphi_m, g1d_p, g = jit(13.4), jit(0.146), jit(1.19), jit(46.0)
    compound = {
        "working_frequency_ghz": 6.6,
        "qubits": [
            _qubit("M1a", g1d_m, gphi_m, -0.5), _qubit("M1b", g1d_m, gphi_m, -0.5),
            _qubit("P", g1d_p, jit(0.191), 0.0),
            _qubit("M2a", g1d_m, gphi_m, 0.5), _qubit("M2b", g1d_m, gphi_m, 0.5),
        ],
        "probe": "P",
        "direct_couplings": [[0, 1, g], [3, 4, g]],
    }
    thermal = {**compound, "n_th": jit.uniform(0.02, 0.05)}
    params = {"start_mhz": -g, "stop_mhz": g, "points": 3, "omega_rabi": jit(0.02)}
    jobs.append(Job("compound_thermal_spectrum", "config", 3,
                    _config("spectrum", thermal, params, "compound_thermal_spectrum", seed)))
    params = {"detuning_mhz": g + jit.uniform(-2.0, 2.0), "omega_rabi": jit(5.0, 0.2)}
    jobs.append(Job("compound_steady", "config", 1,
                    _config("steady", compound, params, "compound_steady", seed)))
    detuning = jit.uniform(0.5, 1.5)
    params = {"tau_max_ns": jit(600.0, 0.03), "points": 121, "probe_detuning_mhz": g + detuning,
              "fit": "none"}
    jobs.append(Job("compound_rabi", "config", 121,
                    _config("rabi", compound, params, "compound_rabi", seed),
                    expect={"rabi_mhz": math.hypot(_two_j(4, g1d_m, g1d_p), detuning)}))
    return jobs


# ---------------------------------------------------------------------------
# fits: synthetic traces with known truth, and unidentifiable ones


SINUSOID_PANEL_SEED = 1809


def _grid(n, span):
    return np.linspace(0.0, span, n)


def fits_jobs(seed: int) -> list[Job]:
    """Noisy damped sinusoids, exponentials and Lorentzian scans, plus rejects.

    Traces offered to the multi-start sinusoid fit do not follow the
    seed: that fit's cost swings twentyfold under a 0.5% change of the
    data, and rejecting a sub-two-period trace takes 1 s to 30 s depending
    on its amplitude and phase, so seed-drawn sinusoids would make the
    workload's cost follow the seed instead of the code.  They come from a
    fixed generator (the damped sinusoids) or have one fixed shape (the
    constant, half-period and bare-decay rejects).  Exponentials and
    Lorentzian scans, whose fits converge in a bounded number of steps,
    are drawn from the seed.
    """
    panel = np.random.default_rng(SINUSOID_PANEL_SEED)
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(5):
        points = int(panel.choice([121, 151, 181]))
        freq = panel.uniform(3.0, 8.0)
        span = panel.uniform(3.0, 6.0) / freq * 1e3
        truth = {"frequency_mhz": freq, "lifetime_ns": panel.uniform(0.4, 1.2) * span}
        t = _grid(points, span)
        y = (panel.uniform(0.3, 0.5) * np.exp(-t / truth["lifetime_ns"])
             * np.cos(2 * math.pi * freq * t * 1e-3 + panel.uniform(-math.pi, math.pi))
             + panel.uniform(0.4, 0.6) + panel.normal(0.0, 0.01, points))
        jobs.append(Job(f"sinusoid{k}", "fit_damped_sinusoid", points,
                        data={"t": t, "y": y}, expect={"truth": truth}))
    for k in range(6):
        points = int(rng.integers(30, 61))
        lifetime = rng.uniform(200.0, 2000.0)
        t = _grid(points, lifetime * rng.uniform(3.0, 6.0))
        y = (rng.uniform(0.5, 1.0) * np.exp(-t / lifetime) + rng.uniform(0.0, 0.1)
             + rng.normal(0.0, 0.005, points))
        jobs.append(Job(f"exponential{k}", "fit_exponential", points,
                        data={"t": t, "y": y}, expect={"truth": {"lifetime_ns": lifetime}}))
    for k in range(4):
        points = int(rng.choice([201, 301, 401]))
        g1d, gprime, f0 = rng.uniform(5.0, 20.0), rng.uniform(0.3, 1.0), rng.uniform(-2.0, 2.0)
        half = 6.0 * (g1d + gprime)
        det = np.linspace(-half, half, points)
        gamma2 = (g1d + gprime) / 2.0
        amp = np.abs(1.0 - (g1d / 2.0) / (gamma2 - 1j * (det - f0))) + rng.normal(0.0, 0.002, points)
        jobs.append(Job(f"lorentzian{k}", "lorentzian_fit", points, data={"t": det, "y": amp},
                        expect={"truth": {"f0": f0, "gamma_1d": g1d, "gamma_prime": gprime}}))

    flat = {"t": _grid(50, 1000.0), "y": np.full(50, 0.5)}
    jobs.append(Job("constant_exponential", "fit_exponential", 50, data=flat, expect={"reject": True}))
    jobs.append(Job("constant_sinusoid", "fit_damped_sinusoid", 50, data=flat, expect={"reject": True}))
    scan = {"t": np.linspace(-20.0, 20.0, 201), "y": np.full(201, 1.0)}
    jobs.append(Job("flat_lorentzian", "lorentzian_fit", 201, data=scan, expect={"reject": True}))
    t = _grid(40, 100.0)
    jobs.append(Job("half_period_sinusoid", "fit_damped_sinusoid", 40,
                    data={"t": t, "y": np.sin(2 * math.pi * 0.005 * t)}, expect={"reject": True}))
    jobs.append(Job("bare_decay_sinusoid", "fit_damped_sinusoid", 40,
                    data={"t": t, "y": np.exp(-t / 60.0)}, expect={"reject": True}))
    return jobs


_GENERATORS = {
    "spectra": spectra_jobs,
    "protocols": protocols_jobs,
    "driven_n5": driven_n5_jobs,
    "fits": fits_jobs,
}


def make_jobs(workload: str, seed: int, input_dir: Path) -> list[Job]:
    """Generate a workload's jobs and write its configs to input_dir."""
    jobs = _GENERATORS[workload](seed)
    input_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.config is not None:
            job.config_path = input_dir / f"{job.name}.cfg"
            job.config_path.write_text(json.dumps(job.config, indent=2, sort_keys=True) + "\n")
    return jobs
