"""Collective modes of two-level emitters coupled to a 1D waveguide.

All rates are linear frequencies in MHz (a quoted decay rate gamma means
gamma = Gamma/2pi); angular factors enter only when a Liouvillian is
assembled in :mod:`wgqed.lindblad`.  Positions along the waveguide are
stored as accumulated propagation phases k0*x at the working frequency.
Everything here reads a SystemSpec, plain rates or a time grid and needs
no master equation, so a config is checked without the Liouvillian layer.
Each precondition of a hold has one owner here, which the simulators, the
master equation, the records and the config checks all call:
require_probe (a designated probe; the dark-state functions also need a
mirror), require_dark_coupling (the coupling 2J of a probe to the
mirrors' dark state, formed once by probe_dark_coupling, above
OSCILLATION_MIN_FREQ, the slowest frequency a hold resolves) and
time_grid_us (ns or us times as the finite, strictly increasing us grid
the master equation steps).  The spec's own rules are applied by
SystemSpec itself: phases that resolve a separation (Placement,
MAX_PHASE), a dephasing matrix that collective_rates, the one judge of a
correlated rate matrix, accepts, and MHz values within the physical range
MAX_MHZ (require_representable).  The compound mirrors' precondition and
the closed forms of the dark-state and driven-qubit rates live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QubitParams",
    "Placement",
    "SystemSpec",
    "CollectiveMode",
    "AsymmetricPair",
    "MAX_QUBITS",
    "TWO_PI",
    "build_effective_hamiltonian",
    "exchange_matrix",
    "waveguide_decay_matrix",
    "dissipation_matrix",
    "collective_modes",
    "dark_bright_asymmetric",
    "coupling_rate_2j",
    "probe_dark_projection",
    "probe_dark_coupling",
    "require_probe",
    "require_dark_coupling",
    "require_representable",
    "time_grid_us",
    "dephasing_matrix",
    "collective_rates",
    "interaction_detuning",
    "iswap_duration_ns",
    "check_compound_mirrors",
    "dark_state_rates",
    "driven_qubit_response",
    "thermal_qubit_steady",
    "cooperativity",
    "second_excitation_cooperativity",
    "purcell_factor",
    "phase_mismatch_decay",
    "mirror_pair_spec",
    "cavity_spec",
    "compound_mirror_spec",
]

# Hilbert dimension 2^5 = 32 is the largest configuration treated with
# dense exact numerics.
MAX_QUBITS = 5

# Converts a linear frequency in MHz to an angular one in rad/us.
TWO_PI = 2.0 * math.pi

# Eigen-decays below this (MHz) are reported as exactly dark.
DARK_DECAY_CLIP = 1e-9

# floor (MHz) of a frequency a hold resolves: lindblad.dominant_oscillation
# reads no fringe at or below it, and require_dark_coupling rejects a 2J at
# or below it (a swap of 1e4 ns or longer); the bundled 2J is about 5.6 MHz
OSCILLATION_MIN_FREQ = 0.05

# Largest sum of MHz magnitudes a spec, with the values its run adds, may
# hold (require_representable): 100 GHz, three orders above any rate,
# detuning or drive of the paper's arrays (tens of MHz).  Ten times higher,
# a hold's exponential already drifts past its 1e-9 trace check (a 9e5 MHz
# rate held over a 1e6 ns grid).
MAX_MHZ = 1e5

# Largest |phase| (rad) of a Placement: below 2^22 the float spacing is at
# most 2^-31 rad, so a separation phi_i - phi_j is resolved well within the
# 1e-9 passivity tolerance; past it whole float steps of the phase move the
# waveguide rates (a phase of 1e100 rad has no meaningful sine)
MAX_PHASE = 2.0**22

# Default parking offset (MHz) that decouples the probe during the waits of
# the dark-state sequences (protocols.simulate_t1_dark, simulate_ramsey_dark).
PARK_DETUNING = -50.0


@dataclass(frozen=True)
class QubitParams:
    """Rates of a single emitter.

    gamma_1d is the decay rate into the waveguide, gamma_loss the decay
    into all other channels and gamma_phi the pure dephasing rate, each
    in MHz.  The parasitic decoherence rate is gamma_loss + 2*gamma_phi.
    """

    label: str
    gamma_1d: float
    gamma_loss: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        for name in ("gamma_1d", "gamma_loss", "gamma_phi"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{self.label}: {name} must be >= 0, got {value}")

    @property
    def gamma_prime(self) -> float:
        """Parasitic decoherence rate gamma_loss + 2*gamma_phi (MHz)."""
        return self.gamma_loss + 2.0 * self.gamma_phi

    @property
    def gamma_1(self) -> float:
        """Total population decay rate gamma_1d + gamma_loss (MHz)."""
        return self.gamma_1d + self.gamma_loss

    @classmethod
    def from_gamma_prime(cls, label, gamma_1d, gamma_prime, gamma_loss=0.0065):
        """Split a measured parasitic rate into loss + dephasing.

        The loss part defaults to the 6.5 kHz non-radiative decay assumed
        identical for every emitter; the remainder is pure dephasing.
        """
        if gamma_prime < gamma_loss:
            gamma_loss = gamma_prime
        return cls(label, gamma_1d, gamma_loss, (gamma_prime - gamma_loss) / 2.0)


@dataclass(frozen=True)
class Placement:
    """Accumulated waveguide phase k0*x of an emitter (radians)."""

    phase: float

    def __post_init__(self):
        if not abs(self.phase) < MAX_PHASE:  # NaN fails too
            raise ValueError(f"placement phase must be finite and below 2^22 rad in size, got {self.phase}")


@dataclass(frozen=True)
class SystemSpec:
    """Ordered emitter array on a shared waveguide.

    direct_couplings lists near-field (non-waveguide) exchange couplings
    (i, j, g) in MHz; dephasing_correlations lists correlated pure
    dephasing entries (i, j, rate) off the per-qubit diagonal.  detunings
    are per-qubit offsets (MHz) from the working frequency (GHz).
    ValueError names an n_th that is negative or not finite, a
    working_frequency that is not finite and positive, a dephasing matrix
    that collective_rates rejects, the rule the master equation builds its
    jumps by, and MHz values that add up past the physical range MAX_MHZ
    (require_representable).
    """

    qubits: tuple[tuple[QubitParams, Placement], ...]
    probe_index: int | None = None
    direct_couplings: tuple[tuple[int, int, float], ...] = ()
    detunings: tuple[float, ...] | None = None
    n_th: float = 0.0
    working_frequency: float = 6.6
    dephasing_correlations: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        n = len(self.qubits)
        if n == 0:
            raise ValueError("spec needs at least one qubit")
        if n > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {n}")
        object.__setattr__(self, "qubits", tuple((q, p) for q, p in self.qubits))
        if self.probe_index is not None and not 0 <= self.probe_index < n:
            raise ValueError(f"probe index {self.probe_index} out of range")
        for i, j, g in self.direct_couplings:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad direct coupling indices ({i}, {j})")
            if not math.isfinite(g):
                raise ValueError("direct coupling must be finite")
        for i, j, r in self.dephasing_correlations:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad dephasing correlation indices ({i}, {j})")
            if not math.isfinite(r):
                raise ValueError("dephasing correlation must be finite")
        if self.detunings is None:
            object.__setattr__(self, "detunings", (0.0,) * n)
        else:
            object.__setattr__(self, "detunings", tuple(float(d) for d in self.detunings))
            if len(self.detunings) != n:
                raise ValueError("detunings length must match qubit count")
        if not 0 <= self.n_th < math.inf:  # NaN fails too
            raise ValueError(f"n_th must be finite and >= 0, got {self.n_th}")
        if not 0 < self.working_frequency < math.inf:
            raise ValueError(f"working_frequency must be finite and > 0 (GHz), got {self.working_frequency}")
        require_representable(self)
        if self.dephasing_correlations:  # a diagonal of gamma_phi >= 0 is PSD
            collective_rates(dephasing_matrix(self))

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def params(self) -> tuple[QubitParams, ...]:
        return tuple(q for q, _ in self.qubits)

    @property
    def phases(self) -> np.ndarray:
        return np.array([p.phase for _, p in self.qubits])

    @property
    def mirror_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_qubits) if i != self.probe_index)

    def with_detunings(self, detunings) -> "SystemSpec":
        return replace(self, detunings=tuple(float(d) for d in detunings))


@dataclass(frozen=True)
class CollectiveMode:
    """One eigenmode of the effective single-excitation Hamiltonian."""

    amplitudes: np.ndarray
    decay_rate: float
    frequency_shift: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"mode amplitudes not normalized: |v| = {norm}")
        if self.decay_rate < -DARK_DECAY_CLIP:
            raise ValueError(f"negative decay rate {self.decay_rate}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class AsymmetricPair:
    """Dark/bright decomposition of a mirror pair with unequal gamma_1d."""

    dark: CollectiveMode
    bright: CollectiveMode
    j_dark: float
    j_bright: float


def _pair_rates(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    phases = spec.phases
    sep = np.abs(phases[:, None] - phases[None, :])
    g1d = np.array([q.gamma_1d for q in spec.params])
    root = np.sqrt(np.outer(g1d, g1d))
    return root * np.sin(sep) / 2.0, root * np.cos(sep)


def exchange_matrix(spec: SystemSpec) -> np.ndarray:
    """Coherent part of the emitter-emitter coupling (MHz, real symmetric).

    Off-diagonal entries hold the waveguide-mediated exchange rates plus
    any direct near-field couplings; the diagonal holds the per-qubit
    detunings from the working frequency.
    """
    j_mat, _ = _pair_rates(spec)
    np.fill_diagonal(j_mat, spec.detunings)
    for i, j, g in spec.direct_couplings:
        j_mat[i, j] += g
        j_mat[j, i] += g
    return j_mat


def waveguide_decay_matrix(spec: SystemSpec) -> np.ndarray:
    """Correlated waveguide decay rates (MHz, real symmetric, PSD)."""
    _, gamma_mat = _pair_rates(spec)
    return gamma_mat


def dephasing_matrix(spec: SystemSpec) -> np.ndarray:
    """Pure dephasing rates (MHz, real symmetric): gamma_phi on the diagonal plus the correlations."""
    dephasing = np.diag([q.gamma_phi for q in spec.params]).astype(float)
    for i, j, rate in spec.dephasing_correlations:
        dephasing[i, j] += rate
        dephasing[j, i] += rate
    return dephasing


def collective_rates(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The independent rates of a correlated rate matrix and their eigenvectors.

    The one judge of a rate matrix (MHz), which SystemSpec applies to its
    dephasing matrix and the master equation to every matrix it builds
    collective jumps from.  Returns the eigenvalues of the symmetric PSD
    matrix above 1e-12 of the scale max(1, largest |eigenvalue|) and their
    eigenvectors as columns; the others carry no jump.  A non-finite entry,
    an asymmetric matrix or an eigenvalue below -1e-9 of that same scale
    raises ValueError.  The bound is relative because eigh rounds the
    eigenvalues of a PSD matrix, such as the Gram matrix of waveguide decay
    (waveguide_decay_matrix), by about eps times its largest.
    """
    mat = np.asarray(matrix, dtype=float)
    finite = np.isfinite(mat)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"rate matrix entry ({i}, {j}) is not finite: {mat[i, j]}")
    if not np.max(np.abs(mat - mat.T)) <= 1e-12 * max(1.0, np.max(np.abs(mat))):
        raise ValueError("rate matrix must be symmetric")
    rates, vectors = np.linalg.eigh(mat)
    scale = max(1.0, float(np.max(np.abs(rates))))
    if not rates.min() >= -1e-9 * scale:
        raise ValueError(f"rate matrix is not positive semidefinite; eigenvalues {rates}")
    kept = rates > 1e-12 * scale
    return rates[kept], vectors[:, kept]


def dissipation_matrix(spec: SystemSpec) -> np.ndarray:
    """Waveguide decay matrix plus the non-radiative loss diagonal (MHz)."""
    gamma_mat = waveguide_decay_matrix(spec)
    return gamma_mat + np.diag([q.gamma_loss for q in spec.params])


def build_effective_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Non-Hermitian single-excitation Hamiltonian (N x N, MHz).

    H = A - i*B/2 with A the exchange matrix (detunings on the diagonal)
    and B the dissipation matrix, so the diagonal imaginary parts are
    -(gamma_1d + gamma_loss)/2 per qubit.
    """
    return exchange_matrix(spec) - 0.5j * dissipation_matrix(spec)


def collective_modes(spec: SystemSpec) -> list[CollectiveMode]:
    """Eigenmodes of the effective Hamiltonian, brightest first.

    Each mode carries decay_rate = -2 Im(lambda) and frequency_shift =
    Re(lambda); decays below 1e-9 MHz are clipped to exactly zero.
    """
    ham = build_effective_hamiltonian(spec)
    values, vectors = np.linalg.eig(ham)
    decays = -2.0 * values.imag
    modes = []
    for k in np.argsort(-decays):
        decay = 0.0 if abs(decays[k]) < DARK_DECAY_CLIP else float(decays[k])
        vec = vectors[:, k] / np.linalg.norm(vectors[:, k])
        modes.append(CollectiveMode(vec, decay, float(values[k].real)))
    return modes


def dark_bright_asymmetric(g1d_1: float, g1d_2: float, g1d_probe: float = 1.0) -> AsymmetricPair:
    """Dark/bright states of a half-wavelength pair with unequal rates.

    The dark state (amplitudes proportional to (sqrt(g2), sqrt(g1))) keeps
    exactly zero waveguide decay; the bright state decays at g1 + g2.  A
    centered probe couples to them at j_dark and j_bright with
    j_dark : j_bright = 2 sqrt(g1 g2) : (g1 - g2).
    """
    if g1d_1 <= 0 or g1d_2 <= 0:
        raise ValueError("mirror gamma_1d rates must be positive")
    total = g1d_1 + g1d_2
    dark_vec = np.array([math.sqrt(g1d_2), math.sqrt(g1d_1)]) / math.sqrt(total)
    bright_vec = np.array([math.sqrt(g1d_1), -math.sqrt(g1d_2)]) / math.sqrt(total)
    j_dark = math.sqrt(g1d_probe * g1d_1 * g1d_2 / total)
    j_bright = math.sqrt(g1d_probe) * (g1d_1 - g1d_2) / (2.0 * math.sqrt(total))
    return AsymmetricPair(
        dark=CollectiveMode(dark_vec.astype(complex), 0.0, 0.0),
        bright=CollectiveMode(bright_vec.astype(complex), total, 0.0),
        j_dark=j_dark,
        j_bright=j_bright,
    )


def coupling_rate_2j(n_mirrors: int, g1d_mirror: float, g1d_probe: float) -> float:
    """Cooperatively enhanced probe-dark coupling 2J = sqrt(N g1d g1d_p)."""
    if n_mirrors < 0 or g1d_mirror < 0 or g1d_probe < 0:
        raise ValueError("inputs must be non-negative")
    return math.sqrt(n_mirrors * g1d_mirror * g1d_probe)


def probe_dark_projection(spec: SystemSpec) -> np.ndarray:
    """Probe exchange row projected onto the mirrors' dark subspace (MHz).

    Entries follow spec.mirror_indices.  The dark subspace is spanned by
    the eigenvectors of the mirror-block decay matrix whose eigenvalue
    lies within 1e-9 (relative) of the smallest.  With N ideal
    half-wavelength mirrors it is (N-1)-dimensional, and this projection,
    not any one eigenvector, is the dark state the probe exchanges with.
    ValueError if the spec has no probe or no mirror (require_probe).
    """
    probe, mirrors = _probe_and_mirrors(spec)
    mirrors = list(mirrors)
    gamma = waveguide_decay_matrix(spec)[np.ix_(mirrors, mirrors)]
    values, vectors = np.linalg.eigh(gamma)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    dark = vectors[:, values <= values.min() + tol]
    j_row = exchange_matrix(spec)[probe, mirrors]
    return dark @ (dark.conj().T @ j_row)


def probe_dark_coupling(spec: SystemSpec) -> float:
    """Coupling rate 2J of the designated probe to the mirrors' dark subspace.

    Twice the norm of probe_dark_projection, for arbitrary mirror rates
    and placements.  With N ideal half-wavelength mirrors the result is
    sqrt(N g1d_mirror g1d_probe).  The one place 2J is formed; a hold
    reads it through require_dark_coupling.
    """
    return 2.0 * float(np.linalg.norm(probe_dark_projection(spec)))


def require_probe(spec: SystemSpec) -> int:
    """The index of the spec's designated probe; ValueError if it has none."""
    if spec.probe_index is None:
        raise ValueError("spec has no designated probe")
    return spec.probe_index


def _probe_and_mirrors(spec: SystemSpec) -> tuple[int, tuple[int, ...]]:
    """The probe (require_probe) and the mirrors a dark state needs; ValueError without one."""
    probe = require_probe(spec)
    if not spec.mirror_indices:
        raise ValueError("spec has no mirror qubits")
    return probe, spec.mirror_indices


def require_dark_coupling(spec: SystemSpec) -> float:
    """2J (probe_dark_coupling) of a probe whose exchange with the dark state a hold resolves.

    ValueError if the spec has no probe or no mirror, or if 2J is at or
    below OSCILLATION_MIN_FREQ, the slowest frequency a hold resolves.  A
    probe exactly dark to the mirrors reads a 2J of rounding, some 1e-16 of
    its exchange with them; within MAX_MHZ that is below 1e-10 MHz, far
    under the floor.
    """
    two_j = probe_dark_coupling(spec)
    if not two_j > OSCILLATION_MIN_FREQ:
        raise ValueError(f"probe is not coupled to the dark state (2J = {two_j:.3g} MHz)")
    return two_j


def require_representable(spec: SystemSpec, *added_mhz: float) -> None:
    """ValueError unless the spec's MHz values and those its run adds stay within MAX_MHZ.

    The sum of the magnitudes of every gamma_1d, gamma_loss, gamma_phi and
    thermal rate n_th * gamma_1, every detuning, direct coupling and
    dephasing correlation of the spec, plus added_mhz (a run's drive
    detunings, hold detunings and offsets, drive amplitudes), must be at
    most MAX_MHZ, the physical range of every hold and steady state; NaN
    fails.
    """
    total = sum(q.gamma_1d + q.gamma_loss + q.gamma_phi + spec.n_th * q.gamma_1 for q in spec.params)
    total += sum(abs(value) for value in spec.detunings)
    total += sum(abs(g) for *_, g in (*spec.direct_couplings, *spec.dephasing_correlations))
    total += sum(abs(float(value)) for value in added_mhz)  # Python floats overflow to inf silently
    if not total <= MAX_MHZ:
        raise ValueError(
            f"rates, detunings and couplings add up to {total:g} MHz, above the {MAX_MHZ:g} MHz "
            "physical range"
        )


# microseconds per unit of a time grid
_MICROSECONDS = {"ns": 1e-3, "us": 1.0}


def time_grid_us(times, unit: str) -> np.ndarray:
    """A time grid in unit ("ns" or "us") as the us grid the master equation steps.

    ValueError unless the times are finite and strictly increasing, both
    as given and in us, where a ns grid finer than float resolution
    collapses (5e-324 ns is 0 us); the message names the first time that
    fails, and the one before it, in that grid's unit.  The us grid is
    times_ns * 1e-3, or the us times themselves.
    """
    times = np.asarray(times, dtype=float)
    grid_us = times * _MICROSECONDS[unit]
    for name, grid in {unit: times, "us": grid_us}.items():  # one grid when unit is us
        finite = np.isfinite(grid)
        if not finite.all():
            raise ValueError(f"times must be finite: time {grid[~finite][0]:g} {name}")
        stalled = np.flatnonzero(~(np.diff(grid) > 0))
        if stalled.size:
            a, b = grid[stalled[0]], grid[stalled[0] + 1]
            raise ValueError(
                f"times must be strictly increasing: time {b:g} {name} follows {a:g} {name}"
            )
    return grid_us


def interaction_detuning(spec: SystemSpec) -> float:
    """Probe detuning from the mean mirror frequency (MHz); ValueError without a probe or a mirror."""
    probe, mirrors = _probe_and_mirrors(spec)
    mirror_detunings = [spec.detunings[m] for m in mirrors]
    return spec.detunings[probe] - float(np.mean(mirror_detunings))


def iswap_duration_ns(spec: SystemSpec) -> float:
    """Half a Rabi period at the generalized oscillation frequency.

    At zero probe-dark detuning this is 1/(4J) in us, i.e. the hold time
    that transfers the probe excitation into the dark state; with a
    residual detuning the first transfer maximum arrives at the
    generalized frequency sqrt((2J)^2 + delta^2) instead.  ValueError
    unless the probe couples to the dark state (require_dark_coupling).
    """
    f_osc = math.hypot(require_dark_coupling(spec), interaction_detuning(spec))
    return 1e3 / (2.0 * f_osc)


def check_compound_mirrors(spec: SystemSpec) -> None:
    """ValueError unless the spec's mirrors are four directly coupled qubits, two compound pairs."""
    if len(spec.mirror_indices) != 4 or not spec.direct_couplings:
        raise ValueError("compound-mirror spec needs four directly coupled mirrors")


def dark_state_rates(gloss: float, gphi: float, gphi_c: float) -> tuple[float, float]:
    """Decay and decoherence rates of a half-wavelength pair's dark state.

    gamma1_dark = gloss + gphi - gphi_c (differential dephasing leaks the
    dark state into the fast-decaying bright state) and gamma2_dark =
    gloss/2 + gphi, independent of the correlation.
    """
    if gloss < 0 or gphi < 0:
        raise ValueError("gloss and gphi must be >= 0")
    return gloss + gphi - gphi_c, gloss / 2.0 + gphi


def driven_qubit_response(
    gamma_1: float, gamma_phi: float, n_th: float, omega_rabi: float, delta: float
) -> tuple[float, complex]:
    """Closed-form driven steady state of a qubit in a thermal bath: rho_ee and chi.

    With the thermally enhanced rates gamma1_th = (2 n_th + 1) gamma_1 and
    gamma2_th = gamma1_th/2 + gamma_phi, x = delta/gamma2_th and the
    denominator D = (1 + x^2) gamma1_th gamma2_th + omega_rabi^2,
    rho_ee = (n_th/(2 n_th + 1) (1 + x^2) gamma1_th gamma2_th +
    omega_rabi^2/2) / D and chi = gamma1_th (1 + i x) / (2 (2 n_th + 1) D),
    the coherence per unit drive: rho_eg = -i omega_rabi chi, and a qubit
    with waveguide rate gamma_1d transmits t = 1 - gamma_1d chi.  All rates
    in MHz (ratios only).  Without population decay a driven, dephased
    qubit reads rho_ee = 1/2 and chi = 0; ValueError names the qubit with no
    unique steady state, with no population decay and no drive or no
    dephasing.
    """
    if not (gamma_1 > 0 or (omega_rabi and gamma_phi > 0)):
        raise ValueError(
            "a qubit without population decay has a unique steady state only if driven and dephased"
        )
    gamma1_th = (2.0 * n_th + 1.0) * gamma_1
    gamma2_th = gamma1_th / 2.0 + gamma_phi
    x = delta / gamma2_th
    undriven = (1.0 + x**2) * gamma1_th * gamma2_th
    denom = undriven + omega_rabi**2
    rho_ee = (n_th / (2.0 * n_th + 1.0) * undriven + 0.5 * omega_rabi**2) / denom
    return float(rho_ee), complex(gamma1_th * (1.0 + 1j * x) / (2.0 * (2.0 * n_th + 1.0) * denom))


def thermal_qubit_steady(
    g1d: float,
    gloss: float,
    gphi: float,
    n_th: float,
    omega_rabi: float,
    delta: float,
) -> tuple[float, complex]:
    """Closed-form driven steady state of a single qubit in a thermal bath.

    Returns (rho_ee, rho_eg) for drive detuning delta, from
    driven_qubit_response with gamma_1 = g1d + gloss.  All rates in MHz
    (ratios only).
    """
    if min(g1d, gloss, gphi, n_th) < 0:
        raise ValueError("rates and occupancy must be >= 0")
    rho_ee, chi = driven_qubit_response(g1d + gloss, gphi, n_th, omega_rabi, delta)
    return rho_ee, -1j * omega_rabi * chi


def cooperativity(two_j: float, g1d_probe: float, gprime_probe: float, gprime_dark: float) -> float:
    """C = (2J)^2 / ((g1d_p + gprime_p) * gprime_dark)."""
    denom = (g1d_probe + gprime_probe) * gprime_dark
    if denom <= 0:
        raise ZeroDivisionError("cooperativity denominator must be positive")
    return two_j**2 / denom


def second_excitation_cooperativity(
    g1d_probe: float, g1d_mirror: float, gprime_probe: float, gprime_mirror: float
) -> float:
    """Cooperativity of the doubly-excited manifold; < 1 for any loss > 0.

    The second excited state of the mirror pair radiates at 2*g1d, so
    C2 = 2 g1d_p g1d / ((g1d_p + gprime_p)(2 g1d + gprime)).
    """
    denom = (g1d_probe + gprime_probe) * (2.0 * g1d_mirror + gprime_mirror)
    if denom <= 0:
        raise ZeroDivisionError("cooperativity denominator must be positive")
    return 2.0 * g1d_probe * g1d_mirror / denom


def purcell_factor(g1d: float, gprime: float) -> float:
    """Ratio of waveguide emission to parasitic decoherence."""
    if gprime <= 0:
        raise ZeroDivisionError("gprime must be positive")
    return g1d / gprime


def phase_mismatch_decay(g1d: float, phase: float) -> float:
    """Residual dark-state decay g1d*(1 - |cos(phase)|) of a detuned pair.

    For a small deviation dphi from the half-wavelength condition this
    scales as g1d*dphi^2/2.
    """
    if g1d < 0:
        raise ValueError("g1d must be >= 0")
    return g1d * (1.0 - abs(math.cos(phase)))


def mirror_pair_spec(mirror: QubitParams, **kw) -> SystemSpec:
    """Half-wavelength mirror pair of identical qubits; kw go to SystemSpec."""
    return SystemSpec(qubits=((mirror, Placement(0.0)), (mirror, Placement(math.pi))), **kw)


def cavity_spec(
    mirror: QubitParams,
    probe: QubitParams,
    n_mirrors: int = 2,
    probe_detuning: float = 0.0,
    **kw,
) -> SystemSpec:
    """Probe centered in a lambda0/2-spaced array of identical mirrors.

    Mirrors sit pairwise at odd multiples of pi/2 on both sides of the
    probe, so every probe-mirror separation maximizes exchange with zero
    correlated decay and every mirror-mirror separation is a multiple of
    pi.  n_mirrors must be even.
    """
    if n_mirrors < 2 or n_mirrors % 2 or n_mirrors + 1 > MAX_QUBITS:
        raise ValueError(f"n_mirrors must be even and in [2, {MAX_QUBITS - 1}]")
    offsets = []
    for k in range(1, n_mirrors // 2 + 1):
        offsets.append(-(2 * k - 1) * math.pi / 2.0)
        offsets.append(+(2 * k - 1) * math.pi / 2.0)
    offsets.sort()
    qubits = [(mirror, Placement(off)) for off in offsets if off < 0]
    probe_index = len(qubits)
    qubits.append((probe, Placement(0.0)))
    qubits += [(mirror, Placement(off)) for off in offsets if off > 0]
    detunings = [0.0] * (n_mirrors + 1)
    detunings[probe_index] = probe_detuning
    return SystemSpec(
        qubits=tuple(qubits), probe_index=probe_index, detunings=tuple(detunings), **kw
    )


def compound_mirror_spec(
    mirror: QubitParams,
    probe: QubitParams,
    direct_g: float,
    pair_detuning: float = 0.0,
    probe_detuning: float = 0.0,
    **kw,
) -> SystemSpec:
    """Two co-located, directly coupled mirror pairs around a probe.

    Each compound mirror consists of two qubits at the same waveguide
    position split by direct_g, detuned by +/- pair_detuning/2; the two
    compound mirrors sit half a wavelength apart with the probe centered.
    """
    qubits = (
        (mirror, Placement(-math.pi / 2.0)),
        (mirror, Placement(-math.pi / 2.0)),
        (probe, Placement(0.0)),
        (mirror, Placement(math.pi / 2.0)),
        (mirror, Placement(math.pi / 2.0)),
    )
    detunings = (
        pair_detuning / 2.0,
        -pair_detuning / 2.0,
        probe_detuning,
        pair_detuning / 2.0,
        -pair_detuning / 2.0,
    )
    return SystemSpec(
        qubits=qubits,
        probe_index=2,
        direct_couplings=((0, 1, direct_g), (3, 4, direct_g)),
        detunings=detunings,
        **kw,
    )
