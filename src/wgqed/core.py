"""Collective modes of two-level emitters coupled to a 1D waveguide.

All rates are linear frequencies in MHz (a quoted decay rate gamma means
gamma = Gamma/2pi); angular factors enter only when a Liouvillian is
assembled in :mod:`wgqed.lindblad`.  Positions along the waveguide are
stored as accumulated propagation phases k0*x at the working frequency.
Everything here reads a SystemSpec or plain rates and needs no master
equation: the spec's own preconditions (a positive semidefinite dephasing
matrix, the probe's swap into the dark state, compound mirrors) and the
closed forms of the dark-state and thermal-qubit rates, so a config is
checked without the Liouvillian layer.
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
    "dephasing_matrix",
    "interaction_detuning",
    "iswap_duration_ns",
    "check_compound_mirrors",
    "dark_state_rates",
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

# a probe-dark coupling 2J at or below this fraction of the largest exchange
# the probe could have with the mirrors (per mirror sqrt(g1d_p g1d_m)/2 plus
# |g| of its direct couplings to the probe, normed over the mirrors) is
# rounding, not a coupling: a probe at a node of every mirror, or exactly
# dark to them, reads about 1e-16 of it, and its swap would take some 1e18 ns
DARK_COUPLING_FLOOR = 1e-9

# Default parking offset (MHz) that decouples the probe during the waits of
# the dark-state sequences (protocols.simulate_t1_dark, simulate_ramsey_dark).
PARK_DETUNING = -50.0


@dataclass(frozen=True)
class QubitParams:
    """Rates and frequency range of a single emitter.

    gamma_1d is the decay rate into the waveguide, gamma_loss the decay
    into all other channels and gamma_phi the pure dephasing rate, each
    in MHz.  The parasitic decoherence rate is gamma_loss + 2*gamma_phi.
    """

    label: str
    gamma_1d: float
    gamma_loss: float = 0.0
    gamma_phi: float = 0.0
    f_max: float | None = None
    f_min: float | None = None

    def __post_init__(self):
        for name in ("gamma_1d", "gamma_loss", "gamma_phi"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{self.label}: {name} must be >= 0, got {value}")
        if self.f_max is not None and self.f_min is not None and self.f_min > self.f_max:
            raise ValueError(f"{self.label}: f_min {self.f_min} exceeds f_max {self.f_max}")

    @property
    def gamma_prime(self) -> float:
        """Parasitic decoherence rate gamma_loss + 2*gamma_phi (MHz)."""
        return self.gamma_loss + 2.0 * self.gamma_phi

    @property
    def gamma_1(self) -> float:
        """Total population decay rate gamma_1d + gamma_loss (MHz)."""
        return self.gamma_1d + self.gamma_loss

    @classmethod
    def from_gamma_prime(cls, label, gamma_1d, gamma_prime, gamma_loss=0.0065, **kw):
        """Split a measured parasitic rate into loss + dephasing.

        The loss part defaults to the 6.5 kHz non-radiative decay assumed
        identical for every emitter; the remainder is pure dephasing.
        """
        if gamma_prime < gamma_loss:
            gamma_loss = gamma_prime
        return cls(label, gamma_1d, gamma_loss, (gamma_prime - gamma_loss) / 2.0, **kw)


@dataclass(frozen=True)
class Placement:
    """Accumulated waveguide phase k0*x of an emitter (radians)."""

    phase: float

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValueError(f"placement phase must be finite, got {self.phase}")


@dataclass(frozen=True)
class SystemSpec:
    """Ordered emitter array on a shared waveguide.

    direct_couplings lists near-field (non-waveguide) exchange couplings
    (i, j, g) in MHz; dephasing_correlations lists correlated pure
    dephasing entries (i, j, rate) off the per-qubit diagonal.  detunings
    are per-qubit offsets (MHz) from the working frequency (GHz).
    ValueError names an n_th that is negative or not finite and a
    working_frequency that is not finite and positive.
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
        # lindblad._collective_jumps' bound and wording, so a spec that passes
        # builds its dephasing jumps; a diagonal of gamma_phi >= 0 is PSD
        if self.dephasing_correlations:
            rates = np.linalg.eigh(dephasing_matrix(self))[0]
            if not rates.min() >= -1e-9:
                raise ValueError(f"rate matrix is not positive semidefinite; eigenvalues {rates}")

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
    g1d = np.array([q.gamma_1d for q in spec.params])
    phases = spec.phases
    sep = np.abs(phases[:, None] - phases[None, :])
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
    """
    if spec.probe_index is None:
        raise ValueError("spec has no designated probe")
    mirrors = list(spec.mirror_indices)
    if not mirrors:
        raise ValueError("spec has no mirror qubits")
    gamma = waveguide_decay_matrix(spec)[np.ix_(mirrors, mirrors)]
    values, vectors = np.linalg.eigh(gamma)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    dark = vectors[:, values <= values.min() + tol]
    j_row = exchange_matrix(spec)[spec.probe_index, mirrors]
    return dark @ (dark.conj().T @ j_row)


def probe_dark_coupling(spec: SystemSpec) -> float:
    """Coupling rate 2J of the designated probe to the mirrors' dark subspace.

    Twice the norm of probe_dark_projection, for arbitrary mirror rates
    and placements.  With N ideal half-wavelength mirrors the result is
    sqrt(N g1d_mirror g1d_probe).
    """
    return 2.0 * float(np.linalg.norm(probe_dark_projection(spec)))


def interaction_detuning(spec: SystemSpec) -> float:
    """Probe detuning from the mean mirror frequency (MHz)."""
    probe = spec.probe_index
    mirror_detunings = [spec.detunings[m] for m in spec.mirror_indices]
    return spec.detunings[probe] - float(np.mean(mirror_detunings))


def iswap_duration_ns(spec: SystemSpec) -> float:
    """Half a Rabi period at the generalized oscillation frequency.

    At zero probe-dark detuning this is 1/(4J) in us, i.e. the hold time
    that transfers the probe excitation into the dark state; with a
    residual detuning the first transfer maximum arrives at the
    generalized frequency sqrt((2J)^2 + delta^2) instead.  ValueError if
    the spec has no probe or no mirror, or if 2J is at or below
    DARK_COUPLING_FLOOR of the largest exchange the probe could have with
    the mirrors (a probe the dark state does not see).
    """
    two_j = probe_dark_coupling(spec)
    probe, mirrors = spec.probe_index, spec.mirror_indices
    g1d = [q.gamma_1d for q in spec.params]
    largest = {m: math.sqrt(g1d[probe] * g1d[m]) / 2.0 for m in mirrors}
    for i, j, g in spec.direct_couplings:
        if probe in (i, j):
            largest[i + j - probe] += abs(g)
    if not two_j > DARK_COUPLING_FLOOR * math.hypot(*largest.values()):
        raise ValueError(f"probe is not coupled to the dark state (2J = {two_j:.3g} MHz)")
    f_osc = math.hypot(two_j, interaction_detuning(spec))
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


def thermal_qubit_steady(
    g1d: float,
    gloss: float,
    gphi: float,
    n_th: float,
    omega_rabi: float,
    delta: float,
) -> tuple[float, complex]:
    """Closed-form driven steady state of a single qubit in a thermal bath.

    Returns (rho_ee, rho_eg) for drive detuning delta, using the thermally
    enhanced rates gamma1_th = (2 n_th + 1)(g1d + gloss) and gamma2_th =
    gamma1_th/2 + gphi.  All rates in MHz (ratios only).
    """
    if min(g1d, gloss, gphi, n_th) < 0:
        raise ValueError("rates and occupancy must be >= 0")
    gamma1_th = (2.0 * n_th + 1.0) * (g1d + gloss)
    gamma2_th = gamma1_th / 2.0 + gphi
    if gamma2_th <= 0:
        raise ValueError("qubit without decoherence has no unique steady state")
    x = delta / gamma2_th
    saturation = omega_rabi**2 / (gamma1_th * gamma2_th) if omega_rabi else 0.0
    denom = 1.0 + x**2 + saturation
    rho_ee = (n_th / (2.0 * n_th + 1.0)) * (1.0 + x**2) / denom + 0.5 * saturation / denom
    rho_eg = -1j * omega_rabi / (2.0 * gamma2_th * (2.0 * n_th + 1.0)) * (1.0 + 1j * x) / denom
    return float(rho_ee), complex(rho_eg)


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
