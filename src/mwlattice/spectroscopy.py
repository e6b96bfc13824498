"""Microwave sideband spectra: pulsed spin-motion dynamics, thermal
inhomogeneous broadening over the transverse Boltzmann distribution, and
nonlinear least-squares extraction of lattice parameters from spectra.

The dynamics live in the rotating frame at the microwave frequency with the
rotating-wave approximation applied (9.2 GHz carrier vs kHz couplings).
Basis ordering: index n = |up, n>, index (n_max+1) + n = |down, n>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import least_squares
from scipy.signal import find_peaks
from scipy.special import roots_laguerre

from .lattice import (
    HBAR, KB, AtomConstants, LatticeGeometry, potentials_from_angle,
    recoil_energy, trap_frequency,
)
from .bands import cached_bands, default_q_cutoff
from .franck_condon import fcf_exact

FOUR_LN2 = 4.0 * math.log(2.0)


@dataclass(frozen=True)
class PulseSpec:
    """Microwave pulse: envelope shape, peak Rabi frequency, detuning.

    envelope: "gaussian" (fwhm seconds), "rectangular" (duration seconds) or
    "adiabatic_chirp" (duration seconds, linear sweep rad/s across the pulse,
    sin^2 amplitude ramp).  ``detuning`` is delta_MW = omega_MW - omega_HS.
    """

    envelope: str
    peak_rabi: float            # rad/s
    detuning: float = 0.0       # rad/s
    fwhm: float = 0.0           # s, gaussian
    duration: float = 0.0       # s, rectangular / chirp
    sweep: float = 0.0          # rad/s, chirp total sweep width

    def __post_init__(self):
        if self.peak_rabi < 0:
            raise ValueError("peak_rabi must be >= 0")
        if self.envelope not in ("gaussian", "rectangular", "adiabatic_chirp"):
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.envelope == "gaussian" and self.fwhm <= 0:
            raise ValueError("gaussian pulse needs fwhm > 0")
        if self.envelope != "gaussian" and self.duration <= 0:
            raise ValueError("pulse needs duration > 0")

    @property
    def support(self) -> float:
        """Total simulated pulse length in seconds (finite envelope support)."""
        if self.envelope == "gaussian":
            return 4.0 * self.fwhm
        return self.duration

    def rabi(self, t):
        """Instantaneous Rabi frequency Omega(t) on [0, support]; ``t`` is a
        time or an array of times."""
        t = np.asarray(t, dtype=float)
        if self.envelope == "gaussian":
            tc = self.support / 2.0
            return self.peak_rabi * np.exp(-FOUR_LN2 * (t - tc) ** 2 / self.fwhm ** 2)
        if self.envelope == "rectangular":
            return np.full(t.shape, self.peak_rabi)
        return self.peak_rabi * np.sin(math.pi * t / self.duration) ** 2

    def instantaneous_detuning(self, t):
        if self.envelope == "adiabatic_chirp":
            return self.detuning + self.sweep * (t / self.duration - 0.5)
        return self.detuning


def gaussian_pi_pulse(fwhm: float, detuning: float = 0.0) -> PulseSpec:
    """Gaussian pulse with unit-coupling area pi (carrier pi-pulse)."""
    peak = math.pi / (fwhm * math.sqrt(math.pi / FOUR_LN2))
    return PulseSpec("gaussian", peak_rabi=peak, detuning=detuning, fwhm=fwhm)


def _spin_block(spin: str, n_max: int) -> slice:
    """Indices of the ``spin`` ladder in the {|up, n>, |down, n>} basis."""
    m = n_max + 1
    if spin == "up":
        return slice(0, m)
    if spin == "down":
        return slice(m, 2 * m)
    raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")


@dataclass
class SpinMotionState:
    """Amplitudes over {|up, n>, |down, n>}, n = 0..n_max."""

    amplitudes: np.ndarray

    @classmethod
    def basis(cls, n_max: int, spin: str, n: int) -> "SpinMotionState":
        amp = np.zeros(2 * (n_max + 1), dtype=complex)
        amp[_spin_block(spin, n_max).start + n] = 1.0
        return cls(amp)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size // 2 - 1

    def populations(self, spin: str) -> np.ndarray:
        return np.abs(self.amplitudes[_spin_block(spin, self.n_max)]) ** 2

    def transfer_probability(self) -> float:
        """Total population in the down spin."""
        return float(self.populations("down").sum())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class SidebandSystem:
    """Energies and couplings of the truncated spin x vibration space.

    ``energy_up``/``energy_down`` are eps_{s,n}/hbar in rad/s (total depth
    offsets included); ``fc_matrix[n_down, n_up]`` is the Franck-Condon
    overlap entering H_MW.
    """

    energy_up: np.ndarray      # (n_max+1,), rad/s
    energy_down: np.ndarray    # (n_max+1,), rad/s
    fc_matrix: np.ndarray      # (n_max+1, n_max+1)

    @property
    def n_max(self) -> int:
        return self.energy_up.size - 1

    @property
    def dim(self) -> int:
        return 2 * self.energy_up.size

    def resonance(self, n_up: int, n_down: int) -> float:
        """Microwave detuning of the |up,n> -> |down,n'> transition (rad/s)."""
        return float(self.energy_up[n_up] - self.energy_down[n_down])

    def hamiltonian_parts(self):
        """(diagonal base, up-projector diagonal, coupling matrix).

        Rotating frame: H(t)/hbar = diag(base) - delta * diag(up_proj)
        - Omega(t)/2 * C, with C symmetric carrying the FC couplings.
        """
        m = self.energy_up.size
        base = np.concatenate([self.energy_up, self.energy_down])
        up_proj = np.concatenate([np.ones(m), np.zeros(m)])
        c = np.zeros((2 * m, 2 * m))
        c[:m, m:] = self.fc_matrix.T
        c[m:, :m] = self.fc_matrix
        return base, up_proj, c


def build_system(geom: LatticeGeometry, atom: AtomConstants, n_max: int = 15,
                 k_points: int = 64, q_cutoff: int | None = None,
                 depth_scale: float = 1.0) -> SidebandSystem:
    """Assemble a SidebandSystem from the lattice geometry.

    ``depth_scale`` rescales both contrasts and total depths (transverse
    Gaussian-profile factor); the shift dx is polarization-set and unscaled.
    """
    up, down, dx = potentials_from_angle(geom, atom)
    return system_from_potentials(
        w_up=up.contrast * depth_scale,
        w_down=down.contrast * depth_scale,
        u_down_tot=down.total_depth * depth_scale,
        shift=dx, atom=atom, lattice_wavelength=geom.lattice_wavelength,
        n_max=n_max, k_points=k_points, q_cutoff=q_cutoff)


def system_from_potentials(w_up: float, w_down: float, u_down_tot: float,
                           shift: float, atom: AtomConstants,
                           lattice_wavelength: float, n_max: int = 15,
                           k_points: int = 64,
                           q_cutoff: int | None = None) -> SidebandSystem:
    """SidebandSystem from raw per-spin parameters (fit parameterization)."""
    if q_cutoff is None:
        q_cutoff = default_q_cutoff(max(w_up, w_down))
    n_bands = n_max + 1
    spec_up = cached_bands(w_up, n_bands=n_bands, k_points=k_points,
                           q_cutoff=q_cutoff)
    spec_down = cached_bands(w_down, n_bands=n_bands, k_points=k_points,
                             q_cutoff=q_cutoff)
    er_w = recoil_energy(atom, lattice_wavelength) / HBAR   # E_R in rad/s
    u_up_tot = -w_up
    eps_up = (u_up_tot + np.array([spec_up.band_energy(n)
                                   for n in range(n_bands)])) * er_w
    eps_down = (u_down_tot + np.array([spec_down.band_energy(n)
                                       for n in range(n_bands)])) * er_w
    fc = fcf_exact(spec_down, spec_up, shift).matrix
    return SidebandSystem(energy_up=eps_up, energy_down=eps_down, fc_matrix=fc)


# Steps whose Rabi frequencies and coupling rotations are tabulated at
# once: enough to amortize the numpy calls, few enough that the tables stay
# small for a pulse of any length.
SCHEDULE_CHUNK = 64

# Complex amplitudes of the systems that step together.  Stacking systems
# spreads the fixed cost of a step over them; past about this many the
# state, its diagonal phases and the work buffer no longer stay in a
# core's cache and a step costs more per system than it saves.  A system
# counts at least dim columns, which bounds its rotation tables as well.
STACK_BLOCK = 1 << 15

# Largest relative change of a state's norm over one propagation.  Every
# step is unitary, so the norm moves by rounding only: by 6.6e-10 at most
# over the identity batch of ``engineering.FOCK_CHIRP`` at n_max 15 and
# the automatic step (528k steps).
NORM_DRIFT_BOUND = 1e-8


def _coupling_modes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-mode matrices of the coupling rotation, (S, 2m, dim^2).

    With F = U diag(sigma) V^T (``u``, ``v`` (S, m, m), singular vectors
    as columns) and the down amplitudes multiplied by -i, the rotation
    exp(i theta C), C = [[0, F^T], [F, 0]], is the real orthogonal
    R(theta) = sum_j cos(theta sigma_j) A_j + sin(theta sigma_j) B_j with
    A_j = blockdiag(v_j v_j^T, u_j u_j^T) and
    B_j = [[0, -v_j u_j^T], [u_j v_j^T, 0]].  The rows are A_0 .. A_{m-1},
    B_0 .. B_{m-1}, flattened.
    """
    n_sys, m = u.shape[:2]
    dim = 2 * m
    modes = np.zeros((n_sys, 2, m, dim, dim))
    modes[:, 0, :, :m, :m] = np.einsum("sij,skj->sjik", v, v)
    modes[:, 0, :, m:, m:] = np.einsum("sij,skj->sjik", u, u)
    uv = np.einsum("sij,skj->sjik", u, v)
    modes[:, 1, :, m:, :m] = uv
    modes[:, 1, :, :m, m:] = -np.swapaxes(uv, 2, 3)
    return modes.reshape(n_sys, 2 * m, dim * dim)


def _rotation_tables(modes: np.ndarray, sigma: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """R(theta_k) of each system at each angle, (S, K, dim, dim).

    One GEMM per system: [cos | sin](theta_k sigma_j), (K, 2m), times the
    system's (2m, dim^2) ``modes``.
    """
    arg = sigma[:, None, :] * theta[:, None]                   # (S, K, m)
    coef = np.concatenate((np.cos(arg), np.sin(arg)), axis=2)
    dim = 2 * sigma.shape[1]
    return np.matmul(coef, modes).reshape(len(sigma), len(theta), dim, dim)


def _strang(fc: np.ndarray, diag: np.ndarray, psi: np.ndarray,
            pulse: PulseSpec, dt: float | None) -> None:
    """Propagate a stack of S systems through the pulse, in place.

    ``fc`` (S, m, m) holds each system's ``fc_matrix``, whose singular
    value decomposition gives the coupling rotations, ``diag`` (S, dim, N)
    (N may broadcast) the diagonal of the Hamiltonian of each column,
    overwritten with its spread about the column mean, and ``psi`` the
    C-contiguous complex (S, dim, N) states.  ``dt`` None takes the
    automatic step of the system with the widest spectrum, so no system
    gets a coarser step than it would alone.  The stack runs in blocks of
    at most ``STACK_BLOCK`` amplitudes, each through the whole pulse.  A
    state whose norm moves by more than ``NORM_DRIFT_BOUND`` (relative)
    raises ``RuntimeError``.
    """
    # Subtract the per-column mean: a constant on the diagonal is a global
    # phase and only the spread limits the split-step accuracy.
    diag -= diag.mean(axis=1, keepdims=True)
    if dt is None:
        scale = float(np.max(np.abs(diag))) + pulse.peak_rabi + abs(pulse.sweep)
        dt = min(0.05 / max(scale, 1.0), pulse.support / 400.0)
    n_steps = max(1, int(math.ceil(pulse.support / dt)))
    dt = pulse.support / n_steps
    u, sigma, vh = np.linalg.svd(fc)
    v = vh.swapaxes(1, 2)
    n_sys, dim, n_col = psi.shape
    norm0 = np.linalg.norm(psi, axis=1)
    per_block = max(1, STACK_BLOCK // (dim * max(n_col, dim)))
    for block in np.array_split(np.arange(n_sys), -(-n_sys // per_block)):
        b = slice(block[0], block[-1] + 1)
        _strang_steps(u[b], sigma[b], v[b], diag[b], psi[b], pulse, dt,
                      n_steps)
    drift = (np.abs(np.linalg.norm(psi, axis=1) - norm0)
             / np.maximum(norm0, np.finfo(float).tiny))
    worst = np.unravel_index(np.argmax(drift), drift.shape)
    if not drift[worst] <= NORM_DRIFT_BOUND:
        raise RuntimeError(
            f"pulse propagation changed the norm of state {worst[1]} of "
            f"system {worst[0]} by {drift[worst]:.3g} (relative), above "
            f"{NORM_DRIFT_BOUND:g}")


def _strang_steps(u: np.ndarray, sigma: np.ndarray, v: np.ndarray,
                  diag: np.ndarray, psi: np.ndarray, pulse: PulseSpec,
                  dt: float, n_steps: int) -> None:
    """The Strang loop of ``_strang`` on one block of systems.

    Second-order splitting with exact diagonal phases and the exact
    coupling rotation.  The down rows are multiplied by -i before the loop
    and by i after it (both exact), which makes the rotation the real
    orthogonal R(theta) of ``_coupling_modes``: one real GEMM per system
    on the (dim, 2N) float view of its states, into the work buffer, and
    the diagonal phases multiplied back into the states.  The step
    schedule (Rabi frequencies, chirp phases and the R tables) is computed
    ``SCHEDULE_CHUNK`` steps at a time.
    """
    # Adjacent Strang half steps merge: the diagonal phases into ``full``,
    # and a chirp's -(delta(t) - delta) P_up, which commutes with them, into
    # one scalar phase on the up rows per step (never applied off a chirp).
    m = psi.shape[1] // 2
    chirp = pulse.envelope == "adiabatic_chirp"
    full = np.multiply(diag, -0.5j * dt, dtype=complex)
    np.exp(full, out=full)
    psi *= full
    full *= full       # the half steps' phases squared; the last is redone
    psi[:, m:] *= -1j
    modes = _coupling_modes(u, v)
    work = np.empty_like(psi)
    psi_f, work_f = psi.view(np.float64), work.view(np.float64)
    dd_prev = 0.0
    for start in range(0, n_steps, SCHEDULE_CHUNK):
        steps = range(start, min(start + SCHEDULE_CHUNK, n_steps))
        tm = (np.arange(steps.start, steps.stop) + 0.5) * dt
        omega = pulse.rabi(tm)
        rotation = _rotation_tables(modes, sigma, 0.5 * dt * omega)
        if chirp:
            dd = pulse.instantaneous_detuning(tm) - pulse.detuning
            merged = np.concatenate(([dd_prev], dd[:-1])) + dd
            up_phase = np.exp(0.5j * dt * merged)
            dd_prev = float(dd[-1])
        for j, (i, om) in enumerate(zip(steps, omega.tolist())):
            if chirp and merged[j] != 0.0:
                psi[:, :m] *= up_phase[j]
            if i == n_steps - 1:
                np.exp(np.multiply(diag, -0.5j * dt, out=full), out=full)
            if om != 0.0:
                np.matmul(rotation[:, j], psi_f, out=work_f)
                np.multiply(work, full, out=psi)
            else:
                psi *= full
    if dd_prev != 0.0:
        psi[:, :m] *= cmath.exp(0.5j * dt * dd_prev)
    psi[:, m:] *= 1j


def propagate_detunings(system: SidebandSystem, pulse: PulseSpec,
                        initial: SpinMotionState, detunings: np.ndarray,
                        dt: float | None = None) -> np.ndarray:
    """Final states after the pulse, one row per detuning.

    ``initial.amplitudes`` is one state (dim,) or a batch of row states
    (B, dim) broadcast against the detunings (B = 1, n_detunings = 1 or
    B = n_detunings).  Second-order Strang splitting: exact diagonal phases,
    exact coupling rotation from a single singular value decomposition of
    ``fc_matrix``, as one real orthogonal matrix per step.  Each step is
    unitary, so the norm is conserved to rounding (checked against
    ``NORM_DRIFT_BOUND``), and symmetric, so the identity batch comes out
    as the transpose of the pulse unitary.

    This is the one-system case of the stacked Strang loop that the thermal
    spectra and the fit's Jacobian also run: the states are the columns of
    a (dim, N) array, the step schedule (Rabi frequencies, chirp phases and
    rotation matrices) is computed with numpy a chunk of steps at a time,
    and the rows are transposed back on return.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    base, up_proj, _ = system.hamiltonian_parts()
    diag = base[None, :] - np.multiply.outer(detunings, up_proj)  # (Nd, dim)
    amps = initial.amplitudes
    shape = np.broadcast_shapes(amps.shape, diag.shape)
    psi = np.array(np.broadcast_to(amps, shape).T[None], dtype=complex,
                   order="C")
    _strang(system.fc_matrix[None], diag.T[None], psi, pulse, dt)
    return psi[0].T.copy()


def evolve_pulse(system: SidebandSystem, pulse: PulseSpec,
                 initial: SpinMotionState) -> SpinMotionState:
    """Reference integration of one pulse at ``pulse.detuning``.

    Integrates the Schroedinger equation with the adaptive Runge-Kutta
    DOP853 (rtol 1e-10, atol 1e-12); the accuracy cross-check for the
    split-step ``propagate_detunings``, which the package uses.
    """
    base, up_proj, c = system.hamiltonian_parts()

    def rhs(t, y):
        psi = y.view(complex)
        delta = pulse.instantaneous_detuning(t)
        h = (base - delta * up_proj) * psi - 0.5 * pulse.rabi(t) * (c @ psi)
        return (-1j * h).view(float)

    y0 = initial.amplitudes.astype(complex).view(float)
    sol = solve_ivp(rhs, (0.0, pulse.support), y0, rtol=1e-10, atol=1e-12,
                    method="DOP853")
    if not sol.success:
        raise RuntimeError(f"pulse integration failed: {sol.message}")
    return SpinMotionState(sol.y[:, -1].view(complex).copy())


@dataclass(frozen=True)
class ThermalEnsemble:
    """Transverse 2-D Boltzmann ensemble, frozen during the pulse.

    Radial density P(rho) = (rho/sigma^2) exp(-rho^2 / 2 sigma^2) with
    sigma = sqrt(kB T / (m omega_rad^2)).  ``nodes`` returns Gauss-Laguerre
    abscissas in rho with weights summing to 1.
    """

    temperature: float        # K
    omega_rad: float          # rad/s
    n_samples: int = 16

    def sigma(self, atom: AtomConstants) -> float:
        return math.sqrt(KB * self.temperature / (atom.mass * self.omega_rad ** 2))

    def nodes(self, atom: AtomConstants) -> tuple[np.ndarray, np.ndarray]:
        if self.temperature <= 0.0:
            return np.array([0.0]), np.array([1.0])
        # substitute u = rho^2 / (2 sigma^2): integral of f(rho) e^-u du
        u, w = roots_laguerre(self.n_samples)
        rho = self.sigma(atom) * np.sqrt(2.0 * u)
        return rho, w / w.sum()


def beam_waist(geom: LatticeGeometry, atom: AtomConstants,
               omega_rad: float) -> float:
    """Waist w0 from the transverse harmonic expansion of the Gaussian beam.

    The full depth W_up relaxes transversely as exp(-2 rho^2 / w0^2); matching
    the quadratic term to m omega_rad^2 rho^2 / 2 gives
    w0 = sqrt(4 W_up / (m omega_rad^2)).
    """
    w_joule = geom.depth_up * recoil_energy(atom, geom.lattice_wavelength)
    return math.sqrt(4.0 * w_joule / (atom.mass * omega_rad ** 2))


def radial_depth_scale(rho: float, waist: float) -> float:
    return math.exp(-2.0 * rho ** 2 / waist ** 2)


def boltzmann_populations(n_max: int, omega_vib: float,
                          temperature: float) -> np.ndarray:
    """Truncated thermal distribution over vibrational levels."""
    if temperature <= 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    x = HBAR * omega_vib / (KB * temperature)
    p = np.exp(-x * np.arange(n_max + 1))
    return p / p.sum()


@dataclass(frozen=True)
class SpectrumPeak:
    center: float   # rad/s
    height: float


@dataclass
class SpectrumResult:
    """Transfer probability vs microwave detuning."""

    detunings: np.ndarray     # rad/s
    transfer: np.ndarray      # [0, 1]

    def locate_peaks(self, min_height: float = 0.02,
                     prominence: float = 0.02) -> list[SpectrumPeak]:
        idx, _ = find_peaks(self.transfer, height=min_height,
                            prominence=prominence)
        out = []
        for i in idx:
            # quadratic refinement of the peak center
            if 0 < i < self.transfer.size - 1:
                y0, y1, y2 = self.transfer[i - 1:i + 2]
                denom = y0 - 2 * y1 + y2
                frac = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
                step = self.detunings[i + 1] - self.detunings[i]
                out.append(SpectrumPeak(float(self.detunings[i] + frac * step),
                                        float(y1)))
            else:
                out.append(SpectrumPeak(float(self.detunings[i]),
                                        float(self.transfer[i])))
        return out


@dataclass(frozen=True)
class SpectroscopyConfig:
    """Solver knobs shared by spectrum simulation and fitting."""

    n_max: int = 15
    k_points: int = 32
    q_cutoff: int | None = None
    omega_rad: float = 2 * math.pi * 1e3
    thermal_samples: int = 8
    axial_temperature: float = 0.0   # K; 0 = ground state
    dt: float | None = None          # s; None = automatic step size


def _thermal_systems(w_up: float, w_down: float, u_down_tot: float,
                     dx: float, ensemble: ThermalEnsemble,
                     atom: AtomConstants, lattice_wavelength: float,
                     cfg: SpectroscopyConfig
                     ) -> list[tuple[SidebandSystem, int, float]]:
    """(system, initial up level, weight) of every populated thermal state.

    With ``_stacked_transfers``, the forward model of both
    ``simulate_spectrum`` and ``fit_spectrum``.  At each transverse node the
    depths are rescaled by the Gaussian beam profile (``beam_waist``) and
    the bands and Franck-Condon tables re-derived; each initial level with
    Boltzmann population >= 1e-6 at ``cfg.axial_temperature`` (with the
    node's up-spin trap frequency) is one entry, weighted by node weight
    times population.
    """
    q_cut = cfg.q_cutoff or default_q_cutoff(w_up)
    # the waist depends on the up-spin depth only, not on the angle
    waist = beam_waist(LatticeGeometry(lattice_wavelength, w_up, 0.0), atom,
                       ensemble.omega_rad)
    rhos, weights = ensemble.nodes(atom)
    entries = []
    for rho, w_rho in zip(rhos, weights):
        g = radial_depth_scale(rho, waist)
        system = system_from_potentials(
            w_up * g, w_down * g, u_down_tot * g, dx, atom,
            lattice_wavelength, n_max=cfg.n_max, k_points=cfg.k_points,
            q_cutoff=q_cut)
        pops = boltzmann_populations(
            cfg.n_max, trap_frequency(w_up * g, atom, lattice_wavelength),
            cfg.axial_temperature)
        entries += [(system, n0, w_rho * p0) for n0, p0 in enumerate(pops)
                    if p0 >= 1e-6]
    return entries


def _stacked_transfers(groups: list[list[tuple[SidebandSystem, int, float]]],
                       pulse: PulseSpec, detunings: np.ndarray,
                       dt: float | None) -> list[np.ndarray]:
    """Weighted transfer from the up spin of each group of thermal states.

    Every entry of every group is one system of a single stacked Strang
    loop over the detuning grid.
    """
    entries = [e for group in groups for e in group]
    dim = entries[0][0].dim
    diag = np.empty((len(entries), dim, detunings.size))
    psi = np.zeros((len(entries), dim, detunings.size), dtype=complex)
    for s, (system, n0, _) in enumerate(entries):
        base, up_proj, _ = system.hamiltonian_parts()
        diag[s] = base[:, None] - np.multiply.outer(up_proj, detunings)
        psi[s, n0] = 1.0
    _strang(np.array([e[0].fc_matrix for e in entries]), diag, psi, pulse,
            dt)
    down = np.sum(np.abs(psi[:, dim // 2:]) ** 2, axis=1)       # (S, Nd)
    out, s = [], 0
    for group in groups:
        transfer = np.zeros(detunings.size)
        for _, _, weight in group:
            transfer += weight * down[s]
            s += 1
        out.append(transfer)
    return out


def simulate_spectrum(geom: LatticeGeometry, atom: AtomConstants,
                      pulse: PulseSpec, detunings: np.ndarray,
                      ensemble: ThermalEnsemble | None = None,
                      cfg: SpectroscopyConfig = SpectroscopyConfig(),
                      ) -> SpectrumResult:
    """Thermal-weighted microwave spectrum starting from the up spin.

    For each frozen transverse radius the depths are rescaled, bands and
    Franck-Condon tables re-derived, and the pulse propagated over the whole
    detuning grid, every radius in one stacked loop.  Valid when
    omega_rad << Omega_0 (frozen-position approximation).
    """
    detunings = np.asarray(detunings, dtype=float)
    if ensemble is None:
        ensemble = ThermalEnsemble(0.0, cfg.omega_rad, 1)
    up, down, dx = potentials_from_angle(geom, atom)
    states = _thermal_systems(up.contrast, down.contrast, down.total_depth,
                              dx, ensemble, atom, geom.lattice_wavelength, cfg)
    transfer = _stacked_transfers([states], pulse, detunings, cfg.dt)[0]
    return SpectrumResult(detunings=detunings, transfer=transfer)


def binomial_sigma(successes: np.ndarray, trials: int) -> np.ndarray:
    """Binomial standard error with rule-of-succession smoothing.

    Uses p_eff = (k+1)/(N+2) so zero- and full-count points keep a finite,
    honest uncertainty instead of sigma = 0 (which would make the weighted
    fit treat them as exact).
    """
    k = np.asarray(successes, dtype=float)
    p = (k + 1.0) / (trials + 2.0)
    return np.sqrt(p * (1.0 - p) / trials)


@dataclass
class FitResult:
    """Fitted parameters and their errors.  ``diagnostics`` holds the
    optimizer's ``nfev``, ``njev`` and ``status``, ``chi2_dof`` and the
    condition number ``cond_jtj`` of J^T J of the scaled problem."""

    params: dict[str, float]
    stderr: dict[str, float]
    cost: float
    success: bool
    message: str
    diagnostics: dict[str, float] = field(default_factory=dict)


# Relative finite-difference step of the fit's Jacobian (least_squares'
# ``diff_step``), and the fallback relative step where it rounds to zero.
DIFF_STEP = 1e-4
FALLBACK_STEP = math.sqrt(np.finfo(float).eps)

FIT_NAMES = ("dx", "w_down", "du_tot", "t2d")


def _fit_problem(detunings: np.ndarray, observed: np.ndarray,
                 sigma: np.ndarray, initial_guess: dict[str, float],
                 w_up: float, atom: AtomConstants, lattice_wavelength: float,
                 pulse: PulseSpec, cfg: SpectroscopyConfig):
    """(residuals, jacobian, z0, lower, scale) of the scaled fit problem.

    The parameters are z = theta / scale.  ``jacobian(z)`` forms the forward
    differences of scipy's '2-point' rule at relative step ``DIFF_STEP``
    (``_numdiff._compute_absolute_step`` and ``_adjust_scheme_to_bounds``):
    h = DIFF_STEP * sign(z) |z| with sign(0) = +1, falling back to
    FALLBACK_STEP * sign(z) max(1, |z|) where z + h rounds to z, reversed
    where z + h leaves the bounds, and divided by the re-rounded step
    (z + h) - z.  The perturbed points' thermal states all run in one
    stacked Strang loop; f(z) comes from the last residual call when that
    was at the same z.
    """
    x0 = np.array([initial_guess[k] for k in FIT_NAMES], dtype=float)
    scale = np.array([max(abs(v), 1e-3) for v in x0])
    lower = np.array([0.0, 1.0, -np.inf, 0.0]) / scale

    def states(z):
        dx, w_down, du_tot, t2d = z * scale
        ensemble = ThermalEnsemble(t2d, cfg.omega_rad, cfg.thermal_samples)
        return _thermal_systems(w_up, w_down, -w_up - du_tot, dx, ensemble,
                                atom, lattice_wavelength, cfg)

    last = {}

    def residuals(z):
        model = _stacked_transfers([states(z)], pulse, detunings, cfg.dt)[0]
        f = (model - observed) / sigma
        last["z"], last["f"] = np.array(z, dtype=float), f
        return f

    def jacobian(z):
        z = np.asarray(z, dtype=float)
        f0 = last["f"] if np.array_equal(last.get("z"), z) else residuals(z)
        sign = np.where(z >= 0, 1.0, -1.0)
        h = DIFF_STEP * sign * np.abs(z)
        h = np.where((z + h) - z == 0,
                     FALLBACK_STEP * sign * np.maximum(1.0, np.abs(z)), h)
        h = np.where(z + h < lower, -h, h)
        points = np.tile(z, (z.size, 1))
        points[np.diag_indices(z.size)] += h
        models = _stacked_transfers([states(p) for p in points], pulse,
                                    detunings, cfg.dt)
        columns = [((mdl - observed) / sigma - f0) / ((zi + hi) - zi)
                   for mdl, zi, hi in zip(models, z, h)]
        return np.column_stack(columns)

    return residuals, jacobian, x0 / scale, lower, scale


def fit_spectrum(detunings: np.ndarray, observed: np.ndarray,
                 sigma: np.ndarray, initial_guess: dict[str, float],
                 w_up: float, atom: AtomConstants, lattice_wavelength: float,
                 pulse: PulseSpec,
                 cfg: SpectroscopyConfig = SpectroscopyConfig(),
                 max_nfev: int = 200) -> FitResult:
    """Weighted least squares over {dx, w_down, du_tot, t2d}.

    ``dx`` in units of d, depths in E_R, ``t2d`` in kelvin.  The Jacobian is
    the forward difference of ``_fit_problem``, whose perturbed points run in
    one stacked propagation, so a Jacobian costs one pass of the stacked
    loop rather than four objective calls.  The sigma are absolute errors,
    so the covariance is inv(J^T J), widened by chi^2/dof when that exceeds
    1 (the model fits worse than the errors allow) and never narrowed.
    """
    detunings = np.asarray(detunings, dtype=float)
    observed = np.asarray(observed, dtype=float)
    sigma = np.maximum(np.asarray(sigma, dtype=float), 1e-4)
    residuals, jacobian, z0, lower, scale = _fit_problem(
        detunings, observed, sigma, initial_guess, w_up, atom,
        lattice_wavelength, pulse, cfg)
    res = least_squares(residuals, z0, jac=jacobian, bounds=(lower, np.inf),
                        xtol=1e-12, ftol=1e-12, gtol=1e-12,
                        max_nfev=max_nfev)
    theta = res.x * scale
    # covariance from J^T J of the scaled problem (z = theta / scale), whose
    # conditioning the units do not distort; flag degeneracy instead of
    # crashing.  cov(theta) = diag(scale) cov(z) diag(scale).
    jtj = res.jac.T @ res.jac
    dof = max(1, detunings.size - 4)
    chi2_dof = 2 * float(res.cost) / dof
    try:
        cov = np.linalg.inv(jtj) * max(1.0, chi2_dof)
        err = scale * np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        err = np.full(4, np.nan)
    success = res.status > 0
    message = res.message
    cond = float(np.linalg.cond(jtj))
    if cond > 1e12:
        message += " [degenerate Jacobian]"
    diagnostics = {"nfev": int(res.nfev), "njev": int(res.njev),
                   "status": int(res.status), "chi2_dof": chi2_dof,
                   "cond_jtj": cond}
    return FitResult(params=dict(zip(FIT_NAMES, theta)),
                     stderr=dict(zip(FIT_NAMES, err)),
                     cost=float(res.cost), success=success, message=message,
                     diagnostics=diagnostics)
