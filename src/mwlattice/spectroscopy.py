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
from dataclasses import dataclass

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

    def rabi(self, t: float) -> float:
        """Instantaneous Rabi frequency Omega(t) on [0, support]."""
        if self.envelope == "gaussian":
            tc = self.support / 2.0
            return self.peak_rabi * math.exp(-FOUR_LN2 * (t - tc) ** 2 / self.fwhm ** 2)
        if self.envelope == "rectangular":
            return self.peak_rabi
        return self.peak_rabi * math.sin(math.pi * t / self.duration) ** 2

    def instantaneous_detuning(self, t: float) -> float:
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


def _rotate(psi: np.ndarray, work: np.ndarray, q: np.ndarray,
            phase: np.ndarray) -> None:
    """psi <- q diag(phase) q^T psi, in place, for a real orthogonal q.

    ``psi`` and ``work`` are C-contiguous complex (dim, N) arrays.  Because q
    is real it acts on real and imaginary parts alike, so each product is
    one real GEMM on the (dim, 2N) float view of the state.
    """
    np.matmul(q.T, psi.view(np.float64), out=work.view(np.float64))
    work *= phase[:, None]
    np.matmul(q, work.view(np.float64), out=psi.view(np.float64))


def propagate_detunings(system: SidebandSystem, pulse: PulseSpec,
                        initial: SpinMotionState, detunings: np.ndarray,
                        dt: float | None = None) -> np.ndarray:
    """Final states after the pulse, one row per detuning.

    ``initial.amplitudes`` is one state (dim,) or a batch of row states
    (B, dim) broadcast against the detunings (B = 1, n_detunings = 1 or
    B = n_detunings).  Second-order Strang splitting: exact diagonal phases,
    exact coupling rotation via a single eigendecomposition of the coupling
    matrix.  Each step is unitary, so the norm is conserved to machine
    precision, and symmetric, so the identity batch comes out as the
    transpose of the pulse unitary.

    The loop keeps the states as columns of a (dim, N) array.  The coupling
    eigenvectors q are real, so each rotation q diag(e^{i theta}) q^T is two
    real GEMMs on the column-major float view of the state (dim x 2N), into
    preallocated buffers; the rows are transposed back on return.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    base, up_proj, c = system.hamiltonian_parts()
    diag = base[None, :] - np.multiply.outer(detunings, up_proj)  # (Nd, dim)
    amps = initial.amplitudes
    shape = np.broadcast_shapes(amps.shape, diag.shape)
    psi = np.array(np.broadcast_to(amps, shape).T, dtype=complex, order="C")
    work = np.empty_like(psi)
    # Subtract the per-detuning mean: a constant on the diagonal is a global
    # phase and only the spread limits the split-step accuracy.
    diag = np.ascontiguousarray((diag - diag.mean(axis=1, keepdims=True)).T)
    if dt is None:
        scale = float(np.max(np.abs(diag))) + pulse.peak_rabi + abs(pulse.sweep)
        dt = min(0.05 / max(scale, 1.0), pulse.support / 400.0)
    n_steps = max(1, int(math.ceil(pulse.support / dt)))
    dt = pulse.support / n_steps

    lam, q = np.linalg.eigh(c)

    # Adjacent Strang half steps merge: the diagonal phases into ``full``,
    # and a chirp's -(delta(t) - delta) P_up, which commutes with them, into
    # one scalar phase on the up rows per step (never applied off a chirp).
    m = system.energy_up.size
    half = np.exp(-0.5j * dt * diag)
    full = half * half
    psi *= half
    dd_prev = 0.0
    for i in range(n_steps):
        tm = (i + 0.5) * dt
        dd = pulse.instantaneous_detuning(tm) - pulse.detuning
        if dd_prev + dd != 0.0:
            psi[:m] *= cmath.exp(0.5j * dt * (dd_prev + dd))
        omega = pulse.rabi(tm)
        if omega != 0.0:
            _rotate(psi, work, q, np.exp(0.5j * dt * omega * lam))
        psi *= full if i < n_steps - 1 else half
        dd_prev = dd
    if dd_prev != 0.0:
        psi[:m] *= cmath.exp(0.5j * dt * dd_prev)
    return psi.T.copy()


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


def _thermal_transfer(w_up: float, w_down: float, u_down_tot: float,
                      dx: float, ensemble: ThermalEnsemble,
                      atom: AtomConstants, lattice_wavelength: float,
                      pulse: PulseSpec, detunings: np.ndarray,
                      cfg: SpectroscopyConfig) -> np.ndarray:
    """Ensemble-averaged transfer from the up spin over the detuning grid.

    The forward model of both ``simulate_spectrum`` and ``fit_spectrum``.
    At each transverse node the depths are rescaled by the Gaussian beam
    profile (``beam_waist``), bands and Franck-Condon tables re-derived,
    and every initial level propagated, Boltzmann-weighted at
    ``cfg.axial_temperature`` with the node's up-spin trap frequency.
    """
    q_cut = cfg.q_cutoff or default_q_cutoff(w_up)
    # the waist depends on the up-spin depth only, not on the angle
    waist = beam_waist(LatticeGeometry(lattice_wavelength, w_up, 0.0), atom,
                       ensemble.omega_rad)
    rhos, weights = ensemble.nodes(atom)
    m = cfg.n_max + 1
    transfer = np.zeros(detunings.size)
    for rho, w_rho in zip(rhos, weights):
        g = radial_depth_scale(rho, waist)
        system = system_from_potentials(
            w_up * g, w_down * g, u_down_tot * g, dx, atom,
            lattice_wavelength, n_max=cfg.n_max, k_points=cfg.k_points,
            q_cutoff=q_cut)
        pops = boltzmann_populations(
            cfg.n_max, trap_frequency(w_up * g, atom, lattice_wavelength),
            cfg.axial_temperature)
        for n0, p0 in enumerate(pops):
            if p0 < 1e-6:
                continue
            psi0 = SpinMotionState.basis(cfg.n_max, "up", n0)
            out = propagate_detunings(system, pulse, psi0, detunings, dt=cfg.dt)
            transfer += w_rho * p0 * np.sum(np.abs(out[:, m:]) ** 2, axis=1)
    return transfer


def simulate_spectrum(geom: LatticeGeometry, atom: AtomConstants,
                      pulse: PulseSpec, detunings: np.ndarray,
                      ensemble: ThermalEnsemble | None = None,
                      cfg: SpectroscopyConfig = SpectroscopyConfig(),
                      ) -> SpectrumResult:
    """Thermal-weighted microwave spectrum starting from the up spin.

    For each frozen transverse radius the depths are rescaled, bands and
    Franck-Condon tables re-derived, and the pulse propagated over the whole
    detuning grid at once.  Valid when omega_rad << Omega_0 (frozen-position
    approximation).
    """
    detunings = np.asarray(detunings, dtype=float)
    if ensemble is None:
        ensemble = ThermalEnsemble(0.0, cfg.omega_rad, 1)
    up, down, dx = potentials_from_angle(geom, atom)
    transfer = _thermal_transfer(up.contrast, down.contrast, down.total_depth,
                                 dx, ensemble, atom, geom.lattice_wavelength,
                                 pulse, detunings, cfg)
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
    params: dict[str, float]
    stderr: dict[str, float]
    cost: float
    success: bool
    message: str


def fit_spectrum(detunings: np.ndarray, observed: np.ndarray,
                 sigma: np.ndarray, initial_guess: dict[str, float],
                 w_up: float, atom: AtomConstants, lattice_wavelength: float,
                 pulse: PulseSpec,
                 cfg: SpectroscopyConfig = SpectroscopyConfig(),
                 max_nfev: int = 200) -> FitResult:
    """Weighted least squares over {dx, w_down, du_tot, t2d}.

    ``dx`` in units of d, depths in E_R, ``t2d`` in kelvin.  Standard errors
    come from the Jacobian at the solution (linearized covariance).
    """
    names = ["dx", "w_down", "du_tot", "t2d"]
    x0 = np.array([initial_guess[k] for k in names], dtype=float)
    detunings = np.asarray(detunings, dtype=float)
    observed = np.asarray(observed, dtype=float)
    sigma = np.maximum(np.asarray(sigma, dtype=float), 1e-4)
    scale = np.array([max(abs(v), 1e-3) for v in x0])

    def residuals(z):
        dx, w_down, du_tot, t2d = z * scale
        ensemble = ThermalEnsemble(t2d, cfg.omega_rad, cfg.thermal_samples)
        model = _thermal_transfer(w_up, w_down, -w_up - du_tot, dx, ensemble,
                                  atom, lattice_wavelength, pulse, detunings,
                                  cfg)
        return (model - observed) / sigma

    lower = np.array([0.0, 1.0, -np.inf, 0.0]) / scale
    res = least_squares(residuals, x0 / scale, bounds=(lower, np.inf),
                        diff_step=1e-4, xtol=1e-12, ftol=1e-12, gtol=1e-12,
                        max_nfev=max_nfev)
    theta = res.x * scale
    # covariance from J^T J of the scaled problem (z = theta / scale), whose
    # conditioning the units do not distort; flag degeneracy instead of
    # crashing.  cov(theta) = diag(scale) cov(z) diag(scale).
    jtj = res.jac.T @ res.jac
    dof = max(1, detunings.size - 4)
    try:
        cov = np.linalg.inv(jtj) * 2 * res.cost / dof
        err = scale * np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        err = np.full(4, np.nan)
    success = res.status > 0
    message = res.message
    if np.linalg.cond(jtj) > 1e12:
        message += " [degenerate Jacobian]"
    return FitResult(params=dict(zip(names, theta)),
                     stderr=dict(zip(names, err)),
                     cost=float(res.cost), success=success, message=message)
