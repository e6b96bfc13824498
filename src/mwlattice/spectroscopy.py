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
import os
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import least_squares
from scipy.special import roots_laguerre

from .lattice import (
    HBAR, KB, AtomConstants, LatticeGeometry, potentials_from_angle,
    recoil_energy, thermal_populations, trap_frequency,
)
from .bands import cached_bands_on_one_cutoff
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
        for name in ("peak_rabi", "detuning", "fwhm", "duration", "sweep"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"pulse {name} must be finite, got {value}")
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
    if not fwhm > 0:
        raise ValueError(f"gaussian pulse needs fwhm > 0, got {fwhm}")
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

    def diagonal(self, detunings) -> np.ndarray:
        """Rotating-frame diagonal of H/hbar, (dim, N), one column per
        detuning delta: eps_{s,n}, minus delta on the up rows.  With
        C = [[0, F^T], [F, 0]], F = ``fc_matrix``, H/hbar = diag - Omega/2 C.
        """
        up = self.energy_up[:, None] - np.atleast_1d(detunings)
        return np.concatenate(
            [up, np.broadcast_to(self.energy_down[:, None], up.shape)])


def build_system(geom: LatticeGeometry, atom: AtomConstants, n_max: int = 15,
                 k_points: int = 64, q_cutoff: int | None = None,
                 depth_scale: float = 1.0) -> SidebandSystem:
    """Assemble a SidebandSystem from the lattice geometry.

    ``depth_scale`` rescales both contrasts and total depths (transverse
    Gaussian-profile factor); the shift dx is polarization-set and unscaled.
    """
    up, down, dx = potentials_from_angle(geom)
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
    """SidebandSystem from raw per-spin parameters (fit parameterization).

    Both spins' bands share one plane-wave cutoff, ``q_cutoff`` or the
    automatic one of the deeper (``cached_bands_on_one_cutoff``).
    """
    n_bands = n_max + 1
    spec_up, spec_down = cached_bands_on_one_cutoff(
        (w_up, w_down), n_bands=n_bands, k_points=k_points, q_cutoff=q_cutoff)
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
# With more than one worker a stack is split further, into at least as
# many blocks as workers, while each block keeps ``THREAD_BLOCK`` amplitudes.
STACK_BLOCK = 1 << 15

# Fewest amplitudes of a block split off for another worker.  Below it the
# threads wait for the GIL between numpy calls more than they compute.  On
# 2 cores with one BLAS thread, a 1334-step pulse on dim-28 systems of 120
# columns took 0.033 s for two systems as one block and 0.044 s as two
# blocks; eight systems took 0.120 s as one block and 0.069 s as two.
THREAD_BLOCK = 6000

# Most Strang steps of one block: 40x the default spectrum's 25k.
STRANG_STEPS = 1 << 20


def worker_count(cores: int, env: Mapping[str, str]) -> int:
    """Threads that run the blocks of a stack, or the thermal nodes, at once.

    ``cores`` over the BLAS threads, at least 1.  The BLAS thread count is
    the first of OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS
    in ``env`` that is a positive integer.  When none is, the count is 1:
    an unpinned BLAS runs a thread per core, and more threads would
    compete with it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = env.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


# Read once: BLAS reads its thread count when numpy loads, before this.
WORKERS = worker_count(_usable_cores(), os.environ)


def _on_workers(work, items: Sequence) -> list:
    """``[work(item) for item in items]`` on min(``WORKERS``, len(items))
    threads, in item order.  The first item to raise, in item order, raises
    here once every thread is joined; items not yet started are dropped."""
    with ThreadPoolExecutor(min(WORKERS, len(items))) as pool:
        return list(pool.map(work, items))


# Largest relative change of a state's norm over one propagation.  Every
# step is unitary, so the norm moves by rounding only: by 3.2e-11 at most
# for |up,0> through ``engineering.FOCK_CHIRP`` on the m = 0..15 sidebands
# at n_max 15 and dt 1e-7 s (40k Strang steps).
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
                     theta: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
    """R(theta_k) of each system at each angle, (S, K, dim, dim).

    One GEMM per system: [cos | sin](theta_k sigma_j), (K, 2m), times the
    system's (2m, dim^2) ``modes``, into the first K rows of ``out``
    (S, >= K, dim^2) when given.
    """
    arg = sigma[:, None, :] * theta[:, None]                   # (S, K, m)
    coef = np.concatenate((np.cos(arg), np.sin(arg)), axis=2)
    dim = 2 * sigma.shape[1]
    table = np.matmul(coef, modes,
                      out=None if out is None else out[:, :len(theta)])
    return table.reshape(len(sigma), len(theta), dim, dim)


def _blocks(diag: np.ndarray, pulse: PulseSpec, dt: float | None,
            groups: Sequence[int] | None, n_col: int
            ) -> list[tuple[slice, float, int]]:
    """(systems, step, step count) of each block of ``_strang``'s stack."""
    n_sys, dim = diag.shape[:2]
    if dt is None:
        ends = np.cumsum(groups if groups is not None else [n_sys])
        runs = []
        for start, stop in zip(np.concatenate(([0], ends[:-1])), ends):
            scale = (float(np.max(np.abs(diag[start:stop]))) + pulse.peak_rabi
                     + abs(pulse.sweep))
            step = min(0.05 / max(scale, 1.0), pulse.support / 400.0)
            runs.append((start, stop, step))
    elif not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be finite and > 0, got {dt}")
    else:
        runs = [(0, n_sys, dt)]
    size = dim * max(n_col, dim)
    per_block = max(1, STACK_BLOCK // size)
    fewest = -(-THREAD_BLOCK // size)       # systems per block split off
    blocks = []
    for start, stop, step in runs:
        n_steps = max(1, int(math.ceil(pulse.support / step)))
        if n_steps > STRANG_STEPS:
            raise RuntimeError(f"{pulse}: {n_steps} Strang steps of "
                               f"{step:.3g} s, above {STRANG_STEPS}")
        n = stop - start
        n_blocks = max(-(-n // per_block), min(WORKERS, n // fewest))
        for part in np.array_split(np.arange(start, stop), n_blocks):
            blocks.append((slice(part[0], part[-1] + 1),
                           pulse.support / n_steps, n_steps))
    return blocks


def _strang(fc: np.ndarray, diag: np.ndarray, psi: np.ndarray,
            pulse: PulseSpec, dt: float | None,
            groups: Sequence[int] | None = None) -> None:
    """Propagate a stack of S systems through the pulse, in place.

    ``fc`` (S, m, m) holds each system's ``fc_matrix``, whose singular
    value decomposition gives the coupling rotations, ``diag`` (S, dim, N)
    (N may broadcast) the diagonal of the Hamiltonian of each column,
    overwritten with its spread about the column mean, and ``psi`` the
    C-contiguous complex (S, dim, N) states.  ``dt`` None gives each group
    of consecutive systems (``groups``, their sizes; default one group) the
    automatic step of its system with the widest spectrum, so no system
    gets a coarser step than it would alone and a group's states do not
    depend on the others; any other ``dt`` that is not finite and > 0
    raises ``ValueError``.

    The stack runs in blocks of systems at one step, each through the whole
    pulse: at most ``STACK_BLOCK`` amplitudes each, and split into as many
    blocks as ``WORKERS`` while each keeps ``THREAD_BLOCK``, run on the
    thread pool of ``_on_workers``; numpy releases the GIL in the GEMMs and
    ufuncs that do the work.  The states do not depend on the number of
    workers: a system's arithmetic does not depend on its block.  More than
    ``STRANG_STEPS`` steps in a block, or a norm that moves by more than
    ``NORM_DRIFT_BOUND`` (relative), raises ``RuntimeError``; a block's
    exception reaches the caller once the running blocks have finished.
    """
    # Subtract the per-column mean: a constant on the diagonal is a global
    # phase and only the spread limits the split-step accuracy.
    diag -= diag.mean(axis=1, keepdims=True)
    blocks = _blocks(diag, pulse, dt, groups, psi.shape[2])
    u, sigma, vh = np.linalg.svd(fc)
    modes = _coupling_modes(u, vh.swapaxes(1, 2))
    norm0 = np.linalg.norm(psi, axis=1)

    def run(block):
        b, step, n_steps = block
        _strang_steps(sigma[b], modes[b], diag[b], psi[b], pulse, step,
                      n_steps)

    _on_workers(run, blocks)
    _check_norm(psi, norm0)


def _check_norm(psi: np.ndarray, norm0: np.ndarray) -> None:
    """Raise when a norm moves off ``norm0`` past ``NORM_DRIFT_BOUND``."""
    drift = (np.abs(np.linalg.norm(psi, axis=1) - norm0)
             / np.maximum(norm0, np.finfo(float).tiny))
    worst = np.unravel_index(np.argmax(drift), drift.shape)
    if not drift[worst] <= NORM_DRIFT_BOUND:
        raise RuntimeError(
            f"pulse propagation changed the norm of state {worst[1]} of "
            f"system {worst[0]} by {drift[worst]:.3g} (relative), above "
            f"{NORM_DRIFT_BOUND:g}")


def _strang_steps(sigma: np.ndarray, modes: np.ndarray, diag: np.ndarray,
                  psi: np.ndarray, pulse: PulseSpec, dt: float,
                  n_steps: int) -> None:
    """The Strang loop of ``_strang`` on one block of systems.

    Second-order splitting with exact diagonal phases and the exact
    coupling rotation.  The down rows are multiplied by -i before the loop
    and by i after it (both exact), which makes the rotation the real
    orthogonal R(theta) of ``_coupling_modes``: one real GEMM per system
    on the (dim, 2N) float view of its states, into ``work``, and the
    diagonal phases (``full``, shaped like ``diag``) multiplied back into
    the states.  The step schedule (Rabi frequencies, chirp phases and the
    R tables, into ``table``) is computed ``SCHEDULE_CHUNK`` steps at a
    time.
    """
    # Adjacent Strang half steps merge: the diagonal phases into ``full``,
    # and a chirp's -(delta(t) - delta) P_up, which commutes with them, into
    # one scalar phase on the up rows per step (never applied off a chirp).
    m = psi.shape[1] // 2
    chirp = pulse.envelope == "adiabatic_chirp"
    work = np.empty(psi.shape, dtype=complex)
    full = np.empty(diag.shape, dtype=complex)
    table = np.empty((len(sigma), min(SCHEDULE_CHUNK, n_steps),
                      modes.shape[2]))
    np.multiply(diag, -0.5j * dt, out=full)
    np.exp(full, out=full)
    psi *= full
    full *= full       # the half steps' phases squared; the last is redone
    psi[:, m:] *= -1j
    psi_f, work_f = psi.view(np.float64), work.view(np.float64)
    dd_prev = 0.0
    for start in range(0, n_steps, SCHEDULE_CHUNK):
        steps = range(start, min(start + SCHEDULE_CHUNK, n_steps))
        tm = (np.arange(steps.start, steps.stop) + 0.5) * dt
        omega = pulse.rabi(tm)
        rotation = _rotation_tables(modes, sigma, 0.5 * dt * omega, table)
        if chirp:
            dd = pulse.instantaneous_detuning(tm) - pulse.detuning
            merged = np.concatenate(([dd_prev], dd[:-1])) + dd
            up_phase = np.exp(0.5j * dt * merged)
            dd_prev = float(dd[-1])
        for j, i in enumerate(steps):
            if chirp and merged[j] != 0.0:
                psi[:, :m] *= up_phase[j]
            if i == n_steps - 1:
                np.exp(np.multiply(diag, -0.5j * dt, out=full), out=full)
            np.matmul(rotation[:, j], psi_f, out=work_f)
            np.multiply(work, full, out=psi)
    if dd_prev != 0.0:
        psi[:, :m] *= cmath.exp(0.5j * dt * dd_prev)
    psi[:, m:] *= 1j


# Largest estimated population error of ``_midpoint``: engineering's
# ``FOCK_CHIRP`` at n_max 15 meets it at 4096 steps, 3.5e-8 off 32768 steps;
# columns of a 1 ms chirp and a Gaussian at n_max 8 are within 4.2e-8 of
# DOP853.
MIDPOINT_TOLERANCE = 5e-8

# Step count of ``_midpoint``'s first try, and the cap past which it raises.
MIDPOINT_STEPS = (64, 1 << 17)


def _exponentials(system: SidebandSystem, pulse: PulseSpec, t: np.ndarray,
                  dt: float) -> np.ndarray:
    """exp(-i H(t_k) dt), (K, dim, dim), by one stacked ``eigh``; H's
    diagonal less its mean at ``pulse.detuning``, as in ``_strang``."""
    m, dim = system.n_max + 1, system.dim
    h = np.zeros((t.size, dim, dim))
    h[:, m:, :m] = -0.5 * pulse.rabi(t)[:, None, None] * system.fc_matrix
    h[:, :m, m:] = h[:, m:, :m].swapaxes(1, 2)
    h.reshape(t.size, -1)[:, ::dim + 1] = (
        system.diagonal(pulse.instantaneous_detuning(t))
        - system.diagonal(pulse.detuning).mean()).T
    w, v = np.linalg.eigh(h)
    vt = v.swapaxes(1, 2)
    out = np.empty(h.shape, dtype=complex)
    out.real = (v * np.cos(dt * w)[:, None, :]) @ vt
    out.imag = (v * -np.sin(dt * w)[:, None, :]) @ vt
    return out


def _midpoint(system: SidebandSystem, pulse: PulseSpec,
              psi: np.ndarray) -> np.ndarray:
    """The (dim, N) states ``psi`` after the pulse at ``pulse.detuning``.

    A rectangular pulse is one exact exponential, any other the exponential
    midpoint rule (2nd-order Magnus) at 64, 128, ... steps until the
    largest change d of |U|^2 of a doubling falls 3x or more (4x is the
    rate; not asked below ``MIDPOINT_TOLERANCE`` / 100) to d / 3 <= the
    tolerance.  Past ``MIDPOINT_STEPS[1]`` steps it raises.

    The error control reads the pulse unitary U, not the states handed
    in: one state can pass a doubling while its error is still growing,
    so the identity is propagated and U @ ``psi`` returned (exactly U for
    the identity batch).
    """
    if pulse.envelope == "rectangular":
        return _exponentials(system, pulse, np.zeros(1), pulse.support)[0] \
            @ psi
    n, last, prev = MIDPOINT_STEPS[0], None, 0.0
    while n <= MIDPOINT_STEPS[1]:
        dt, u = pulse.support / n, np.eye(system.dim, dtype=complex)
        work = np.empty_like(u)
        for start in range(0, n, SCHEDULE_CHUNK):
            t = (np.arange(start, min(start + SCHEDULE_CHUNK, n)) + 0.5) * dt
            for step in _exponentials(system, pulse, t, dt):   # time order
                u, work = np.matmul(step, u, out=work), u
        pops = np.abs(u) ** 2
        if last is not None:
            diff = float(np.max(np.abs(pops - last)))
            if diff <= 3 * MIDPOINT_TOLERANCE and (
                    3 * diff <= prev or 100 * diff <= MIDPOINT_TOLERANCE):
                return u @ psi
            prev = diff
        last, n = pops, 2 * n
    raise RuntimeError(
        f"{pulse}: the exponential midpoint at {n // 2} steps is off by about "
        f"{prev / 3:.3g} in populations, above {MIDPOINT_TOLERANCE:g}")


def propagate_detunings(system: SidebandSystem, pulse: PulseSpec,
                        initial: SpinMotionState, detunings: np.ndarray,
                        dt: float | None = None) -> np.ndarray:
    """Final states after the pulse, one row per detuning.

    ``initial.amplitudes`` is one state (dim,) or a batch of row states
    (B, dim) broadcast against the detunings (B = 1, n_detunings = 1 or
    B = n_detunings).  One detuning at ``dt`` None takes ``_midpoint``,
    anything else second-order Strang splitting: exact diagonal phases,
    exact coupling rotation from a single singular value decomposition of
    ``fc_matrix``, as one real orthogonal matrix per step.  Each step is
    unitary, so the norm is conserved to rounding (checked against
    ``NORM_DRIFT_BOUND``), and the identity batch comes out as the
    transpose of the pulse unitary.

    This is the one-system case of the stacked Strang loop that the thermal
    spectra and the fit's Jacobian also run: the states are the columns of
    a (dim, N) array, the step schedule (Rabi frequencies, chirp phases and
    rotation matrices) is computed with numpy a chunk of steps at a time,
    and the rows are transposed back on return.  No detunings raises
    ``ValueError``.
    """
    if np.size(detunings) == 0:
        raise ValueError("detunings: empty, need at least one")
    diag = system.diagonal(detunings)                            # (dim, Nd)
    amps = initial.amplitudes
    shape = np.broadcast_shapes(amps.shape, diag.T.shape)
    psi = np.array(np.broadcast_to(amps, shape).T[None], dtype=complex,
                   order="C")
    if dt is None and diag.shape[1] == 1:
        norm0 = np.linalg.norm(psi, axis=1)
        psi[0] = _midpoint(system, pulse, psi[0])
        _check_norm(psi, norm0)
    else:
        _strang(system.fc_matrix[None], diag[None], psi, pulse, dt)
    return psi[0].T.copy()


def evolve_pulse(system: SidebandSystem, pulse: PulseSpec,
                 initial: SpinMotionState) -> SpinMotionState:
    """Reference integration of one pulse at ``pulse.detuning``.

    Integrates the Schroedinger equation with the adaptive Runge-Kutta
    DOP853 (rtol 1e-10, atol 1e-12); the accuracy cross-check for the
    split-step ``propagate_detunings``, which the package uses.
    """
    fc = system.fc_matrix
    c = np.block([[np.zeros_like(fc), fc.T], [fc, np.zeros_like(fc)]])

    def rhs(t, y):
        psi = y.view(complex)
        diag = system.diagonal(pulse.instantaneous_detuning(t))[:, 0]
        h = diag * psi - 0.5 * pulse.rabi(t) * (c @ psi)
        return (-1j * h).view(float)

    y0 = initial.amplitudes.astype(complex).view(float)
    sol = solve_ivp(rhs, (0.0, pulse.support), y0, rtol=1e-10, atol=1e-12,
                    method="DOP853")
    if not sol.success:
        raise RuntimeError(f"pulse integration failed: {sol.message}")
    return SpinMotionState(sol.y[:, -1].view(complex).copy())


@dataclass(frozen=True)
class SpectrumPeak:
    center: float   # rad/s
    height: float


# Least transfer that ``SpectrumResult.locate_peaks`` counts as a peak by
# default; ``mwlattice fit`` rejects a spectrum with no point this high.
PEAK_MIN_HEIGHT = 0.02


@dataclass
class SpectrumResult:
    """Transfer probability vs microwave detuning."""

    detunings: np.ndarray     # rad/s
    transfer: np.ndarray      # [0, 1]

    def locate_peaks(self, min_height: float = PEAK_MIN_HEIGHT,
                     prominence: float = 0.02) -> list[SpectrumPeak]:
        from scipy.signal import find_peaks   # its import pulls in scipy.stats
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
    thermal_samples: int = 8
    axial_temperature: float = 0.0   # K; 0 = ground state
    dt: float | None = None          # s; None = automatic step size


def _thermal_systems(w_up: float, w_down: float, u_down_tot: float,
                     dx: float, t2d: float, atom: AtomConstants,
                     lattice_wavelength: float, cfg: SpectroscopyConfig
                     ) -> list[tuple[SidebandSystem, int, float]]:
    """(system, initial up level, weight) of every populated thermal state.

    With ``_stacked_transfers``, the forward model of both
    ``simulate_spectrum`` and ``fit_spectrum``.  The atoms' transverse
    positions follow the 2-D Boltzmann distribution at ``t2d`` (K) and are
    frozen during the pulse, valid when the radial trap frequency
    omega_r << Omega_0.  The Gaussian beam scales the depths by
    g = exp(-2 rho^2 / w0^2), and its transverse harmonic expansion gives
    m omega_r^2 w0^2 = 4 W_up; at the Gauss-Laguerre node
    u = m omega_r^2 rho^2 / (2 kB T) this is g = exp(-u kB T / W_up), free
    of omega_r.  ``cfg.thermal_samples`` nodes are used, or one node at
    g = 1 when t2d <= 0.  At each node the bands and Franck-Condon tables
    are re-derived, the nodes on the workers (``_on_workers``; the band
    solves release the GIL), and the entries come in node order.  Each
    level of ``thermal_populations`` >= 1e-6, at ratio exp(-hbar omega /
    kB T) (T = ``cfg.axial_temperature``, omega the node's up-spin trap
    frequency; 0 at T <= 0), is one entry weighted by node weight times
    population.
    """
    if t2d > 0.0:
        u, w = roots_laguerre(cfg.thermal_samples)
        w_joule = w_up * recoil_energy(atom, lattice_wavelength)
        scales, weights = np.exp(-u * KB * t2d / w_joule), w / w.sum()
    else:
        scales, weights = np.ones(1), np.ones(1)
    t_ax = cfg.axial_temperature

    def node(scale_and_weight):
        g, w_node = scale_and_weight
        system = system_from_potentials(
            w_up * g, w_down * g, u_down_tot * g, dx, atom,
            lattice_wavelength, n_max=cfg.n_max, k_points=cfg.k_points,
            q_cutoff=cfg.q_cutoff)
        omega = trap_frequency(w_up * g, atom, lattice_wavelength)
        ratio = math.exp(-HBAR * omega / (KB * t_ax)) if t_ax > 0 else 0.0
        pops = thermal_populations(ratio, cfg.n_max)
        return [(system, n0, w_node * p0) for n0, p0 in enumerate(pops)
                if p0 >= 1e-6]

    nodes = _on_workers(node, list(zip(scales, weights)))
    return [entry for entries in nodes for entry in entries]


def _stacked_transfers(groups: list[list[tuple[SidebandSystem, int, float]]],
                       pulse: PulseSpec, detunings: np.ndarray,
                       dt: float | None) -> list[np.ndarray]:
    """Weighted transfer from the up spin of each group of thermal states.

    Every entry of every group is one system of a single stacked Strang
    loop over the detuning grid.  At ``dt`` None each group takes its own
    automatic step, so a group's transfer is the same stacked or alone.
    """
    entries = [e for group in groups for e in group]
    dim = entries[0][0].dim
    diag = np.empty((len(entries), dim, detunings.size))
    psi = np.zeros((len(entries), dim, detunings.size), dtype=complex)
    for s, (system, n0, _) in enumerate(entries):
        diag[s] = system.diagonal(detunings)
        psi[s, n0] = 1.0
    sizes = [len(group) for group in groups]
    _strang(np.array([e[0].fc_matrix for e in entries]), diag, psi, pulse,
            dt, sizes)
    down = np.sum(np.abs(psi[:, dim // 2:]) ** 2, axis=1)       # (S, Nd)
    weighted = np.array([e[2] for e in entries])[:, None] * down
    return [part.sum(axis=0)
            for part in np.split(weighted, np.cumsum(sizes)[:-1])]


def simulate_spectrum(geom: LatticeGeometry, atom: AtomConstants,
                      pulse: PulseSpec, detunings: np.ndarray,
                      t2d: float = 0.0,
                      cfg: SpectroscopyConfig = SpectroscopyConfig(),
                      ) -> SpectrumResult:
    """Thermal-weighted microwave spectrum starting from the up spin.

    At each frozen transverse radius of the ensemble at ``t2d`` (K) the
    depths are rescaled, bands and Franck-Condon tables re-derived, and the
    pulse propagated over the whole detuning grid, every radius in one
    stacked loop.  Valid when the radial trap frequency omega_r << Omega_0
    (frozen-position approximation; ``_thermal_systems``).
    """
    return simulate_spectra([geom], atom, pulse, detunings, t2d, cfg)[0]


def simulate_spectra(geoms: Sequence[LatticeGeometry], atom: AtomConstants,
                     pulse: PulseSpec, detunings: np.ndarray,
                     t2d: float = 0.0,
                     cfg: SpectroscopyConfig = SpectroscopyConfig(),
                     ) -> list[SpectrumResult]:
    """``simulate_spectrum`` of each geometry, the thermal states of all of
    them in one stacked loop; each spectrum is the one it gives alone.
    No detunings raises ``ValueError``."""
    detunings = np.asarray(detunings, dtype=float)
    if detunings.size == 0:
        raise ValueError("detunings: empty, need at least one")
    if not geoms:
        return []
    groups = []
    for geom in geoms:
        up, down, dx = potentials_from_angle(geom)
        groups.append(_thermal_systems(
            up.contrast, down.contrast, down.total_depth, dx, t2d, atom,
            geom.lattice_wavelength, cfg))
    return [SpectrumResult(detunings=detunings, transfer=transfer)
            for transfer in _stacked_transfers(groups, pulse, detunings,
                                               cfg.dt)]


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
    optimizer's ``nfev``, ``njev`` and ``status``, ``chi2_dof``, the
    condition number ``cond_jtj`` of J^T J of the scaled problem and the
    estimated distance to the minimum ``edm`` at the end (``fit_spectrum``)."""

    params: dict[str, float]
    stderr: dict[str, float]
    cost: float
    success: bool
    message: str
    diagnostics: dict[str, float] = field(default_factory=dict)


# Relative finite-difference step of the fit's Jacobian (least_squares'
# ``diff_step``).  At the start of the benchmark's fit, against 3-point
# central differences at relative step 1e-4, the 2-point columns at 1e-4
# were off by 4.0e-4 (dx), 1.6e-2 (w_down), 4.0e-3 (du_tot) and 1.1e-2
# (t2d) of each column's largest entry; at 1e-6 by 4.4e-6, 1.6e-4, 3.9e-5
# and 1.0e-4, near the reference's own truncation error.
DIFF_STEP = 1e-6

# Estimated distance to the minimum below which the fit stops: every
# parameter is then within sqrt(2 FIT_EDM) = 1e-3 standard errors of it.
FIT_EDM = 5e-7

FIT_NAMES = ("dx", "w_down", "du_tot", "t2d")

# Least scale of each parameter of FIT_NAMES, in its own unit (d, E_R,
# E_R, K): a guess larger in magnitude scales to +-1, and a zero guess keeps
# scipy's finite fallback step, sqrt(eps) times the floor.
FIT_SCALE_FLOOR = np.array([1e-3, 1e-3, 1e-3, 1e-9])


def _fit_problem(detunings: np.ndarray, observed: np.ndarray,
                 sigma: np.ndarray, initial_guess: dict[str, float],
                 w_up: float, atom: AtomConstants, lattice_wavelength: float,
                 pulse: PulseSpec, cfg: SpectroscopyConfig):
    """(residuals, stacked, z0, lower, scale) of the scaled fit problem.

    The parameters are z = theta / scale, scale = max(|guess|,
    ``FIT_SCALE_FLOOR``).  ``stacked(fun, points)`` is the ``workers`` map
    of ``least_squares``: it ignores ``fun`` and returns
    ``[residuals(p) for p in points]``, with the thermal states of every
    point in one stacked Strang loop, so the perturbed points of scipy's
    '2-point' Jacobian run together.
    """
    x0 = np.array([initial_guess[k] for k in FIT_NAMES], dtype=float)
    scale = np.maximum(np.abs(x0), FIT_SCALE_FLOOR)
    lower = np.array([0.0, 1.0, -np.inf, 0.0]) / scale

    def states(z):
        dx, w_down, du_tot, t2d = z * scale
        return _thermal_systems(w_up, w_down, -w_up - du_tot, dx, t2d, atom,
                                lattice_wavelength, cfg)

    def stacked(_, points):
        models = _stacked_transfers([states(p) for p in points], pulse,
                                    detunings, cfg.dt)
        return [(model - observed) / sigma for model in models]

    def residuals(z):
        return stacked(None, [z])[0]

    return residuals, stacked, x0 / scale, lower, scale


def _edm(jac: np.ndarray, residuals: np.ndarray) -> float:
    """Estimated distance to the minimum, |J delta|^2 / 2 with delta the
    Gauss-Newton step lstsq(J, -residuals): the cost above the minimum of
    the linearized model (MINUIT's EDM; James and Roos, Comput. Phys.
    Commun. 10, 343 (1975))."""
    step = np.linalg.lstsq(jac, -residuals, rcond=None)[0]
    return 0.5 * float(np.sum((jac @ step) ** 2))


def fit_spectrum(detunings: np.ndarray, observed: np.ndarray,
                 sigma: np.ndarray, initial_guess: dict[str, float],
                 w_up: float, atom: AtomConstants, lattice_wavelength: float,
                 pulse: PulseSpec,
                 cfg: SpectroscopyConfig = SpectroscopyConfig(),
                 max_nfev: int = 200) -> FitResult:
    """Weighted least squares over {dx, w_down, du_tot, t2d}.

    ``dx`` in units of d, depths in E_R, ``t2d`` in kelvin.  The Jacobian is
    scipy's '2-point' rule at relative step ``DIFF_STEP``; its perturbed
    points go to the ``workers`` map of ``_fit_problem``, so a Jacobian
    costs one pass of the stacked loop rather than four objective calls.
    The sigma are absolute errors, so the covariance is inv(J^T J), widened
    by chi^2/dof when that exceeds 1 (the model fits worse than the errors
    allow) and never narrowed.

    It stops once the estimated distance to the minimum (``_edm``) at an
    iterate is below ``FIT_EDM``: with sigma_i the unwidened stderr, the
    Gauss-Newton step delta obeys |delta_i| <= sigma_i sqrt(2 EDM), so
    every parameter is within 1e-3 stderr of the minimum of the linearized
    model.  The EDM is that of the Jacobian scipy evaluated at the iterate,
    rebuilt from the last call of the ``workers`` map by scipy's own
    formula; an iterate whose last map call was not that Jacobian is not
    tested.  Near an active bound the unconstrained step overestimates the
    EDM, so the test errs toward running on; scipy's default tolerances
    (1e-8) stop the fit when it does not fire.  ``diagnostics["edm"]`` is
    the EDM of the returned point.
    """
    detunings = np.asarray(detunings, dtype=float)
    observed = np.asarray(observed, dtype=float)
    sigma = np.maximum(np.asarray(sigma, dtype=float), 1e-4)
    residuals, stacked, z0, lower, scale = _fit_problem(
        detunings, observed, sigma, initial_guess, w_up, atom,
        lattice_wavelength, pulse, cfg)
    last = []               # the points and residuals of the last map call

    def recorded(fun, points):
        points = list(points)
        last[:] = [np.array(points), stacked(fun, points)]
        return last[1]

    def edm_stop(intermediate_result):
        x, f = intermediate_result.x, intermediate_result.fun
        points, values = last
        if not np.array_equal(points != x, np.eye(x.size, dtype=bool)):
            return
        jac = (np.array(values) - f).T / (np.diag(points) - x)
        if _edm(jac, f) < FIT_EDM:
            raise StopIteration

    res = least_squares(residuals, z0, diff_step=DIFF_STEP, workers=recorded,
                        bounds=(lower, np.inf), max_nfev=max_nfev,
                        callback=edm_stop)
    theta = res.x * scale
    edm = _edm(res.jac, res.fun)
    # covariance from J^T J of the scaled problem (z = theta / scale), whose
    # conditioning the units do not distort; flag degeneracy instead of
    # crashing.  cov(theta) = diag(scale) cov(z) diag(scale).
    jtj = res.jac.T @ res.jac
    chi2_dof = 2 * float(res.cost) / max(1, detunings.size - 4)
    try:
        cov = np.linalg.inv(jtj) * max(1.0, chi2_dof)
        err = scale * np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        err = np.full(4, np.nan)
    cond = float(np.linalg.cond(jtj))
    message = (f"estimated distance to minimum {edm:.3g} is below FIT_EDM = "
               f"{FIT_EDM:g}" if res.status == -2 else res.message)
    message += " [degenerate Jacobian]" if cond > 1e12 else ""
    return FitResult(params=dict(zip(FIT_NAMES, theta)),
                     stderr=dict(zip(FIT_NAMES, err)),
                     cost=float(res.cost),
                     success=res.status > 0 or res.status == -2,
                     message=message,
                     diagnostics={"nfev": int(res.nfev), "njev": int(res.njev),
                                  "status": int(res.status),
                                  "chi2_dof": chi2_dof, "cond_jtj": cond,
                                  "edm": edm})
