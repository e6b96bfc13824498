"""Motional-state engineering sequences and population measurement.

A sequence is a list of microwave pulses (including adiabatic passage)
between the two spin manifolds, each applied at its own lattice shift.
Coherent-state preparation by repumping and the filter/push-out scheme
that measures the vibrational population distribution through cumulative
survival plateaus are closed forms.

The motional model is the harmonic ladder with displaced-oscillator
couplings D[n', n](eta_x).  A pulse is propagated by
``spectroscopy.propagate_detunings`` on the harmonic ``SidebandSystem`` of
its shift, the same propagator the spectra use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import roots_laguerre

from .franck_condon import fcf_harmonic_matrix
from .lattice import thermal_populations
from .spectroscopy import (PulseSpec, SidebandSystem, SpinMotionState,
                           _spin_block, binomial_sigma, propagate_detunings)

# Linear-chirp Landau-Zener sweep of ``prepare_fock``, adiabatic when the
# exponent pi (K * peak_rabi)^2 duration / (2 sweep) >> 1 for the sideband
# coupling K.
FOCK_CHIRP = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 8e3,
                       sweep=2 * math.pi * 50e3, duration=4e-3)

# Rabi frequency of the two rectangular pulses of ``superposition_sequence``.
SUPERPOSITION_RABI = 2 * math.pi * 10e3

# Largest drop between successive plateaus ``reconstruct_distribution``
# clips as noise instead of rejecting: ``NOISE_TOLERANCE``, or for sampled
# plateaus ``NOISE_SIGMAS`` binomial standard errors of the drop if larger.
NOISE_TOLERANCE = 0.05
NOISE_SIGMAS = 4.0

# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class MicrowavePulse:
    """Microwave pulse applied at the relative shift ``eta_x``, resonant
    with the transition ``target`` = (n_up, n_down)."""

    pulse: PulseSpec
    target: tuple[int, int]
    eta_x: float


@dataclass
class SequenceState:
    """Density matrix over {|up,n>, |down,n>}, n = 0..n_max."""

    rho: np.ndarray
    n_max: int

    @classmethod
    def pure(cls, n_max: int, spin: str, n: int) -> "SequenceState":
        amp = SpinMotionState.basis(n_max, spin, n).amplitudes
        return cls(np.outer(amp, amp.conj()), n_max)

    def populations(self, spin: str) -> np.ndarray:
        return np.real(np.diag(self.rho))[_spin_block(spin, self.n_max)]

    def fidelity(self, spin: str, n: int) -> float:
        return float(self.populations(spin)[n])


@dataclass(frozen=True)
class HarmonicModel:
    """Harmonic-ladder engineering model: equal trap frequencies for both
    spins and displaced-oscillator couplings."""

    omega_vib: float       # rad/s
    n_max: int = 15
    dt: float | None = None

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def coupling(self, eta_x: float) -> np.ndarray:
        """K[n_down, n_up] at the given shift."""
        return np.real(fcf_harmonic_matrix(complex(eta_x, 0.0), self.n_max))

    def system(self, eta_x: float) -> SidebandSystem:
        """Sideband system at the given shift: energies n * omega_vib for
        both spins (the carrier at zero detuning) and couplings K(eta_x)."""
        energy = np.arange(self.n_max + 1, dtype=float) * self.omega_vib
        return SidebandSystem(energy_up=energy, energy_down=energy,
                              fc_matrix=self.coupling(eta_x))


def pulse_unitary(model: HarmonicModel, pulse: PulseSpec,
                  eta_x: float) -> np.ndarray:
    """Unitary of one pulse in the rotating frame at omega_MW.

    Propagates the identity, as a batch of row states, through
    ``spectroscopy.propagate_detunings`` at ``pulse.detuning`` with step
    ``model.dt`` (None: one exponential for a rectangular pulse, else the
    exponential midpoint at a tolerance); the propagated rows form the
    transpose of the unitary.  Time-dependent detuning (chirp) supported.
    """
    system = model.system(eta_x)
    identity = SpinMotionState(np.eye(system.dim, dtype=complex))
    return propagate_detunings(system, pulse, identity, [pulse.detuning],
                               dt=model.dt).T


def _resonant(model: HarmonicModel, pulse: PulseSpec,
              target: tuple[int, int]) -> PulseSpec:
    """``pulse`` resonant with target = (n_up, n_down): detuning
    (n_up - n_down) omega_vib.  A level outside 0..n_max raises."""
    n_up, n_down = target
    if not (0 <= n_up <= model.n_max and 0 <= n_down <= model.n_max):
        raise ValueError(f"pulse target {target} outside the "
                         f"levels 0..{model.n_max}")
    # float for float energy[n_up] - energy[n_down] of model.system
    return replace(pulse, detuning=n_up * model.omega_vib
                   - n_down * model.omega_vib)


def run_sequence(initial: SequenceState, pulses: list[MicrowavePulse],
                 model: HarmonicModel) -> SequenceState:
    """Apply the pulses in order, rho -> U rho U^dagger; returns the final
    state.

    Each pulse is set resonant with its target (n_up, n_down), detuning
    (n_up - n_down) omega_vib, and ``pulse_unitary`` propagates it on the
    coupling table of its own shift.  The lattice moves between pulses
    are instantaneous, so they leave the vibrational populations as they
    are.
    """
    rho = initial.rho.copy()
    for step in pulses:
        u = pulse_unitary(model, _resonant(model, step.pulse, step.target),
                          step.eta_x)
        rho = u @ rho @ u.conj().T
    return SequenceState(rho, initial.n_max)


# ---------------------------------------------------------------------------
# canned preparations


def coupling_maximizing_shift(model: HarmonicModel, n_up: int,
                              n_down: int) -> float:
    """Shift eta_x maximizing |K[n_down, n_up]|.

    From |up,0> the coupling e^{-eta^2/2} eta^m / sqrt(m!) peaks at
    eta = sqrt(m) exactly; only n_up = 0 is supported.
    """
    if n_up != 0:
        raise ValueError(f"coupling_maximizing_shift supports n_up = 0 only, "
                         f"got n_up = {n_up}")
    return math.sqrt(n_down)


def zero_coupling_shift(model: HarmonicModel, n: int) -> float:
    """Smallest positive shift where the diagonal coupling K[n, n] vanishes.

    K[n, n] = e^{-eta^2/2} L_n(eta^2), so the shift is the square root of
    the smallest zero of the Laguerre polynomial L_n (the smallest
    Gauss-Laguerre node).  For n = 2 this makes the carrier blind to the
    |down,2> component.
    """
    if n < 1:
        raise ValueError(f"K[{n},{n}] has no zero crossing")
    return math.sqrt(roots_laguerre(n)[0].min())


def prepare_fock(model: HarmonicModel, m: int) -> tuple[SequenceState, float]:
    """|up,0> -> |down,m> by adiabatic passage (``FOCK_CHIRP``) on the m-th
    sideband at the coupling-maximizing shift sqrt(m), where the coupling
    is never zero.  Returns (final state, fidelity).

    The one-pulse ``run_sequence`` from |up,0>, without its unitary: only
    |up,0> is propagated (``propagate_detunings`` at the same detuning and
    ``model.dt``) and rho = |psi><psi|.  An m outside 0..n_max raises
    ``ValueError``.
    """
    pulse = _resonant(model, FOCK_CHIRP, (0, m))
    psi = propagate_detunings(
        model.system(coupling_maximizing_shift(model, 0, m)), pulse,
        SpinMotionState.basis(model.n_max, "up", 0), [pulse.detuning],
        dt=model.dt)[0]
    # rho = |psi><psi| by run_sequence's last GEMM, U rho U^dagger with U
    # reduced to its |up,0> column (the rest does not enter), so the
    # populations keep their bits; np.outer rounds some differently.
    column = np.zeros((psi.size, psi.size), dtype=complex)
    column[:, 0] = psi
    state = SequenceState(column @ column.conj().T, model.n_max)
    return state, state.fidelity("down", m)


def superposition_sequence(model: HarmonicModel,
                           area: float) -> SequenceState:
    """Two-pulse sequence creating cos|down,0> + sin|down,2> populations.

    First pulse (area*pi on |up,0> -> |down,2> at the coupling-maximizing
    shift) splits the population; the lattice then moves to the K[2,2] = 0
    point so the closing carrier pi-pulse transfers the |up,0> remainder to
    |down,0> without touching the |down,2> component.  Both pulses are
    rectangular at ``SUPERPOSITION_RABI``.
    """
    if model.n_max < 2:
        raise ValueError(f"superposition needs n_max >= 2, got {model.n_max}")
    eta1 = coupling_maximizing_shift(model, 0, 2)
    k1 = abs(model.coupling(eta1)[2, 0])
    t1 = area * math.pi / (SUPERPOSITION_RABI * k1)
    pulse1 = PulseSpec("rectangular", peak_rabi=SUPERPOSITION_RABI,
                       duration=t1)

    eta2 = zero_coupling_shift(model, 2)
    k2 = abs(model.coupling(eta2)[0, 0])
    t2 = math.pi / (SUPERPOSITION_RABI * k2)
    pulse2 = PulseSpec("rectangular", peak_rabi=SUPERPOSITION_RABI,
                       duration=t2)

    pulses = [MicrowavePulse(pulse1, (0, 2), eta1),
              MicrowavePulse(pulse2, (0, 0), eta2)]
    return run_sequence(SequenceState.pure(model.n_max, "up", 0), pulses,
                        model)


def prepare_coherent(model: HarmonicModel, eta_x: float,
                     exact_table: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Repump |down,0> while the lattice is displaced by eta_x.

    Returns (populations over n in up, expected Poisson distribution).
    With ``exact_table`` (an FC matrix I[n_up, n_down=0] from the exact
    Wannier solver) the projection uses it instead of the harmonic kernel.
    """
    if exact_table is not None:
        amps = np.asarray(exact_table, dtype=float)[:, 0]
    else:
        amps = model.coupling(eta_x)[:, 0]
    pops = amps ** 2
    pops = pops / pops.sum()
    n = np.arange(model.n_max + 1)
    expected = np.exp(-eta_x ** 2) * eta_x ** (2 * n) / \
        np.array([math.factorial(int(i)) for i in n])
    return pops, expected


# ---------------------------------------------------------------------------
# filtering measurement


@dataclass(frozen=True)
class PopulationDistribution:
    """Vibrational populations p_m and the cumulative F_n = sum_{m<n} p_m."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if (p < -1e-12).any():
            raise ValueError("populations must be nonnegative")
        if p.sum() > 1.0 + 1e-9:
            raise ValueError("populations must sum to at most 1")
        object.__setattr__(self, "p", p)

    @classmethod
    def thermal(cls, n_bar: float, n_max: int) -> "PopulationDistribution":
        """``lattice.thermal_populations`` at ratio n_bar / (n_bar + 1);
        n_bar 0 gives the ground state, a negative n_bar raises
        ``ValueError``."""
        if not n_bar >= 0:
            raise ValueError(f"n_bar must be >= 0, got {n_bar}")
        return cls(thermal_populations(n_bar / (n_bar + 1.0), n_max))

    def cumulative(self, n: int) -> float:
        """F_n = probability of occupying a level below n."""
        return float(self.p[:n].sum())


def effective_efficiency(f: float, repetitions: int) -> float:
    """Transfer efficiency of ``repetitions`` filter passes:
    f' = 1 - (1 - f)^N."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("f must be in [0, 1]")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return 1.0 - (1.0 - f) ** repetitions


def filter_survival(dist: PopulationDistribution, n: int, f: float,
                    repetitions: int = 1, loss_per_pass: float = 1.0) -> float:
    """Survival probability after filtering out levels >= n.

    Levels below n are untouched (survive); levels >= n are transferred and
    pushed out with probability f' = 1-(1-f)^N.  ``loss_per_pass``, the
    survival of one repetition's off-resonant losses, must lie in (0, 1].
    """
    if not 0.0 < loss_per_pass <= 1.0:
        raise ValueError(f"need 0 < loss_per_pass <= 1, got {loss_per_pass}")
    f_prime = effective_efficiency(f, repetitions)
    fn = dist.cumulative(n)
    return (fn + (1.0 - f_prime) * (1.0 - fn)) * loss_per_pass ** repetitions


def reconstruct_distribution(plateaus: np.ndarray, f: float = 1.0,
                             repetitions: int = 1,
                             ceiling: float | None = None,
                             atoms: int = 0) -> PopulationDistribution:
    """Invert plateau survivals S_n (n = 0 .. n_max+1) back to populations.

    S_n = ceiling * (F_n + (1-f')(1-F_n)); p_n = F_{n+1} - F_n.  A ceiling
    below 1 (off-resonant loss) is divided out; if not given it is taken
    from the last plateau (where F = 1).  Negative differences beyond
    ``NOISE_TOLERANCE`` raise; smaller ones are clipped with a warning.
    Plateaus sampled from ``atoms`` atoms each (0: exact) widen the bound
    of each difference to ``NOISE_SIGMAS`` binomial standard errors of
    S_{n+1} - S_n (``spectroscopy.binomial_sigma``), over ceiling * f',
    where that is larger.
    """
    s = np.asarray(plateaus, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need plateaus for at least n = 0 and n = 1")
    f_prime = effective_efficiency(f, repetitions)
    if f_prime <= 0:
        raise ValueError("filter with zero efficiency cannot be inverted")
    if ceiling is None:
        ceiling = float(s[-1])
    if ceiling <= 0:
        raise ValueError("ceiling must be positive")
    fn = (s / ceiling - (1.0 - f_prime)) / f_prime
    diffs = np.diff(fn)
    bound = NOISE_TOLERANCE
    if atoms > 0:
        var = binomial_sigma(s * atoms, atoms) ** 2
        bound = np.maximum(bound, NOISE_SIGMAS * np.sqrt(var[1:] + var[:-1])
                           / (ceiling * f_prime))
    if (diffs < -bound).any():
        raise ValueError("plateaus decrease with n beyond the noise tolerance")
    if (diffs < 0).any():
        warnings.warn("clipping small negative population estimates",
                      stacklevel=2)
    p = np.clip(diffs, 0.0, None)
    total = p.sum()
    if total > 1.0:
        p = p / total
    return PopulationDistribution(p)
