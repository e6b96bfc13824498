"""Lindblad model of microwave sideband cooling with three internal states.

The cooling cycle couples |up,n> -> |down,n-1> with a microwave resonant on
that first sideband while optical pumping recycles |down> and the auxiliary
state |a> back to |up>; photon momentum kicks and the spatial shift between
the spin potentials feed heating back in.  The optically excited state is
adiabatically eliminated, leaving jump operators |s,n><s',n'| with effective
rates combining branching ratios, pump rates and displaced-state overlaps.

Internally the generator is expressed in units of the vibrational frequency
(time in 1/omega_vib), which keeps its entries O(1); public inputs stay in
SI rates.  Basis index: spin * (n_max+1) + n with spins ordered (up, down,
aux).  The generator acts on the row-major vec(rho) and is held as a
``scipy.sparse`` CSR matrix: of its dim^4 entries only O(dim^3) are nonzero.
Every jump feeds a population and the coupling stays inside the up/down
block, so the generator splits into invariant blocks; ``evolve`` propagates
only those the initial state touches, each as a real matrix.  For the same
reason the generator is L(rho) = -i (H_eff rho - rho H_eff+) + diag(J diag
rho), and ``steady_state`` solves for the dim populations instead of
factorizing the dim^2 x dim^2 generator, unless H_eff has a mode damped
below ``DAMPING_FLOOR`` times its fastest; then the sparse LU of the full
generator answers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply, splu

from .lattice import HBAR, KB, thermal_populations
from .franck_condon import fcf_harmonic_matrix

SPIN_UP, SPIN_DOWN, SPIN_AUX = 0, 1, 2

# Branching ratios of the optically excited state into (up, down, aux),
# from angular-momentum coupling of its spontaneous decay channels.
DEFAULT_BRANCHING = (7.0 / 15.0, 5.0 / 12.0, 7.0 / 60.0)

# Gauss-Legendre nodes of the emission-direction average.
EMISSION_NODES = 16

# Largest state space (3 (n_max+1)) the dense SVD fallback for a degenerate
# kernel accepts: its generator is dim^2 x dim^2 and the SVD is O(dim^6).
SVD_DIM_LIMIT = 120

# Smallest ratio of the slowest to the fastest damping rate of H_eff at
# which ``steady_state`` reduces to the populations; below it the sparse LU
# of the full generator answers.  On the cooling-map grids the ratio is
# 1.4e-5 or more, and just above 1e-6 the two paths agree to 3e-9.  A 1 Hz
# coupling leaves 1.7e-11, where they differ by up to 7e-6 and can disagree
# on the degeneracy flag; no coupling or an unpumped spin leaves 0.
DAMPING_FLOOR = 1e-6

# Largest invariant group of vec(rho) entries that ``evolve`` diagonalizes
# densely (O(size^3), size independent of the duration); a larger group goes
# to expm_multiply.  n_max = 20 gives a group of 1785.
DENSE_EIG_LIMIT = 2000


@dataclass(frozen=True)
class CoolingParams:
    """Inputs of the sideband-cooling master equation.

    Rates in 1/s, frequencies in rad/s.  ``eta_x`` is the spatial and
    ``eta_k`` the momentum Lamb-Dicke parameter.  Decay out of the excited
    state branches as ``DEFAULT_BRANCHING``, and the auxiliary potential
    sits on the up-potential site (so down <-> aux transfers see the full
    shift).
    """

    omega_0: float                   # bare microwave Rabi frequency, rad/s
    omega_vib: float                 # vibrational frequency, rad/s
    eta_x: float
    eta_k: float
    r_down: float                    # repump rate out of |down>, 1/s
    r_aux: float                     # pump rate out of |aux>, 1/s
    r_up: float = 0.0                # lattice scattering rate in |up>, 1/s
    n_max: int = 15

    def __post_init__(self):
        if min(self.r_down, self.r_aux, self.r_up) < 0:
            raise ValueError("rates must be >= 0")
        if self.omega_0 < 0 or self.omega_vib <= 0:
            raise ValueError("omega_0 >= 0 and omega_vib > 0 required")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 3 * self.levels


@dataclass(frozen=True)
class JumpChannel:
    """All |source,n'> -> |target,n> jumps of one optical process.

    ``rates[n, n']`` in 1/s; each (n, n') pair is a separate Lindblad
    operator |target,n><source,n'|.
    """

    source_spin: int
    target_spin: int
    rates: np.ndarray


@dataclass
class DensityMatrix:
    """Density matrix over |s, n> with validation helpers."""

    matrix: np.ndarray
    n_max: int

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def populations(self, spin: int) -> np.ndarray:
        m = self.n_max + 1
        return np.real(np.diag(self.matrix))[spin * m:(spin + 1) * m]

    def motional_distribution(self) -> np.ndarray:
        """Population per n, summed over internal states."""
        return (self.populations(SPIN_UP) + self.populations(SPIN_DOWN)
                + self.populations(SPIN_AUX))

    def p_ground(self) -> float:
        return float(self.motional_distribution()[0])

    def mean_n(self) -> float:
        dist = self.motional_distribution()
        return float(np.arange(dist.size) @ dist / dist.sum())

    def validate(self, tol: float = 1e-8) -> None:
        if abs(self.trace() - 1.0) > tol:
            raise ValueError(f"trace {self.trace()} differs from 1")
        if np.abs(self.matrix - self.matrix.conj().T).max() > tol:
            raise ValueError("density matrix not Hermitian")
        if np.linalg.eigvalsh(self.matrix).min() < -tol:
            raise ValueError("density matrix not positive semidefinite")


def emission_average_overlap_sq(eta_x: float, eta_k: float,
                                n_max: int) -> np.ndarray:
    """<|M[n, n']|^2> averaged over the spontaneous-photon direction.

    M = <n| T_{dk} T_{dx} |n'> in the harmonic basis with total momentum
    transfer dk x_0 = eta_k (1 + u), u = cos(angle to the lattice axis)
    uniform on [-1, 1] (isotropic emission).  Gauss-Legendre quadrature
    on ``EMISSION_NODES`` nodes.
    """
    u, w = np.polynomial.legendre.leggauss(EMISSION_NODES)
    w = w / w.sum()
    out = np.zeros((n_max + 1, n_max + 1))
    for ui, wi in zip(u, w):
        m = fcf_harmonic_matrix(complex(eta_x, eta_k * (1.0 + ui)), n_max)
        out += wi * np.abs(m) ** 2
    return out


def decay_rates(params: CoolingParams) -> list[JumpChannel]:
    """Jump channels of the three optical processes.

    Repumping out of |down> and |aux> branches into all three spins;
    lattice scattering in |up> is elastic.  The displacement entering M is
    the shift between source and target potentials (eta_x or 0) plus the
    direction-averaged photon recoil, so at most two distinct kernels are
    computed.
    """
    n_max = params.n_max
    kernels: dict[float, np.ndarray] = {}

    def site(spin: int) -> int:
        return SPIN_UP if spin == SPIN_AUX else spin

    def overlap(src: int, dst: int) -> np.ndarray:
        dx = params.eta_x if site(src) != site(dst) else 0.0
        if dx not in kernels:
            kernels[dx] = emission_average_overlap_sq(dx, params.eta_k, n_max)
        return kernels[dx]

    channels = []
    pump = {SPIN_DOWN: params.r_down, SPIN_AUX: params.r_aux}
    for src, rate in pump.items():
        if rate == 0.0:
            continue
        for dst, alpha in zip((SPIN_UP, SPIN_DOWN, SPIN_AUX),
                              DEFAULT_BRANCHING):
            channels.append(JumpChannel(src, dst,
                                        alpha * rate * overlap(src, dst)))
    if params.r_up > 0.0:
        channels.append(JumpChannel(SPIN_UP, SPIN_UP,
                                    params.r_up * overlap(SPIN_UP, SPIN_UP)))
    return channels


def effective_terms(params: CoolingParams) -> tuple[np.ndarray, ...]:
    """One ``decay_rates`` call as dense pieces, in omega_vib units.

    Returns (energy, hop, decay, feed): the rotating-frame bare energies,
    the microwave Hamiltonian per unit omega_0 (rad/s), the decay rate
    Gamma_i of each state and the population feed J[dst, src].  The
    generator is then L(rho) = -i (H_eff rho - rho H_eff+) + diag(J diag
    rho) with H_eff = diag(energy) + omega_0 hop - i diag(decay) / 2.
    None of them depends on omega_0, so a cooling-map row builds them once
    for all its cells.
    """
    m, dim = params.levels, params.dim
    decay = np.zeros(dim)
    feed = np.zeros((dim, dim))
    for ch in decay_rates(params):
        g = ch.rates / params.omega_vib
        src = slice(ch.source_spin * m, (ch.source_spin + 1) * m)
        feed[ch.target_spin * m:(ch.target_spin + 1) * m, src] += g
        decay[src] += g.sum(axis=0)
    # Rotating frame, resonant with |up,1> -> |down,0>: the up ladder sits
    # one quantum below the down ladder; aux is uncoupled.
    n = np.arange(m, dtype=float)
    energy = np.concatenate([n - 1.0, n, n])
    # H per unit omega_0: -K/2 between |up,n> and |down,n'>, with
    # K[n', n] = <n'| T_{eta_x} |n> in omega_vib units
    hop = np.zeros((dim, dim))
    hop[m:2 * m, :m] = -0.5 / params.omega_vib * np.real(
        fcf_harmonic_matrix(complex(params.eta_x, 0.0), params.n_max))
    hop[:m, m:2 * m] = hop[m:2 * m, :m].T
    return energy, hop, decay, feed


def _generator_terms(params: CoolingParams, terms: tuple[np.ndarray, ...]
                     ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The generator split as L = fixed + omega_0 * coupling.

    ``fixed`` holds the bare-energy commutator and the dissipator,
    ``coupling`` the commutator with the microwave coupling per unit
    omega_0 (rad/s); both come from the ``effective_terms``.
    """
    energy, hop, decay, feed = terms
    dim = params.dim
    pop = np.arange(dim) * (dim + 1)     # vec(rho) index of rho[i, i]
    # L rho L+ term: the population of |src,n'> feeds that of |dst,n>
    dst, src = np.nonzero(feed)
    # -i [H_0, rho] and the anticommutator -{L+L, rho}/2 are diagonal on
    # vec(rho): entry (i, j) gets -i (e_i - e_j) - (d_i + d_j) / 2
    diag = (-1j * (energy[:, None] - energy[None, :])
            - 0.5 * (decay[:, None] + decay[None, :])).ravel()
    every = np.arange(dim * dim)
    fixed = sp.csr_matrix((np.concatenate([diag, feed[dst, src]]),
                           (np.concatenate([every, pop[dst]]),
                            np.concatenate([every, pop[src]]))),
                          shape=(dim * dim, dim * dim))
    v = sp.csr_matrix(hop)
    eye = sp.identity(dim, format="csr")
    coupling = (-1j * (sp.kron(v, eye) - sp.kron(eye, v.T))).tocsr()
    return fixed, coupling


def build_liouvillian(params: CoolingParams,
                      terms: tuple[np.ndarray, ...] | None = None
                      ) -> sp.csr_matrix:
    """Generator acting on the row-major vec(rho), in omega_vib units.

    drho/dt = -i [H, rho] + sum_j gamma_j (L rho L+ - {L+L, rho}/2) with
    elementary jump operators L = |dst,n><src,n'|.  Assembled directly as a
    sparse CSR matrix: the bare energies and the anticommutator fill the
    diagonal, each jump one population-to-population entry, and the
    microwave coupling -i (V x 1 - 1 x V^T) a sparse Kronecker product.
    Columns sum to zero (trace annihilation) by construction.  No size cap:
    memory grows as the number of nonzeros, O(dim^3).  ``terms`` are the
    ``effective_terms`` of ``params``, if already built.
    """
    if terms is None:
        terms = effective_terms(params)
    fixed, coupling = _generator_terms(params, terms)
    return fixed + params.omega_0 * coupling


@dataclass
class SteadyStateResult:
    rho: DensityMatrix
    residual: float
    degenerate: bool
    path: str       # "populations", "sparse_lu" or "dense_svd"


def steady_state(params: CoolingParams, lio: sp.spmatrix | None = None,
                 check_degenerate: bool = True,
                 terms: tuple[np.ndarray, ...] | None = None
                 ) -> SteadyStateResult:
    """Kernel of the Liouvillian, normalized to unit trace.

    Every jump moves population to population, so when every mode of
    H_eff = H - i Gamma / 2 is damped the kernel is fixed by the dim
    populations (``_population_kernel``; Dalibard, Castin & Moelmer,
    PRL 68, 580 (1992); Reiter & Soerensen, PRA 85, 032111 (2012)), and
    ``path`` is "populations".  When the slowest damping rate of H_eff is
    below ``DAMPING_FLOOR`` times the fastest, or the reduced system is
    singular or flags a degenerate kernel, the full generator answers
    (``path`` "sparse_lu"): one row of L vec(rho) = 0 is replaced by the
    trace constraint and factorized with SuperLU (``splu``), the direct
    sparse steady-state solve of QuTiP; it is also the reference the
    reduction is tested against.  If even that system is singular, the
    kernel has dimension > 1 and a unit-trace element of it comes from a
    dense SVD (``path`` "dense_svd"), which refuses state spaces above
    ``SVD_DIM_LIMIT``.

    On both solve paths a second solve with a different replaced row
    cross-checks that the kernel is one-dimensional (``degenerate`` when
    the two differ by more than 1e-6); ``check_degenerate=False`` skips
    it.  ``lio`` is the generator and ``terms`` the ``effective_terms`` of
    ``params``, if already built.  ``residual`` is ||L vec(rho)|| of the
    returned state on the sparse generator, whichever path ran.
    """
    if terms is None:
        terms = effective_terms(params)
    if lio is None:
        lio = build_liouvillian(params, terms)
    rho = _population_kernel(params, terms, check_degenerate)
    if rho is not None:
        degenerate, path = False, "populations"
    else:
        rho, degenerate, path = _lu_kernel(lio, params.dim, check_degenerate)
    residual = float(np.linalg.norm(lio @ rho.reshape(-1)))
    return SteadyStateResult(DensityMatrix(rho, params.n_max), residual,
                             degenerate, path)


def _unit_trace(rho: np.ndarray) -> np.ndarray | None:
    """Hermitian part of rho at unit trace; None if not finite or of trace
    below 1e-12."""
    if not np.all(np.isfinite(rho)):
        return None
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-12:
        return None
    return rho / tr


def _population_kernel(params: CoolingParams, terms: tuple[np.ndarray, ...],
                       check_degenerate: bool) -> np.ndarray | None:
    """Steady state from the dim x dim population system, or None when
    H_eff has a mode damped below ``DAMPING_FLOOR`` times the fastest, the
    system is singular, or the kernel is degenerate.

    L(rho) = S(rho) + diag(J p), p = diag rho, with S(rho) = -i (H_eff rho
    - rho H_eff+).  S is invertible when every mode is damped, so
    rho = -S^-1(diag J p) and (1 + M J) p = 0 with M[:, k] =
    diag S^-1(|k><k|).  With H_eff = V diag(lambda) W, W = V^-1, S acts on
    X = W rho W+ as X_jl -> G_jl X_jl, G_jl = -i (lambda_j - lambda_l*),
    so M[i, k] = sum_jl V_ij V*_il W_jk W*_lk / G_jl: one GEMM of a
    dim x dim^2 by a dim^2 x dim matrix.  Since tr S(rho) = -Gamma . diag
    rho and the columns of J sum to Gamma, Gamma^T (1 + M J) = 0: the row
    of any state with Gamma > 0 is redundant, and the trace row takes its
    place.  The row of the fastest-decaying state is replaced, and that of
    the second fastest in the degeneracy check.
    """
    energy, hop, decay, feed = terms
    dim = params.dim
    lam, vecs = np.linalg.eig(np.diag(energy - 0.5j * decay)
                              + params.omega_0 * hop)
    damping = -2.0 * lam.imag
    if not damping.min() > DAMPING_FLOOR * damping.max():
        return None
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            return None
        g = -1j * (lam[:, None] - lam.conj()[None, :])
        left = (vecs[:, :, None] * vecs.conj()[:, None, :]).reshape(dim, -1)
        right = (inv[:, None, :] * inv.conj()[None, :, :]
                 / g[:, :, None]).reshape(-1, dim)
        system = np.eye(dim) + (left @ right).real @ feed

    def solve(row: int) -> np.ndarray | None:
        a = system.copy()
        a[row] = 1.0
        with np.errstate(all="ignore"):
            try:
                pop = np.linalg.solve(a, np.eye(dim)[row])
            except np.linalg.LinAlgError:
                return None
            q = feed @ pop
            rho = -(vecs @ ((inv * q) @ inv.conj().T / g) @ vecs.conj().T)
        return _unit_trace(rho)

    fastest = np.argsort(-decay, kind="stable")
    rho = solve(fastest[0])
    if rho is None:
        return None
    if check_degenerate:
        rho2 = solve(fastest[1])
        if rho2 is None or np.abs(rho - rho2).max() > 1e-6:
            return None
    return rho


def _lu_kernel(lio: sp.spmatrix, dim: int, check_degenerate: bool
               ) -> tuple[np.ndarray, bool, str]:
    """Steady state by sparse LU of the generator with a trace row, or by
    the dense SVD when that system is singular; see ``steady_state``."""
    coo = lio.tocoo()
    trace_cols = np.arange(dim) * (dim + 1)

    def solve(row: int) -> np.ndarray | None:
        keep = coo.row != row
        a = sp.csc_matrix((np.concatenate([coo.data[keep], np.ones(dim)]),
                           (np.concatenate([coo.row[keep], np.full(dim, row)]),
                            np.concatenate([coo.col[keep], trace_cols]))),
                          shape=coo.shape)
        b = np.zeros(dim * dim, dtype=complex)
        b[row] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                try:
                    # minimum degree on A^T + A: the pattern is nearly
                    # symmetric, and this ordering fills less than COLAMD
                    x = splu(a, permc_spec="MMD_AT_PLUS_A").solve(b)
                except RuntimeError:    # SuperLU: factor is exactly singular
                    return None
        return _unit_trace(x.reshape(dim, dim))

    rho = solve(0)
    # Singular even with the trace constraint: kernel has dimension > 1.
    if rho is None:
        return _kernel_state_svd(lio, dim), True, "dense_svd"
    degenerate = False
    if check_degenerate:
        rho2 = solve(dim * dim - 1)
        degenerate = rho2 is None or bool(np.abs(rho - rho2).max() > 1e-6)
    return rho, degenerate, "sparse_lu"


def _kernel_state_svd(lio: sp.spmatrix, dim: int) -> np.ndarray:
    """Steady state reached from the maximally mixed state, for a degenerate
    kernel (fallback path).

    The left and right null vectors of the dense generator's SVD give the
    spectral projector onto the kernel; zero is a semisimple eigenvalue of a
    Lindblad generator, so the projector is the long-time average of the
    evolution and maps I/dim to a density matrix, not merely to some
    unit-trace kernel element.
    """
    if dim > SVD_DIM_LIMIT:
        raise ValueError(
            f"degenerate kernel at state space {dim}: the dense SVD fallback "
            f"takes at most {SVD_DIM_LIMIT} states (generator {dim * dim} x "
            f"{dim * dim})")
    u, s, vh = np.linalg.svd(lio.toarray())
    null = s < max(1e-10 * s[0], 1e-12)
    right, left_h = vh[null].conj().T, u[:, null].conj().T
    mixed = np.eye(dim).reshape(-1) / dim
    rho = right @ np.linalg.solve(left_h @ right, left_h @ mixed)
    rho = rho.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-9:
        raise RuntimeError("no unit-trace state found in the Liouvillian kernel")
    return rho / tr


def _hermitian_basis(dim: int) -> sp.csr_matrix:
    """Unitary map from real coordinates to the row-major vec(rho).

    Column k = (i, j) of the result is vec of E_ii if i == j,
    (E_ij + E_ji)/sqrt(2) if i < j and i (E_ji - E_ij)/sqrt(2) if i > j:
    an orthonormal basis of Hermitian operators in which a Hermitian rho
    has real coordinates and a Hermiticity-preserving generator is real.
    Coordinate k sits on the same index as vec entry k.
    """
    k = np.arange(dim * dim)
    i, j = np.divmod(k, dim)
    diag, upper, lower = i == j, i < j, i > j
    mirror = j * dim + i                 # vec index of (j, i)
    s = 1.0 / math.sqrt(2.0)
    rows = np.concatenate([k[diag], k[upper], mirror[upper],
                           mirror[lower], k[lower]])
    cols = np.concatenate([k[diag], k[upper], k[upper], k[lower], k[lower]])
    n_off = int(upper.sum())
    vals = np.concatenate([np.ones(dim), np.full(2 * n_off, s),
                           np.full(n_off, 1j * s), np.full(n_off, -1j * s)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))


def evolve(params: CoolingParams, rho0: np.ndarray, duration: float,
           lio: sp.spmatrix | None = None) -> DensityMatrix:
    """Propagate rho0 for ``duration`` seconds under the master equation.

    Every jump feeds a population and the microwave coupling stays inside
    the up/down block, so the generator splits into invariant groups of
    vec(rho) entries: the connected components of |L| joined with the
    pairing of (i, j) with (j, i), so that each group is closed under the
    adjoint.  Only the groups that rho0 touches are propagated, each as a
    real matrix in the basis of ``_hermitian_basis``.  A thermal start
    touches one group, the (2 levels)^2 up/down block and the aux
    populations: 495 x 495 at n_max = 10 instead of the 1089 x 1089
    complex generator.

    A group up to ``DENSE_EIG_LIMIT`` entries is diagonalized with a real
    ``np.linalg.eig`` once, so the cost does not grow with ``duration``:
    about 0.2 s at n_max = 10 and 6 s at n_max = 20 (group 1785), one
    BLAS thread.  A larger group goes to ``expm_multiply`` on its sparse
    sub-block, whose cost grows with ||L t||_1 (about 8.4e6 for 1 s at
    n_max = 10).  The accuracy floor is the dense eig's, about 1e-9 on the
    1 s transient at n_max = 10.

    Raises ``ValueError`` for a rho0 that is not (dim, dim) or a negative
    or non-finite duration, and ``RuntimeError`` if the generator is not
    real in the Hermitian basis or the result is non-finite or has lost
    more than 1e-8 of its trace.
    """
    dim = params.dim
    rho0 = np.asarray(rho0)
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 has shape {rho0.shape}, expected "
                         f"({dim}, {dim}) for n_max {params.n_max}")
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    if lio is None:
        lio = build_liouvillian(params)
    t = duration * params.omega_vib
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    basis = _hermitian_basis(dim)
    gen = (basis.conj().T @ lio @ basis).tocsr()
    if np.abs(gen.data.imag).max() > 1e-12 * np.abs(gen.data).max():
        raise RuntimeError("generator is not real on Hermitian operators")
    gen = gen.real
    c0 = (basis.conj().T @ rho0.reshape(-1)).real

    _, label = connected_components(abs(lio) + abs(basis), directed=False)
    c = np.zeros(dim * dim)
    for g in np.unique(label[c0 != 0.0]):
        idx = np.flatnonzero(label == g)
        block = gen[idx][:, idx]
        if idx.size > DENSE_EIG_LIMIT:
            c[idx] = expm_multiply(block * t, c0[idx])
        else:
            w, v = np.linalg.eig(block.toarray())
            c[idx] = (v @ (np.exp(w * t) * np.linalg.solve(v, c0[idx]))).real
    rho = (basis @ c).reshape(dim, dim)     # Hermitian: c is real
    if not np.all(np.isfinite(rho)):
        raise RuntimeError("evolved state is not finite")
    drift = abs(np.trace(rho).real - np.trace(rho0).real)
    if drift > 1e-8:
        raise RuntimeError(f"evolution changed the trace by {drift:.3g}")
    return DensityMatrix(rho, params.n_max)


def thermal_state(params: CoolingParams, n_bar: float) -> np.ndarray:
    """Density matrix of ``thermal_populations`` at ratio n_bar / (n_bar + 1)
    in the up spin; n_bar 0 gives the motional ground state, a negative
    n_bar raises ``ValueError``."""
    if not n_bar >= 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    ratio = n_bar / (n_bar + 1.0)
    rho = np.zeros((params.dim, params.dim), dtype=complex)
    idx = SPIN_UP * params.levels + np.arange(params.levels)
    rho[idx, idx] = thermal_populations(ratio, params.n_max)
    return rho


@dataclass
class CoolingMap:
    """Steady-state ground population over an (eta_x, omega_0) grid."""

    eta_x: np.ndarray
    omega_0: np.ndarray          # rad/s
    p_ground: np.ndarray         # (len(eta_x), len(omega_0))
    failures: list[tuple[int, int, str]] = field(default_factory=list)


def cooling_map(base: CoolingParams, eta_x_grid: np.ndarray,
                omega_0_grid: np.ndarray) -> CoolingMap:
    """Steady-state ground population for every (eta_x, omega_0) cell.

    A cell takes one ``steady_state`` solve: the second,
    degeneracy-checking solve is skipped.  ``decay_rates`` runs once per
    row, and the sparse generator terms and the H_eff pieces are built
    from it.

    A cell whose solve fails numerically (``LinAlgError``, ``RuntimeError``
    or ``ValueError``) stays NaN and is recorded in ``failures`` as
    "<type>: <message>"; any other exception propagates.
    """
    eta_x_grid = np.asarray(eta_x_grid, dtype=float)
    omega_0_grid = np.asarray(omega_0_grid, dtype=float)
    p = np.full((eta_x_grid.size, omega_0_grid.size), np.nan)
    failures = []
    for i, ex in enumerate(eta_x_grid):
        # jump rates, dissipator and coupling depend on eta_x only: share
        # them across the Rabi axis
        row_params = replace(base, eta_x=float(ex))
        terms = effective_terms(row_params)
        fixed, coupling = _generator_terms(row_params, terms)
        for j, om in enumerate(omega_0_grid):
            cell = replace(row_params, omega_0=float(om))
            try:
                res = steady_state(cell, fixed + cell.omega_0 * coupling,
                                   check_degenerate=False, terms=terms)
                p[i, j] = res.rho.p_ground()
            except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
                failures.append((i, j, f"{type(exc).__name__}: {exc}"))
    return CoolingMap(eta_x_grid, omega_0_grid, p, failures)


def energy_balance(eta_x: float, eta_k: float) -> dict[str, float]:
    """Per-cycle energy changes in units of hbar*omega_vib.

    Recoil heating 2 eta_k^2 (three-dimensional, both photons), projection
    heating eta_x^2, and one vibrational quantum removed by the sideband:
    total eta_x^2 + 2 eta_k^2 - 1.  Cooling requires |eta| < 1 with
    eta = eta_k + i eta_x (generalized Lamb-Dicke regime).
    """
    de_rec = 2.0 * eta_k ** 2
    de_proj = eta_x ** 2
    return {"recoil": de_rec, "projection": de_proj,
            "total": de_proj + de_rec - 1.0}


def projection_heating_general(spectrum, band: int, shift: float) -> float:
    """Mean energy gained projecting Wannier state ``band`` onto the
    potential displaced by ``shift`` (units of d); returned in E_R.

    Evaluates <n| V(x - dx) - V(x) |n> by position-space quadrature, a
    trapezoid rule on 4001 points over [-6 d, 6 d] (the kinetic term
    cancels).  Equals sum_m (eps_m - eps_n) |I_n^m|^2 over the
    displaced eigenbasis.
    """
    from scipy.integrate import trapezoid
    from .bands import wannier

    w = wannier(spectrum, band)
    d = math.pi
    x = np.linspace(-6.0 * d, 6.0 * d, 4001)
    prob = np.abs(np.asarray(w(x), dtype=complex)) ** 2
    depth = spectrum.depth
    dv = depth * (np.sin(x - shift * d) ** 2 - np.sin(x) ** 2)
    return float(trapezoid(prob * dv, x))


def projection_heating_fc_sum(spectrum, band: int, shift: float) -> float:
    """FC-table form of the projection heating (E_R): the same quantity as
    ``projection_heating_general`` computed from sum_m (eps_m - eps_n) |I|^2.
    """
    from .franck_condon import fcf_exact

    table = fcf_exact(spectrum, spectrum, shift)
    amps2 = table.matrix[:, band] ** 2
    eps = np.array([spectrum.band_energy(n) for n in range(spectrum.n_bands)])
    return float(amps2 @ eps / amps2.sum() - eps[band])


def temperature_from_sidebands(h_blue: float, h_red: float,
                               omega_vib: float) -> dict[str, float]:
    """Mean occupation and temperature from sideband heights.

    ``h_blue`` is the cooling sideband |up,n> -> |down,n-1> (vanishes for a
    ground-state atom), ``h_red`` the heating sideband; for a thermal state
    h_blue / h_red = <n> / (<n> + 1).
    """
    if h_blue < 0 or h_red <= 0:
        raise ValueError("need h_blue >= 0 and h_red > 0")
    ratio = h_blue / h_red
    if ratio >= 1.0:
        raise ValueError("sideband ratio >= 1 has no thermal solution")
    n_bar = ratio / (1.0 - ratio)
    if n_bar == 0.0:
        return {"n_bar": 0.0, "temperature": 0.0}
    temperature = HBAR * omega_vib / (KB * math.log(1.0 + 1.0 / n_bar))
    return {"n_bar": n_bar, "temperature": temperature}
