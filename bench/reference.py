"""Independent references the benchmark checks mwlattice against.

Nothing here calls the numerical code of mwlattice.  Each function
re-derives one quantity from the physics the package models, by a different
route than the package takes:

- ``lattice_truth``: the spin-dependent lattice parameters, from the sum of
  the two circular standing waves written as one complex amplitude;
- ``recoil_hz``: the lattice recoil frequency from CODATA constants;
- ``LindbladReference``: the sideband-cooling steady state, from explicit
  jump-operator matrices, displacement matrices taken from ``expm`` of the
  ladder generator in an enlarged basis, and an SVD null vector;
- ``pulse_transfer``: microwave transfer from a ``solve_ivp`` integration
  of H(t) built from a system's energies and Franck-Condon table.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.sparse as sp
from scipy import constants
from scipy.integrate import solve_ivp
from scipy.linalg import expm

CS_MASS_KG = 132.905451931 * constants.atomic_mass
# Emission-direction average: Gauss-Legendre nodes over u = cos(angle).
EMISSION_NODES = 16
# Excited-state branching into (up, down, aux).
BRANCHING = (7.0 / 15.0, 5.0 / 12.0, 7.0 / 60.0)
UP, DOWN, AUX = 0, 1, 2


def recoil_hz(wavelength_nm: float, mass_kg: float = CS_MASS_KG) -> float:
    """Lattice recoil E_R / h = h / (2 m lambda^2) in Hz."""
    lam = wavelength_nm * 1e-9
    return constants.h / (2.0 * mass_kg * lam ** 2)


def lattice_truth(theta: float, w_up: float, temperature: float,
                  sigma_plus_down: float = 1.0 / 8.0) -> dict[str, float]:
    """Fit parameters {dx, w_down, du_tot, t2d} of a polarization angle.

    The up spin sees the sigma+ wave, -W_up cos^2(k x - theta/2).  The down
    spin sees a + b = 1 weighted sigma+ and sigma- waves with phases
    -theta/2 and +theta/2; with cos^2 u = (1 + cos 2u)/2 their sum is one
    cosine of complex amplitude z = a e^{-i theta} + b e^{+i theta}, so the
    down contrast is W_up |z|, its well bottom -W_up (1 + |z|)/2 and its
    centre -arg(z) / (2 pi) in lattice spacings.
    """
    a = sigma_plus_down
    z = a * cmath.exp(-1j * theta) + (1.0 - a) * cmath.exp(1j * theta)
    x_up = theta / (2.0 * math.pi)
    x_down = -cmath.phase(z) / (2.0 * math.pi)
    u_down_tot = -w_up * (1.0 + abs(z)) / 2.0
    return {"dx": x_up - x_down, "w_down": w_up * abs(z),
            "du_tot": -w_up - u_down_tot, "t2d": temperature}


# ---------------------------------------------------------------------------
# sideband-cooling master equation


def displacement(alpha: complex, n_max: int, pad: int = 40) -> np.ndarray:
    """<n'|D(alpha)|n> for n, n' <= n_max, from expm(alpha a^+ - alpha* a).

    The exponential is taken in a basis ``pad`` levels larger than the one
    kept, so truncating the generator does not reach the kept block.
    """
    size = n_max + 1 + pad
    a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    gen = alpha * a.T - np.conj(alpha) * a
    return expm(gen)[:n_max + 1, :n_max + 1]


class LindbladReference:
    """Steady state of the three-level sideband-cooling model.

    Time is in units of 1/omega_vib.  The microwave is resonant with
    |up,1> -> |down,0>, so in the rotating frame the up ladder sits one
    quantum below the down and aux ladders.  Optical pumping out of down
    (rate r_down) and aux (r_aux) branches into all three spins; each
    |dst,n><src,n'| is its own jump operator with rate
    alpha_dst * R_src * <|<n|T_k T_x|n'>|^2>, averaged over the emission
    direction.  The aux potential sits on the up site, so down <-> aux and
    down <-> up jumps carry the shift eta_x.
    """

    def __init__(self, omega_0: float, omega_vib: float, eta_x: float,
                 eta_k: float, r_down: float, r_aux: float, n_max: int):
        self.levels = n_max + 1
        self.dim = 3 * self.levels
        self.n_max = n_max
        self.omega_0, self.omega_vib = omega_0, omega_vib
        self.eta_x, self.eta_k = eta_x, eta_k
        self.pumps = {DOWN: r_down, AUX: r_aux}

    def _site(self, spin: int) -> int:
        return UP if spin == AUX else spin

    def _hamiltonian(self) -> np.ndarray:
        m = self.levels
        n = np.arange(m, dtype=float)
        h = np.diag(np.concatenate([n - 1.0, n, n])).astype(complex)
        k = displacement(complex(self.eta_x, 0.0), self.n_max)
        g = 0.5 * self.omega_0 / self.omega_vib
        h[m:2 * m, :m] -= g * k
        h[:m, m:2 * m] -= g * k.conj().T
        return h

    def _overlap_sq(self, shift: float) -> np.ndarray:
        u, w = np.polynomial.legendre.leggauss(EMISSION_NODES)
        w = w / w.sum()
        out = np.zeros((self.levels, self.levels))
        for ui, wi in zip(u, w):
            d = displacement(complex(shift, self.eta_k * (1.0 + ui)),
                             self.n_max)
            out += wi * np.abs(d) ** 2
        return out

    def jump_operators(self) -> list[np.ndarray]:
        """Every Lindblad operator sqrt(gamma) |dst,n><src,n'| as a matrix."""
        m, ops = self.levels, []
        for src, rate in self.pumps.items():
            for dst, alpha in zip((UP, DOWN, AUX), BRANCHING):
                shift = (self.eta_x if self._site(src) != self._site(dst)
                         else 0.0)
                gamma = alpha * rate / self.omega_vib * self._overlap_sq(shift)
                for n in range(m):
                    for n_src in range(m):
                        op = np.zeros((self.dim, self.dim))
                        op[dst * m + n, src * m + n_src] = math.sqrt(
                            gamma[n, n_src])
                        ops.append(op)
        return ops

    def generator(self) -> np.ndarray:
        """Dense superoperator on row-major vec(rho): vec(A rho B) =
        (A kron B^T) vec(rho)."""
        eye = sp.identity(self.dim, format="csr")
        h = sp.csr_matrix(self._hamiltonian())
        terms = [-1j * (sp.kron(h, eye) - sp.kron(eye, h.T))]
        decay = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.jump_operators():
            lop = sp.csr_matrix(op)
            terms.append(sp.kron(lop, lop.conj()))
            decay += op.conj().T @ op
        dec = sp.csr_matrix(decay)
        terms.append(-0.5 * (sp.kron(dec, eye) + sp.kron(eye, dec.T)))
        return sum(terms[1:], terms[0]).toarray()

    def steady_state(self) -> np.ndarray:
        """Unit-trace density matrix spanning the generator's null space."""
        _, s, vh = np.linalg.svd(self.generator())
        if s[-2] < 1e3 * s[-1]:
            raise ArithmeticError("reference generator kernel is not "
                                  "one-dimensional")
        rho = vh[-1].conj().reshape(self.dim, self.dim)
        return rho / np.trace(rho)

    def p_ground(self, rho: np.ndarray) -> float:
        m = self.levels
        return float(sum(rho[s * m, s * m].real for s in (UP, DOWN, AUX)))


# ---------------------------------------------------------------------------
# microwave pulse


def gaussian_pi_peak(fwhm: float) -> float:
    """Peak Rabi frequency of a Gaussian envelope of area pi."""
    return math.pi / (fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0))))


def pulse_transfer(energy_up: np.ndarray, energy_down: np.ndarray,
                   fc: np.ndarray, fwhm: float, detunings: np.ndarray,
                   n_initial: int = 0) -> np.ndarray:
    """Down-spin population after a Gaussian pi pulse from |up, n_initial>.

    Rotating frame at the microwave frequency:
    H/hbar = diag(E_up - delta, E_down) - Omega(t)/2 (|down><up| FC + h.c.),
    with Omega(t) a Gaussian of the given FWHM centred in a window of four
    FWHM.  All detunings are integrated together by DOP853.
    """
    m = energy_up.size
    dets = np.atleast_1d(np.asarray(detunings, dtype=float))
    coupling = np.zeros((2 * m, 2 * m))
    coupling[m:, :m] = fc
    coupling[:m, m:] = fc.T
    diag = np.concatenate([energy_up, energy_down])[None, :] - np.outer(
        dets, np.r_[np.ones(m), np.zeros(m)])
    diag = diag - diag.mean(axis=1, keepdims=True)   # global phase only
    peak, span = gaussian_pi_peak(fwhm), 4.0 * fwhm
    shape = (dets.size, 2 * m)

    def rhs(t, y):
        psi = y.view(complex).reshape(shape)
        omega = peak * math.exp(-4.0 * math.log(2.0)
                                * (t - span / 2.0) ** 2 / fwhm ** 2)
        return (-1j * (diag * psi - 0.5 * omega * psi @ coupling.T)
                ).ravel().view(float)

    psi0 = np.zeros(shape, dtype=complex)
    psi0[:, n_initial] = 1.0
    sol = solve_ivp(rhs, (0.0, span), psi0.ravel().view(float),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise ArithmeticError(f"reference integration failed: {sol.message}")
    psi = sol.y[:, -1].copy().view(complex).reshape(shape)
    return np.sum(np.abs(psi[:, m:]) ** 2, axis=1)
