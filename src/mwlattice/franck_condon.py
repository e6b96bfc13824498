"""Franck-Condon factors between Wannier bases of the two spin potentials.

``fcf_exact`` evaluates I_{n}^{n'}(dx) = <n', bra | T_dx | n, ket> directly in
the shared plane-wave basis, where T_dx is the position shift operator; the
bra and ket coefficient families may come from different lattice depths.
``fcf_harmonic_matrix`` is the displaced-harmonic-oscillator closed form, the
deep-lattice analytic limit that the cooling and engineering models use;
``fcf_harmonic`` is its scalar element, the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid
from scipy.special import eval_genlaguerre, gammaln

from .bands import BlochSpectrum


@dataclass(frozen=True)
class FranckCondonTable:
    """Overlap matrix I[n_bra, n_ket] at one shift and site offset."""

    matrix: np.ndarray        # (n_bands_bra, n_bands_ket), real


def fcf_exact(spec_bra: BlochSpectrum, spec_ket: BlochSpectrum,
              shift: float, site_offset: int = 0) -> FranckCondonTable:
    """Exact overlap table I[n', n] = <n'(bra) | T_shift | n(ket)>.

    ``shift`` in units of d; positive shift moves the ket state toward
    positive x; ``site_offset`` is r - r' in sites.  Both spectra must
    share the k grid and plane-wave cutoff.  The Brillouin-zone sum is a
    uniform Riemann sum over the shared grid.
    """
    if not spec_bra.compatible_grid(spec_ket):
        raise ValueError("bra and ket spectra use different (k, q) grids")
    kappa = spec_bra.plane_wavevectors()               # (N_k, N_q), k_L units
    # total displacement in units of 1/k_L: (shift + r - r') * d, d = pi
    disp = (shift + site_offset) * math.pi
    phase = np.exp(-1j * kappa * disp)                 # T_dx diagonal element
    # I[n', n] = (1/N_k) sum_{k,q} conj(a^bra_{n',q}) phase a^ket_{n,q}
    coef = spec_ket.coefficients       # (N_k, n, N_q), derived on each read
    bra = np.conj(coef if spec_bra is spec_ket else spec_bra.coefficients)
    ket = coef * phase[:, None, :]
    table = np.einsum("kmq,knq->mn", bra, ket) / kappa.shape[0]
    imag_max = float(np.abs(table.imag).max())
    if imag_max > 1e-8:
        raise RuntimeError(
            f"Franck-Condon table not real (max imag {imag_max:.2e}); "
            "phase convention violated")
    return FranckCondonTable(matrix=np.ascontiguousarray(table.real))


def displacement_element(alpha: complex, n_bra, n_ket):
    """<n_bra| D(alpha) |n_ket> for the harmonic oscillator.

    ``n_bra`` and ``n_ket`` are integers or broadcastable integer arrays
    (Cahill & Glauber closed form; ``gammaln`` and ``eval_genlaguerre`` are
    ufuncs, so an index grid costs one call).
    """
    n_bra, n_ket = np.asarray(n_bra), np.asarray(n_ket)
    if np.any(n_bra < 0) or np.any(n_ket < 0):
        raise ValueError("negative oscillator index")
    a2 = abs(alpha) ** 2
    lo, hi = np.minimum(n_bra, n_ket), np.maximum(n_bra, n_ket)
    amp = np.exp(-a2 / 2 + 0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
    lag = eval_genlaguerre(lo, hi - lo, a2)
    base = np.where(n_bra >= n_ket, alpha, -np.conj(alpha))
    return base ** (hi - lo) * amp * lag


def fcf_harmonic(eta_x: float, n: int, n_prime: int) -> float:
    """Harmonic-approximation overlap <n'| T_dx |n> with eta_x = dx/(2 x_0)."""
    if eta_x < 0:
        raise ValueError("eta_x must be >= 0")
    return float(np.real(displacement_element(eta_x, n_prime, n)))


def fcf_harmonic_matrix(alpha: complex, n_max: int) -> np.ndarray:
    """Displacement matrix D[n', n] = <n'|D(alpha)|n> up to n_max inclusive."""
    n = np.arange(n_max + 1)
    return displacement_element(complex(alpha), n[:, None], n[None, :])


def fcf_quadrature(w_bra, w_ket, shift: float, x_span: float = 4.0,
                   n_points: int = 8192) -> float:
    """Position-space overlap of two Wannier states, independent of fcf_exact.

    ``shift`` in units of d; integrates over x in [-x_span*d, x_span*d]
    around the bra site with a uniform trapezoid rule.
    """
    d = math.pi
    x = np.linspace(-x_span * d, x_span * d, n_points)
    fb = np.asarray(w_bra(x), dtype=complex)
    fk = np.asarray(w_ket(x - shift * d), dtype=complex)
    val = trapezoid(np.conj(fb) * fk, x)
    return float(np.real(val))
