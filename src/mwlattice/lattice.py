"""Spin-dependent lattice geometry and derived trap parameters.

Converts physical inputs (wavelengths, depth, polarization angle) into the
per-spin potential parameters and Lamb-Dicke parameters that the band solver,
spectroscopy and cooling modules consume.

The two lattice beams are linearly polarized with an angle ``theta`` between
them, equivalent to two circular standing waves delayed by ``2 theta``.  The
"up" spin couples to the sigma+ wave only (at the magic wavelength), the
"down" spin to a weighted mix of both, which makes its contrast, total depth
and well position depend on ``theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import constants as si

HBAR = si.hbar
KB = si.k

_CS_MASS_KG = 132.905451931 * si.atomic_mass

# Weights of the sigma+ and sigma- standing waves in the down-spin potential
# at the magic wavelength.  They are fixed: ``lattice_wavelength`` sets the
# spacing and recoil, not these weights.
SIGMA_PLUS_WEIGHT_DOWN = 1.0 / 8.0
SIGMA_MINUS_WEIGHT_DOWN = 7.0 / 8.0


@dataclass(frozen=True)
class AtomConstants:
    """Atomic species inputs: mass and the D-line wavelengths."""

    mass: float               # kg
    d1_wavelength: float      # nm
    d2_wavelength: float      # nm

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if not self.d1_wavelength >= self.d2_wavelength > 0:
            raise ValueError("require d1_wavelength >= d2_wavelength > 0")


def cesium() -> AtomConstants:
    return AtomConstants(
        mass=_CS_MASS_KG,
        d1_wavelength=894.6,
        d2_wavelength=852.3,
    )


@dataclass(frozen=True)
class LatticeGeometry:
    """Lattice wavelength, depth and polarization configuration.

    ``depth_up`` is the contrast W_up of the spin-up lattice in units of the
    lattice recoil.  The down spin sees the sigma+/sigma- waves with the
    magic-wavelength weights ``SIGMA_PLUS_WEIGHT_DOWN`` and
    ``SIGMA_MINUS_WEIGHT_DOWN`` (1/8 and 7/8) at every wavelength.
    """

    lattice_wavelength: float   # nm
    depth_up: float             # E_R
    polarization_angle: float   # rad

    def __post_init__(self):
        if not 0 < self.lattice_wavelength < math.inf:
            raise ValueError("lattice_wavelength must be positive and finite")
        if self.depth_up <= 0:
            raise ValueError("depth_up must be positive")
        if not 0.0 <= self.polarization_angle <= math.pi / 2:
            raise ValueError("polarization_angle must lie in [0, pi/2]")

    @property
    def spacing(self) -> float:
        """Lattice spacing d = lambda_L / 2, in nm."""
        return self.lattice_wavelength / 2.0


@dataclass(frozen=True)
class SpinPotential:
    """One spin state's lattice parameters in the W cos^2 form."""

    contrast: float       # W_s, E_R
    total_depth: float    # U_s^tot, E_R (<= 0)


def recoil_energy(atom: AtomConstants, wavelength_nm: float) -> float:
    """Photon recoil energy hbar^2 k^2 / 2m in joules."""
    k = 2 * math.pi / (wavelength_nm * 1e-9)
    return HBAR**2 * k**2 / (2 * atom.mass)


def trap_frequency(contrast_recoils: float, atom: AtomConstants,
                   lattice_wavelength_nm: float) -> float:
    """Harmonic vibration frequency of a W cos^2 well: (2/hbar) sqrt(W E_R)."""
    er = recoil_energy(atom, lattice_wavelength_nm)
    return 2.0 / HBAR * math.sqrt(contrast_recoils * er * er)


def ground_state_width(atom: AtomConstants, omega_vib: float) -> float:
    """rms width x_0 = sqrt(hbar / (2 m omega)) of the ground state, meters."""
    return math.sqrt(HBAR / (2 * atom.mass * omega_vib))


def magic_wavelength(atom: AtomConstants) -> float:
    """Lattice wavelength at which the up spin sees the sigma+ wave only (nm)."""
    l1, l2 = atom.d1_wavelength, atom.d2_wavelength
    return l2 + (l1 - l2) / (2 * l1 / l2 + 1)


def potentials_from_angle(geom: LatticeGeometry
                          ) -> tuple[SpinPotential, SpinPotential, float]:
    """Spin potentials and their relative shift for a polarization angle.

    Returns ``(up, down, dx)`` with ``dx = x_up^0 - x_down^0`` in units of d.
    The down-spin lattice is the sum of two cos^2 waves with phases -theta/2
    and +theta/2 and weights ``SIGMA_PLUS_WEIGHT_DOWN`` and
    ``SIGMA_MINUS_WEIGHT_DOWN``; collapsing the sum back to a single cos^2
    gives its contrast, total depth and (nonlinearly shifted) center.
    """
    theta = geom.polarization_angle
    w_up = geom.depth_up
    wp, wm = SIGMA_PLUS_WEIGHT_DOWN, SIGMA_MINUS_WEIGHT_DOWN

    # Sum of the two circular standing waves as one cos^2 of reduced contrast.
    w_down = w_up * math.sqrt(
        math.cos(theta) ** 2 + (wm - wp) ** 2 * math.sin(theta) ** 2
    )
    u_up_tot = -w_up
    u_down_tot = -(w_up + w_down) / 2.0

    # Well centers in units of d (k_L d = pi).  The up lattice center moves
    # linearly with theta; the down center picks up the arctan correction.
    x_up = theta / (2 * math.pi)
    phi = math.atan((wm - wp) * math.tan(theta))    # pi/2 at theta = pi/2
    x_down = -phi / (2 * math.pi)
    dx = x_up - x_down

    return SpinPotential(w_up, u_up_tot), SpinPotential(w_down, u_down_tot), dx


def thermal_populations(ratio: float, n_max: int) -> np.ndarray:
    """Truncated thermal ladder p_n ~ ratio^n, normalized over n = 0..n_max.

    ``ratio`` = exp(-hbar omega / kB T) = n_bar / (n_bar + 1); a ratio of 0
    gives the ground state (0.0 ** 0 is 1).
    """
    p = ratio ** np.arange(n_max + 1)
    return p / p.sum()


def lamb_dicke(dx_nm: float, omega_vib: float, atom: AtomConstants,
               k_opt: float) -> complex:
    """Generalized Lamb-Dicke parameter eta = eta_k + i eta_x for a shift
    ``dx_nm`` and photon wavevector ``k_opt``.

    eta_x = dx / (2 x_0) and eta_k = hbar k_opt / (2 p_0) = k_opt x_0 with
    x_0, p_0 the position/momentum rms widths of the motional ground state.
    """
    if dx_nm < 0:
        raise ValueError("dx must be >= 0")
    x0 = ground_state_width(atom, omega_vib)
    eta_x = dx_nm * 1e-9 / (2 * x0)
    eta_k = k_opt * x0
    return complex(eta_k, eta_x)
