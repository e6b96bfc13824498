"""Microwave control of atomic motion in spin-dependent 1-D optical lattices.

Pipeline: cos^2 band structure -> maximally localized Wannier states ->
Franck-Condon factors between shifted spin potentials -> microwave sideband
spectra with thermal broadening and parameter fitting -> Lindblad sideband
cooling -> motional-state engineering and population reconstruction.

Internal unit conventions (SI only at the CLI boundary):
  energy    lattice recoil E_R = hbar^2 k_L^2 / (2 m)
  length    lattice spacing d = lambda_L / 2  (positions often in 1/k_L)
  frequency angular, rad/s, unless a name says otherwise
"""

from .lattice import (
    AtomConstants,
    LatticeGeometry,
    SpinPotential,
    LambDicke,
    cesium,
    magic_wavelength,
    potentials_from_angle,
    lamb_dicke,
)
from .bands import BlochSpectrum, WannierState, solve_bands, wannier
from .franck_condon import (
    FranckCondonTable,
    fcf_exact,
    fcf_harmonic,
    fcf_harmonic_matrix,
)
from .spectroscopy import (
    PulseSpec,
    SidebandSystem,
    SpectroscopyConfig,
    SpectrumResult,
    build_system,
    evolve_pulse,
    fit_spectrum,
    gaussian_pi_pulse,
    simulate_spectrum,
)
from .cooling import (
    CoolingParams,
    DensityMatrix,
    SteadyStateResult,
    build_liouvillian,
    cooling_map,
    energy_balance,
    evolve,
    steady_state,
    temperature_from_sidebands,
)
from .engineering import (
    HarmonicModel,
    PopulationDistribution,
    SequenceState,
    filter_survival,
    prepare_coherent,
    prepare_fock,
    reconstruct_distribution,
    run_sequence,
    superposition_sequence,
)
