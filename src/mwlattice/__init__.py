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
