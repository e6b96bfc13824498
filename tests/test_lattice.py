import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mwlattice.lattice import (HBAR, cesium, ground_state_width, lamb_dicke,
                               LatticeGeometry, magic_wavelength,
                               potentials_from_angle, recoil_energy,
                               thermal_populations, trap_frequency)

ATOM = cesium()


def test_magic_wavelength_between_d_lines():
    lam = magic_wavelength(ATOM)
    assert ATOM.d2_wavelength < lam < ATOM.d1_wavelength
    assert lam == pytest.approx(865.95, abs=0.05)


def test_recoil_energy_frequency():
    # E_R / h at the magic wavelength, from hbar^2 k^2 / 2m
    er_hz = recoil_energy(ATOM, 865.95) / (2 * math.pi * HBAR)
    assert er_hz == pytest.approx(2001.7, rel=1e-3)


def test_trap_frequency_harmonic_formula():
    # omega = 2 sqrt(W E_R) / hbar; W = 850 E_R gives 2 sqrt(850) E_R / hbar
    omega = trap_frequency(850.0, ATOM, 865.95)
    er = recoil_energy(ATOM, 865.95)
    assert omega == pytest.approx(2 * math.sqrt(850.0) * er / HBAR, rel=1e-12)
    assert omega / (2 * math.pi) == pytest.approx(116.73e3, rel=2e-3)


def test_ground_state_width_consistency():
    omega = trap_frequency(850.0, ATOM, 865.95)
    x0 = ground_state_width(ATOM, omega)
    # hbar omega / 2 = (1/2) m omega^2 <x^2> * 2 -> x0 = sqrt(hbar/2m omega)
    assert 0.5 * HBAR * omega == pytest.approx(
        ATOM.mass * omega ** 2 * x0 ** 2, rel=1e-12)


def test_zero_angle_identical_potentials():
    geom = LatticeGeometry(865.95, 850.0, 0.0)
    up, down, dx = potentials_from_angle(geom)
    assert down.contrast == pytest.approx(up.contrast, rel=1e-12)
    assert dx == pytest.approx(0.0, abs=1e-15)
    assert down.total_depth == pytest.approx(-850.0, rel=1e-12)


def test_right_angle_limits():
    geom = LatticeGeometry(865.95, 850.0, math.pi / 2)
    up, down, dx = potentials_from_angle(geom)
    # down contrast collapses to |w- - w+| W_up = (3/4) W_up; dx = d/2
    assert down.contrast == pytest.approx(0.75 * 850.0, rel=1e-9)
    assert dx == pytest.approx(0.5, rel=1e-9)


@given(st.floats(min_value=0.0, max_value=math.pi / 2))
def test_angle_sweep_invariants(theta):
    geom = LatticeGeometry(865.95, 850.0, theta)
    up, down, dx = potentials_from_angle(geom)
    assert up.contrast == 850.0
    assert 0.0 <= down.contrast <= up.contrast + 1e-9
    assert 0.0 <= dx <= 0.5 + 1e-12
    assert down.total_depth == pytest.approx(
        -(up.contrast + down.contrast) / 2, rel=1e-12)


def test_shift_monotone_in_angle():
    thetas = np.linspace(0, math.pi / 2, 50)
    shifts = [potentials_from_angle(LatticeGeometry(865.95, 850.0, t))[2]
              for t in thetas]
    assert np.all(np.diff(shifts) > 0)


def test_thermal_populations_ladder():
    ground = thermal_populations(0.0, 8)
    assert ground.tolist() == [1.0] + [0.0] * 8
    ratio = 1.33 / 2.33
    p = thermal_populations(ratio, 15)
    assert p.shape == (16,)
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[1] / p[0] == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("dx_nm, eta_expected", [
    (43.0, 1.2), (111.0, 3.1), (176.0, 4.9),
])
def test_lamb_dicke_table(dx_nm, eta_expected):
    omega = trap_frequency(850.0, ATOM, 865.95)
    eta = lamb_dicke(dx_nm, omega, ATOM, 2 * math.pi / 852.3e-9)
    assert eta.imag == pytest.approx(eta_expected, abs=0.1)


def test_lamb_dicke_momentum_component():
    omega = trap_frequency(850.0, ATOM, 865.95)
    eta = lamb_dicke(0.0, omega, ATOM, 2 * math.pi / 852.3e-9)
    assert eta.real == pytest.approx(0.134, abs=0.005)
    assert eta == complex(eta.real, 0.0)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        LatticeGeometry(865.95, -1.0, 0.0)
    for wavelength in (-865.95, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lattice_wavelength"):
            LatticeGeometry(wavelength, 850.0, 0.0)
    with pytest.raises(ValueError):
        LatticeGeometry(865.95, 850.0, -0.1)
    with pytest.raises(ValueError):
        lamb_dicke(-1.0, 1e5, ATOM, 7e6)
