import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from mwlattice.bands import BlochSpectrum, cached_bands, wannier
from mwlattice.franck_condon import (displacement_element, fcf_exact,
                                     fcf_harmonic, fcf_harmonic_matrix,
                                     fcf_quadrature)

SPEC = cached_bands(850.0, n_bands=8, k_points=32)
X0_OVER_D = (4 * 850.0) ** (-0.25) / math.pi   # ground-state width / d


def test_zero_shift_identity():
    table = fcf_exact(SPEC, SPEC, 0.0)
    assert np.abs(table.matrix - np.eye(8)).max() < 1e-10


def test_exact_vs_quadrature_oracle():
    shift = 0.1
    table = fcf_exact(SPEC, SPEC, shift)
    for n in range(4):
        for npr in range(4):
            q = fcf_quadrature(wannier(SPEC, npr), wannier(SPEC, n), shift)
            assert table.matrix[npr, n] == pytest.approx(q, abs=1e-6)


@pytest.mark.parametrize("shift, site_offset", [(0.0, 0), (0.1, 0),
                                                (0.37, 1)])
def test_one_spectrum_derives_its_coefficients_once(monkeypatch, shift,
                                                    site_offset):
    # (spec, spec) reads spec.coefficients once; its table is bit for bit
    # that of spec against a distinct spectrum with the same arrays
    reads = []
    derive = BlochSpectrum.coefficients.fget
    monkeypatch.setattr(BlochSpectrum, "coefficients", property(
        lambda spec: reads.append(spec) or derive(spec)))
    same = fcf_exact(SPEC, SPEC, shift, site_offset).matrix
    assert len(reads) == 1
    copy = fcf_exact(SPEC, dataclasses.replace(SPEC), shift,
                     site_offset).matrix
    assert len(reads) == 3
    assert same.tobytes() == copy.tobytes()


def test_one_spectrum_keeps_the_imaginary_part_check(monkeypatch):
    # a band phase off the convention makes the table complex, also when
    # bra and ket are one spectrum
    derive = BlochSpectrum.coefficients.fget
    twist = np.exp(0.3j * np.arange(SPEC.n_bands))[:, None]
    monkeypatch.setattr(BlochSpectrum, "coefficients", property(
        lambda spec: derive(spec) * twist))
    with pytest.raises(RuntimeError, match="phase convention violated"):
        fcf_exact(SPEC, SPEC, 0.1)


def test_neighbor_site_overlap_negligible_deep_lattice():
    table = fcf_exact(SPEC, SPEC, 0.0, site_offset=1)
    assert abs(table.matrix[0, 0]) < 1e-4


def test_row_normalization_bounded():
    # completeness: sum_n' I^2 <= 1, approaching 1 for low n at small shift
    table = fcf_exact(SPEC, SPEC, 0.05)
    sums = (table.matrix ** 2).sum(axis=0)
    assert np.all(sums <= 1.0 + 1e-9)
    assert sums[0] > 0.999


def test_harmonic_small_eta_expansion():
    eta = 0.01
    assert fcf_harmonic(eta, 0, 1) == pytest.approx(eta, rel=1e-3)
    assert fcf_harmonic(eta, 1, 0) == pytest.approx(-eta, rel=1e-3)
    assert fcf_harmonic(eta, 0, 0) == pytest.approx(1 - eta ** 2 / 2, abs=1e-6)


def test_harmonic_ground_row_is_poisson_amplitude():
    eta = 0.8
    for n in range(6):
        expected = math.exp(-eta ** 2 / 2) * eta ** n / math.sqrt(
            math.factorial(n))
        assert fcf_harmonic(eta, 0, n) == pytest.approx(expected, rel=1e-12)


def test_exact_approaches_harmonic_with_depth():
    # anharmonic corrections decay ~ 1/sqrt(depth)
    eta = 0.5
    devs = []
    for depth in (850.0, 20000.0):
        spec = cached_bands(depth, n_bands=4, k_points=16)
        x0_over_d = (4 * depth) ** (-0.25) / math.pi
        table = fcf_exact(spec, spec, eta * 2 * x0_over_d)
        devs.append(max(abs(table.matrix[npr, n] - fcf_harmonic(eta, n, npr))
                        for n in range(3) for npr in range(3)))
    assert devs[1] < 6e-3
    assert devs[1] < 0.3 * devs[0]


def test_displacement_matrix_unitarity():
    d = fcf_harmonic_matrix(0.3 + 0.2j, 25)
    block = (d.conj().T @ d)[:10, :10]
    assert np.abs(block - np.eye(10)).max() < 1e-10


def scalar_displacement(alpha, n_bra, n_ket):
    """<n_bra|D(alpha)|n_ket> from the closed form, one element at a time."""
    lo, hi = min(n_bra, n_ket), max(n_bra, n_ket)
    a2 = abs(alpha) ** 2
    amp = math.exp(-a2 / 2) * math.sqrt(math.factorial(lo) / math.factorial(hi))
    base = alpha if n_bra >= n_ket else -complex(alpha).conjugate()
    return base ** (hi - lo) * amp * eval_genlaguerre(lo, hi - lo, a2)


@pytest.mark.parametrize("alpha", [0.0, 0.4, -1.2, 3.5, -3.5, 0.3 + 0.2j,
                                   3.5j, 2.1 - 2.8j])
def test_displacement_matrix_matches_elementwise_formula(alpha):
    for n_max in (0, 1, 7, 15, 24):
        d = fcf_harmonic_matrix(alpha, n_max)
        ref = np.array([[scalar_displacement(alpha, nb, nk)
                         for nk in range(n_max + 1)]
                        for nb in range(n_max + 1)], dtype=complex)
        assert d.shape == (n_max + 1, n_max + 1)
        assert np.abs(d - ref).max() < 1e-13
    assert displacement_element(alpha, 3, 1) == pytest.approx(
        scalar_displacement(alpha, 3, 1), abs=1e-15)


def test_displacement_element_rejects_negative_index():
    with pytest.raises(ValueError):
        displacement_element(0.3, np.arange(-1, 2), 0)


def test_displacement_inverse_is_adjoint():
    d_plus = fcf_harmonic_matrix(0.4, 12)
    d_minus = fcf_harmonic_matrix(-0.4, 12)
    assert np.abs(d_plus.conj().T - d_minus).max() < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
def test_harmonic_symmetry_property(eta, n, npr):
    # |<n'|D(eta)|n>| = |<n|D(eta)|n'>| (transpose up to sign)
    a = fcf_harmonic(eta, n, npr)
    b = fcf_harmonic(eta, npr, n)
    assert abs(abs(a) - abs(b)) < 1e-12
    assert a == pytest.approx((-1.0) ** (n + npr) * b, abs=1e-12)


def test_incompatible_grids_rejected():
    other = cached_bands(850.0, n_bands=8, k_points=16)
    with pytest.raises(ValueError):
        fcf_exact(SPEC, other, 0.1)


def test_complex_displacement_recoil_only():
    # purely imaginary alpha: |<1|D(i eta)|0>| = eta e^{-eta^2/2}
    eta = 0.134
    el = displacement_element(1j * eta, 1, 0)
    assert abs(el) == pytest.approx(eta * math.exp(-eta ** 2 / 2), rel=1e-12)
