import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar

from mwlattice.engineering import (HarmonicModel, MicrowavePulse,
                                   PopulationDistribution, SequenceState,
                                   coupling_maximizing_shift,
                                   effective_efficiency, filter_survival,
                                   prepare_coherent, prepare_fock,
                                   pulse_unitary, reconstruct_distribution,
                                   run_sequence, superposition_sequence,
                                   zero_coupling_shift)
from mwlattice.franck_condon import displacement_element
from mwlattice.spectroscopy import (PulseSpec, SidebandSystem, SpinMotionState,
                                    evolve_pulse, gaussian_pi_pulse)

MODEL = HarmonicModel(omega_vib=2 * math.pi * 116.73e3, n_max=10)


def test_empty_sequence_is_identity():
    initial = SequenceState.pure(10, "up", 0)
    final = run_sequence(initial, [], MODEL)
    assert np.abs(final.rho - initial.rho).max() < 1e-15


def test_pulse_unitary_is_unitary():
    pulse = gaussian_pi_pulse(30e-6)
    u = pulse_unitary(MODEL, pulse, 0.5)
    assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-9

    # independent references on a harmonic ladder at eta_x = 0.7
    model = HarmonicModel(omega_vib=MODEL.omega_vib, n_max=8)
    m = model.n_max + 1
    energy = np.arange(m) * model.omega_vib
    k = model.coupling(0.7)
    system = SidebandSystem(energy, energy, k)
    red = system.resonance(0, 1)
    # rectangular pulse, automatic dt: the constant rotating-frame H
    rect = PulseSpec("rectangular", peak_rabi=2 * math.pi * 10e3,
                     detuning=red, duration=50e-6)
    h = np.diag(np.concatenate([energy - red, energy]))
    h[:m, m:] -= 0.5 * rect.peak_rabi * k.T
    h[m:, :m] -= 0.5 * rect.peak_rabi * k
    want = np.abs(expm(-1j * h * rect.duration)) ** 2
    got = np.abs(pulse_unitary(model, rect, 0.7)) ** 2
    assert np.abs(got - want).max() < 1e-6
    # 1 ms chirp from |up,0>: the adaptive ODE integrator
    chirp = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 8e3,
                      detuning=red, sweep=2 * math.pi * 50e3, duration=1e-3)
    psi0 = SpinMotionState.basis(model.n_max, "up", 0)
    ode = evolve_pulse(system, chirp, psi0).amplitudes
    got = np.abs(pulse_unitary(model, chirp, 0.7)[:, 0]) ** 2
    assert np.abs(got - np.abs(ode) ** 2).max() < 1e-7


def test_carrier_pi_pulse_at_zero_shift():
    pulse = gaussian_pi_pulse(30e-6)
    initial = SequenceState.pure(10, "up", 0)
    final = run_sequence(initial, [MicrowavePulse(pulse, (0, 0), 0.0)], MODEL)
    assert final.fidelity("down", 0) == pytest.approx(1.0, abs=1e-6)


def test_spin_names_are_checked():
    # a misspelt spin must not silently act on the down ladder
    with pytest.raises(ValueError, match="'Down'"):
        SequenceState.pure(10, "Down", 0)
    state = SequenceState.pure(10, "down", 0)
    with pytest.raises(ValueError, match="'dn'"):
        state.populations("dn")
    with pytest.raises(ValueError, match="'dn'"):
        state.fidelity("dn", 0)


def test_coupling_extrema_locations():
    # first-sideband coupling maximal near eta = 1/sqrt(2)... the harmonic
    # |<1|D|0>| = eta e^{-eta^2/2} peaks at eta = 1
    eta = coupling_maximizing_shift(MODEL, 0, 1)
    assert eta == pytest.approx(1.0, abs=1e-3)
    # K[2,2] ~ L_2(eta^2): first zero at eta^2 = 2 - sqrt(2)
    eta22 = zero_coupling_shift(MODEL, 2)
    assert eta22 == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_zero_coupling_shift_matches_root_search(n):
    # independent: first sign change of <n|D(eta)|n> on a grid, then brentq
    def k_nn(eta):
        return float(np.real(displacement_element(eta, n, n)))
    grid = np.linspace(1e-3, 4.0, 400)
    vals = np.array([k_nn(e) for e in grid])
    i = np.nonzero(np.diff(np.sign(vals)))[0][0]
    ref = brentq(k_nn, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15)
    eta = zero_coupling_shift(MODEL, n)
    assert eta == pytest.approx(ref, abs=1e-12)
    assert abs(MODEL.coupling(eta)[n, n]) < 1e-14


def test_zero_coupling_shift_rejects_carrier_without_zero():
    with pytest.raises(ValueError):
        zero_coupling_shift(MODEL, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_coupling_maximizing_shift_matches_search(m):
    res = minimize_scalar(lambda e: -abs(displacement_element(e, m, 0)),
                          bounds=(1e-3, 4.0), method="bounded",
                          options={"xatol": 1e-10})
    eta = coupling_maximizing_shift(MODEL, 0, m)
    assert eta == pytest.approx(res.x, abs=2e-6)
    assert eta == math.sqrt(m)


def test_coupling_maximizing_shift_rejects_excited_up_level():
    with pytest.raises(ValueError, match="n_up = 1"):
        coupling_maximizing_shift(MODEL, 1, 2)


def test_superposition_population_split():
    st_ = superposition_sequence(MODEL, 0.5)
    p0, p2 = st_.fidelity("down", 0), st_.fidelity("down", 2)
    assert p2 == pytest.approx(0.5, abs=0.01)
    assert p0 + p2 == pytest.approx(1.0, abs=0.01)


def test_fock_preparation_m2():
    state, fid = prepare_fock(MODEL, 2)
    assert fid > 0.99


def test_prepare_coherent_mean():
    pops, expected = prepare_coherent(MODEL, 1.2)
    assert np.sum(np.arange(11) * pops) == pytest.approx(1.44, rel=1e-3)
    assert np.abs(pops - expected / expected.sum()).max() < 1e-6


def test_effective_efficiency_values():
    assert effective_efficiency(0.7, 3) == pytest.approx(0.973, abs=1e-12)
    assert effective_efficiency(0.5, 1) == 0.5
    assert effective_efficiency(1.0, 2) == 1.0


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=20))
def test_effective_efficiency_monotone(f, n):
    fp = effective_efficiency(f, n)
    assert 0.0 <= fp <= 1.0
    assert fp >= f - 1e-12                        # increasing in N
    assert effective_efficiency(f, n + 1) >= fp - 1e-12
    if f < 1.0:
        assert effective_efficiency(min(f + 0.05, 1.0), n) >= fp - 1e-12


def test_thermal_distribution_cumulative():
    dist = PopulationDistribution.thermal(1.33, 15)
    assert dist.p.sum() == pytest.approx(1.0, rel=1e-12)
    x = 1.33 / 2.33
    assert dist.p[1] / dist.p[0] == pytest.approx(x, rel=1e-9)
    fns = [dist.cumulative(n) for n in range(17)]
    assert all(b >= a for a, b in zip(fns, fns[1:]))
    assert dist.cumulative(0) == 0.0


def test_thermal_distribution_rejects_a_negative_n_bar():
    # a negative n_bar was taken as the ground state
    assert PopulationDistribution.thermal(0.0, 4).p.tolist() == [1, 0, 0, 0,
                                                                 0]
    for n_bar in (-1.0, math.nan):
        with pytest.raises(ValueError, match="n_bar must be >= 0"):
            PopulationDistribution.thermal(n_bar, 4)


def test_filter_survival_limits():
    dist = PopulationDistribution.thermal(1.0, 12)
    # perfect filter, one pass: survival = F_n exactly
    for n in (0, 1, 3):
        assert filter_survival(dist, n, 1.0, 1) == pytest.approx(
            dist.cumulative(n), rel=1e-12)
    # zero efficiency: everything survives
    assert filter_survival(dist, 2, 0.0, 5) == pytest.approx(1.0, rel=1e-12)


def test_filter_survival_needs_a_loss_factor_in_0_1():
    # a factor above 1 gave probabilities above 1 (1.50 and 2.31 at the
    # default filter and loss 1.5); 0 would leave nothing to reconstruct
    dist = PopulationDistribution.thermal(1.33, 15)
    # n = 0 filters every level: only the 0.3^3 the passes miss survive
    for loss in (1.0, 0.9, 5e-324):
        assert filter_survival(dist, 0, 0.7, 3, loss_per_pass=loss) == \
            pytest.approx(0.3 ** 3 * loss ** 3, rel=1e-12)
    for loss in (1.5, math.nextafter(1.0, 2.0), 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="need 0 < loss_per_pass <= 1"):
            filter_survival(dist, 1, 0.7, 3, loss_per_pass=loss)


def test_reconstruction_round_trip_exact():
    dist = PopulationDistribution.thermal(1.33, 12)
    plateaus = np.array([filter_survival(dist, n, 0.7, 3)
                         for n in range(14)])
    rec = reconstruct_distribution(plateaus, f=0.7, repetitions=3,
                                   ceiling=1.0)
    assert np.abs(rec.p - dist.p).max() < 1e-12


def test_reconstruction_with_ceiling_loss():
    dist = PopulationDistribution.thermal(0.8, 12)
    loss = 0.97
    plateaus = np.array([filter_survival(dist, n, 0.8, 2, loss_per_pass=loss)
                         for n in range(14)])
    rec = reconstruct_distribution(plateaus, f=0.8, repetitions=2,
                                   ceiling=loss ** 2)
    assert np.abs(rec.p - dist.p).max() < 1e-12


def test_reconstruction_flags_nonmonotone_input():
    plateaus = np.array([0.5, 0.9, 0.3, 1.0])
    with pytest.raises(ValueError):
        reconstruct_distribution(plateaus, f=1.0)


def test_reconstruction_clips_small_noise_with_warning():
    plateaus = np.array([0.5, 0.7, 0.69, 1.0])
    with pytest.warns(UserWarning):
        rec = reconstruct_distribution(plateaus, f=1.0)
    assert np.all(rec.p >= 0)


def test_population_distribution_validation():
    with pytest.raises(ValueError):
        PopulationDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        PopulationDistribution(np.array([0.9, 0.9]))
