import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

from mwlattice.engineering import HarmonicModel
from mwlattice.lattice import cesium, LatticeGeometry, potentials_from_angle
from mwlattice import spectroscopy
from mwlattice.spectroscopy import (FIT_NAMES, STACK_BLOCK, PulseSpec,
                                    SpectroscopyConfig, SpinMotionState,
                                    ThermalEnsemble, _coupling_modes,
                                    _fit_problem, _rotation_tables, _strang,
                                    _stacked_transfers, _thermal_systems,
                                    beam_waist, binomial_sigma,
                                    boltzmann_populations, build_system,
                                    evolve_pulse, fit_spectrum,
                                    gaussian_pi_pulse, propagate_detunings,
                                    radial_depth_scale,
                                    simulate_spectrum, system_from_potentials)

ATOM = cesium()
FOUR_LN2 = 4 * math.log(2)


def small_system(angle=0.8770, n_max=6, k_points=16):
    geom = LatticeGeometry(865.95, 850.0, angle)
    return build_system(geom, ATOM, n_max=n_max, k_points=k_points)


def test_gaussian_pulse_area_is_pi():
    pulse = gaussian_pi_pulse(30e-6)
    t = np.linspace(0, pulse.support, 20001)
    area = np.trapezoid([pulse.rabi(x) for x in t], t)
    assert area == pytest.approx(math.pi, rel=1e-4)


def test_resonant_carrier_pi_pulse_full_transfer():
    # unit coupling two-level check: n_max = 0 system with I = 1
    sys0 = system_from_potentials(850.0, 850.0, -850.0, 0.0, ATOM, 865.95,
                                  n_max=0, k_points=8)
    assert sys0.fc_matrix[0, 0] == pytest.approx(1.0, abs=1e-10)
    pulse = gaussian_pi_pulse(30e-6, detuning=sys0.resonance(0, 0))
    final = SpinMotionState(propagate_detunings(
        sys0, pulse, SpinMotionState.basis(0, "up", 0), [pulse.detuning])[0])
    assert final.transfer_probability() == pytest.approx(1.0, abs=1e-8)


def test_rabi_formula_rectangular_pulse():
    # detuned rectangular pulse on a pure two-level system follows
    # P = (O^2 / (O^2 + d^2)) sin^2(sqrt(O^2 + d^2) t / 2)
    sys0 = system_from_potentials(850.0, 850.0, -850.0, 0.0, ATOM, 865.95,
                                  n_max=0, k_points=8)
    omega = 2 * math.pi * 10e3
    delta = 2 * math.pi * 7e3
    t = 40e-6
    pulse = PulseSpec("rectangular", peak_rabi=omega,
                      detuning=sys0.resonance(0, 0) + delta, duration=t)
    final = SpinMotionState(propagate_detunings(
        sys0, pulse, SpinMotionState.basis(0, "up", 0), [pulse.detuning])[0])
    eff = math.hypot(omega, delta)
    expected = (omega / eff) ** 2 * math.sin(eff * t / 2) ** 2
    assert final.transfer_probability() == pytest.approx(expected, abs=1e-5)


def test_split_step_matches_ode_integrator():
    system = small_system()
    pulse = gaussian_pi_pulse(30e-6, detuning=system.resonance(0, 1))
    psi0 = SpinMotionState.basis(6, "up", 0)
    a = propagate_detunings(system, pulse, psi0, [pulse.detuning])[0]
    b = evolve_pulse(system, pulse, psi0).amplitudes
    # compare populations (global phase differs between integrators)
    assert np.abs(np.abs(a) ** 2 - np.abs(b) ** 2).max() < 1e-7


def test_spin_names_are_checked():
    with pytest.raises(ValueError, match="'UP'"):
        SpinMotionState.basis(3, "UP", 0)
    state = SpinMotionState.basis(3, "down", 1)
    assert state.populations("down")[1] == 1.0
    with pytest.raises(ValueError, match="'aux'"):
        state.populations("aux")


def test_propagation_preserves_norm():
    system = small_system()
    pulse = gaussian_pi_pulse(30e-6)
    detunings = system.resonance(0, 0) + 2 * math.pi * 1e3 * np.linspace(
        -300, 50, 40)
    out = propagate_detunings(system, pulse, SpinMotionState.basis(6, "up", 0),
                              detunings)
    norms = np.sum(np.abs(out) ** 2, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def row_major_reference(system, pulse, amps, detunings, dt):
    """The Strang loop on row states with complex products psi @ q, as the
    propagator ran before its rotations became real GEMMs on columns."""
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    base, up_proj, c = system.hamiltonian_parts()
    diag = base[None, :] - np.multiply.outer(detunings, up_proj)
    psi = np.array(np.broadcast_to(
        amps, np.broadcast_shapes(amps.shape, diag.shape)), dtype=complex)
    diag = diag - diag.mean(axis=1, keepdims=True)
    n_steps = max(1, int(math.ceil(pulse.support / dt)))
    dt = pulse.support / n_steps
    lam, q = np.linalg.eigh(c)
    if pulse.envelope == "adiabatic_chirp":
        for i in range(n_steps):
            tm = (i + 0.5) * dt
            dd = pulse.instantaneous_detuning(tm) - pulse.detuning
            half = np.exp(-0.5j * dt * (diag - dd * up_proj[None, :]))
            psi *= half
            omega = pulse.rabi(tm)
            if omega != 0.0:
                rot = np.exp(0.5j * dt * omega * lam)
                psi = (psi @ q) * rot[None, :] @ q.T
            psi *= half
        return psi
    half = np.exp(-0.5j * dt * diag)
    full = half * half
    psi *= half
    for i in range(n_steps):
        omega = pulse.rabi((i + 0.5) * dt)
        if omega != 0.0:
            rot = np.exp(0.5j * dt * omega * lam)
            psi = (psi @ q) * rot[None, :] @ q.T
        psi *= full if i < n_steps - 1 else half
    return psi


@pytest.mark.parametrize("envelope", ["gaussian", "rectangular",
                                      "adiabatic_chirp"])
def test_propagator_matches_row_major_reference(envelope):
    system = small_system()
    res = system.resonance(0, 1)
    pulse = {
        "gaussian": gaussian_pi_pulse(30e-6, detuning=res),
        "rectangular": PulseSpec("rectangular", peak_rabi=2 * math.pi * 20e3,
                                 detuning=res, duration=40e-6),
        "adiabatic_chirp": PulseSpec("adiabatic_chirp",
                                     peak_rabi=2 * math.pi * 20e3,
                                     detuning=res, duration=100e-6,
                                     sweep=2 * math.pi * 40e3),
    }[envelope]
    detunings = res + 2 * math.pi * 1e3 * np.linspace(-60.0, 30.0, 9)
    rng = np.random.default_rng(3)
    batch = (rng.standard_normal((detunings.size, system.dim))
             + 1j * rng.standard_normal((detunings.size, system.dim)))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    cases = [  # one state on a grid, a batch of B = N_d, the identity batch
        (SpinMotionState.basis(6, "up", 0).amplitudes, detunings, 2e-7),
        (batch, detunings, 2e-7),
        (np.eye(system.dim, dtype=complex), [pulse.detuning], 2e-7),
    ]
    if envelope == "adiabatic_chirp":
        # one and two steps: the first and last up-row phases carry the
        # whole chirp
        cases += [(batch, detunings, pulse.support),
                  (batch, detunings, pulse.support / 2)]
    for amps, dets, dt in cases:
        out = propagate_detunings(system, pulse, SpinMotionState(amps), dets,
                                  dt=dt)
        want = row_major_reference(system, pulse, amps, dets, dt=dt)
        assert out.shape == want.shape
        assert np.abs(out - want).max() < 1e-12
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12


def coupling_cases():
    """A harmonic FC table, a rank-3 F and an F whose singular values are
    1, 1, 1, 0.5, 0.5, 0.2 (degenerate)."""
    rng = np.random.default_rng(11)
    ortho = [np.linalg.qr(rng.standard_normal((6, 6)))[0] for _ in range(2)]
    return {
        "harmonic": HarmonicModel(2 * math.pi * 60e3, n_max=5).coupling(1.3),
        "rank_deficient": rng.standard_normal((6, 3))
        @ rng.standard_normal((3, 6)),
        "degenerate": ortho[0] @ np.diag([1, 1, 1, 0.5, 0.5, 0.2])
        @ ortho[1].T,
    }


@pytest.mark.parametrize("case", ["harmonic", "rank_deficient",
                                  "degenerate"])
def test_rotation_tables_are_the_conjugated_coupling_rotation(case):
    # R(theta) = diag(1, -i) q e^{i theta lambda} q^T diag(1, i) for the
    # eigenpairs (lambda, q) of C = [[0, F^T], [F, 0]]
    f = coupling_cases()[case]
    m = f.shape[0]
    u, sigma, vh = np.linalg.svd(f[None])
    theta = np.array([0.0, 1e-3, 0.37, 1.9, -2.6])
    tables = _rotation_tables(_coupling_modes(u, vh.swapaxes(1, 2)), sigma,
                              theta)
    assert tables.shape == (1, theta.size, 2 * m, 2 * m)
    c = np.block([[np.zeros((m, m)), f.T], [f, np.zeros((m, m))]])
    lam, q = np.linalg.eigh(c)
    frame = np.concatenate([np.ones(m), np.full(m, -1j)])
    for t, r in zip(theta, tables[0]):
        assert np.isrealobj(r)
        assert np.abs(r.T @ r - np.eye(2 * m)).max() < 1e-14
        want = (frame[:, None] * (q * np.exp(1j * t * lam)) @ q.T
                * frame.conj()[None, :])
        assert np.abs(r - want).max() < 1e-14


def test_norm_drift_raises(monkeypatch):
    # rotations 1e-6 too long: the norm grows by about 1e-6 a step
    tables = spectroscopy._rotation_tables
    monkeypatch.setattr(spectroscopy, "_rotation_tables",
                        lambda *args: tables(*args) * (1 + 1e-6))
    system = small_system()
    pulse = gaussian_pi_pulse(30e-6)
    with pytest.raises(RuntimeError, match=r"changed the norm of state \d+ "
                       r"of system 0 by [0-9.e-]+ \(relative\), above 1e-08"):
        propagate_detunings(system, pulse, SpinMotionState.basis(6, "up", 0),
                            [system.resonance(0, 0), system.resonance(0, 1)],
                            dt=3e-7)


def test_sideband_peak_positions():
    system = small_system()
    pulse = gaussian_pi_pulse(30e-6)
    # transfer at the first red sideband resonance exceeds neighbors offset
    # by half a vibrational spacing
    res = system.resonance(0, 1)
    spacing = system.energy_down[1] - system.energy_down[0]
    detunings = np.array([res - spacing / 2, res, res + spacing / 2])
    out = propagate_detunings(system, pulse, SpinMotionState.basis(6, "up", 0),
                              detunings)
    p = np.sum(np.abs(out[:, 7:]) ** 2, axis=1)
    assert p[1] > 5 * p[0] and p[1] > 5 * p[2]


def test_thermal_ensemble_weights():
    ens = ThermalEnsemble(10e-6, 2 * math.pi * 1e3, 8)
    rhos, weights = ens.nodes(ATOM)
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(rhos >= 0) and np.all(np.diff(rhos) > 0)
    # mean rho^2 of the 2-D Boltzmann distribution is 2 sigma^2
    sigma = ens.sigma(ATOM)
    assert np.sum(weights * rhos ** 2) == pytest.approx(2 * sigma ** 2,
                                                        rel=1e-6)


def test_beam_waist_value():
    geom = LatticeGeometry(865.95, 850.0, 0.0)
    w0 = beam_waist(geom, ATOM, 2 * math.pi * 1e3)
    assert w0 * 1e6 == pytest.approx(22.75, rel=1e-2)
    assert radial_depth_scale(0.0, w0) == 1.0
    assert radial_depth_scale(w0, w0) == pytest.approx(math.exp(-2), rel=1e-12)


def test_boltzmann_populations_ratio():
    omega = 2 * math.pi * 116.73e3
    t = 10e-6
    p = boltzmann_populations(10, omega, t)
    from scipy.constants import hbar, k
    assert p[1] / p[0] == pytest.approx(math.exp(-hbar * omega / (k * t)),
                                        rel=1e-9)
    assert p.sum() == pytest.approx(1.0, rel=1e-12)


def test_binomial_sigma_never_zero():
    s = binomial_sigma(np.array([0.0, 50.0, 100.0]), 100)
    assert np.all(s > 0)
    assert s[1] == pytest.approx(math.sqrt(0.5 * 0.5 / 100), rel=0.02)


def test_simulate_spectrum_peak_at_carrier():
    geom = LatticeGeometry(865.95, 850.0, 0.1)   # small shift: strong carrier
    cfg = SpectroscopyConfig(n_max=6, k_points=16, thermal_samples=1)
    system = build_system(geom, ATOM, n_max=6, k_points=16)
    res0 = system.resonance(0, 0)
    detunings = res0 + 2 * math.pi * 1e3 * np.linspace(-60, 60, 121)
    pulse = gaussian_pi_pulse(30e-6)
    result = simulate_spectrum(geom, ATOM, pulse, detunings, cfg=cfg)
    assert result.transfer.max() > 0.9
    peak = detunings[np.argmax(result.transfer)]
    assert abs(peak - res0) < 2 * math.pi * 2e3
    # FWHM of the carrier ~ Fourier limit of the 30 us Gaussian
    half = result.transfer.max() / 2
    above = detunings[result.transfer > half]
    fwhm_khz = (above.max() - above.min()) / (2 * math.pi * 1e3)
    assert fwhm_khz == pytest.approx(20.0, rel=0.25)


def test_fit_model_honours_axial_temperature():
    # simulate_spectrum and fit_spectrum share one forward model, so the
    # fit's model at the true parameters reproduces a thermal spectrum
    geom = LatticeGeometry(865.95, 850.0, 0.8770)
    cfg = SpectroscopyConfig(n_max=6, k_points=16, thermal_samples=2,
                             axial_temperature=5e-6, dt=3e-7)
    ens = ThermalEnsemble(10e-6, cfg.omega_rad, cfg.thermal_samples)
    pulse = gaussian_pi_pulse(30e-6)
    system = build_system(geom, ATOM, n_max=6, k_points=16)
    detunings = np.array([system.resonance(n, n2) for n in range(3)
                          for n2 in range(3)])
    observed = simulate_spectrum(geom, ATOM, pulse, detunings, ensemble=ens,
                                 cfg=cfg).transfer
    up, down, dx = potentials_from_angle(geom, ATOM)
    truth = {"dx": dx, "w_down": down.contrast,
             "du_tot": -up.contrast - down.total_depth, "t2d": 10e-6}
    fit = fit_spectrum(detunings, observed, np.ones_like(observed), truth,
                       w_up=850.0, atom=ATOM, lattice_wavelength=865.95,
                       pulse=pulse, cfg=cfg, max_nfev=1)
    # cost = sum(residual^2) / 2 with unit sigma: residuals below 1e-12
    assert fit.cost < 0.5 * detunings.size * 1e-24


def thermal_states(n_nodes=3, axial_temperature=0.0, n_max=6):
    """Populated thermal states of the 0.877 rad lattice at 10 uK."""
    geom = LatticeGeometry(865.95, 850.0, 0.8770)
    up, down, dx = potentials_from_angle(geom, ATOM)
    cfg = SpectroscopyConfig(n_max=n_max, k_points=16,
                             thermal_samples=n_nodes,
                             axial_temperature=axial_temperature)
    ens = ThermalEnsemble(10e-6, cfg.omega_rad, n_nodes)
    return _thermal_systems(up.contrast, down.contrast, down.total_depth, dx,
                            ens, ATOM, 865.95, cfg)


def test_stacked_loop_matches_separate_calls():
    # nodes at different depths, several initial levels at T_axial > 0, and
    # a grid wide enough that the stack runs in more than one block
    entries = thermal_states(axial_temperature=8e-6)
    assert len({id(e[0]) for e in entries}) == 3 and len(entries) > 3
    system0 = entries[0][0]
    detunings = system0.resonance(0, 1) + 2 * math.pi * 1e3 * np.linspace(
        -400.0, 300.0, 600)
    assert len(entries) * system0.dim * detunings.size > 2 * STACK_BLOCK
    pulse = gaussian_pi_pulse(30e-6)
    got = _stacked_transfers([entries[:2], entries[2:]], pulse, detunings,
                             dt=4e-7)
    m = system0.n_max + 1
    want = []
    for group in (entries[:2], entries[2:]):
        total = np.zeros(detunings.size)
        for system, n0, weight in group:
            out = propagate_detunings(
                system, pulse, SpinMotionState.basis(system.n_max, "up", n0),
                detunings, dt=4e-7)
            total += weight * np.sum(np.abs(out[:, m:]) ** 2, axis=1)
        want.append(total)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < 1e-12


def test_stacked_chirp_matches_separate_calls():
    model = HarmonicModel(2 * math.pi * 60e3, n_max=5)
    systems = [model.system(eta) for eta in (0.6, 1.1, 1.7)]
    pulse = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 20e3,
                      detuning=systems[0].resonance(0, 1), duration=100e-6,
                      sweep=2 * math.pi * 40e3)
    dim = systems[0].dim
    fc = np.array([s.fc_matrix for s in systems])
    diag = np.stack([s.hamiltonian_parts()[0] - pulse.detuning
                     * s.hamiltonian_parts()[1] for s in systems])
    psi = np.tile(np.eye(dim, dtype=complex), (3, 1, 1))
    _strang(fc, diag[:, :, None], psi, pulse, 3e-7)
    for system, u in zip(systems, psi):
        one = propagate_detunings(system, pulse,
                                  SpinMotionState(np.eye(dim, dtype=complex)),
                                  [pulse.detuning], dt=3e-7)
        assert np.abs(u - one.T).max() < 1e-12


def test_stack_matches_ode_integrator_on_a_grid():
    entries = thermal_states(n_nodes=2)
    pulse = gaussian_pi_pulse(30e-6)
    system0 = entries[0][0]
    detunings = np.array([system0.resonance(0, 1), system0.resonance(0, 2)
                          + 2 * math.pi * 3e3])
    got = _stacked_transfers([entries], pulse, detunings, dt=5e-8)[0]
    want = np.zeros(detunings.size)
    for system, n0, weight in entries:
        for i, d in enumerate(detunings):
            final = evolve_pulse(system, replace(pulse, detuning=d),
                                 SpinMotionState.basis(6, "up", n0))
            want[i] += weight * final.transfer_probability()
    assert np.abs(got - want).max() < 1e-7


def test_chirp_unitary_matches_ode_integrator_every_column():
    model = HarmonicModel(2 * math.pi * 60e3, n_max=4)
    system = model.system(1.0)
    pulse = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 20e3,
                      detuning=system.resonance(0, 1), duration=100e-6,
                      sweep=2 * math.pi * 40e3)
    u = propagate_detunings(system, pulse,
                            SpinMotionState(np.eye(system.dim, dtype=complex)),
                            [pulse.detuning], dt=5e-9).T
    for col in range(system.dim):
        basis = np.zeros(system.dim, dtype=complex)
        basis[col] = 1.0
        ref = evolve_pulse(system, pulse, SpinMotionState(basis)).amplitudes
        # second order: 1.0e-6 at dt 40 ns, 6.2e-8 at 10 ns, 1.6e-8 at 5 ns
        assert np.abs(np.abs(u[:, col]) ** 2 - np.abs(ref) ** 2).max() < 3e-8


FIT_GEOM = LatticeGeometry(865.95, 850.0, 0.8770)


def small_fit_problem(t2d_guess):
    cfg = SpectroscopyConfig(n_max=6, k_points=16, thermal_samples=2,
                             dt=3e-7)
    pulse = gaussian_pi_pulse(30e-6)
    system = build_system(FIT_GEOM, ATOM, n_max=6, k_points=16)
    detunings = np.array([system.resonance(0, n) + 2 * math.pi * 1e3 * off
                          for n in range(4) for off in (-4.0, 0.0, 5.0)])
    ens = ThermalEnsemble(10e-6, cfg.omega_rad, cfg.thermal_samples)
    observed = simulate_spectrum(FIT_GEOM, ATOM, pulse, detunings,
                                 ensemble=ens, cfg=cfg).transfer
    up, down, dx = potentials_from_angle(FIT_GEOM, ATOM)
    truth = {"dx": dx, "w_down": down.contrast,
             "du_tot": -up.contrast - down.total_depth, "t2d": 10e-6}
    sigma = np.full(detunings.size, 0.01)
    guess = dict(truth, dx=1.03 * dx, w_down=0.98 * down.contrast,
                 t2d=t2d_guess)
    args = (detunings, observed, sigma, guess, 850.0, ATOM, 865.95, pulse,
            cfg)
    return args, truth


@pytest.mark.parametrize("t2d", [12e-6, 0.0])
def test_jacobian_matches_scipy_two_point(t2d):
    args, _ = small_fit_problem(t2d)
    residuals, jacobian, z0, lower, _ = _fit_problem(*args)
    want = approx_derivative(residuals, z0, method="2-point", rel_step=1e-4,
                             bounds=(lower, np.inf))
    cached = (residuals(z0), jacobian(z0))[1]      # f(z0) from the cache
    fresh = jacobian(z0.copy() * 1.0)              # f(z0) recomputed
    residuals(z0 + 1.0)
    uncached = jacobian(z0)
    for got in (cached, fresh, uncached):
        assert got.shape == want.shape
        tol = 1e-8 * np.abs(want).max(axis=0)
        assert np.all(np.abs(got - want) <= tol)


def test_noiseless_fit_reports_unscaled_covariance():
    # absolute sigma: the stderr is sqrt(diag(inv(J^T J))) however small
    # chi^2 / dof is, here about 1e-20
    args, truth = small_fit_problem(10e-6)
    args = args[:3] + (truth,) + args[4:]
    fit = fit_spectrum(*args)
    residuals, _, _, lower, scale = _fit_problem(*args)
    z = np.array([fit.params[k] for k in FIT_NAMES]) / scale
    jac = approx_derivative(residuals, z, method="2-point", rel_step=1e-4,
                            bounds=(lower, np.inf))
    want = scale * np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
    assert fit.cost < 1e-12
    got = np.array([fit.stderr[k] for k in FIT_NAMES])
    assert np.allclose(got, want, rtol=1e-4, atol=0.0)
