import itertools
import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative
from scipy.special import roots_laguerre

from mwlattice.engineering import HarmonicModel
from mwlattice.lattice import (KB, cesium, LatticeGeometry,
                               potentials_from_angle, recoil_energy,
                               trap_frequency)
from mwlattice import bands, spectroscopy
from mwlattice.bands import BandSolverError
from mwlattice.spectroscopy import (FIT_NAMES, STACK_BLOCK, PulseSpec,
                                    SpectroscopyConfig, SpinMotionState,
                                    _coupling_modes, _fit_problem,
                                    _rotation_tables, _strang,
                                    _stacked_transfers, _thermal_systems,
                                    binomial_sigma, build_system,
                                    evolve_pulse, fit_spectrum,
                                    gaussian_pi_pulse, propagate_detunings,
                                    simulate_spectrum, system_from_potentials,
                                    worker_count)

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
    assert final.populations("down").sum() == pytest.approx(1.0, abs=1e-8)


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
    assert final.populations("down").sum() == pytest.approx(expected, abs=1e-5)


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


def test_zero_rabi_pulse_keeps_populations():
    system = small_system()
    pulse = PulseSpec("rectangular", peak_rabi=0.0, duration=30e-6)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
    amps /= np.linalg.norm(amps)
    out = propagate_detunings(system, pulse, SpinMotionState(amps),
                              [system.resonance(0, 0), 0.0], dt=3e-7)
    assert np.abs(np.abs(out) ** 2 - np.abs(amps) ** 2).max() < 1e-12


def row_major_reference(system, pulse, amps, detunings, dt):
    """The Strang loop on row states with complex products psi @ q, as the
    propagator ran before its rotations became real GEMMs on columns."""
    m = system.n_max + 1
    up_proj = np.concatenate([np.ones(m), np.zeros(m)])
    c = np.zeros((2 * m, 2 * m))
    c[:m, m:] = system.fc_matrix.T
    c[m:, :m] = system.fc_matrix
    diag = system.diagonal(detunings).T
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


def waist_depth_scales(t2d, radial_hz, n_nodes, w_up=850.0):
    """Node depth scales exp(-2 rho^2 / w0^2) from the transverse radius
    rho = sigma sqrt(2u), sigma = sqrt(kB T / (m omega_r^2)), and the beam
    waist w0 = sqrt(4 W_up / (m omega_r^2)) at radial trap frequency
    omega_r."""
    omega_r = 2 * math.pi * radial_hz
    sigma = math.sqrt(KB * t2d / (ATOM.mass * omega_r ** 2))
    rhos = sigma * np.sqrt(2.0 * roots_laguerre(n_nodes)[0])
    w_joule = w_up * recoil_energy(ATOM, 865.95)
    waist = math.sqrt(4.0 * w_joule / (ATOM.mass * omega_r ** 2))
    return np.array([math.exp(-2.0 * rho ** 2 / waist ** 2) for rho in rhos])


def thermal_nodes(monkeypatch, t2d, n_nodes):
    """(depth scale, weight) of every node of ``_thermal_systems``: with
    w_down = 1 the scaled down depth is the scale itself.  The nodes run on
    the workers, so the scales are recorded in any order; in node order
    they fall strictly, exp(-u kB T / W_up) at rising Laguerre nodes u."""
    scales = []
    monkeypatch.setattr(spectroscopy, "system_from_potentials",
                        lambda w_up, w_down, *a, **kw: scales.append(w_down))
    cfg = SpectroscopyConfig(n_max=2, thermal_samples=n_nodes)
    entries = _thermal_systems(850.0, 1.0, 1.0, 0.1, t2d, ATOM, 865.95, cfg)
    return np.sort(scales)[::-1], np.array([e[2] for e in entries])


def test_node_depth_scales_match_beam_waist_formula(monkeypatch):
    # the radial trap frequency cancels from the Gaussian-beam depth scale
    for n_nodes in (2, 6, 8):
        scales, weights = thermal_nodes(monkeypatch, 10e-6, n_nodes)
        assert scales.size == weights.size == n_nodes
        for radial_hz in (1e3, 2.5e3):
            ref = waist_depth_scales(10e-6, radial_hz, n_nodes)
            assert np.abs(scales / ref - 1).max() < 1e-15
    # the depth average is the Laplace transform of the 2-D Boltzmann
    # distribution in u: 1 / (1 + kB T / W_up)
    a = KB * 10e-6 / (850.0 * recoil_energy(ATOM, 865.95))
    assert abs(np.sum(weights * scales) - 1 / (1 + a)) < 1e-12
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
    # a cold ensemble is one node at full depth
    scales, weights = thermal_nodes(monkeypatch, 0.0, 8)
    assert scales.tolist() == [1.0] and weights.tolist() == [1.0]


def test_thermal_entries_follow_axial_boltzmann_ratio():
    # one node at full depth (t2d 0): the entry weights are the axial
    # Boltzmann populations at the up-spin trap frequency
    geom = LatticeGeometry(865.95, 850.0, 0.8770)
    up, down, dx = potentials_from_angle(geom)
    cfg = SpectroscopyConfig(n_max=10, k_points=16, axial_temperature=10e-6)
    entries = _thermal_systems(up.contrast, down.contrast, down.total_depth,
                               dx, 0.0, ATOM, 865.95, cfg)
    assert [n0 for _, n0, _ in entries] == list(range(len(entries)))
    omega = trap_frequency(850.0, ATOM, 865.95)
    from scipy.constants import hbar, k
    assert entries[1][2] / entries[0][2] == pytest.approx(
        math.exp(-hbar * omega / (k * 10e-6)), rel=1e-9)


def cleared_thermal_systems(t2d=10e-6):
    """``_thermal_systems`` of five nodes and several axial levels, each
    node's bands solved afresh (the band cache emptied first)."""
    bands._cached_bands.cache_clear()
    geom = LatticeGeometry(865.95, 850.0, 0.8770)
    up, down, dx = potentials_from_angle(geom)
    cfg = SpectroscopyConfig(n_max=5, k_points=8, thermal_samples=5,
                             axial_temperature=20e-6)
    return _thermal_systems(up.contrast, down.contrast, down.total_depth, dx,
                            t2d, ATOM, 865.95, cfg)


def held_at_a_barrier(func, workers, calls):
    """``func``, recording each call's first argument in ``calls``.  The
    first ``workers`` calls wait until that many run at once, and raise
    ``BrokenBarrierError`` after 10 s if fewer do."""
    barrier = threading.Barrier(workers, timeout=10)
    order = itertools.count()

    def held(first, *args, **kwargs):
        calls.append(first)
        if next(order) < workers:
            barrier.wait()
        return func(first, *args, **kwargs)

    return held


def test_thermal_systems_do_not_depend_on_the_worker_count(monkeypatch):
    build = spectroscopy.system_from_potentials
    out = {}
    for workers in (1, 2, 4):
        calls = []
        monkeypatch.setattr(spectroscopy, "system_from_potentials",
                            held_at_a_barrier(build, workers, calls))
        monkeypatch.setattr(spectroscopy, "WORKERS", workers)
        out[workers] = cleared_thermal_systems()
        assert len(calls) == 5
    ref = out[1]
    assert len(ref) > 5                 # several axial levels a node
    for entries in (out[2], out[4]):
        assert [e[1:] for e in entries] == [e[1:] for e in ref]
        for (system, _, _), (expected, _, _) in zip(entries, ref):
            for name in ("energy_up", "energy_down", "fc_matrix"):
                assert np.array_equal(getattr(system, name),
                                      getattr(expected, name))


def test_band_solver_error_in_a_helper_node_reaches_the_caller(monkeypatch):
    solve = bands._solve_single_k
    main = threading.get_ident()

    def failing(*args):
        if threading.get_ident() != main:
            raise BandSolverError("helper's band solve failed")
        return solve(*args)

    monkeypatch.setattr(bands, "_solve_single_k", failing)
    monkeypatch.setattr(spectroscopy, "WORKERS", 2)
    threads = threading.active_count()
    with pytest.raises(BandSolverError, match="helper's band solve failed"):
        cleared_thermal_systems()
    assert threading.active_count() == threads


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


@pytest.mark.parametrize("dt", [None, 5e-7])
def test_empty_detunings_raise_before_any_work(monkeypatch, dt):
    geom = LatticeGeometry(865.95, 850.0, 0.8770)
    system = small_system(n_max=4, k_points=8)
    initial = SpinMotionState.basis(4, "up", 0)
    pulse = gaussian_pi_pulse(30e-6)
    cfg = SpectroscopyConfig(n_max=4, k_points=8, thermal_samples=1, dt=dt)

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(spectroscopy, "system_from_potentials", no_work)
    monkeypatch.setattr(spectroscopy, "_strang", no_work)
    calls = [
        lambda: simulate_spectrum(geom, ATOM, pulse, np.array([]), 10e-6, cfg),
        lambda: spectroscopy.simulate_spectra([geom, geom], ATOM, pulse, [],
                                              cfg=cfg),
        lambda: propagate_detunings(system, pulse, initial, np.array([]), dt),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="detunings: empty"):
            call()


def test_fit_model_honours_axial_temperature():
    # simulate_spectrum and fit_spectrum share one forward model, so the
    # fit's model at the true parameters reproduces a thermal spectrum
    geom = LatticeGeometry(865.95, 850.0, 0.8770)
    cfg = SpectroscopyConfig(n_max=6, k_points=16, thermal_samples=2,
                             axial_temperature=5e-6, dt=3e-7)
    pulse = gaussian_pi_pulse(30e-6)
    system = build_system(geom, ATOM, n_max=6, k_points=16)
    detunings = np.array([system.resonance(n, n2) for n in range(3)
                          for n2 in range(3)])
    observed = simulate_spectrum(geom, ATOM, pulse, detunings, t2d=10e-6,
                                 cfg=cfg).transfer
    up, down, dx = potentials_from_angle(geom)
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
    up, down, dx = potentials_from_angle(geom)
    cfg = SpectroscopyConfig(n_max=n_max, k_points=16,
                             thermal_samples=n_nodes,
                             axial_temperature=axial_temperature)
    return _thermal_systems(up.contrast, down.contrast, down.total_depth, dx,
                            10e-6, ATOM, 865.95, cfg)


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
    diag = np.stack([s.diagonal(pulse.detuning) for s in systems])
    psi = np.tile(np.eye(dim, dtype=complex), (3, 1, 1))
    _strang(fc, diag, psi, pulse, 3e-7)
    for system, u in zip(systems, psi):
        one = propagate_detunings(system, pulse,
                                  SpinMotionState(np.eye(dim, dtype=complex)),
                                  [pulse.detuning], dt=3e-7)
        assert np.abs(u - one.T).max() < 1e-12


def uneven_stack(envelope):
    """Five systems of ``THREAD_BLOCK`` amplitudes each (dim 10 x 600
    columns): one block for one worker, five blocks at most for more."""
    model = HarmonicModel(2 * math.pi * 60e3, n_max=4)
    systems = [model.system(eta) for eta in (0.4, 0.7, 1.0, 1.3, 1.6)]
    detunings = systems[0].resonance(0, 1) + 2 * math.pi * 1e3 * np.linspace(
        -30.0, 30.0, 600)
    if envelope == "gaussian":
        pulse = gaussian_pi_pulse(30e-6)
    else:
        pulse = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 20e3,
                          detuning=systems[0].resonance(0, 1),
                          duration=100e-6, sweep=2 * math.pi * 40e3)
    fc = np.array([s.fc_matrix for s in systems])
    diag = np.stack([s.diagonal(detunings) for s in systems])
    rng = np.random.default_rng(3)
    psi = (rng.normal(size=diag.shape)
           + 1j * rng.normal(size=diag.shape)).astype(complex)
    return fc, diag, psi, pulse


@pytest.mark.parametrize("envelope", ["gaussian", "adiabatic_chirp"])
def test_states_do_not_depend_on_the_worker_count(monkeypatch, envelope):
    fc, diag, psi, pulse = uneven_stack(envelope)
    steps = spectroscopy._strang_steps
    split = {1: [5], 2: [2, 3], 4: [1, 1, 1, 2]}
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # threads switch between numpy calls
    try:
        for workers, sizes in split.items():
            blocks = []
            monkeypatch.setattr(spectroscopy, "_strang_steps",
                                held_at_a_barrier(steps, workers, blocks))
            monkeypatch.setattr(spectroscopy, "WORKERS", workers)
            out[workers] = psi.copy()
            _strang(fc, diag.copy(), out[workers], pulse, 5e-7)
            assert sorted(len(sigma) for sigma in blocks) == sizes
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out[1], out[2])
    assert np.array_equal(out[1], out[4])


class HelperFailure(Exception):
    pass


def test_helper_exception_reaches_the_caller(monkeypatch):
    fc, diag, psi, pulse = uneven_stack("gaussian")
    steps = spectroscopy._strang_steps
    main = threading.get_ident()

    def failing(*args):
        if threading.get_ident() != main:
            raise HelperFailure("block failed")
        steps(*args)

    monkeypatch.setattr(spectroscopy, "_strang_steps", failing)
    monkeypatch.setattr(spectroscopy, "WORKERS", 2)
    threads = threading.active_count()
    with pytest.raises(HelperFailure, match="block failed"):
        _strang(fc, diag, psi, pulse, 5e-7)
    assert threading.active_count() == threads


class BlockFailure(Exception):
    pass


def test_a_failing_block_waits_for_the_running_one(monkeypatch):
    fc, diag, psi, pulse = uneven_stack("gaussian")
    steps = spectroscopy._strang_steps
    order = itertools.count()
    other_running = threading.Event()
    other_done = []

    def failing(*args):
        if next(order) == 0:
            assert other_running.wait(10)
            raise BlockFailure("first block failed")
        other_running.set()
        time.sleep(0.2)         # still running when the first block raises
        steps(*args)
        other_done.append(True)

    monkeypatch.setattr(spectroscopy, "_strang_steps", failing)
    monkeypatch.setattr(spectroscopy, "WORKERS", 2)
    threads = threading.active_count()
    with pytest.raises(BlockFailure, match="first block failed"):
        _strang(fc, diag, psi, pulse, 5e-7)
    assert other_done == [True]         # joined before the exception left
    assert threading.active_count() == threads


@pytest.mark.parametrize("cores, env, workers", [
    (2, {}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"MKL_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "0"}, 1),
    (2, {"OMP_NUM_THREADS": "4,2"}, 1),
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
])
def test_worker_count_is_cores_over_blas_threads(cores, env, workers):
    assert worker_count(cores, env) == workers


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
            want[i] += weight * final.populations("down").sum()
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


def identity_unitary(system, pulse):
    """The pulse unitary at ``pulse.detuning`` and the automatic step."""
    identity = SpinMotionState(np.eye(system.dim, dtype=complex))
    return propagate_detunings(system, pulse, identity, [pulse.detuning]).T


@pytest.mark.parametrize("envelope", ["adiabatic_chirp", "gaussian"])
def test_midpoint_unitary_matches_ode_integrator_every_column(envelope):
    system = HarmonicModel(2 * math.pi * 60e3, n_max=5).system(1.0)
    if envelope == "gaussian":
        pulse = replace(gaussian_pi_pulse(30e-6, system.resonance(0, 1)),
                        peak_rabi=2 * math.pi * 60e3)
    else:
        pulse = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 20e3,
                          detuning=system.resonance(0, 1), duration=150e-6,
                          sweep=2 * math.pi * 40e3)
    u = identity_unitary(system, pulse)
    for col in range(system.dim):
        basis = np.zeros(system.dim, dtype=complex)
        basis[col] = 1.0
        ref = evolve_pulse(system, pulse, SpinMotionState(basis)).amplitudes
        # at most 1.5e-8 (chirp) and 1.3e-8 (Gaussian)
        assert np.abs(np.abs(u[:, col]) ** 2 - np.abs(ref) ** 2).max() < 1e-7


def test_rectangular_pulse_is_one_exponential():
    from scipy.linalg import expm
    model = HarmonicModel(2 * math.pi * 116.73e3, n_max=8)
    system = model.system(0.7)
    pulse = PulseSpec("rectangular", peak_rabi=2 * math.pi * 10e3,
                      detuning=system.resonance(0, 1), duration=50e-6)
    m = model.n_max + 1
    h = np.diag(system.diagonal(pulse.detuning)[:, 0])
    h[:m, m:] -= 0.5 * pulse.peak_rabi * system.fc_matrix.T
    h[m:, :m] -= 0.5 * pulse.peak_rabi * system.fc_matrix
    want = expm(-1j * h * pulse.duration)
    got = identity_unitary(system, pulse)
    # equal up to the global phase of the diagonal's mean
    phase = np.trace(want.conj().T @ got)
    assert np.abs(got - phase / abs(phase) * want).max() < 1e-12


def test_midpoint_raises_at_its_step_cap(monkeypatch):
    monkeypatch.setattr(spectroscopy, "MIDPOINT_STEPS", (64, 256))
    system = HarmonicModel(2 * math.pi * 116.73e3, n_max=4).system(1.0)
    pulse = PulseSpec("adiabatic_chirp", peak_rabi=2 * math.pi * 8e3,
                      detuning=system.resonance(0, 1), duration=1e-3,
                      sweep=2 * math.pi * 50e3)
    with pytest.raises(RuntimeError, match=r"PulseSpec\(envelope='adiabatic_"
                       r"chirp'.*: the exponential midpoint at 256 steps is "
                       r"off by about [0-9.e-]+ in populations, above 5e-08"):
        identity_unitary(system, pulse)


def test_grid_blocks_raise_past_the_strang_step_cap():
    # a 1 s Gaussian (spectrum.pulse_fwhm_us 1e6) over a diagonal spread
    # of +-1e7 rad/s: 800,000,237 steps of 5 ns at the automatic step
    diag = np.linspace(-1e7, 1e7, 32)[None, :, None]
    pulse = gaussian_pi_pulse(1.0)
    with pytest.raises(RuntimeError, match=r"PulseSpec\(envelope='gaussian'"
                       r".*: 800000237 Strang steps of 5e-09 s, above "
                       r"1048576"):
        spectroscopy._blocks(diag, pulse, None, None, 1)
    with pytest.raises(RuntimeError, match="40000000 Strang steps"):
        spectroscopy._blocks(diag, pulse, 1e-7, None, 1)


def test_strang_step_cap_is_inclusive(monkeypatch):
    diag = np.linspace(-1e6, 1e6, 8)[None, :, None]
    pulse = gaussian_pi_pulse(30e-6)
    (_, _, n_steps), = spectroscopy._blocks(diag, pulse, None, None, 1)
    monkeypatch.setattr(spectroscopy, "STRANG_STEPS", n_steps)
    assert spectroscopy._blocks(diag, pulse, None, None, 1)[0][2] == n_steps
    monkeypatch.setattr(spectroscopy, "STRANG_STEPS", n_steps - 1)
    with pytest.raises(RuntimeError, match=f"{n_steps} Strang steps"):
        _strang(np.eye(4)[None], diag.copy(),
                np.eye(8, dtype=complex)[None, :, :1].copy(), pulse, None)


@pytest.mark.parametrize("field", ["peak_rabi", "detuning", "fwhm",
                                   "duration", "sweep"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_pulse_spec_rejects_non_finite_fields(field, value):
    fields = {"peak_rabi": 1e5, "fwhm": 30e-6, field: value}
    with pytest.raises(ValueError, match=f"pulse {field} must be finite"):
        PulseSpec("gaussian", **fields)


FIT_GEOM = LatticeGeometry(865.95, 850.0, 0.8770)


def small_fit_problem(t2d_guess):
    cfg = SpectroscopyConfig(n_max=6, k_points=16, thermal_samples=2,
                             dt=3e-7)
    pulse = gaussian_pi_pulse(30e-6)
    system = build_system(FIT_GEOM, ATOM, n_max=6, k_points=16)
    detunings = np.array([system.resonance(0, n) + 2 * math.pi * 1e3 * off
                          for n in range(4) for off in (-4.0, 0.0, 5.0)])
    observed = simulate_spectrum(FIT_GEOM, ATOM, pulse, detunings,
                                 t2d=10e-6, cfg=cfg).transfer
    up, down, dx = potentials_from_angle(FIT_GEOM)
    truth = {"dx": dx, "w_down": down.contrast,
             "du_tot": -up.contrast - down.total_depth, "t2d": 10e-6}
    sigma = np.full(detunings.size, 0.01)
    guess = dict(truth, dx=1.03 * dx, w_down=0.98 * down.contrast,
                 t2d=t2d_guess)
    args = (detunings, observed, sigma, guess, 850.0, ATOM, 865.95, pulse,
            cfg)
    return args, truth


@pytest.mark.parametrize("t2d", [12e-6, 0.0])
def test_stacked_map_gives_scipy_two_point(t2d):
    # the workers map of least_squares must leave scipy's '2-point' Jacobian
    # as it is without it; t2d 0 takes the fallback step and the reversal at
    # the lower bound
    args, _ = small_fit_problem(t2d)
    residuals, stacked, z0, lower, _ = _fit_problem(*args)
    points = [z0, z0 + 0.01, 1.5 * z0]
    got = stacked(None, points)
    assert len(got) == len(points)
    for g, p in zip(got, points):
        assert np.array_equal(g, residuals(p))
    kwargs = dict(method="2-point", rel_step=spectroscopy.DIFF_STEP,
                  bounds=(lower, np.inf))
    want = approx_derivative(residuals, z0, **kwargs)
    got = approx_derivative(residuals, z0, workers=stacked, **kwargs)
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


@pytest.mark.parametrize("atoms", [0, 200])
def test_default_tolerances_stop_within_a_thousandth_of_a_stderr(atoms):
    # fit_spectrum stops at scipy's default xtol = ftol = gtol = 1e-8; the
    # same problem run to 1e-12 moves no parameter by 1e-3 of its stderr,
    # on the noiseless spectrum and on one with binomial noise
    args, _ = small_fit_problem(12e-6)
    detunings, observed, sigma = args[:3]
    if atoms:
        rng = np.random.default_rng(21)
        counts = rng.binomial(atoms, np.clip(observed, 0.0, 1.0))
        observed, sigma = counts / atoms, binomial_sigma(counts, atoms)
        args = (detunings, observed, sigma) + args[3:]
    fit = fit_spectrum(*args)
    residuals, stacked, z0, lower, scale = _fit_problem(*args)
    tight = least_squares(residuals, z0, diff_step=spectroscopy.DIFF_STEP,
                          workers=stacked, bounds=(lower, np.inf),
                          xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=200)
    assert fit.success and tight.status > 0
    assert fit.diagnostics["nfev"] <= tight.nfev
    for name, want in zip(FIT_NAMES, tight.x * scale):
        assert abs(fit.params[name] - want) <= 1e-3 * fit.stderr[name]


def test_system_from_potentials_puts_both_spins_on_one_cutoff(monkeypatch):
    # the estimate of the deeper spin serves both; a tail that fails on
    # either spin grows both together
    calls = []
    cached = bands.cached_bands

    def recording(depth, n_bands, k_points, q_cutoff):
        calls.append((depth, q_cutoff))
        return cached(depth, n_bands, k_points, q_cutoff)

    monkeypatch.setattr(bands, "cached_bands", recording)
    args = (640.0, 850.0, -900.0, 0.1, ATOM, 865.95)
    system = system_from_potentials(*args, n_max=5, k_points=8)
    q = bands.default_q_cutoff(850.0, 6)
    assert calls == [(640.0, q), (850.0, q)]

    calls.clear()
    monkeypatch.setattr(bands, "default_q_cutoff", lambda depth, n_bands: 20)
    grown = system_from_potentials(*args, n_max=5, k_points=8)
    assert calls == [(640.0, 20), (850.0, 20), (640.0, 25), (850.0, 25),
                     (640.0, 31), (850.0, 31)]
    fixed = system_from_potentials(*args, n_max=5, k_points=8, q_cutoff=31)
    assert np.array_equal(grown.fc_matrix, fixed.fc_matrix)
    assert np.abs(grown.fc_matrix - system.fc_matrix).max() < 1e-14
