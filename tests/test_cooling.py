import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mwlattice import cooling
from mwlattice.cooling import (CoolingParams, DEFAULT_BRANCHING, SPIN_AUX,
                               SPIN_DOWN, SPIN_UP, build_liouvillian,
                               cooling_map, decay_rates,
                               emission_average_overlap_sq, energy_balance,
                               evolve, projection_heating_fc_sum,
                               projection_heating_general, steady_state,
                               temperature_from_sidebands, thermal_state)
from mwlattice.franck_condon import fcf_harmonic_matrix

OMEGA_VIB = 2 * math.pi * 116.73e3


def params(eta_x=0.3, omega_0=2 * math.pi * 36e3, n_max=6, **kw):
    defaults = dict(omega_0=omega_0, omega_vib=OMEGA_VIB, eta_x=eta_x,
                    eta_k=0.134, r_down=2 * math.pi * 10e3,
                    r_aux=2 * math.pi * 10e3, n_max=n_max)
    defaults.update(kw)
    return CoolingParams(**defaults)


def test_branching_ratios_sum_to_one():
    assert sum(DEFAULT_BRANCHING) == pytest.approx(1.0, abs=1e-12)
    assert DEFAULT_BRANCHING == (7 / 15, 5 / 12, 7 / 60)


def test_emission_average_reduces_to_displacement_at_zero_recoil():
    m2 = emission_average_overlap_sq(0.4, 0.0, 6)
    d = np.abs(np.real(fcf_harmonic_matrix(0.4, 6))) ** 2
    assert np.abs(m2 - d).max() < 1e-12


def test_emission_average_rows_sum_to_one_with_big_basis():
    # completeness: sum over final n of <|M|^2> = 1 (before truncation)
    m2 = emission_average_overlap_sq(0.3, 0.134, 20)
    assert m2[:, :6].sum(axis=0) == pytest.approx(np.ones(6), abs=1e-8)


def test_decay_rates_conserve_probability():
    p = params()
    channels = decay_rates(p)
    # total decay out of each |down, n'> equals r_down (branching sums to 1,
    # emission kernel complete) for low n' where truncation is negligible
    total = np.zeros(p.levels)
    for ch in channels:
        if ch.source_spin == SPIN_DOWN:
            total += ch.rates.sum(axis=0)
    assert total[:3] == pytest.approx(p.r_down, rel=1e-3)


def dense_hamiltonian(p):
    """Rotating-frame H in units of hbar omega_vib, resonant with
    |up,1> -> |down,0>: the up ladder is offset by -1; aux is uncoupled."""
    m = p.levels
    n = np.arange(m, dtype=float)
    h = np.diag(np.concatenate([n - 1.0, n, n]))
    k = np.real(fcf_harmonic_matrix(complex(p.eta_x, 0.0), p.n_max))
    g = 0.5 * p.omega_0 / p.omega_vib
    h[m:2 * m, :m] -= g * k          # <down,n'| H |up,n>
    h[:m, m:2 * m] -= g * k.T
    return h


def test_hamiltonian_hermitian_and_resonant():
    # The Hamiltonian part of the generator: L maps Hermitian rho to
    # Hermitian L[rho], and in the rotating frame the coherence between
    # |up,1> and |down,0> does not rotate (the two are degenerate), so its
    # diagonal generator entry is purely dissipative, while that between
    # |up,1> and |up,2> rotates at one vibrational quantum.
    p = params()
    lio = build_liouvillian(p)
    dim, m = p.dim, p.levels
    rng = np.random.default_rng(5)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    drho = (lio @ (a + a.conj().T).reshape(-1)).reshape(dim, dim)
    assert np.abs(drho - drho.conj().T).max() < 1e-12
    i, j = 1, m + 0
    assert lio[i * dim + j, i * dim + j].imag == pytest.approx(0.0, abs=1e-12)
    assert lio[i * dim + 2, i * dim + 2].imag == pytest.approx(1.0, abs=1e-12)


def dense_liouvillian(p):
    """Reference: the generator assembled densely from Kronecker products."""
    dim, m = p.dim, p.levels
    eye = np.eye(dim)
    h = dense_hamiltonian(p)
    lio = -1j * (np.kron(h, eye) - np.kron(eye, h.T)).astype(complex)
    decay_diag = np.zeros(dim)
    for ch in decay_rates(p):
        g = ch.rates / p.omega_vib
        src0, dst0 = ch.source_spin * m, ch.target_spin * m
        for n_ket in range(m):
            j = src0 + n_ket
            for n_bra in range(m):
                i = dst0 + n_bra
                lio[i * dim + i, j * dim + j] += g[n_bra, n_ket]
            decay_diag[j] += g[:, n_ket].sum()
    lio -= 0.5 * (np.kron(np.diag(decay_diag), eye)
                  + np.kron(eye, np.diag(decay_diag)))
    return lio


@pytest.mark.parametrize("kw", [
    {}, {"r_up": 2 * math.pi * 1e3}])
def test_sparse_liouvillian_matches_dense_assembly(kw):
    p = params(n_max=5, **kw)
    lio = build_liouvillian(p)
    assert sp.issparse(lio)
    ref = dense_liouvillian(p)
    assert np.abs(lio.toarray() - ref).max() < 1e-14


def test_decay_rates_compute_each_kernel_once(monkeypatch):
    calls = []
    original = cooling.emission_average_overlap_sq

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cooling, "emission_average_overlap_sq", counting)
    channels = decay_rates(params(r_up=2 * math.pi * 1e3))
    assert len(channels) == 7
    assert sorted(calls) == [0.0, 0.3]


def test_steady_state_matches_dense_solve():
    p = params(n_max=10)
    lio = build_liouvillian(p)
    dim = p.dim
    a = lio.toarray()
    a[0, :] = 0.0
    a[0, np.arange(dim) * (dim + 1)] = 1.0
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(a, b).reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    result = steady_state(p, lio)
    assert not result.degenerate
    assert np.abs(result.rho.matrix - rho).max() < 1e-12


def test_steady_state_beyond_the_dense_size():
    # dim 63 and 75: the dense generator would be 3969^2 and 5625^2
    p20 = steady_state(params(n_max=20)).rho.p_ground()
    p24 = steady_state(params(n_max=24)).rho.p_ground()
    assert abs(p20 - p24) < 1e-6


def test_svd_fallback_refuses_large_state_space():
    p = params(omega_0=0.0, n_max=40)
    n2 = p.dim ** 2
    # an all-zero generator leaves the trace-row system singular
    with pytest.raises(ValueError, match="state space 123"):
        steady_state(p, sp.csr_matrix((n2, n2), dtype=complex))


def test_liouvillian_annihilates_trace():
    p = params(n_max=5)
    lio = build_liouvillian(p)
    dim = p.dim
    # tr(L[rho]) = 0 for all rho: the identity row-sum vec must vanish
    tr_vec = np.eye(dim).reshape(-1) @ lio
    assert np.abs(tr_vec).max() < 1e-12


def test_steady_state_properties():
    p = params()
    result = steady_state(p)
    rho = result.rho
    rho.validate(tol=1e-8)
    assert result.residual < 1e-10
    assert not result.degenerate
    assert rho.p_ground() > 0.9


def test_steady_state_dark_state_is_up_ground():
    p = params()
    rho = steady_state(p).rho
    # the population accumulates in |up, 0>
    assert rho.populations(SPIN_UP)[0] > 0.9
    assert rho.populations(SPIN_AUX).sum() < 0.05


def test_degenerate_kernel_flagged_without_coupling():
    # Omega_0 = 0 decouples the spin sectors: kernel is degenerate
    p = params(omega_0=0.0, n_max=3)
    result = steady_state(p)
    assert result.degenerate
    result.rho.validate(tol=1e-6)


def test_degenerate_kernel_state_is_long_time_limit():
    # the fallback returns the state the maximally mixed state relaxes to,
    # checked against a dense matrix exponential at a time long against
    # every decay
    p = params(omega_0=0.0, n_max=3)
    lio = build_liouvillian(p).toarray()
    rho = steady_state(p).rho.matrix
    mixed = np.eye(p.dim).reshape(-1) / p.dim
    late = (expm(lio * 1e3) @ mixed).reshape(p.dim, p.dim)
    assert np.abs(rho - late).max() < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_evolution_converges_to_steady_state():
    p = params(n_max=5)
    lio = build_liouvillian(p)
    ss = steady_state(p, lio)
    rho0 = thermal_state(p, 1.0)
    final = evolve(p, rho0, 0.5, lio)
    diff = final.matrix - ss.rho.matrix
    dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert dist < 1e-6


def test_evolution_preserves_trace_and_positivity():
    p = params(n_max=5)
    rho = evolve(p, thermal_state(p, 1.0), 1e-4)
    rho.validate(tol=1e-8)


def test_evolution_above_the_dense_size_matches_ode(monkeypatch):
    # n_max 13: the thermal start's group holds 4 * 14^2 + 14 = 798 entries;
    # with the dense limit set below that, evolve takes expm_multiply on the
    # group's sub-block; the reference integrates the full sparse generator
    # with DOP853
    calls = []
    original = cooling.expm_multiply

    def recording(a, b):
        calls.append(a.shape)
        return original(a, b)

    monkeypatch.setattr(cooling, "DENSE_EIG_LIMIT", 797)
    monkeypatch.setattr(cooling, "expm_multiply", recording)
    p = params(n_max=13)
    lio = build_liouvillian(p)
    assert lio.shape[0] == 1764
    rho0 = thermal_state(p, 1.0)
    final = evolve(p, rho0, 1e-4, lio)
    assert calls == [(798, 798)]
    t = 1e-4 * p.omega_vib
    sol = solve_ivp(lambda _, y: lio @ y, (0.0, t),
                    rho0.reshape(-1).astype(complex), method="DOP853",
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    ref = sol.y[:, -1].reshape(p.dim, p.dim)
    assert np.abs(final.matrix - ref).max() < 1e-9
    final.validate(tol=1e-8)


def full_generator_eig(p, rho0, duration, lio):
    """Reference: the dense complex eig of the whole generator, the path
    evolve took before it split the generator into invariant groups."""
    t = duration * p.omega_vib
    w, v = np.linalg.eig(lio.toarray())
    vec = v @ (np.exp(w * t) * np.linalg.solve(v, rho0.reshape(-1)))
    rho = vec.reshape(p.dim, p.dim)
    return 0.5 * (rho + rho.conj().T)


def random_state(dim, seed):
    """Full-rank density matrix: every invariant group has weight."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n_max, duration, full_rank", [
    (5, 1e-3, True), (10, 1.0, False)])
def test_evolution_matches_full_generator_eig(n_max, duration, full_rank):
    p = params(n_max=n_max)
    lio = build_liouvillian(p)
    rho0 = random_state(p.dim, 3) if full_rank else thermal_state(p, 1.33)
    final = evolve(p, rho0, duration, lio)
    ref = full_generator_eig(p, rho0, duration, lio)
    assert np.abs(final.matrix - ref).max() < 1e-8


@pytest.mark.parametrize("duration", [1e-5, 1e-3])
def test_full_rank_state_touches_every_group(monkeypatch, duration):
    # eta_x 1.2 with a weak drive (see the slow-coherence test); every
    # group is diagonalized, and the result matches both a DOP853
    # integration and scipy's expm of the full complex generator.  At
    # 10 us the coherences with |aux> have not yet decayed.
    sizes = []
    original = np.linalg.eig

    def recording(a):
        sizes.append(a.shape[0])
        return original(a)

    monkeypatch.setattr(np.linalg, "eig", recording)
    p = params(eta_x=1.2, omega_0=2 * math.pi * 5e3, n_max=5)
    lio = build_liouvillian(p)
    rho0 = random_state(p.dim, 7)
    final = evolve(p, rho0, duration, lio)
    assert sum(sizes) == p.dim ** 2
    t = duration * p.omega_vib
    v0 = rho0.reshape(-1)
    sol = solve_ivp(lambda _, y: lio @ y, (0.0, t), v0, method="DOP853",
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    ode = sol.y[:, -1].reshape(p.dim, p.dim)
    assert np.abs(final.matrix - ode).max() < 1e-8
    dense = (expm(lio.toarray() * t) @ v0).reshape(p.dim, p.dim)
    assert np.abs(final.matrix - dense).max() < 1e-8
    final.validate(tol=1e-8)


def test_thermal_start_diagonalizes_one_real_block(monkeypatch):
    # the saving: a thermal start touches only the up/down block and the aux
    # populations, (2 * 11)^2 + 11 = 495 entries of the 1089 at n_max 10
    seen = []
    original = np.linalg.eig

    def recording(a):
        seen.append((a.shape, a.dtype))
        return original(a)

    monkeypatch.setattr(np.linalg, "eig", recording)
    p = params(n_max=10)
    evolve(p, thermal_state(p, 1.33), 1e-3)
    assert seen == [((495, 495), np.dtype(float))]


def test_evolve_rejects_wrong_shape():
    p = params(n_max=5)
    with pytest.raises(ValueError, match=r"shape \(12, 12\)"):
        evolve(p, np.eye(12) / 12, 1e-4)


@pytest.mark.parametrize("duration", [-1e-4, math.nan, math.inf])
def test_evolve_rejects_bad_duration(duration):
    p = params(n_max=5)
    with pytest.raises(ValueError, match="duration"):
        evolve(p, thermal_state(p, 1.0), duration)


@pytest.mark.parametrize("corrupt, message", [
    (lambda w: w + 1e-3, "trace"), (lambda w: w * np.nan, "not finite")])
def test_evolve_checks_its_invariants(monkeypatch, corrupt, message):
    original = np.linalg.eig

    def corrupted(a):
        w, v = original(a)
        return corrupt(w), v

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    p = params(n_max=5)
    with pytest.raises(RuntimeError, match=message):
        evolve(p, thermal_state(p, 1.0), 1e-4)


def test_evolution_with_slow_coherences_matches_ode():
    # eta_x 1.2 with a weak 5 kHz drive leaves coherences that decay slowly
    # next to fast ones; a Krylov method can converge here to a wrong
    # transient while its residual reads small, so keep a DOP853 reference
    p = params(eta_x=1.2, omega_0=2 * math.pi * 5e3, n_max=5)
    lio = build_liouvillian(p)
    rho0 = thermal_state(p, 1.0)
    final = evolve(p, rho0, 1e-3, lio)
    t = 1e-3 * p.omega_vib
    sol = solve_ivp(lambda _, y: lio @ y, (0.0, t),
                    rho0.reshape(-1).astype(complex), method="DOP853",
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    ref = sol.y[:, -1].reshape(p.dim, p.dim)
    assert np.abs(final.matrix - ref).max() < 1e-8
    final.validate(tol=1e-8)


def test_cooling_reduces_mean_n_monotonically():
    p = params(n_max=6)
    lio = build_liouvillian(p)
    rho0 = thermal_state(p, 1.0)
    ns = [evolve(p, rho0, t, lio).mean_n()
          for t in (1e-4, 3e-4, 1e-3, 3e-3)]
    assert all(a > b for a, b in zip(ns, ns[1:]))


def test_cooling_map_small_grid():
    p = params(n_max=5)
    cm = cooling_map(p, np.array([0.2, 0.4]),
                     2 * math.pi * np.array([20e3, 40e3]))
    assert cm.p_ground.shape == (2, 2)
    assert not cm.failures
    assert np.all(cm.p_ground > 0.5)


def test_cooling_map_cell_matches_steady_state(monkeypatch):
    rows = []
    original = cooling.decay_rates

    def counting(p):
        rows.append(p.eta_x)
        return original(p)

    monkeypatch.setattr(cooling, "decay_rates", counting)
    base = params(n_max=6)
    etas = np.array([0.2, 0.5])
    omegas = 2 * math.pi * np.array([10e3, 30e3, 60e3])
    cm = cooling_map(base, etas, omegas)
    assert rows == [0.2, 0.5]          # jump rates built once per row
    own = params(eta_x=0.5, omega_0=2 * math.pi * 30e3, n_max=6)
    assert abs(cm.p_ground[1, 1] - steady_state(own).rho.p_ground()) < 1e-12


def test_cooling_map_records_numerical_failures_by_type(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cooling, "steady_state", singular)
    cm = cooling_map(params(n_max=3), np.array([0.3]),
                     2 * math.pi * np.array([20e3, 40e3]))
    assert cm.failures == [(0, 0, "LinAlgError: singular matrix"),
                           (0, 1, "LinAlgError: singular matrix")]
    assert np.all(np.isnan(cm.p_ground))


def test_cooling_map_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bad argument")

    monkeypatch.setattr(cooling, "steady_state", broken)
    with pytest.raises(TypeError, match="bad argument"):
        cooling_map(params(n_max=3), np.array([0.3]),
                    2 * math.pi * np.array([20e3]))


def test_energy_balance_formula():
    eb = energy_balance(0.3, 0.1)
    assert eb["total"] == pytest.approx(-0.89, abs=1e-12)
    assert eb["recoil"] == pytest.approx(0.02, abs=1e-12)
    assert eb["projection"] == pytest.approx(0.09, abs=1e-12)


def test_projection_heating_oracle_equivalence():
    from mwlattice.bands import cached_bands
    spec = cached_bands(850.0, n_bands=16, k_points=32)
    for band in (0, 1):
        a = projection_heating_general(spec, band, 0.05)
        b = projection_heating_fc_sum(spec, band, 0.05)
        assert a == pytest.approx(b, rel=1e-6)


def test_projection_heating_harmonic_scaling():
    # ground band, small shift: heating = eta_x^2 * hbar omega / 2 ... in E_R
    from mwlattice.bands import cached_bands
    spec = cached_bands(850.0, n_bands=16, k_points=32)
    h1 = projection_heating_general(spec, 0, 0.02)
    h2 = projection_heating_general(spec, 0, 0.04)
    assert h2 / h1 == pytest.approx(4.0, rel=0.02)


def test_temperature_extraction():
    out = temperature_from_sidebands(0.03 / 1.03, 1.0, OMEGA_VIB)
    assert out["n_bar"] == pytest.approx(0.03, rel=1e-9)
    assert out["temperature"] * 1e6 == pytest.approx(1.6, abs=0.05)
    with pytest.raises(ValueError):
        temperature_from_sidebands(1.0, 1.0, OMEGA_VIB)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        params(r_down=-1.0)
