"""End-to-end acceptance checks, one test (and one printed verdict line)
per criterion.  These run the full numerical pipelines at their stated
tolerances and runtime budgets; the unit-test files cover the fine-grained
oracles."""

import json
import math
import sys
import time
import warnings

import numpy as np
import pytest

from mwlattice.bands import cached_bands, solve_bands, wannier, wannier_overlap
from mwlattice.cooling import (CoolingParams, build_liouvillian, cooling_map,
                               energy_balance, evolve,
                               projection_heating_fc_sum,
                               projection_heating_general, steady_state,
                               temperature_from_sidebands, thermal_state)
from mwlattice.engineering import (HarmonicModel, PopulationDistribution,
                                   effective_efficiency, filter_survival,
                                   prepare_coherent, prepare_fock,
                                   reconstruct_distribution,
                                   superposition_sequence)
from mwlattice.franck_condon import (fcf_exact, fcf_harmonic, fcf_quadrature)
from mwlattice.lattice import (cesium, ground_state_width, lamb_dicke,
                               LatticeGeometry, potentials_from_angle,
                               recoil_energy, trap_frequency, HBAR)
from mwlattice.spectroscopy import (SpectroscopyConfig, binomial_sigma,
                                    build_system, fit_spectrum,
                                    gaussian_pi_pulse, simulate_spectrum)

ATOM = cesium()
WAVELENGTH = 866.0          # nm
DEPTH_UP = 850.0            # E_R
SEED = 20260823


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_to_terminal(capsys):
    # Pytest's fd-level capture swallows even sys.__stdout__ writes; keep a
    # handle on the capture fixture so verdict lines reach the real terminal.
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_trap_frequency():
    t0 = time.perf_counter()
    spec = solve_bands(DEPTH_UP, n_bands=2, k_points=32)
    gap_er = spec.band_energy(1) - spec.band_energy(0)
    er_hz = recoil_energy(ATOM, WAVELENGTH) / (2 * math.pi * HBAR)
    gap_khz = gap_er * er_hz / 1e3
    elapsed = time.perf_counter() - t0
    ok = abs(gap_khz - 116.0) / 116.0 < 0.02 and elapsed < 1.0
    verdict(1, "trap frequency",
            ok, f"gap = {gap_khz:.2f} kHz vs 116 kHz, {elapsed:.2f} s")


def test_criterion_02_lamb_dicke_table():
    omega = trap_frequency(DEPTH_UP, ATOM, WAVELENGTH)
    k_opt = 2 * math.pi / (ATOM.d2_wavelength * 1e-9)
    table = {43.0: 1.2, 111.0: 3.1, 176.0: 4.9}
    devs = {dx: lamb_dicke(dx, omega, ATOM, k_opt).imag - eta
            for dx, eta in table.items()}
    ok = all(abs(d) < 0.1 for d in devs.values())
    verdict(2, "Lamb-Dicke table", ok,
            "deviations " + ", ".join(f"{dx:.0f} nm: {d:+.3f}"
                                      for dx, d in devs.items()))


def test_criterion_03a_harmonic_oracle_two_percent():
    # NOTE: expected to fail — the sin^2 well at 850 E_R is genuinely
    # anharmonic at this level (verified by an independent single-well
    # diagonalization); the deviation is physics, not a solver defect.
    spec = cached_bands(DEPTH_UP, n_bands=8, k_points=32)
    x0_over_d = (4 * DEPTH_UP) ** (-0.25) / math.pi
    worst = 0.0
    for eta in (0.25, 0.5, 0.75, 1.0):
        table = fcf_exact(spec, spec, eta * 2 * x0_over_d)
        for n in range(4):
            for npr in range(4):
                dev = abs(table.matrix[npr, n] - fcf_harmonic(eta, n, npr))
                worst = max(worst, dev)
    ok = worst < 0.02
    verdict(3, "FC harmonic oracle within 2 % (n, n' <= 3, eta_x <= 1)",
            ok, f"max |exact - harmonic| = {worst:.4f} (anharmonicity of the "
                "850 E_R well; see unit tests for the converged deep-lattice "
                "limit)")


def test_criterion_03b_quadrature_oracle():
    t0 = time.perf_counter()
    spec = cached_bands(DEPTH_UP, n_bands=6, k_points=16)
    worst = 0.0
    for shift in (0.05, 0.15):
        table = fcf_exact(spec, spec, shift)
        for n in range(4):
            for npr in range(4):
                q = fcf_quadrature(wannier(spec, npr), wannier(spec, n),
                                   shift, x_span=3.0, n_points=2001)
                worst = max(worst, abs(table.matrix[npr, n] - q))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    verdict(3, "FC quadrature oracle within 1e-4", ok,
            f"max deviation = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_identity_orthonormality():
    spec = cached_bands(DEPTH_UP, n_bands=8, k_points=32)
    ident = np.abs(fcf_exact(spec, spec, 0.0).matrix - np.eye(8)).max()
    ortho = max(abs(wannier_overlap(wannier(spec, a), wannier(spec, b))
                    - (1.0 if a == b else 0.0))
                for a in range(8) for b in range(8))
    ok = ident < 1e-8 and ortho < 1e-8
    verdict(4, "identity / orthonormality", ok,
            f"identity err = {ident:.1e}, orthonormality err = {ortho:.1e}")


def test_criterion_05_composite_spectrum_shape():
    t0 = time.perf_counter()
    pulse = gaussian_pi_pulse(30e-6)
    cfg = SpectroscopyConfig(n_max=15, k_points=16, thermal_samples=1,
                             dt=3e-7)
    angles = [0.0, 0.3538, 0.8770, 1.3167]     # dx = 0, 43, 111, 176 nm
    det = 2 * math.pi * 1e3 * np.linspace(-1800.0, 60.0, 1600)
    detected = set()
    spacing_ratio = None
    for th in angles:
        geom = LatticeGeometry(865.95, DEPTH_UP, th)
        result = simulate_spectrum(geom, ATOM, pulse, det, cfg=cfg)
        system = build_system(geom, ATOM, n_max=15, k_points=16)
        res = np.array([system.resonance(0, n) for n in range(16)])
        got = {}
        for p in result.locate_peaks(min_height=0.01, prominence=0.01):
            n = int(np.argmin(np.abs(p.center - res)))
            if abs(p.center - res[n]) < 2 * math.pi * 10e3:
                got.setdefault(n, p)
        detected |= set(got)
        if th == 0.3538 and 0 in got and 1 in got:
            up, down, _ = potentials_from_angle(geom)
            omega_d = trap_frequency(down.contrast, ATOM, 865.95)
            spacing_ratio = (got[0].center - got[1].center) / omega_d
    # carrier FWHM on a fine grid (theta = 0: pure carrier line)
    geom0 = LatticeGeometry(865.95, DEPTH_UP, 0.0)
    det0 = 2 * math.pi * 1e3 * np.linspace(-45, 45, 361)
    r0 = simulate_spectrum(geom0, ATOM, pulse, det0, cfg=cfg)
    above = det0[r0.transfer > r0.transfer.max() / 2]
    fwhm_khz = (above.max() - above.min()) / (2 * math.pi * 1e3)
    elapsed = time.perf_counter() - t0
    ok = (max(detected) >= 14
          and spacing_ratio is not None and abs(spacing_ratio - 1.0) < 0.03
          and abs(fwhm_khz - 20.0) / 20.0 < 0.15
          and elapsed < 120.0)
    verdict(5, "composite spectrum shape", ok,
            f"sidebands to n' = {max(detected)}, first-pair spacing / "
            f"harmonic = {spacing_ratio:.4f}, carrier FWHM = {fwhm_khz:.1f} "
            f"kHz, {elapsed:.0f} s")


FIT_CFG = SpectroscopyConfig(n_max=13, k_points=16, thermal_samples=6,
                             dt=6e-7)
FIT_PULSE = gaussian_pi_pulse(100e-6)
FIT_GUESS = {"dx": 0.41, "w_down": 650.0, "du_tot": -99.0, "t2d": 1.01e-5}


@pytest.fixture(scope="module")
def fit_truth_and_spectrum():
    """Truth, detunings and noiseless model of both crit 06 fits, simulated
    once (6 thermal nodes, 700 detunings)."""
    geom = LatticeGeometry(865.95, DEPTH_UP, 1.3167)
    up, down, dx = potentials_from_angle(geom)
    truth = {"dx": dx, "w_down": down.contrast,
             "du_tot": -up.contrast - down.total_depth, "t2d": 1e-5}
    det = 2 * math.pi * 1e3 * np.linspace(-1384.1, -135.8, 700)
    model = simulate_spectrum(geom, ATOM, FIT_PULSE, det, t2d=truth["t2d"],
                              cfg=FIT_CFG).transfer
    return truth, det, model


def test_criterion_06_fit_round_trip_noisy(fit_truth_and_spectrum):
    truth, det, model = fit_truth_and_spectrum
    atoms = 200
    rng = np.random.default_rng(SEED)
    observed = rng.binomial(atoms, np.clip(model, 0, 1)) / atoms
    sigma = binomial_sigma(observed * atoms, atoms)
    result = fit_spectrum(det, observed, sigma, dict(FIT_GUESS), DEPTH_UP,
                          ATOM, 865.95, FIT_PULSE, cfg=FIT_CFG)
    devs = {k: abs(result.params[k] - truth[k]) / abs(truth[k])
            for k in truth}
    ok = result.success and max(devs.values()) < 0.015
    verdict(6, "fit round trip (binomial noise)", ok,
            "relative deviations " + ", ".join(f"{k}: {v:.3%}"
                                               for k, v in devs.items()))


def test_criterion_06_fit_round_trip_zero_noise(fit_truth_and_spectrum):
    truth, det, model = fit_truth_and_spectrum
    sigma = np.sqrt(np.clip(model * (1 - model), 0.005 * 0.995, None) / 100)
    result = fit_spectrum(det, model, sigma, dict(FIT_GUESS), DEPTH_UP,
                          ATOM, 865.95, FIT_PULSE, cfg=FIT_CFG)
    devs = {k: abs(result.params[k] - truth[k]) / abs(truth[k])
            for k in truth}
    degenerate = " [degenerate Jacobian]" in result.message
    ok = result.success and not degenerate and max(devs.values()) < 1e-6
    verdict(6, "fit round trip (zero noise)", ok,
            f"max relative deviation = {max(devs.values()):.2e}, "
            f"degenerate Jacobian = {degenerate}")


def test_criterion_07_thermal_broadening_law():
    pulse = gaussian_pi_pulse(30e-6)
    geom = LatticeGeometry(865.95, DEPTH_UP, 0.47)
    system = build_system(geom, ATOM, n_max=12, k_points=16)

    def rms_widths(temperature, nodes):
        cfg = SpectroscopyConfig(n_max=12, k_points=16,
                                 thermal_samples=nodes, dt=3e-7)
        out = {}
        for n in range(6):
            res = system.resonance(0, n)
            det = res + 2 * math.pi * 1e3 * np.linspace(-40, 90, 261)
            r = simulate_spectrum(geom, ATOM, pulse, det, t2d=temperature,
                                  cfg=cfg)
            x = (det - res) / (2 * math.pi * 1e3)
            w = r.transfer - r.transfer.min()
            w = w / w.sum()
            mu = (w * x).sum()
            out[n] = math.sqrt((w * (x - mu) ** 2).sum())
        return out

    def fwhm_cold(n):
        cfg = SpectroscopyConfig(n_max=12, k_points=16,
                                 thermal_samples=1, dt=3e-7)
        res = system.resonance(0, n)
        det = res + 2 * math.pi * 1e3 * np.linspace(-30, 30, 241)
        r = simulate_spectrum(geom, ATOM, pulse, det, cfg=cfg)
        x = (det - res) / (2 * math.pi * 1e3)
        above = x[r.transfer >= 0.5 * r.transfer.max()]
        return above.max() - above.min()

    hot = rms_widths(10e-6, 16)
    # Fourier width constant: zero-temperature FWHMs n-independent
    cold_vals = np.array([fwhm_cold(n) for n in range(6)])
    fourier_dev = np.abs(cold_vals / cold_vals.mean() - 1.0).max()
    # thermal components grow linearly in n
    wth = np.array([math.sqrt(max(hot[n] ** 2 - hot[0] ** 2, 0.0))
                    for n in range(1, 6)])
    ns = np.arange(1, 6)
    slope, intercept = np.polyfit(ns, wth, 1)
    resid = np.abs(wth - (slope * ns + intercept)) / wth
    ok = resid.max() < 0.10 and fourier_dev < 0.10
    verdict(7, "thermal broadening law", ok,
            f"linearity residual = {resid.max():.1%}, Fourier-width spread "
            f"= {fourier_dev:.1%}, slope = {slope:.2f} kHz per quantum")


def test_criterion_08_energy_balance():
    total = energy_balance(0.3, 0.1)["total"]
    formula_ok = abs(total + 0.89) < 1e-12
    spec = cached_bands(DEPTH_UP, n_bands=16, k_points=32)
    x0 = (4 * DEPTH_UP) ** (-0.25)
    shift = 0.3 * 2 * x0 / math.pi
    a = projection_heating_general(spec, 0, shift)
    b = projection_heating_fc_sum(spec, 0, shift)
    oracle_dev = abs(a / b - 1.0)
    deep = 8000.0
    spec_deep = cached_bands(deep, n_bands=24, k_points=16)
    x0d = (4 * deep) ** (-0.25)
    harm_dev = max(
        abs(projection_heating_general(spec_deep, 0, eta * 2 * x0d / math.pi)
            / (eta ** 2 * 2 * math.sqrt(deep)) - 1.0)
        for eta in (0.1, 0.2, 0.3, 0.4, 0.5))
    ok = formula_ok and oracle_dev < 0.01 and harm_dev < 0.02
    verdict(8, "energy balance", ok,
            f"total = {total:.6f} (exact -0.89), op-vs-FC-sum dev = "
            f"{oracle_dev:.1e}, harmonic-limit dev = {harm_dev:.2%}")


def test_criterion_09_cooling_map():
    t0 = time.perf_counter()
    omega_vib = trap_frequency(DEPTH_UP, ATOM, 865.95)
    base = CoolingParams(omega_0=2 * math.pi * 36e3, omega_vib=omega_vib,
                         eta_x=0.3, eta_k=0.134, r_down=2 * math.pi * 10e3,
                         r_aux=2 * math.pi * 10e3, n_max=10)
    # operating point: steady state, residual, long-time integration
    lio = build_liouvillian(base)
    ss = steady_state(base, lio)
    rho0 = thermal_state(base, 1.33)
    final = evolve(base, rho0, 1.0, lio)
    diff = final.matrix - ss.rho.matrix
    trace_dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    # temperature-extraction formula from the measured occupation
    n_bar = 0.03
    temp = temperature_from_sidebands(n_bar / (n_bar + 1), 1.0,
                                      omega_vib)["temperature"]
    # full map
    eta_grid = np.linspace(0.05, 1.5, 32)
    omega_grid = 2 * math.pi * 1e3 * np.linspace(2.0, 120.0, 32)
    cm = cooling_map(base, eta_grid, omega_grid)
    region = cm.p_ground[eta_grid < 0.8, :] > 0.8
    elapsed = time.perf_counter() - t0
    ok = (region.any() and ss.rho.p_ground() >= 0.9
          and trace_dist < 1e-6 and ss.residual < 1e-12
          and abs(temp * 1e6 - 1.6) < 0.05
          and not cm.failures and elapsed < 1800.0)
    verdict(9, "cooling map", ok,
            f"P(operating point) = {ss.rho.p_ground():.3f}, high-P cells at "
            f"eta_x < 0.8: {int(region.sum())}, steady-vs-evolved = "
            f"{trace_dist:.1e}, residual = {ss.residual:.1e}, "
            f"T(n=0.03) = {temp * 1e6:.2f} uK, {elapsed:.0f} s")


def test_criterion_10_filtering_reconstruction():
    fp = effective_efficiency(0.7, 3)
    dist = PopulationDistribution.thermal(1.33, 15)
    plateaus = np.array([filter_survival(dist, n, 0.7, 3)
                         for n in range(17)])
    exact = reconstruct_distribution(plateaus, f=0.7, repetitions=3,
                                     ceiling=1.0)
    exact_err = np.abs(exact.p - dist.p[:exact.p.size]).max()
    # Monte-Carlo: each plateau averaged over 10 shots of 100 atoms
    rng = np.random.default_rng(SEED)
    counts = rng.binomial(100, np.clip(plateaus, 0, 1)[None, :]
                          .repeat(10, axis=0))
    noisy = counts.mean(axis=0) / 100
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = reconstruct_distribution(noisy, f=0.7, repetitions=3,
                                       ceiling=1.0)
    mc_err = np.abs(rec.p - dist.p[:rec.p.size]).max()
    ok = abs(fp - 0.973) < 0.001 and exact_err < 1e-12 and mc_err < 0.05
    verdict(10, "filtering arithmetic and reconstruction", ok,
            f"f' = {fp:.4f}, exact round trip = {exact_err:.1e}, "
            f"Monte-Carlo max error = {mc_err:.3f}")


def test_criterion_11_state_engineering():
    t0 = time.perf_counter()
    omega_vib = trap_frequency(DEPTH_UP, ATOM, 865.95)
    model = HarmonicModel(omega_vib=omega_vib, n_max=15)
    # superposition populations
    sup_dev = 0.0
    for area in (0.30, 0.40, 0.55, 0.70):
        state = superposition_sequence(model, area)
        target = math.sin(area * math.pi / 2) ** 2
        sup_dev = max(sup_dev, abs(state.fidelity("down", 2) - target))
    # coherent state: harmonic and exact-Wannier projections
    n = np.arange(model.n_max + 1)
    pops, _ = prepare_coherent(model, 1.0)
    mean_dev_harm = abs(float(n @ pops) - 1.0)
    spec = cached_bands(DEPTH_UP, n_bands=16, k_points=32)
    eta = 0.5
    x0_over_d = (4 * DEPTH_UP) ** (-0.25) / math.pi
    table = fcf_exact(spec, spec, eta * 2 * x0_over_d)
    pops_w, _ = prepare_coherent(model, eta, exact_table=table.matrix)
    mean_dev_exact = abs(float(n @ pops_w) / eta ** 2 - 1.0)
    # Fock preparation fidelities
    fids = {m: prepare_fock(model, m)[1] for m in range(7)}
    elapsed = time.perf_counter() - t0
    ok = (sup_dev < 0.01 and mean_dev_harm < 0.02 and mean_dev_exact < 0.10
          and min(fids.values()) >= 0.98 and elapsed < 60.0)
    verdict(11, "state engineering", ok,
            f"superposition dev = {sup_dev:.4f}, coherent mean dev = "
            f"{mean_dev_harm:.1e} (harmonic) / {mean_dev_exact:.2%} "
            f"(exact), min Fock fidelity = {min(fids.values()):.4f} "
            f"(m <= 6), {elapsed:.0f} s")


def test_criterion_12_cli_determinism(tmp_path):
    from mwlattice.cli import main as cli_main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"atoms": 120},
                               "bands": {"wannier_points": 101}}))
    artifacts = {}
    for run in ("a", "b"):
        out = tmp_path / run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main(["filter", "--config", str(cfg), "--seed", "7",
                             "--out", str(out)]) == 0
        assert cli_main(["bands", "--config", str(cfg),
                         "--out", str(out)]) == 0
        artifacts[run] = {p.name: p.read_bytes()
                          for p in sorted(out.iterdir())}
    ok = artifacts["a"] == artifacts["b"]
    verdict(12, "CLI determinism", ok,
            f"{len(artifacts['a'])} artifacts byte-identical across runs")
