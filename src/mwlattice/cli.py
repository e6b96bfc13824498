"""Command-line interface: reproducible experiment runs emitting CSV + JSON.

Subcommands: bands, fcf, spectrum, fit, cool, coolmap, engineer, filter.
Common flags: --config <json>, --out <dir>, --seed <u64>, --emit-config.
Exit codes: 0 success; 2 config error: a key not in the schema or a value
outside its domain (``config.DOMAINS``), before any file is written, or a
fit input value that is not a finite number; 3 solver error: keys that fail
only together (``fcf.bands`` above ``solver.n_max + 1``), a NaN or infinite
result (named, no <command>.json), a fit input with no value at
``spectroscopy.PEAK_MIN_HEIGHT`` or above (before any forward pass) or a
fit stderr at ``FIT_STDERR_BOUND`` times its parameter or above.  Outputs
are deterministic for a fixed config and seed (fixed float formatting,
sorted JSON keys, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cooling, engineering
from .bands import BandSolverError, solve_bands, wannier
from .config import ConfigError, dumps, load_config
from .franck_condon import displacement_element, fcf_exact
from .lattice import (cesium, ground_state_width, LatticeGeometry,
                      potentials_from_angle, trap_frequency)
from .spectroscopy import (PEAK_MIN_HEIGHT, SpectroscopyConfig,
                           binomial_sigma, fit_spectrum, gaussian_pi_pulse,
                           simulate_spectra)


class SolverFailure(RuntimeError):
    """Wraps numerical failures so main() can map them to exit code 3."""


_FLOAT_FMT = "%.12g"

# Largest stderr of a fitted parameter, relative to its magnitude, that
# ``fit`` accepts.  The one-node 40-point fit of the CLI tests reads 1.5
# on t2d, the benchmark's 40-point fit 0.15; a fit to an all-zero spectrum
# reads 1e8 and more.
FIT_STDERR_BOUND = 2.0


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, fmt=_FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")


def _check_finite(value, path: str = "results") -> None:
    """Raise SolverFailure naming the first NaN or infinity in a result."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise SolverFailure(f"non-finite result {path} = {value}")


def _geometry(cfg: dict, angle: float | None = None) -> LatticeGeometry:
    lat = cfg["lattice"]
    return LatticeGeometry(
        lattice_wavelength=lat["wavelength_nm"],
        depth_up=lat["depth_up"],
        polarization_angle=lat["polarization_angle"] if angle is None else angle,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_bands(cfg: dict, out: Path, rng) -> dict:
    sol = cfg["solver"]
    depth = cfg["bands"]["depth"]
    if depth is None:
        depth = cfg["lattice"]["depth_up"]
    spec = solve_bands(float(depth), n_bands=sol["n_max"] + 1,
                       k_points=sol["k_points"], q_cutoff=sol["q_cutoff"])
    headers = ["k"] + [f"eps_{n}" for n in range(spec.n_bands)]
    _write_csv(out / "bands.csv", headers,
               [spec.k_grid] + [spec.energies[:, n] for n in range(spec.n_bands)])

    nw = min(cfg["bands"]["wannier_bands"], spec.n_bands)
    span = cfg["bands"]["wannier_span"] * math.pi
    x = np.linspace(-span, span, cfg["bands"]["wannier_points"])
    cols = [x / math.pi] + [np.real(wannier(spec, n)(x)) for n in range(nw)]
    _write_csv(out / "wannier.csv", ["x_over_d"] + [f"w_{n}" for n in range(nw)],
               cols)
    return {
        "depth": float(depth),
        "n_bands": spec.n_bands,
        "band_energies": [spec.band_energy(n) for n in range(spec.n_bands)],
        "gap_01": spec.band_energy(1) - spec.band_energy(0),
    }


def cmd_fcf(cfg: dict, out: Path, rng) -> dict:
    atom = cesium()
    geom = _geometry(cfg)
    sol = cfg["solver"]
    n_max, n_bands = sol["n_max"], cfg["fcf"]["bands"]
    if n_max + 1 < max(n_bands, 4):
        raise ValueError(
            f"fcf.bands = {n_bands} and the harmonic oracle's 4 levels need "
            f"solver.n_max >= {max(n_bands, 4) - 1}, got {n_max}")
    spec = solve_bands(geom.depth_up, n_bands=n_max + 1,
                       k_points=sol["k_points"], q_cutoff=sol["q_cutoff"])
    d_nm = geom.spacing
    shifts_nm = np.linspace(0.0, cfg["fcf"]["max_shift_nm"],
                            cfg["fcf"]["n_shifts"])
    curves = np.array([fcf_exact(spec, spec, s / d_nm).matrix[:n_bands, 0]
                       for s in shifts_nm])
    _write_csv(out / "fcf.csv",
               ["shift_nm"] + [f"I_0_{n}" for n in range(n_bands)],
               [shifts_nm] + [curves[:, n] for n in range(n_bands)])

    # harmonic-oracle comparison for the low levels in the Lamb-Dicke range
    omega = trap_frequency(geom.depth_up, atom, geom.lattice_wavelength)
    x0_nm = ground_state_width(atom, omega) * 1e9
    n = np.arange(4)
    diff = [fcf_exact(spec, spec, eta * 2 * x0_nm / d_nm).matrix[:4, :4]
            - displacement_element(eta, n[:, None], n[None, :])
            for eta in (0.25, 0.5, 0.75, 1.0)]
    max_diff = float(np.abs(diff).max())
    return {"harmonic_oracle_max_abs_diff_n_le_3_eta_le_1": max_diff,
            "identity_check_max_err": float(
                np.abs(fcf_exact(spec, spec, 0.0).matrix
                       - np.eye(spec.n_bands)).max())}


def cmd_spectrum(cfg: dict, out: Path, rng) -> dict:
    atom = cesium()
    sp, sol = cfg["spectrum"], cfg["solver"]
    scfg = SpectroscopyConfig(
        n_max=sol["n_max"], k_points=sol["k_points"], q_cutoff=sol["q_cutoff"],
        thermal_samples=sp["thermal_samples"], dt=sp["time_step_s"])
    pulse = gaussian_pi_pulse(sp["pulse_fwhm_us"] * 1e-6)
    detunings = 2 * math.pi * 1e3 * np.linspace(
        sp["detuning_min_khz"], sp["detuning_max_khz"], sp["n_detunings"])
    cols, headers, meta = [detunings / (2 * math.pi * 1e3)], ["detuning_khz"], {}
    atoms = sp["atoms_per_point"]
    angles = sp["polarization_angles"]
    geoms = [_geometry(cfg, angle=angle) for angle in angles]
    results = simulate_spectra(geoms, atom, pulse, detunings,
                               t2d=sp["temperature_2d_uk"] * 1e-6, cfg=scfg)
    for angle, geom, result in zip(angles, geoms, results):
        up, down, dx = potentials_from_angle(geom)
        transfer = result.transfer
        if atoms > 0:
            transfer = rng.binomial(atoms, np.clip(transfer, 0, 1)) / atoms
        tag = f"{angle:.4f}"
        headers.append(f"p_theta_{tag}")
        cols.append(transfer)
        meta[f"theta_{tag}"] = {"w_down": down.contrast,
                                "shift_d_units": dx,
                                "du_tot": -up.contrast - down.total_depth}
    _write_csv(out / "spectrum.csv", headers, cols)
    meta["atoms_per_point"] = atoms
    meta["pulse_fwhm_us"] = sp["pulse_fwhm_us"]
    return meta


def cmd_fit(cfg: dict, out: Path, rng) -> dict:
    atom = cesium()
    ft = cfg["fit"]
    if not ft["input_csv"]:
        raise ConfigError("'fit.input_csv' is required")
    atoms = ft["atoms_per_point"]
    raw = np.genfromtxt(ft["input_csv"], delimiter=",", names=True,
                        deletechars="")
    names = raw.dtype.names
    if names is None or "detuning_khz" not in names or len(names) < 2:
        raise ConfigError("fit input CSV needs detuning_khz and one data column")
    for name in ("detuning_khz", names[1]):
        bad = np.flatnonzero(~np.isfinite(np.atleast_1d(raw[name])))
        if bad.size:
            raise ConfigError(
                f"fit input CSV {ft['input_csv']}: column {name!r} has no "
                f"finite number in data row {bad[0] + 1}")
    detunings = 2 * math.pi * 1e3 * np.asarray(raw["detuning_khz"], dtype=float)
    observed = np.asarray(raw[names[1]], dtype=float)
    if not observed.max() >= PEAK_MIN_HEIGHT:
        raise SolverFailure(
            f"fit input CSV {ft['input_csv']}: no peak to fit, its largest "
            f"value {observed.max():.6g} is below {PEAK_MIN_HEIGHT:g}")
    sigma = binomial_sigma(np.round(observed * atoms), atoms)

    scfg = SpectroscopyConfig(
        n_max=ft["n_max"], k_points=ft["k_points"], dt=ft["time_step_s"],
        q_cutoff=cfg["solver"]["q_cutoff"], thermal_samples=ft["thermal_samples"])
    pulse = gaussian_pi_pulse(ft["pulse_fwhm_us"] * 1e-6)
    result = fit_spectrum(detunings, observed, sigma, dict(ft["guess"]),
                          w_up=cfg["lattice"]["depth_up"], atom=atom,
                          lattice_wavelength=cfg["lattice"]["wavelength_nm"],
                          pulse=pulse, cfg=scfg)
    if not result.success:
        raise SolverFailure(f"fit did not converge: {result.message}")
    for name, value in result.params.items():
        err = result.stderr[name]    # a NaN is named by _check_finite
        if err >= FIT_STDERR_BOUND * abs(value):
            raise SolverFailure(
                f"fit does not determine {name}: {value:.6g} +- {err:.3g}, "
                f"stderr not below {FIT_STDERR_BOUND:g} x |{name}|")
    return {"params": result.params, "stderr": result.stderr,
            "cost": result.cost, "message": result.message,
            "diagnostics": result.diagnostics}


def _cooling_params(cfg: dict) -> cooling.CoolingParams:
    atom = cesium()
    geom = _geometry(cfg)
    omega_vib = trap_frequency(geom.depth_up, atom, geom.lattice_wavelength)
    cl = cfg["cool"]
    return cooling.CoolingParams(
        omega_0=2 * math.pi * 1e3 * cl["coupling_khz"], omega_vib=omega_vib,
        eta_x=cl["eta_x"], eta_k=cl["eta_k"],
        r_down=2 * math.pi * 1e3 * cl["pump_down_khz"],
        r_aux=2 * math.pi * 1e3 * cl["pump_aux_khz"],
        r_up=2 * math.pi * 1e3 * cl["pump_up_khz"], n_max=cl["n_max"])


def cmd_cool(cfg: dict, out: Path, rng) -> dict:
    params = _cooling_params(cfg)
    terms = cooling.effective_terms(params)
    lio = cooling.build_liouvillian(params, terms)
    steady = cooling.steady_state(params, lio, terms=terms)
    meta = {
        "p_ground": steady.rho.p_ground(), "mean_n": steady.rho.mean_n(),
        "residual": steady.residual, "degenerate": steady.degenerate,
        "steady_state_path": steady.path, "omega_vib": params.omega_vib,
    }
    cols = [np.arange(params.levels), steady.rho.motional_distribution()]
    headers = ["n", "p_steady"]
    evolve_ms = cfg["cool"]["evolve_ms"]
    if evolve_ms > 0:
        rho0 = cooling.thermal_state(params, cfg["cool"]["initial_n_bar"])
        final = cooling.evolve(params, rho0, evolve_ms * 1e-3, lio)
        headers.append("p_evolved")
        cols.append(final.motional_distribution())
        meta["evolved_p_ground"] = final.p_ground()
        diff = final.matrix - steady.rho.matrix
        meta["trace_distance_to_steady"] = float(
            0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
    _write_csv(out / "cool.csv", headers, cols)
    return meta


def cmd_coolmap(cfg: dict, out: Path, rng) -> dict:
    params = _cooling_params(cfg)
    cm = cfg["coolmap"]
    eta_grid = np.linspace(cm["eta_x_min"], cm["eta_x_max"], cm["eta_x_points"])
    omega_grid = 2 * math.pi * 1e3 * np.linspace(
        cm["coupling_min_khz"], cm["coupling_max_khz"], cm["coupling_points"])
    result = cooling.cooling_map(params, eta_grid, omega_grid)
    ii, jj = np.meshgrid(np.arange(eta_grid.size), np.arange(omega_grid.size),
                         indexing="ij")
    _write_csv(out / "coolmap.csv",
               ["eta_x", "coupling_khz", "p_ground"],
               [eta_grid[ii.ravel()],
                omega_grid[jj.ravel()] / (2 * math.pi * 1e3),
                result.p_ground.ravel()])
    best = int(np.nanargmax(result.p_ground))
    return {"max_p_ground": float(np.nanmax(result.p_ground)),
            "best_eta_x": float(eta_grid[best // omega_grid.size]),
            "best_coupling_khz": float(
                omega_grid[best % omega_grid.size] / (2 * math.pi * 1e3)),
            "n_failures": len(result.failures)}


def cmd_engineer(cfg: dict, out: Path, rng) -> dict:
    atom = cesium()
    geom = _geometry(cfg)
    eng = cfg["engineer"]
    omega_vib = trap_frequency(geom.depth_up, atom, geom.lattice_wavelength)
    model = engineering.HarmonicModel(omega_vib=omega_vib, n_max=eng["n_max"])
    task = eng["task"]
    if task == "superposition":
        areas = eng["pulse_areas"]
        states = [engineering.superposition_sequence(model, a) for a in areas]
        p0 = [st.fidelity("down", 0) for st in states]
        p2 = [st.fidelity("down", 2) for st in states]
        _write_csv(out / "engineer.csv", ["area", "p_down_0", "p_down_2"],
                   [areas, p0, p2])
        return {"task": task,
                "expected_p2": [math.sin(a * math.pi / 2) ** 2 for a in areas]}
    if task == "fock":
        m = eng["fock_m"]
        state, fidelity = engineering.prepare_fock(model, m)
        _write_csv(out / "engineer.csv", ["n", "p_down"],
                   [np.arange(model.n_max + 1), state.populations("down")])
        return {"task": task, "m": m, "fidelity": fidelity}
    eta = float(eng["coherent_eta_x"])      # task "coherent"
    pops, expected = engineering.prepare_coherent(model, eta)
    _write_csv(out / "engineer.csv", ["n", "p_up", "poisson"],
               [np.arange(model.n_max + 1), pops, expected])
    mean = float(np.sum(np.arange(model.n_max + 1) * pops))
    return {"task": task, "eta_x": eta, "mean_n": mean,
            "expected_mean_n": eta ** 2}


def cmd_filter(cfg: dict, out: Path, rng) -> dict:
    fl = cfg["filter"]
    f = fl["single_pass_efficiency"]
    reps = fl["repetitions"]
    f_prime = engineering.effective_efficiency(f, reps)
    dist = engineering.PopulationDistribution.thermal(fl["n_bar"], fl["n_max"])
    loss = fl["loss_per_repetition"]
    n_plateaus = fl["n_max"] + 2
    plateaus = np.array([
        engineering.filter_survival(dist, n, f, reps, loss_per_pass=loss)
        for n in range(n_plateaus)])
    headers = ["n", "survival"]
    cols = [np.arange(n_plateaus), plateaus]
    atoms = fl["atoms"]
    used = plateaus
    if atoms > 0:
        used = rng.binomial(atoms, np.clip(plateaus, 0, 1)) / atoms
        headers.append("survival_sampled")
        cols.append(used)
    rec = engineering.reconstruct_distribution(used, f=f, repetitions=reps,
                                               ceiling=loss ** reps,
                                               atoms=atoms)
    _write_csv(out / "filter.csv", headers, cols)
    _write_csv(out / "filter_reconstructed.csv", ["n", "p"],
               [np.arange(rec.p.size), rec.p])
    return {"f_prime": f_prime,
            "max_reconstruction_error": round(float(
                np.abs(rec.p - dist.p[:rec.p.size]).max()), 12)}


COMMANDS = {
    "bands": cmd_bands, "fcf": cmd_fcf, "spectrum": cmd_spectrum,
    "fit": cmd_fit, "cool": cmd_cool, "coolmap": cmd_coolmap,
    "engineer": cmd_engineer, "filter": cmd_filter,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwlattice",
        description="Microwave sideband control of lattice-trapped atoms: "
                    "band structure, spectra, cooling, state engineering.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--emit-config", action="store_true",
                       help="print the fully resolved config and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.emit_config:
        sys.stdout.write(dumps(cfg))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    try:
        meta = COMMANDS[args.command](cfg, out, rng)
        _check_finite(meta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, BandSolverError, np.linalg.LinAlgError,
            ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    payload = {"command": args.command, "seed": args.seed,
               "config": cfg, "results": meta}
    (out / f"{args.command}.json").write_text(json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
