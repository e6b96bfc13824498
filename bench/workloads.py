"""The benchmark workloads and their four parts: inputs, one round of
work, and the checks on what the round produced.

A round is one closed-loop pass over a workload's operations, one after
another.  Commands that ``mwlattice`` offers on the command line run
through ``mwlattice.cli.main`` in-process; the rest call the public API.
Every round starts from empty program caches, as a fresh command-line
process would.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import constants
from scipy.linalg import expm

from mwlattice import bands, cli, cooling, engineering, franck_condon
from mwlattice import spectroscopy
from mwlattice.lattice import LatticeGeometry, cesium, trap_frequency

import reference as ref

WAVELENGTH_NM = 865.95   # lattice wavelength of the CLI defaults
DEPTH_UP = 850.0         # W_up of the CLI defaults, E_R


_PROBE = np.random.default_rng(0)
_PROBE_A = _PROBE.standard_normal((200, 200))
_PROBE_H = _PROBE.standard_normal((40, 40)) + 1j * _PROBE.standard_normal(
    (40, 40))
_PROBE_H = _PROBE_H + _PROBE_H.conj().T
_PROBE_X = _PROBE.standard_normal(400_000)


# The speed probe's time on the reference machine when it runs fast; times
# scaled by PROBE_REF_S / (probe time) are times at that speed.
PROBE_REF_S = 0.1


def speed_probe() -> float:
    """Seconds for a fixed mix of the numerics the workloads spend their time
    in: a dense eigendecomposition, small matrix exponentials, a complex
    exponential over a long vector and a Python loop.  Its inputs depend on
    neither the seed nor mwlattice."""
    t0 = time.perf_counter()
    for _ in range(2):
        np.linalg.eig(_PROBE_A)
        for _ in range(20):
            expm(-0.01j * _PROBE_H)
        np.exp(1j * _PROBE_X).sum()
        acc = 0.0
        for i in range(30_000):
            acc += i * 0.5
    return time.perf_counter() - t0


class Recorder:
    """Times the steps of a round and counts attempted and failed
    operations.  A step may hold several operations (cells of one map).
    A failed step records no time, so it cannot read as a speed-up."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.steps: dict[str, float] = {}
        self.probes: list[float] = []

    def step(self, label: str, fn, ops: int = 1):
        self.attempted += ops
        self.probes.append(speed_probe())
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            return None
        self.steps[label] = time.perf_counter() - t0
        return value


class Checks:
    """Correctness checks on outputs; a failed one fails the run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok, detail: str) -> None:
        ok = bool(ok)
        self.results.append((name, ok, detail))
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def present(self, name: str, value) -> bool:
        """Whether a step's output is there to check; a missing one (the
        step failed) is a failed check ``name``."""
        if value is None:
            self(name, False, "no output to check: its step failed")
        return value is not None

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results
                if not ok]


def reset_caches() -> None:
    """Empty every memoized function of the package (the band cache)."""
    for name, module in list(sys.modules.items()):
        if name == "mwlattice" or name.startswith("mwlattice."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def read_csv(path: Path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", names=True)


class Part:
    """One part of a benchmark workload: inputs, a round, its checks."""

    def __init__(self, out: Path, seed: int, tiny: bool):
        self.out, self.seed, self.tiny = out, seed, tiny
        self.rng = np.random.default_rng(seed)
        self.atom = cesium()
        self.omega_vib = trap_frequency(DEPTH_UP, self.atom, WAVELENGTH_NM)
        (out / "cfg").mkdir(parents=True, exist_ok=True)

    def config(self, name: str, cfg: dict) -> Path:
        path = self.out / "cfg" / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def cli(self, command: str, cfg: Path, tag: str | None = None) -> dict:
        """Run one mwlattice command; returns the ``results`` of its JSON."""
        dest = self.out / (tag or command)
        argv = [command, "--config", str(cfg), "--out", str(dest),
                "--seed", str(self.seed)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mwlattice {' '.join(argv)} exited {code}")
        return json.loads((dest / f"{command}.json").read_text())["results"]

    def prepare(self) -> None:
        """Make the inputs from the seed and write the command configs."""

    def round(self, rec: Recorder) -> dict:
        raise NotImplementedError

    def check_round(self, out: dict, chk: Checks) -> None:
        raise NotImplementedError

    def final(self, out: dict, rec: Recorder, chk: Checks) -> None:
        """Oracle comparisons made once per run, on the first round."""

    def stages(self, steps: dict[str, float]) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------


class Cooling(Part):
    """Cooling map, operating-point steady states over an n_max ladder, and
    the 1 s transient.  The only part that runs ``cooling``."""

    OPERATING = {"eta_x": 0.3, "eta_k": 0.134, "coupling_khz": 36.0,
                 "pump_down_khz": 10.0, "pump_aux_khz": 10.0,
                 "pump_up_khz": 0.0}
    MAP_N_MAX = 10

    def prepare(self):
        # The seed moves the grid edges inside the default ranges; a cell
        # costs the same wherever it lies.
        u = self.rng.uniform(size=4)
        self.grid = {"eta_x_min": 0.05 + 0.1 * u[0],
                     "eta_x_max": 1.5 - 0.1 * u[1],
                     "eta_x_points": 2 if self.tiny else 4,
                     "coupling_min_khz": 2.0 + 5.0 * u[2],
                     "coupling_max_khz": 120.0 - 5.0 * u[3],
                     "coupling_points": 2 if self.tiny else 3}
        self.cells = self.grid["eta_x_points"] * self.grid["coupling_points"]
        self.ladder = (14, 15) if self.tiny else (14, 16)
        cool = dict(self.OPERATING, evolve_ms=0.0)
        self.map_cfg = self.config("coolmap", {
            "cool": dict(cool, n_max=self.MAP_N_MAX), "coolmap": self.grid})
        # the operating point: steady state and the 1 s transient from a
        # thermal n_bar = 1.33 start, on one Liouvillian
        self.point_cfg = self.config("cool", {"cool": dict(
            cool, n_max=self.MAP_N_MAX, evolve_ms=1000.0,
            initial_n_bar=1.33)})
        self.ladder_cfg = {n: self.config(f"cool_{n}",
                                          {"cool": dict(cool, n_max=n)})
                           for n in self.ladder}

    def cooling_params(self, eta_x: float, coupling_khz: float):
        khz = 2 * math.pi * 1e3
        op = self.OPERATING
        return cooling.CoolingParams(
            omega_0=khz * coupling_khz, omega_vib=self.omega_vib,
            eta_x=eta_x, eta_k=op["eta_k"], r_down=khz * op["pump_down_khz"],
            r_aux=khz * op["pump_aux_khz"], n_max=self.MAP_N_MAX)

    def reference(self, eta_x: float, coupling_khz: float):
        p = self.cooling_params(eta_x, coupling_khz)
        return ref.LindbladReference(p.omega_0, p.omega_vib, p.eta_x, p.eta_k,
                                     p.r_down, p.r_aux, p.n_max)

    def round(self, rec):
        out = {"map": rec.step("coolmap", lambda: self.cli(
            "coolmap", self.map_cfg), ops=self.cells)}
        if out["map"] is not None:
            rec.failed += out["map"]["n_failures"]
        # a steady state and a transient
        out["point"] = rec.step("cool", lambda: self.cli(
            "cool", self.point_cfg), ops=2)
        out["ladder"] = {n: rec.step(f"ladder_{n}", lambda n=n: self.cli(
            "cool", self.ladder_cfg[n], tag=f"cool_{n}"))
            for n in self.ladder}
        return out

    def check_round(self, out, chk):
        if chk.present("cooling map", out["map"]):
            m = read_csv(self.out / "coolmap" / "coolmap.csv")
            p = m["p_ground"]
            chk("map values in [0, 1]",
                bool(np.all((p >= -1e-12) & (p <= 1 + 1e-12))),
                f"range [{p.min():.3g}, {p.max():.3g}]")
            good = p[m["eta_x"] < 0.8] > 0.8
            chk("cells with p > 0.8 at eta_x < 0.8", bool(good.any()),
                f"{int(good.sum())} cells")
        point = out["point"]
        if chk.present("operating point", point):
            chk("operating point steady state",
                point["residual"] < 1e-12 and not point["degenerate"]
                and point["p_ground"] >= 0.9,
                f"residual {point['residual']:.1e}, degenerate "
                f"{point['degenerate']}, p_ground {point['p_ground']:.4f}")
            dist = point["trace_distance_to_steady"]
            chk("1 s transient reaches the steady state", dist < 1e-6,
                f"trace distance {dist:.1e}")
        ladder = [r["p_ground"] for n, r in out["ladder"].items()
                  if chk.present(f"cool at n_max {n}", r)]
        if len(ladder) == len(self.ladder):
            spread = max(ladder) - min(ladder)
            chk("p_ground across the n_max ladder", spread < 1e-6,
                f"spread {spread:.1e} over n_max {self.ladder}")

    def final(self, out, rec, chk):
        g = self.grid
        etas = np.linspace(g["eta_x_min"], g["eta_x_max"], g["eta_x_points"])
        couplings = np.linspace(g["coupling_min_khz"], g["coupling_max_khz"],
                                g["coupling_points"])
        if chk.present("cooling map", out["map"]):
            p = read_csv(self.out / "coolmap" / "coolmap.csv")["p_ground"]
            p = p.reshape(etas.size, couplings.size)
            for i, j in ((0, 0), (etas.size - 1, couplings.size - 1)):
                r = self.reference(etas[i], couplings[j])
                expected = rec.step("reference_cell",
                                    lambda: r.p_ground(r.steady_state()))
                if chk.present("reference cell", expected):
                    chk("map cell vs reference Lindblad solver",
                        abs(p[i, j] - expected) < 1e-8,
                        f"eta_x {etas[i]:.3f}, {couplings[j]:.1f} kHz: "
                        f"{p[i, j]:.12f} vs {expected:.12f}")
        r = self.reference(self.OPERATING["eta_x"],
                           self.OPERATING["coupling_khz"])
        want = rec.step("reference_point",
                        lambda: r.p_ground(r.steady_state()))
        point = out["point"]
        if (chk.present("operating point", point)
                and chk.present("reference operating point", want)):
            chk("operating point vs reference Lindblad solver",
                abs(point["p_ground"] - want) < 1e-8,
                f"{point['p_ground']:.12f} vs {want:.12f}")
            # |p_ground difference| <= trace distance
            chk("1 s transient vs reference steady state",
                abs(point["evolved_p_ground"] - want) < 1e-6,
                f"{point['evolved_p_ground']:.12f} vs {want:.12f}")

    def stages(self, steps):
        return {"coolmap_cells_per_s": self.cells / steps["coolmap"],
                "cool_ladder_s": sum(steps[f"ladder_{n}"]
                                     for n in self.ladder),
                "cool_evolve_s": steps["cool"]}


class SpectrumFit(Part):
    """README workflow: a noiseless spectrum, then the fit of its first
    column.  Bands and FC tables are re-derived at every thermal node and
    fit step; no cooling, no position-space Wannier evaluation."""

    THETA = 1.3167
    T2D = 10e-6             # K
    FWHM_US = 100.0
    N_MAX, K_POINTS, NODES = 13, 16, 2
    # At 6e-7 s the transfer at the strongest sideband is off by 1.9e-6;
    # half the step keeps the sideband oracle within its 1e-6 tolerance.
    DT = 3e-7
    WINDOW_KHZ = (-1384.1, -135.8)
    RADIAL_HZ = 1000.0
    GUESS = {"dx": 0.41, "w_down": 650.0, "du_tot": -99.0, "t2d": 1.01e-5}

    def prepare(self):
        # The seed changes no input: binomial noise would make the fit's
        # evaluation count, and so its time, a property of the draw.
        self.angles = [self.THETA] if self.tiny else [self.THETA, 0.3538,
                                                     0.8770]
        self.n_det = 40 if self.tiny else 120
        self.spec_cfg = self.config("spectrum", {
            "solver": {"n_max": self.N_MAX, "k_points": self.K_POINTS},
            "spectrum": {"polarization_angles": self.angles,
                         "pulse_fwhm_us": self.FWHM_US,
                         "detuning_min_khz": self.WINDOW_KHZ[0],
                         "detuning_max_khz": self.WINDOW_KHZ[1],
                         "n_detunings": self.n_det,
                         "temperature_2d_uk": self.T2D * 1e6,
                         "thermal_samples": self.NODES,
                         "radial_frequency_hz": self.RADIAL_HZ,
                         "atoms_per_point": 0, "time_step_s": self.DT}})
        self.fit_cfg = self.config("fit", {"fit": {
            "input_csv": str(self.out / "spectrum" / "spectrum.csv"),
            "pulse_fwhm_us": self.FWHM_US, "atoms_per_point": 200,
            "guess": self.GUESS, "thermal_samples": self.NODES,
            "n_max": self.N_MAX, "k_points": self.K_POINTS,
            "time_step_s": self.DT}})

    def round(self, rec):
        out = {"spectrum": rec.step("spectrum", lambda: self.cli(
            "spectrum", self.spec_cfg), ops=len(self.angles)), "fit": None}
        if out["spectrum"] is not None:
            out["fit"] = rec.step("fit", lambda: self.cli("fit", self.fit_cfg))
        else:   # the fit has no input, so it fails too
            rec.attempted += 1
            rec.failed += 1
        return out

    def check_round(self, out, chk):
        if not chk.present("spectrum", out["spectrum"]):
            return
        data = read_csv(self.out / "spectrum" / "spectrum.csv")
        cols = np.column_stack([data[c] for c in data.dtype.names[1:]])
        chk("spectrum values in [0, 1]",
            bool(np.all((cols >= -1e-9) & (cols <= 1 + 1e-9))),
            f"range [{cols.min():.3g}, {cols.max():.3g}]")
        if not chk.present("fit", out["fit"]):
            return
        truth = ref.lattice_truth(self.THETA, DEPTH_UP, self.T2D)
        fitted = out["fit"]["params"]
        dev = {k: abs(fitted[k] / v - 1) for k, v in truth.items()}
        worst = max(dev, key=dev.get)
        chk("fit recovers theta, W_up and T", dev[worst] < 0.015,
            f"largest relative deviation {dev[worst]:.2e} ({worst})")

    def first_node_system(self):
        """The system at the first thermal node, its depths scaled as in the
        paper: Gaussian beam profile at the first Gauss-Laguerre radius."""
        u = np.polynomial.laguerre.laggauss(self.NODES)[0][0]
        mass = ref.CS_MASS_KG
        omega_rad = 2 * math.pi * self.RADIAL_HZ
        sigma = math.sqrt(constants.k * self.T2D / (mass * omega_rad ** 2))
        e_r = constants.h * ref.recoil_hz(WAVELENGTH_NM)
        waist = math.sqrt(4 * DEPTH_UP * e_r / (mass * omega_rad ** 2))
        scale = math.exp(-2 * (sigma * math.sqrt(2 * u)) ** 2 / waist ** 2)
        return spectroscopy.build_system(
            LatticeGeometry(WAVELENGTH_NM, DEPTH_UP, self.THETA), self.atom,
            n_max=self.N_MAX, k_points=self.K_POINTS,
            q_cutoff=bands.default_q_cutoff(DEPTH_UP), depth_scale=scale)

    def final(self, out, rec, chk):
        system = self.first_node_system()
        m = self.N_MAX + 1
        window = 2 * math.pi * 1e3 * np.array(self.WINDOW_KHZ)
        res = np.array([system.resonance(0, n) for n in range(m)])
        inside = np.nonzero((res >= window[0]) & (res <= window[1]))[0]
        # the sidebands the first thermal node populates most
        sidebands = inside[np.argsort(system.fc_matrix[inside, 0] ** 2)[-4:]]
        pulse = spectroscopy.gaussian_pi_pulse(self.FWHM_US * 1e-6)

        def compare():
            psi = spectroscopy.propagate_detunings(
                system, pulse, spectroscopy.SpinMotionState.basis(
                    self.N_MAX, "up", 0), res[sidebands], dt=self.DT)
            got = np.sum(np.abs(psi[:, m:]) ** 2, axis=1)
            want = ref.pulse_transfer(system.energy_up, system.energy_down,
                                      system.fc_matrix, self.FWHM_US * 1e-6,
                                      res[sidebands])
            return np.abs(got - want)
        err = rec.step("reference_transfer", compare, ops=sidebands.size)
        if chk.present("sideband transfer", err):
            chk("sideband transfer vs solve_ivp reference",
                bool(err.max() < 1e-6),
                f"max deviation {err.max():.1e} over sidebands "
                f"{sorted(sidebands.tolist())}")

    def stages(self, steps):
        return {"spectrum_points_per_s":
                len(self.angles) * self.n_det / steps["spectrum"],
                "fit_s": steps["fit"]}


class StatePrep(Part):
    """Fock preparation by chirped adiabatic passage, a two-pulse
    superposition through the K[2,2] = 0 shift, and coherent-state
    projection.  No band structure."""

    def prepare(self):
        self.fock_m = int(self.rng.integers(2, 7))
        self.area = float(self.rng.uniform(0.45, 0.55))
        self.eta = float(self.rng.uniform(0.8, 1.2))
        n_max = 6 if self.tiny else 15
        # The CLI's automatic step (7.6 ns at n_max 15) takes 528k steps per
        # preparation; 100 ns gives the same fidelity to 1e-5.
        self.model = engineering.HarmonicModel(
            self.omega_vib, n_max=n_max, dt=2e-7 if self.tiny else 1e-7)
        self.sup_cfg = self.config("superposition", {"engineer": {
            "task": "superposition", "pulse_areas": [self.area],
            "n_max": n_max}})
        self.coh_cfg = self.config("coherent", {"engineer": {
            "task": "coherent", "coherent_eta_x": self.eta, "n_max": n_max}})

    def round(self, rec):
        return {
            "fock": rec.step("fock", lambda: engineering.prepare_fock(
                self.model, self.fock_m)),
            "superposition": rec.step("superposition", lambda: self.cli(
                "engineer", self.sup_cfg, tag="superposition")),
            "coherent": rec.step("coherent", lambda: self.cli(
                "engineer", self.coh_cfg, tag="coherent")),
        }

    def check_round(self, out, chk):
        if chk.present("Fock preparation", out["fock"]):
            state, fidelity = out["fock"]
            chk(f"Fock |down,{self.fock_m}> fidelity", fidelity >= 0.98,
                f"{fidelity:.5f}")
            trace = float(np.real(np.trace(state.rho)))
            chk("trace preserved", abs(trace - 1) < 1e-10,
                f"|tr - 1| = {abs(trace - 1):.1e}")
        if chk.present("superposition", out["superposition"]):
            p2 = read_csv(self.out / "superposition" / "engineer.csv")[
                "p_down_2"]
            want = math.sin(self.area * math.pi / 2) ** 2
            chk("superposition p(down, 2)", abs(float(p2) - want) < 0.01,
                f"{float(p2):.4f} vs sin^2(a pi / 2) = {want:.4f}")
        if chk.present("coherent state", out["coherent"]):
            d = read_csv(self.out / "coherent" / "engineer.csv")
            mean = float(d["n"] @ d["p_up"])
            chk("coherent-state mean n", abs(mean - self.eta ** 2) < 0.02,
                f"{mean:.4f} vs eta^2 = {self.eta ** 2:.4f}")

    def final(self, out, rec, chk):
        # The shifts do not depend on the truncation once n_max covers the
        # levels involved, so the smallest model is used.
        zero = rec.step("zero_coupling_shift", lambda: (
            engineering.zero_coupling_shift(
                engineering.HarmonicModel(self.omega_vib, n_max=2), 2)))
        if chk.present("zero_coupling_shift", zero):
            want = math.sqrt(2 - math.sqrt(2))     # first zero of L_2
            chk("K[2,2] = 0 shift", abs(zero - want) < 1e-8,
                f"{zero:.10f} vs {want:.10f}")
        m = self.fock_m
        peak = rec.step("coupling_maximizing_shift", lambda: (
            engineering.coupling_maximizing_shift(
                engineering.HarmonicModel(self.omega_vib, n_max=m), 0, m)))
        if chk.present("coupling_maximizing_shift", peak):
            chk(f"K[{m},0] maximum at sqrt({m})",
                abs(peak - math.sqrt(m)) < 1e-4,
                f"{peak:.6f} vs {math.sqrt(m):.6f}")

    def stages(self, steps):
        return {"fock_prep_s": steps["fock"],
                "superposition_s": steps["superposition"]}


class Wannier(Part):
    """Band structure with Wannier output, the FC table against
    position-space quadrature, and projection heating in operator and
    FC-sum form.  Position-space Wannier evaluation dominates."""

    DEEP = 8000.0

    def prepare(self):
        self.shift = float(self.rng.uniform(0.05, 0.15))
        self.eta = float(self.rng.uniform(0.2, 0.4))
        self.eta_deep = float(self.rng.uniform(0.1, 0.5))
        self.n_wannier = 2 if self.tiny else 6
        self.n_points = 401 if self.tiny else 2001
        self.levels = 2 if self.tiny else 3
        self.bands_cfg = self.config("bands", {"bands": {
            "wannier_bands": self.n_wannier, "wannier_points": self.n_points,
            "wannier_span": 2.0}})

    def fc_oracle(self):
        spec = bands.solve_bands(DEPTH_UP, n_bands=6, k_points=16)
        table = franck_condon.fcf_exact(spec, spec, self.shift).matrix
        quad = np.array([[franck_condon.fcf_quadrature(
            bands.wannier(spec, a), bands.wannier(spec, b), self.shift,
            x_span=3.0, n_points=2001) for b in range(self.levels)]
            for a in range(self.levels)])
        return table[:self.levels, :self.levels], quad

    def projection(self, depth, n_bands, k_points, eta, fc_sum):
        spec = bands.solve_bands(depth, n_bands=n_bands, k_points=k_points)
        shift = eta * 2 * (4 * depth) ** -0.25 / math.pi   # eta_x 2 x_0 / d
        general = cooling.projection_heating_general(spec, 0, shift)
        if not fc_sum:
            return general, None
        return general, cooling.projection_heating_fc_sum(spec, 0, shift)

    def round(self, rec):
        return {
            "bands": rec.step("bands", lambda: self.cli("bands",
                                                        self.bands_cfg)),
            "fc": rec.step("fc_oracle", self.fc_oracle, ops=self.levels ** 2),
            "heating": rec.step("projection", lambda: self.projection(
                DEPTH_UP, 16, 32, self.eta, True)),
            "deep": rec.step("projection_deep", lambda: self.projection(
                self.DEEP, 24, 16, self.eta_deep, False)),
        }

    def check_round(self, out, chk):
        if chk.present("bands", out["bands"]):
            d = read_csv(self.out / "bands" / "wannier.csv")
            x = d["x_over_d"] * math.pi
            for n in range(self.n_wannier):
                w = d[f"w_{n}"]
                norm = float(np.trapezoid(w * w, x))
                parity = float(np.abs(w[::-1] - (-1) ** n * w).max())
                chk(f"w_{n} normalized and of parity (-1)^{n}",
                    abs(norm - 1) < 1e-8 and parity < 1e-8,
                    f"|norm - 1| = {abs(norm - 1):.1e}, parity error "
                    f"{parity:.1e}")
            gap = out["bands"]["gap_01"] * ref.recoil_hz(WAVELENGTH_NM) / 1e3
            chk("0 -> 1 gap", abs(gap / 116.0 - 1) < 0.02,
                f"{gap:.2f} kHz vs 116 kHz")
        if chk.present("FC oracle", out["fc"]):
            table, quad = out["fc"]
            err = float(np.abs(table - quad).max())
            chk("FC table vs quadrature", err < 1e-4,
                f"max deviation {err:.1e}")
        if chk.present("projection heating", out["heating"]):
            general, fc_sum = out["heating"]
            chk("projection heating, operator vs FC-sum form",
                abs(general / fc_sum - 1) < 0.01,
                f"{general:.6f} vs {fc_sum:.6f} E_R")
        if chk.present("deep-lattice projection heating", out["deep"]):
            want = self.eta_deep ** 2 * 2 * math.sqrt(self.DEEP)
            chk("deep-lattice projection heating",
                abs(out["deep"][0] / want - 1) < 0.02,
                f"{out['deep'][0]:.4f} vs eta^2 2 sqrt(W) = {want:.4f} E_R")

    def stages(self, steps):
        return {"wannier_points_per_s":
                self.n_wannier * self.n_points / steps["bands"],
                "fc_oracle_s": steps["fc_oracle"]}


class Workload(Part):
    """Parts run one after another in each round.  Four separate workloads
    would leave each run too little time: on a shared 2-vCPU machine a round
    of fixed work varies by about 10 % from one round to the next, so two
    workloads of twice the run length give steadier figures."""

    parts: tuple[type[Part], ...] = ()

    def __init__(self, out: Path, seed: int, tiny: bool):
        super().__init__(out, seed, tiny)
        self.members = [part(out, seed, tiny) for part in self.parts]

    def prepare(self):
        for m in self.members:
            m.prepare()

    def round(self, rec):
        return [m.round(rec) for m in self.members]

    def check_round(self, out, chk):
        for m, o in zip(self.members, out):
            m.check_round(o, chk)

    def final(self, out, rec, chk):
        for m, o in zip(self.members, out):
            m.final(o, rec, chk)

    def stages(self, steps):
        return {k: v for m in self.members for k, v in m.stages(steps).items()}


class CoolingWannier(Workload):
    """Every layer but the pulses: the Lindblad model and position-space
    Wannier states."""

    parts = (Cooling, Wannier)


class SpectrumStates(Workload):
    """Every pulse layer: spectra, the fit and state preparation; no
    cooling, no position-space Wannier states."""

    parts = (SpectrumFit, StatePrep)


WORKLOADS = {"cooling_wannier": CoolingWannier,
             "spectrum_states": SpectrumStates}


def median_stages(workload: Workload, rounds: list[dict[str, float]]
                  ) -> dict[str, float]:
    """Median stage figures over the rounds in which every step ran."""
    per_round = []
    for steps in rounds:
        try:
            per_round.append(workload.stages(steps))
        except KeyError:   # a failed step recorded no time
            continue
    return {k: statistics.median(r[k] for r in per_round)
            for k in per_round[0]} if per_round else {}
