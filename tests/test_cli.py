import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mwlattice
from mwlattice.cli import main
from mwlattice.config import (ConfigError, DEFAULTS, DOMAINS, dumps,
                              load_config, resolve)


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal (and the scipy.stats it imports) is loaded only by
    # SpectrumResult.locate_peaks, not at every start of the CLI
    src = str(Path(mwlattice.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import mwlattice.cli; print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# config validation


def test_defaults_resolve_cleanly():
    cfg = resolve({})
    assert cfg == resolve(cfg)          # resolved config revalidates


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="bogus"):
        resolve({"bogus": 1})
    with pytest.raises(ConfigError, match="cool.bogus"):
        resolve({"cool": {"bogus": 1}})


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="solver.k_points"):
        resolve({"solver": {"k_points": "many"}})
    with pytest.raises(ConfigError, match="filter.repetitions"):
        resolve({"filter": {"repetitions": [3]}})


def test_partial_override_keeps_defaults():
    cfg = resolve({"cool": {"eta_x": 0.5}})
    assert cfg["cool"]["eta_x"] == 0.5
    assert cfg["cool"]["eta_k"] == DEFAULTS["cool"]["eta_k"]


def config_leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, prefix + key + ".")
        else:
            yield prefix + key


def nested(key, value):
    """The config {section: {...: {name: value}}} of a dotted key."""
    for name in reversed(key.split(".")):
        value = {name: value}
    return value


def leaf(tree, key):
    for name in key.split("."):
        tree = tree[name]
    return tree


# Keys without a value domain, each with its reason.
DOMAIN_EXEMPT = {
    # a path; "" means missing, and `fit` rejects it (exit 2) before any
    # work, while every other command ignores it
    "fit.input_csv",
}


def test_every_config_key_has_one_domain():
    listed = [key for _, _, keys in DOMAINS for key in keys]
    assert sorted(listed) == sorted(set(listed))        # no key twice
    assert set(listed) == set(config_leaves(DEFAULTS)) - DOMAIN_EXEMPT


TINY = 5e-324                   # the smallest positive float
# For every bounded domain: values on its edges, and values just outside.
# An integer key's values just outside are rounded down to integers.
DOMAIN_EDGES = {
    ">= 1": ([1], [0]),
    ">= 0": ([0], [-TINY]),
    "> 0": ([TINY], [0]),
    "in [0, 1]": ([0, 1], [-TINY, math.nextafter(1, 2)]),
    "in (0, 1]": ([TINY, 1], [0, math.nextafter(1, 2)]),
    "in [0, pi/2]": ([0, math.pi / 2],
                     [-TINY, math.nextafter(math.pi / 2, 2)]),
    "superposition, fock or coherent": (
        ["superposition", "fock", "coherent"], ["", "Fock", "teleport"]),
}


@pytest.mark.parametrize("rule", DOMAIN_EDGES)
def test_domain_edges_are_accepted_and_values_past_them_rejected(rule):
    (keys,) = [keys for r, _, keys in DOMAINS if r == rule]
    for key in keys:
        inside, outside = DOMAIN_EDGES[rule]
        default = leaf(DEFAULTS, key)
        if isinstance(default, int) or key == "solver.q_cutoff":
            outside = [math.floor(v) for v in outside]
        if default is None:
            inside = inside + [None]
        for value in inside:
            given = [value] if isinstance(default, list) else value
            assert leaf(resolve(nested(key, given)), key) == given
        for value in outside:
            given = [value] if isinstance(default, list) else value
            with pytest.raises(ConfigError,
                               match=re.escape(f"'{key}' must be {rule}")):
                resolve(nested(key, given))


def test_readme_configs_resolve():
    # every <<'JSON' heredoc of the README is a config inside the schema
    # and the domains
    readme = Path(__file__).resolve().parents[1] / "README.md"
    configs = re.findall(r"<<'JSON'\n(.*?)\nJSON\n", readme.read_text(),
                         re.S)
    assert len(configs) >= 2
    for text in configs:
        resolve(json.loads(text))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)


# ---------------------------------------------------------------------------
# CLI surface


def run_cli(args):
    return main(args)


def test_exit_code_on_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_block": {}}))
    assert run_cli(["bands", "--config", str(bad)]) == 2


def test_emit_config_prints_and_exits(tmp_path, capsys):
    assert run_cli(["bands", "--emit-config"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == resolve({})
    # nothing written
    assert not (tmp_path / "bands.json").exists()


def test_bands_command_artifacts(tmp_path):
    assert run_cli(["bands", "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "bands.csv", delimiter=",", names=True)
    assert len(data.dtype.names) == 17        # k + 16 bands
    meta = json.loads((tmp_path / "bands.json").read_text())
    assert meta["results"]["gap_01"] == pytest.approx(57.29, rel=2e-3)
    w = np.genfromtxt(tmp_path / "wannier.csv", delimiter=",", names=True)
    assert "w_0" in w.dtype.names


def test_bands_free_particle(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bands": {"depth": 0.0}}))
    assert run_cli(["bands", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "bands.json").read_text())
    assert meta["results"]["band_energies"][0] < 0.5   # free-particle band


def test_fcf_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fcf": {"n_shifts": 5, "max_shift_nm": 100.0},
                               "solver": {"k_points": 16, "n_max": 7}}))
    assert run_cli(["fcf", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "fcf.csv", delimiter=",", names=True)
    assert data["I_0_0"][0] == pytest.approx(1.0, abs=1e-10)
    meta = json.loads((tmp_path / "fcf.json").read_text())
    assert meta["results"]["identity_check_max_err"] < 1e-10


def test_cool_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cool": {"n_max": 6}}))
    assert run_cli(["cool", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "cool.json").read_text())
    assert meta["results"]["p_ground"] > 0.9
    assert meta["results"]["residual"] < 1e-10
    assert meta["results"]["steady_state_path"] == "populations"


def test_cool_command_degenerate_kernel(tmp_path):
    # no microwave coupling: the spin sectors decouple, the kernel is
    # degenerate and the steady state comes from the SVD fallback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cool": {"coupling_khz": 0.0, "n_max": 4}}))
    assert run_cli(["cool", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "cool.json").read_text())
    assert meta["results"]["degenerate"] is True
    assert meta["results"]["residual"] < 1e-10
    assert meta["results"]["steady_state_path"] == "dense_svd"


def test_cool_command_exits_3_on_a_corrupted_transient(tmp_path, monkeypatch,
                                                      capsys):
    # eigenvalues shifted by 1e-3 omega_vib grow the trace of the transient:
    # evolve's trace check fails and no cool.json is written
    original = np.linalg.eig

    def corrupted(a):
        w, v = original(a)
        return w + 1e-3, v

    monkeypatch.setattr(np.linalg, "eig", corrupted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cool": {"n_max": 5, "evolve_ms": 0.1}}))
    assert run_cli(["cool", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "trace" in capsys.readouterr().err
    assert not (tmp_path / "cool.json").exists()


def test_engineer_superposition_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"engineer": {"task": "superposition", "pulse_areas": [0.5],
                      "n_max": 8}}))
    assert run_cli(["engineer", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "engineer.csv", delimiter=",", names=True)
    assert float(data["p_down_2"]) == pytest.approx(0.5, abs=0.01)


def test_engineer_bad_task_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engineer": {"task": "teleport"}}))
    assert run_cli(["engineer", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2


# A one-angle, one-node spectrum and fit at a small solver size.
TINY_SPECTRUM = {
    "solver": {"n_max": 5, "k_points": 8},
    "spectrum": {"polarization_angles": [0.3538], "pulse_fwhm_us": 30.0,
                 "detuning_min_khz": -400.0, "detuning_max_khz": 0.0,
                 "n_detunings": 40, "thermal_samples": 1,
                 "time_step_s": 1e-6}}
TINY_FIT = {"n_max": 5, "k_points": 8, "thermal_samples": 1,
            "time_step_s": 1e-6, "pulse_fwhm_us": 30.0,
            "atoms_per_point": 200,
            "guess": {"dx": 0.10, "w_down": 825.0, "du_tot": -11.0,
                      "t2d": 1e-5}}


# Values that each key's domain allows but that fail together; a value
# outside one key's domain exits 2 (test_atom_counts_below_their_bound_exit_2).
@pytest.mark.parametrize("command, block, value", [
    ("engineer", {"engineer": {"task": "fock", "fock_m": 20, "n_max": 4}},
     "(0, 20)"),
    ("engineer", {"engineer": {"task": "superposition", "n_max": 1}},
     "got 1"),
    ("fcf", {"solver": {"n_max": 2, "k_points": 8},
             "fcf": {"bands": 3, "n_shifts": 3}}, "solver.n_max >= 3, got 2"),
    ("fcf", {"solver": {"n_max": 2, "k_points": 8}},
     "fcf.bands = 6 and the harmonic oracle's 4 levels need "
     "solver.n_max >= 5, got 2"),
], ids=["fock_m_above_n_max", "superposition_n_max_1",
        "fcf_n_max_below_oracle", "fcf_n_max_below_bands"])
def test_out_of_range_input_exits_3(tmp_path, capsys, command, block, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert value in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_filter_command_reports_f_prime(tmp_path):
    assert run_cli(["filter", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "filter.json").read_text())
    assert meta["results"]["f_prime"] == pytest.approx(0.973, abs=1e-12)
    assert meta["results"]["max_reconstruction_error"] < 1e-10


@pytest.mark.parametrize("atoms", [0, 120])
def test_filter_rounds_the_reconstruction_error(tmp_path, atoms):
    # exact plateaus reconstruct to rounding (1.7e-16), recorded as 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"atoms": atoms}}))
    assert run_cli(["filter", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "filter.json").read_text())
    error = meta["results"]["max_reconstruction_error"]
    assert error == round(error, 12)
    assert (error == 0.0) if atoms == 0 else (0.01 < error < 0.5)


def test_sampled_filter_reconstructs_at_every_seed(tmp_path, recwarn):
    # seed 5 drew a plateau drop of 0.06 past the fixed NOISE_TOLERANCE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"atoms": 150}}))
    for seed in range(1, 50):
        assert run_cli(["filter", "--config", str(cfg), "--seed", str(seed),
                        "--out", str(tmp_path / str(seed))]) == 0, seed


@pytest.mark.parametrize("command, text, key", [
    ("spectrum", '{"spectrum": {"pulse_fwhm_us": Infinity}}',
     "spectrum.pulse_fwhm_us"),
    ("engineer", '{"engineer": {"pulse_areas": [Infinity]}}',
     "engineer.pulse_areas"),
    ("engineer", '{"engineer": {"pulse_areas": [NaN]}}',
     "engineer.pulse_areas"),
    ("spectrum", '{"spectrum": {"time_step_s": -Infinity}}',
     "spectrum.time_step_s"),
], ids=["number_infinite", "list_infinite", "list_nan", "null_default"])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, text,
                                          key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert f"'{key}' must be a" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("command, block, key, kind", [
    ("bands", {"solver": {"n_max": 2.5}}, "solver.n_max", "an integer"),
    ("spectrum", {"spectrum": {"thermal_samples": 2.7}},
     "spectrum.thermal_samples", "an integer"),
    ("filter", {"filter": {"atoms": -0.5}}, "filter.atoms", "an integer"),
    ("bands", {"solver": {"q_cutoff": 20.5}}, "solver.q_cutoff",
     "an integer or null"),
])
def test_integer_keys_reject_fractions(tmp_path, capsys, command, block, key,
                                       kind):
    # these used to be truncated: n_max 2.5 ran the bands at n_max 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert f"'{key}' must be {kind}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_integer_keys_take_integral_floats_as_ints(tmp_path):
    cfg = resolve({"solver": {"n_max": 2.0, "k_points": 8.0},
                   "spectrum": {"thermal_samples": 3.0}})
    for value in (cfg["solver"]["n_max"], cfg["solver"]["k_points"],
                  cfg["spectrum"]["thermal_samples"]):
        assert type(value) is int
    outputs = {}
    for name, n_max, q_cutoff in (("floats", 2.0, 16.0), ("ints", 2, 16)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"solver": {"n_max": n_max, "k_points": 8,
                                               "q_cutoff": q_cutoff}}))
        assert run_cli(["bands", "--config", str(path),
                        "--out", str(tmp_path / name)]) == 0
        outputs[name] = [(tmp_path / name / f).read_bytes()
                         for f in ("bands.csv", "wannier.csv")]
        meta = json.loads((tmp_path / name / "bands.json").read_text())
        assert meta["results"]["n_bands"] == 3
    assert outputs["floats"] == outputs["ints"]


def test_spectrum_past_the_strang_step_cap_exits_3(tmp_path, capsys):
    # a 1 s pulse at the automatic step needs about 9e8 steps on the
    # default grid; without the cap this ran for days
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectrum": {"pulse_fwhm_us": 1e6}}))
    start = time.perf_counter()
    assert run_cli(["spectrum", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 60.0
    assert "Strang steps of" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


def test_midpoint_at_its_step_cap_exits_3(tmp_path, monkeypatch, capsys):
    from mwlattice import spectroscopy
    monkeypatch.setattr(spectroscopy, "MIDPOINT_STEPS", (64, 256))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"engineer": {"task": "fock", "fock_m": 2, "n_max": 4}}))
    assert run_cli(["engineer", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "exponential midpoint at 256 steps" in capsys.readouterr().err
    assert not (tmp_path / "engineer.json").exists()


def test_fit_requires_input(tmp_path):
    assert run_cli(["fit", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("block, key", [
    ({"spectrum": {"time_step_s": "x"}}, "spectrum.time_step_s"),
    ({"spectrum": {"time_step_s": True}}, "spectrum.time_step_s"),
    ({"solver": {"q_cutoff": "abc"}}, "solver.q_cutoff"),
    ({"bands": {"depth": "deep"}}, "bands.depth"),
    ({"fit": {"input_csv": 1}}, "fit.input_csv"),
])
def test_null_default_keys_take_numbers_only(tmp_path, capsys, block, key):
    # a key that defaults to null takes a number or null, never a string
    # or a bool; fit.input_csv is a string key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    assert run_cli(["bands", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert f"'{key}' must be a" in capsys.readouterr().err
    assert resolve({"spectrum": {"time_step_s": 3e-7}})[
        "spectrum"]["time_step_s"] == 3e-7


def test_fit_of_an_empty_spectrum_exits_3(tmp_path, capsys, monkeypatch):
    # a spectrum with no point at the peak height, all zero or with three
    # points at 0.015 (a 200-atom draw of a spectrum that the fit misread),
    # exits before any forward pass
    from mwlattice import cli
    monkeypatch.setattr(cli, "fit_spectrum", None)     # never called
    detunings = np.linspace(-400.0, 0.0, 40)
    cfg = tmp_path / "cfg.json"
    for largest in (0.0, 0.015):
        values = np.zeros(40)
        values[[5, 17, 30]] = largest
        data = tmp_path / "low.csv"
        data.write_text("detuning_khz,p\n" + "".join(
            f"{d:.12g},{v:.12g}\n" for d, v in zip(detunings, values)))
        cfg.write_text(json.dumps({"fit": dict(TINY_FIT,
                                               input_csv=str(data))}))
        assert run_cli(["fit", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 3
        assert (f"its largest value {largest:g} is below 0.02"
                in capsys.readouterr().err)
        assert not (tmp_path / "fit.json").exists()


def test_fit_that_determines_nothing_exits_3(tmp_path, capsys):
    # one point at 0.5, 5 MHz from every resonance, clears the peak height
    # but determines none of the parameters: the fit converges, with the
    # stderr of dx 5e7 times its value
    detunings = np.linspace(5000.0, 5400.0, 40)
    data = tmp_path / "far.csv"
    data.write_text("detuning_khz,p\n" + "".join(
        f"{d:.12g},{0.5 if i == 0 else 0}\n"
        for i, d in enumerate(detunings)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": dict(TINY_FIT, input_csv=str(data))}))
    assert run_cli(["fit", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "fit does not determine" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("rows, column, row", [
    (["-400,0.1", "np.float64(-200.0),0.5", "0,0.2"], "detuning_khz", 2),
    (["-400,0.1", "-200,0.5", "0,"], "p_theta_0.3538", 3),
    (["-400,inf", "-200,0.5", "0,0.2"], "p_theta_0.3538", 1),
], ids=["detuning_unparsed", "data_missing", "data_infinite"])
def test_fit_input_that_is_not_a_finite_number_exits_2(tmp_path, capsys,
                                                        rows, column, row):
    data = tmp_path / "data.csv"
    data.write_text("detuning_khz,p_theta_0.3538\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": dict(TINY_FIT, input_csv=str(data))}))
    assert run_cli(["fit", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(data) in err and f"'{column}'" in err
    assert f"data row {row}" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("command, key, value, bound", [
    ("fit", "fit.atoms_per_point", 0, ">= 1"),
    ("fit", "fit.atoms_per_point", -3, ">= 1"),
    ("spectrum", "spectrum.atoms_per_point", -1, ">= 0"),
    ("filter", "filter.atoms", -5, ">= 0"),
    ("coolmap", "coolmap.eta_x_points", 0, ">= 1"),
    ("coolmap", "coolmap.coupling_points", 0, ">= 1"),
    ("spectrum", "spectrum.n_detunings", 0, ">= 1"),
    ("bands", "bands.wannier_points", 0, ">= 1"),
    ("spectrum", "spectrum.polarization_angles", [], "a non-empty list"),
    ("engineer", "engineer.pulse_areas", [], "a non-empty list"),
    ("bands", "bands.wannier_bands", 0, ">= 1"),
    ("bands", "bands.wannier_bands", -3, ">= 1"),
    ("spectrum", "spectrum.thermal_samples", 0, ">= 1"),
    ("fit", "fit.thermal_samples", 0, ">= 1"),
    ("cool", "cool.evolve_ms", -1, ">= 0"),
    ("cool", "cool.initial_n_bar", -1, ">= 0"),
    ("bands", "bands.wannier_span", 0, "> 0"),
    ("bands", "bands.wannier_span", -1, "> 0"),
    ("filter", "filter.n_bar", -1, ">= 0"),
    # these exited 3 from the library's own checks, after --out was made
    pytest.param("engineer", "engineer.fock_m", -1, ">= 0",
                 id="fock_m_negative"),
    pytest.param("engineer", "engineer.n_max", -1, ">= 0",
                 id="engineer_n_max_negative"),
    pytest.param("cool", "cool.n_max", -1, ">= 0", id="cool_n_max_negative"),
    pytest.param("bands", "solver.k_points", 0, ">= 1",
                 id="bands_k_points_zero"),
    pytest.param("fcf", "lattice.wavelength_nm", -865.95, "> 0",
                 id="fcf_wavelength_negative"),
    pytest.param("spectrum", "spectrum.time_step_s", -1e-6, "> 0 or null",
                 id="spectrum_time_step_negative"),
    pytest.param("spectrum", "spectrum.time_step_s", 0, "> 0 or null",
                 id="spectrum_time_step_zero"),
    pytest.param("spectrum", "spectrum.pulse_fwhm_us", 0.0, "> 0",
                 id="spectrum_fwhm_zero"),
    pytest.param("fit", "fit.time_step_s", -1e-6, "> 0",
                 id="fit_time_step_negative"),
    pytest.param("fit", "fit.time_step_s", 0.0, "> 0",
                 id="fit_time_step_zero"),
    pytest.param("fit", "fit.pulse_fwhm_us", 0.0, "> 0", id="fit_fwhm_zero"),
    # these exited 0 with a wrong answer
    ("spectrum", "spectrum.temperature_2d_uk", -10, ">= 0"),
    ("filter", "filter.loss_per_repetition", 1.5, "in (0, 1]"),
    ("cool", "cool.eta_k", -0.1, ">= 0"),
    ("coolmap", "coolmap.eta_x_min", -1, ">= 0"),
    ("engineer", "engineer.coherent_eta_x", -1, ">= 0"),
    ("bands", "lattice.polarization_angle", 3.0, "in [0, pi/2]"),
])
def test_atom_counts_below_their_bound_exit_2(tmp_path, capsys, command, key,
                                              value, bound):
    # a fit's binomial errors need one atom a point (0 divided by zero, a
    # negative count gave non-finite residuals); spectrum and filter draws
    # need a count >= 0 (0 is exact, a negative count was taken as 0).  No
    # grid points or list entries wrote a header-only or empty CSV, or
    # failed on the empty result after writing one (exit 3).  No Wannier
    # bands wrote a CSV of the x column only, no thermal nodes failed in
    # scipy without naming the key, a negative evolution time ran as 0 and
    # a negative initial or filter n_bar as the ground state.  A Wannier
    # span of 0 wrote every row at x = 0, a negative one an x column
    # running down.  A negative 2-D temperature ran as 0 K, a filter loss
    # above 1 gave survivals above 1, and a negative Lamb-Dicke parameter or
    # a polarization angle past pi/2 ran as given.
    data = tmp_path / "data.csv"
    data.write_text("detuning_khz,p\n-400,0.1\n-200,0.5\n0,0.2\n")
    section, name = key.split(".")
    block = {section: {name: value}}
    if command == "fit":
        block = {"fit": dict(TINY_FIT, input_csv=str(data), **{name: value})}
    elif command == "spectrum":
        block["spectrum"].setdefault("n_detunings", 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"'{key}' must be {bound}" in capsys.readouterr().err
    assert not out.exists()             # rejected before --out is made


@pytest.mark.parametrize("key", ["n_shifts", "bands"])
def test_fcf_counts_below_1_exit_2(tmp_path, capsys, key):
    # no shifts raised an IndexError, no bands wrote a CSV of shifts only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fcf": {key: 0}}))
    assert run_cli(["fcf", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"'fcf.{key}' must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "fcf.json").exists()


@pytest.mark.parametrize("command", ["bands", "fcf", "spectrum", "fit"])
def test_zero_q_cutoff_exits_3_in_every_command(tmp_path, capsys, command):
    # 0 is a one-plane-wave basis, never the default cutoff
    data = tmp_path / "data.csv"
    data.write_text("detuning_khz,p\n-400,0.1\n-200,0.5\n0,0.2\n")
    block = dict(TINY_SPECTRUM, solver=dict(TINY_SPECTRUM["solver"],
                                            q_cutoff=0),
                 fit=dict(TINY_FIT, input_csv=str(data)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "n_bands exceeds plane-wave basis size" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_band_cache_counts_of_the_three_angle_fit(tmp_path):
    # the noiseless three-angle spectrum (n_max 13, k 16, two nodes, 120
    # detunings) and the fit of its first column (5 objective calls and 5
    # Jacobians, to the EDM stop); how spectra are stored
    # changes neither the cache's keys nor its hits and misses
    from mwlattice import bands
    window = {"pulse_fwhm_us": 100.0, "thermal_samples": 2,
              "time_step_s": 3e-7}
    spectrum = dict(window, polarization_angles=[1.3167, 0.3538, 0.8770],
                    detuning_min_khz=-1384.1, detuning_max_khz=-135.8,
                    n_detunings=120, atoms_per_point=0)
    fit = dict(window, input_csv=str(tmp_path / "spectrum.csv"), n_max=13,
               k_points=16, atoms_per_point=200,
               guess={"dx": 0.41, "w_down": 650.0, "du_tot": -99.0,
                      "t2d": 1.01e-5})
    runs = [("spectrum", {"solver": {"n_max": 13, "k_points": 16},
                          "spectrum": spectrum}),
            ("fit", {"fit": fit})]
    counts = []
    for command, block in runs:
        cfg = tmp_path / f"{command}_cfg.json"
        cfg.write_text(json.dumps(block))
        bands._cached_bands.cache_clear()
        assert run_cli([command, "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
        info = bands._cached_bands.cache_info()
        counts.append((info.hits, info.misses, info.currsize))
    assert counts == [(4, 8, 8), (50, 50, 50)]


@pytest.mark.parametrize("time_step_s, atoms", [(None, 50), (None, 0),
                                                (1e-6, 50)])
def test_stacked_angles_write_the_per_angle_spectra(tmp_path, time_step_s,
                                                    atoms):
    # every angle's thermal states run in one stack; at the automatic step
    # each angle keeps its own, so the CSV is that of one simulate_spectrum
    # call per angle followed by the binomial draws in angle order (the
    # noiseless case shows a change of step that the draws would round off)
    from mwlattice.cli import _geometry, _write_csv
    from mwlattice.lattice import cesium
    from mwlattice.spectroscopy import (SpectroscopyConfig, gaussian_pi_pulse,
                                        simulate_spectrum)
    angles = [0.3538, 0.8770, 1.3167]
    block = {"solver": {"n_max": 5, "k_points": 8},
             "spectrum": {"polarization_angles": angles,
                          "pulse_fwhm_us": 30.0, "detuning_min_khz": -400.0,
                          "detuning_max_khz": 0.0, "n_detunings": 40,
                          "thermal_samples": 2, "atoms_per_point": atoms,
                          "time_step_s": time_step_s}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(block))
    assert run_cli(["spectrum", "--config", str(cfg_path), "--out",
                    str(tmp_path / "cli"), "--seed", "7"]) == 0

    cfg = resolve(block)
    sp = cfg["spectrum"]
    scfg = SpectroscopyConfig(n_max=5, k_points=8, thermal_samples=2,
                              dt=time_step_s)
    pulse = gaussian_pi_pulse(sp["pulse_fwhm_us"] * 1e-6)
    detunings = 2 * math.pi * 1e3 * np.linspace(-400.0, 0.0, 40)
    rng = np.random.default_rng(7)
    cols, headers = [detunings / (2 * math.pi * 1e3)], ["detuning_khz"]
    for angle in angles:
        transfer = simulate_spectrum(
            _geometry(cfg, angle=angle), cesium(), pulse, detunings,
            t2d=sp["temperature_2d_uk"] * 1e-6, cfg=scfg).transfer
        if atoms > 0:
            transfer = rng.binomial(atoms, np.clip(transfer, 0, 1)) / atoms
        cols.append(transfer)
        headers.append(f"p_theta_{angle:.4f}")
    _write_csv(tmp_path / "want.csv", headers, cols)
    assert ((tmp_path / "cli" / "spectrum.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_fit_reports_diagnostics(tmp_path):
    # a noiseless spectrum at a small solver size, fitted twice: fit.json
    # carries the optimizer's diagnostics and is byte-identical
    from mwlattice.spectroscopy import FIT_EDM
    fit_keys = {"n_max": 5, "k_points": 8, "thermal_samples": 1,
                "time_step_s": 1e-6, "pulse_fwhm_us": 30.0}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "solver": {"n_max": 5, "k_points": 8},
        "spectrum": {"polarization_angles": [0.3538], "pulse_fwhm_us": 30.0,
                     "detuning_min_khz": -400.0, "detuning_max_khz": 0.0,
                     "n_detunings": 40, "thermal_samples": 1,
                     "time_step_s": 1e-6}}))
    assert run_cli(["spectrum", "--config", str(spec),
                    "--out", str(tmp_path)]) == 0
    fit = tmp_path / "fit_cfg.json"
    fit.write_text(json.dumps({"fit": dict(
        fit_keys, input_csv=str(tmp_path / "spectrum.csv"),
        atoms_per_point=200,
        guess={"dx": 0.10, "w_down": 825.0, "du_tot": -11.0, "t2d": 1e-5})}))
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_cli(["fit", "--config", str(fit), "--out", str(out)]) == 0
        runs.append((out / "fit.json").read_bytes())
    assert runs[0] == runs[1]
    results = json.loads(runs[0])["results"]
    diag = results["diagnostics"]
    assert set(diag) == {"nfev", "njev", "status", "chi2_dof", "cond_jtj",
                         "edm"}
    assert diag["nfev"] >= 1 and diag["njev"] >= 1
    assert diag["status"] in (-2, 1, 2, 3, 4)
    assert diag["edm"] >= 0.0
    assert diag["status"] != -2 or diag["edm"] < FIT_EDM
    assert diag["chi2_dof"] == pytest.approx(2 * results["cost"] / (40 - 4),
                                             rel=1e-12)
    assert 1.0 <= diag["cond_jtj"] < 1e12


def test_fit_uses_solver_q_cutoff(tmp_path, monkeypatch):
    # the fit's model uses the plane-wave cutoff the spectrum was made with
    from mwlattice import cli
    from mwlattice.spectroscopy import FitResult
    seen = []

    def fake_fit(*args, cfg, **kwargs):
        seen.append(cfg)
        names = ["dx", "w_down", "du_tot", "t2d"]
        return FitResult(params=dict.fromkeys(names, 1.0),
                         stderr=dict.fromkeys(names, 0.1), cost=0.5,
                         success=True, message="converged")
    monkeypatch.setattr(cli, "fit_spectrum", fake_fit)
    data = tmp_path / "data.csv"
    data.write_text("detuning_khz,p\n-1,0.1\n0,0.5\n1,0.2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"q_cutoff": 70},
                               "fit": {"input_csv": str(data)}}))
    assert run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert [c.q_cutoff for c in seen] == [70]


class ReadRecorder(dict):
    """A config (sub)tree that records the dotted path of every key read.

    Overriding ``__iter__`` makes ``dict(tree)`` copy through
    ``__getitem__``, so a copied subtree counts as read key by key."""

    def __init__(self, tree, seen, prefix=""):
        super().__init__(tree)
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        path = self.prefix + key
        self.seen.add(path)
        value = super().__getitem__(key)
        if isinstance(value, dict):
            return ReadRecorder(value, self.seen, path + ".")
        return value

    def __iter__(self):
        return super().__iter__()


# Config keys that no command reads, each with its reason.
UNREAD_KEYS = {
    # the depth scale of a frozen transverse radius is exp(-u kB T / W_up):
    # the radial trap frequency cancels, and the key is accepted for old
    # configs only
    "spectrum.radial_frequency_hz",
}


def test_every_config_key_is_read(tmp_path):
    from mwlattice.cli import COMMANDS
    # the small noiseless spectrum and fit of test_fit_reports_diagnostics
    tiny = {"solver": {"n_max": 5, "k_points": 8}}
    spectrum = {"polarization_angles": [0.3538], "pulse_fwhm_us": 30.0,
                "detuning_min_khz": -400.0, "detuning_max_khz": 0.0,
                "n_detunings": 40, "thermal_samples": 1, "time_step_s": 1e-6}
    fit = {"input_csv": str(tmp_path / "spectrum.csv"), "n_max": 5,
           "k_points": 8, "thermal_samples": 1, "time_step_s": 1e-6,
           "pulse_fwhm_us": 30.0, "atoms_per_point": 200,
           "guess": {"dx": 0.10, "w_down": 825.0, "du_tot": -11.0,
                     "t2d": 1e-5}}
    runs = [
        ("bands", dict(tiny, bands={"wannier_points": 11})),
        ("fcf", dict(tiny, fcf={"n_shifts": 3})),
        ("spectrum", dict(tiny, spectrum=spectrum)),
        ("fit", {"fit": fit}),
        ("cool", {"cool": {"n_max": 3, "evolve_ms": 0.1}}),
        ("coolmap", {"cool": {"n_max": 3},
                     "coolmap": {"eta_x_points": 2, "coupling_points": 2}}),
        ("engineer", {"engineer": {"task": "superposition", "n_max": 3,
                                   "pulse_areas": [0.5]}}),
        ("engineer", {"engineer": {"task": "fock", "fock_m": 1,
                                   "n_max": 3}}),
        ("engineer", {"engineer": {"task": "coherent", "n_max": 6,
                                   "coherent_eta_x": 0.5}}),
        ("filter", {"filter": {"n_max": 3, "atoms": 50}}),
    ]
    assert {name for name, _ in runs} == set(COMMANDS)
    seen = set()
    for name, block in runs:
        COMMANDS[name](ReadRecorder(resolve(block), seen), tmp_path,
                       np.random.default_rng(0))
    unread = set(config_leaves(DEFAULTS)) - seen
    assert unread == UNREAD_KEYS


def test_norm_drift_exits_3(tmp_path, monkeypatch, capsys):
    from mwlattice import spectroscopy
    tables = spectroscopy._rotation_tables
    monkeypatch.setattr(spectroscopy, "_rotation_tables",
                        lambda *args: tables(*args) * (1 + 1e-6))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "solver": {"n_max": 3, "k_points": 8},
        "spectrum": {"polarization_angles": [0.3538], "n_detunings": 5,
                     "thermal_samples": 1, "time_step_s": 1e-6}}))
    assert run_cli(["spectrum", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 3
    assert "changed the norm of state" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()


def test_non_finite_result_exits_3(tmp_path, monkeypatch, capsys):
    # fit_spectrum reports every stderr as NaN when J^T J is singular
    from mwlattice import cli
    from mwlattice.spectroscopy import FitResult
    names = ["dx", "w_down", "du_tot", "t2d"]
    singular = FitResult(params=dict.fromkeys(names, 1.0),
                         stderr=dict.fromkeys(names, math.nan), cost=0.5,
                         success=True, message="converged")
    monkeypatch.setattr(cli, "fit_spectrum", lambda *a, **kw: singular)
    data = tmp_path / "data.csv"
    data.write_text("detuning_khz,p\n-1,0.1\n0,0.5\n1,0.2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {"input_csv": str(data)}}))
    assert run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "solver error: non-finite result results.stderr.dx = nan" in err
    assert not (tmp_path / "fit.json").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"atoms": 150}}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["filter", "--config", str(cfg), "--seed", "99",
                        "--out", str(out)]) == 0
    assert (out1 / "filter.csv").read_bytes() == \
        (out2 / "filter.csv").read_bytes()
    assert (out1 / "filter.json").read_bytes() == \
        (out2 / "filter.json").read_bytes()


def test_seed_changes_sampled_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"atoms": 150}}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["filter", "--config", str(cfg), "--seed", "1", "--out", str(out1)])
    run_cli(["filter", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
    assert (out1 / "filter.csv").read_bytes() != \
        (out2 / "filter.csv").read_bytes()


def test_canonical_dumps_stable():
    cfg = resolve({})
    assert dumps(cfg) == dumps(json.loads(dumps(cfg)))
