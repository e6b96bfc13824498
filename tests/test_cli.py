import json
import math

import numpy as np
import pytest

from mwlattice.cli import main
from mwlattice.config import ConfigError, DEFAULTS, dumps, load_config, resolve


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


def test_cool_command_degenerate_kernel(tmp_path):
    # no microwave coupling: the spin sectors decouple, the kernel is
    # degenerate and the steady state comes from the SVD fallback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cool": {"coupling_khz": 0.0, "n_max": 4}}))
    assert run_cli(["cool", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "cool.json").read_text())
    assert meta["results"]["degenerate"] is True
    assert meta["results"]["residual"] < 1e-10


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


@pytest.mark.parametrize("command, block, value", [
    ("engineer", {"engineer": {"task": "fock", "fock_m": 20, "n_max": 4}},
     "(0, 20)"),
    ("engineer", {"engineer": {"task": "fock", "fock_m": -1}},
     "m must be >= 0, got -1"),
    ("engineer", {"engineer": {"task": "superposition", "n_max": 1}},
     "got 1"),
    ("engineer", {"engineer": {"task": "coherent", "n_max": -1}},
     "got -1"),
    ("cool", {"cool": {"n_max": -1}}, "got -1"),
], ids=["fock_m_above_n_max", "fock_m_negative", "superposition_n_max_1",
        "engineer_n_max_negative", "cool_n_max_negative"])
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


def test_fit_requires_input(tmp_path):
    assert run_cli(["fit", "--out", str(tmp_path)]) == 2


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
