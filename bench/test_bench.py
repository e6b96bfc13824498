"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload runs once at its tiny size, traced; every per-layer figure
the README maps to that workload must have recorded work, and the printed
names and units must match BENCHMARK.json.  A run in which one operation
raises must fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

CLI = ["cli.main.calls", "cli.main.s"]
HARMONIC = ["franck_condon.fcf_harmonic_matrix.calls",
            "franck_condon.fcf_harmonic_matrix.s"]
BANDS = ["bands.solve_bands.calls", "bands.solve_bands.s",
         "franck_condon.fcf_exact.calls", "franck_condon.fcf_exact.s"]
COOLING = CLI + HARMONIC + [
    "cooling.build_liouvillian.calls", "cooling.build_liouvillian.s",
    "cooling.decay_rates.calls", "cooling.decay_rates.s",
    "cooling.emission_average_overlap_sq.calls",
    "cooling.emission_average_overlap_sq.s",
    "cooling.steady_state.calls", "cooling.steady_state.s",
    "cooling.evolve.s", "coolmap_cells_per_s", "cool_ladder_s",
    "cool_evolve_s"]
SPECTRUM_FIT = CLI + BANDS + [
    "bands.cached_bands.hit_ratio",
    "spectroscopy.system_from_potentials.calls",
    "spectroscopy.system_from_potentials.s",
    "spectroscopy.propagate_detunings.calls",
    "spectroscopy.propagate_detunings.s",
    "spectroscopy.propagate_detunings.columns_per_s",
    "spectroscopy.fit_spectrum.nfev", "spectroscopy.fit_spectrum.s",
    "spectrum_points_per_s", "fit_s"]
STATE_PREP = CLI + HARMONIC + [
    "engineering.pulse_unitary.calls", "engineering.pulse_unitary.s",
    "engineering.run_sequence.s", "engineering.zero_coupling_shift.s",
    "engineering.coupling_maximizing_shift.s",
    "engineering.HarmonicModel.coupling.calls", "fock_prep_s",
    "superposition_s"]
WANNIER = CLI + BANDS + [
    "bands.wannier_eval.s", "bands.wannier_eval.points_per_s",
    "franck_condon.fcf_quadrature.s",
    "cooling.projection_heating_general.s", "wannier_points_per_s",
    "fc_oracle_s"]
LAYERS = {"cooling_wannier": COOLING + WANNIER,
          "spectrum_states": SPECTRUM_FIT + STATE_PREP}


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_every_workload_is_mapped():
    assert sorted(LAYERS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_tiny_run_records_its_layers(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    idle = [name for name in LAYERS[workload] + ["trace.overhead_ratio"]
            if not result["metrics"][name]["value"] > 0]
    assert not idle


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = run_bench(ROOT, "--workload", "spectrum_states", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cooling_wannier", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_a_failing_operation_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "mwlattice" / "engineering.py", "a") as f:
        f.write("\n\ndef prepare_fock(*args, **kwargs):\n"
                "    raise RuntimeError('broken on purpose')\n")
    proc = run_bench(tmp_path, "--workload", "spectrum_states", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 1
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "broken on purpose" in proc.stderr
