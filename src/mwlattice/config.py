"""Run configuration: JSON ingestion, defaults, and strict validation.

The schema is the nested ``DEFAULTS`` tree.  User configs are merged over it;
any key not present in the tree is rejected by name (explicit over
permissive), scalar types must match the default's type, and every value
must lie in its key's domain (``DOMAINS``).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path


class ConfigError(Exception):
    """Invalid configuration (unknown key, wrong type, bad value)."""


#: Full parameter tree with defaults.  ``None`` means "derive at runtime".
DEFAULTS: dict = {
    "lattice": {
        "wavelength_nm": 865.95,
        "depth_up": 850.0,
        "polarization_angle": 0.0,
    },
    "solver": {
        "k_points": 32,
        "q_cutoff": None,
        "n_max": 15,              # bands and fcf solve n_max + 1 bands
    },
    "bands": {
        "depth": None,            # default: lattice.depth_up
        "wannier_bands": 4,
        "wannier_span": 2.0,      # +- span in units of d
        "wannier_points": 401,
    },
    "fcf": {
        "max_shift_nm": 200.0,
        "n_shifts": 81,
        "bands": 6,
    },
    "spectrum": {
        "polarization_angles": [0.3538, 0.8770, 1.3167],
        "pulse_fwhm_us": 30.0,
        "detuning_min_khz": -1800.0,
        "detuning_max_khz": 100.0,
        "n_detunings": 800,
        "temperature_2d_uk": 10.0,
        "thermal_samples": 8,
        "radial_frequency_hz": 1000.0,   # accepted, no effect: it cancels
        "atoms_per_point": 0,     # 0 = noiseless probabilities
        "time_step_s": None,
    },
    "fit": {
        "input_csv": "",          # CSV with detuning_khz, probability columns
        "pulse_fwhm_us": 100.0,
        "atoms_per_point": 100,
        "guess": {
            "dx": 0.26,
            "w_down": 655.0,
            "du_tot": -100.0,
            "t2d": 1.1e-5,
        },
        "thermal_samples": 6,
        "n_max": 13,
        "k_points": 16,
        "time_step_s": 6e-7,
    },
    "cool": {
        "eta_x": 0.3,
        "eta_k": 0.134,
        "coupling_khz": 36.0,     # Omega_0 / 2 pi
        "pump_down_khz": 10.0,    # R_down / 2 pi
        "pump_aux_khz": 10.0,     # R_aux / 2 pi
        "pump_up_khz": 0.0,
        "n_max": 10,
        "initial_n_bar": 1.33,
        "evolve_ms": 0.0,         # 0 = steady state only
    },
    "coolmap": {
        "eta_x_min": 0.05,
        "eta_x_max": 1.5,
        "eta_x_points": 32,
        "coupling_min_khz": 2.0,
        "coupling_max_khz": 120.0,
        "coupling_points": 32,
    },
    "engineer": {
        "task": "superposition",  # superposition | fock | coherent
        "pulse_areas": [0.30, 0.40, 0.55, 0.70],
        "fock_m": 2,
        "coherent_eta_x": 1.0,
        "n_max": 15,
    },
    "filter": {
        "single_pass_efficiency": 0.7,
        "repetitions": 3,
        "n_bar": 1.33,
        "n_max": 15,
        "atoms": 0,               # 0 = exact plateaus
        "loss_per_repetition": 1.0,
    },
}


#: Value domain of every key as (rule, test, keys): a list must be non-empty
#: with each entry inside, a null-default key takes null or a value inside.
DOMAINS = (
    (">= 1", lambda v: v >= 1, """solver.k_points bands.wannier_bands
        bands.wannier_points fcf.n_shifts fcf.bands spectrum.n_detunings
        spectrum.thermal_samples fit.atoms_per_point fit.thermal_samples
        fit.k_points coolmap.eta_x_points coolmap.coupling_points
        filter.repetitions""".split()),
    (">= 0", lambda v: v >= 0, """solver.n_max solver.q_cutoff bands.depth
        spectrum.temperature_2d_uk spectrum.atoms_per_point fit.n_max
        cool.eta_x cool.eta_k cool.coupling_khz cool.pump_down_khz
        cool.pump_aux_khz cool.pump_up_khz cool.n_max cool.initial_n_bar
        cool.evolve_ms coolmap.eta_x_min coolmap.eta_x_max
        coolmap.coupling_min_khz coolmap.coupling_max_khz engineer.pulse_areas
        engineer.fock_m engineer.coherent_eta_x engineer.n_max filter.n_bar
        filter.n_max filter.atoms""".split()),
    ("> 0", lambda v: v > 0, """lattice.wavelength_nm lattice.depth_up
        bands.wannier_span spectrum.pulse_fwhm_us spectrum.radial_frequency_hz
        spectrum.time_step_s fit.pulse_fwhm_us fit.time_step_s""".split()),
    ("in [0, 1]", lambda v: 0 <= v <= 1, ["filter.single_pass_efficiency"]),
    ("in (0, 1]", lambda v: 0 < v <= 1, ["filter.loss_per_repetition"]),
    ("in [0, pi/2]", lambda v: 0 <= v <= math.pi / 2,
     ["lattice.polarization_angle", "spectrum.polarization_angles"]),
    ("superposition, fock or coherent",
     lambda v: v in ("superposition", "fock", "coherent"), ["engineer.task"]),
    # either sign by design; ``spectroscopy._fit_problem`` bounds the guess
    ("unbounded by design", lambda v: True, """spectrum.detuning_min_khz
        spectrum.detuning_max_khz fcf.max_shift_nm fit.guess.dx
        fit.guess.w_down fit.guess.du_tot fit.guess.t2d""".split()),
)
_DOMAIN = {key: (rule, test) for rule, test, keys in DOMAINS for key in keys}


def _number(value) -> bool:
    """An int or a finite float (JSON's NaN and Infinity), not a bool."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def _validate(user, default, path):
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"'{path}' must be an object")
        merged = copy.deepcopy(default)
        for key, val in user.items():
            if key not in default:
                raise ConfigError(f"unknown config key '{path + key}'")
            merged[key] = _validate(val, default[key], path + key + ".")
        return merged
    loc = path.rstrip(".")
    null = " or null" if default is None else ""
    if isinstance(default, str):
        if not isinstance(user, str):
            raise ConfigError(f"'{loc}' must be a string")
        value = user
    elif isinstance(default, list):
        if not isinstance(user, list) or not all(map(_number, user)):
            raise ConfigError(f"'{loc}' must be a list of finite numbers")
        if not user:
            raise ConfigError(f"'{loc}' must be a non-empty list")
        value = [float(v) for v in user]
    elif user is None and default is None:
        return None
    elif not _number(user):
        raise ConfigError(f"'{loc}' must be a finite number{null}")
    elif isinstance(default, int) or loc == "solver.q_cutoff":
        if user != int(user):
            raise ConfigError(f"'{loc}' must be an integer{null}")
        value = int(user)
    else:
        value = user if default is None else float(user)
    rule, inside = _DOMAIN.get(loc, ("", lambda v: True))
    for v in value if isinstance(value, list) else [value]:
        if not inside(v):
            raise ConfigError(f"'{loc}' must be {rule}{null}, got {v!r}")
    return value


def resolve(user: dict | None) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys."""
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _validate(user, DEFAULTS, "")


def load_config(path: str | Path | None) -> dict:
    """Read, parse and validate a JSON config file (or just the defaults)."""
    if path is None:
        return resolve({})
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve(data)


def dumps(config: dict) -> str:
    """Canonical serialization (sorted keys, fixed separators)."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"
