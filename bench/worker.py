"""One benchmark workload in one process; started by ``run.py``.

Prints ``ready`` once imports and inputs are done (the end of set-up), then
runs whole rounds until the next one would overrun ``--seconds``, checks
every round's outputs, makes the once-per-run oracle comparisons and prints
one JSON object as its last line.  With ``--trace 1`` rounds alternate
between untraced and traced, so per-layer figures and the tracing overhead
come from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mwlattice  # noqa: E402
from mwlattice import bands, cli, cooling, engineering  # noqa: E402
from mwlattice import franck_condon, spectroscopy  # noqa: E402

import workloads  # noqa: E402
from tracing import Target, Tracer, module_targets  # noqa: E402

# The metrics, their order and units are those of BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NFEV = "spectroscopy.fit_spectrum.nfev"
# Called once per matrix element inside fcf_harmonic_matrix (about 10^5
# times a round); a span each would swamp the spans around it.
HOT_LEAVES = ("displacement_element",)


@dataclass
class Round:
    wall: float                 # seconds, speed probes excluded
    steps: dict[str, float]     # seconds per step
    probe: float                # mean speed-probe seconds in the round
    ok: bool                    # no operation failed

    @property
    def scaled(self) -> float:
        """The round's time at the reference speed."""
        return self.wall * workloads.PROBE_REF_S / self.probe


def trace_targets() -> list[Target]:
    def points(args, kwargs):
        return np.size(args[1] if len(args) > 1 else kwargs["x"])

    def columns(args, kwargs):
        return np.size(args[3] if len(args) > 3 else kwargs["detunings"])

    targets = [Target(bands.WannierState, "__call__", "bands.wannier_eval",
                      points),
               Target(engineering.HarmonicModel, "coupling",
                      "engineering.HarmonicModel.coupling"),
               Target(cli, "main", "cli.main")]
    for module in (bands, franck_condon, spectroscopy, cooling, engineering):
        prefix = module.__name__.rsplit(".", 1)[-1]
        for t in module_targets(module, prefix, HOT_LEAVES):
            if t.attr == "propagate_detunings":
                t = Target(t.owner, t.attr, t.name, columns)
            targets.append(t)
    return targets


def layer_metrics(tracer: Tracer, rounds: int, stages: dict[str, float],
                  overhead: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json.  ``<layer>.<suffix>``
    comes from the spans, a name without a layer from the untraced rounds'
    stage figures; a layer or stage the workload does not run reads 0."""
    stats = tracer.layer_stats()
    empty = {"calls": 0, "self": 0.0, "count": 0.0, "under_cache": 0}
    solves = stats.get("bands.solve_bands", empty)["under_cache"]
    suffixes = {
        "calls": lambda st, name: st["calls"] / rounds,
        "s": lambda st, name: st["self"] / rounds,
        "nfev": lambda st, name: tracer.counters.get(name, 0) / rounds,
        # 1 - solves under cached_bands / cached_bands calls
        "hit_ratio": lambda st, name: (1 - solves / st["calls"]
                                       if st["calls"] else 0.0),
        # work items per second of self time
        "points_per_s": lambda st, name: (st["count"] / st["self"]
                                          if st["self"] else 0.0),
    }
    suffixes["columns_per_s"] = suffixes["points_per_s"]
    out = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        layer, _, suffix = name.rpartition(".")
        if name == "trace.overhead_ratio":
            out[name] = overhead
        elif not layer:
            out[name] = stages.get(name, 0.0)
        else:
            out[name] = suffixes[suffix](stats.get(layer, empty), name)
    return out


def environment() -> dict:
    def blas(config) -> str:
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0))}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if not Path(mwlattice.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mwlattice imported from {mwlattice.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    out = Path(args.out)
    wl = workloads.WORKLOADS[args.workload](out, args.seed,
                                            args.size == "tiny")
    wl.prepare()
    print("ready", flush=True)
    if args.setup_only:
        shutil.rmtree(out, ignore_errors=True)
        return 0

    rec, chk = workloads.Recorder(), workloads.Checks()
    tracer = Tracer() if args.trace else None
    targets = trace_targets() if args.trace else []
    counted = [(spectroscopy, "least_squares", NFEV)]
    plain, traced = [], []        # Round records
    first = None
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        workloads.reset_caches()
        rec.steps, rec.probes = {}, []
        failed_before = rec.failed
        if tracing:
            tracer.install(targets, counted)
        t0 = time.perf_counter()
        try:
            outputs = wl.round(rec)
        finally:
            wall = time.perf_counter() - t0 - sum(rec.probes)
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(Round(
            wall, rec.steps, statistics.mean(rec.probes),
            rec.failed == failed_before))
        wl.check_round(outputs, chk)
        if first is None:
            first = outputs
        enough = plain and (tracer is None or traced)
        if enough and time.perf_counter() - start + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.steps = {}
    wl.final(first, rec, chk)

    # A round with a failed operation did less work; its times are left out
    # (such a run reports correct false, so its figures only inform).
    clean = [r for r in plain if r.ok] or plain
    stages = workloads.median_stages(wl, [r.steps for r in clean])
    kind = "per_layer" if tracer else "end_to_end"
    if tracer is None:
        measured = {"wall_s": statistics.median(r.scaled for r in clean),
                    "peak_rss_mb": peak_rss_mb}
        # setup_s is measured by run.py, from outside the worker
        metrics = {m["name"]: measured[m["name"]] for m in SPEC[kind]
                   if m["name"] != "setup_s"}
    else:
        overhead = (statistics.median(r.wall for r in traced)
                    / statistics.median(r.wall for r in plain))
        metrics = layer_metrics(tracer, len(traced), stages, overhead)
        (out / "trace.json").write_text(json.dumps(tracer.dump()))
    result = {
        "correct": not chk.failures and rec.failed == 0,
        "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics,
        "units": {m["name"]: m["unit"] for m in SPEC[kind]},
        "rounds": {"untraced": len(plain), "traced": len(traced),
                   "clean": sum(r.ok for r in plain)},
        # scales a time taken in this run to the reference speed
        "speed_scale": workloads.PROBE_REF_S / statistics.median(
            r.probe for r in plain),
        "round_wall_s": [r.wall for r in plain],
        "round_probe_s": [r.probe for r in plain],
        "round_steps": [r.steps for r in plain],
        "stages": stages,
        "checks": chk.results,
        "environment": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
