#!/usr/bin/env python3
"""mwlattice benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace {0,1}

Runs one workload (cooling_wannier or spectrum_states) in a fresh worker
process whose BLAS thread count is pinned before numpy loads, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
line before it records the machine and library versions.  Set-up time is
the median over several worker start-ups, scaled to the reference speed of
the speed probe as the rounds' times are.  A full record of the run goes
to ``.bench_out/``.  Exit code 0 means every operation ran and its output
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cooling_wannier", "spectrum_states")
BLAS_THREADS = 1
SETUP_STARTS = 8          # extra start-ups that stop once set-up is done
# Time allowed beyond --seconds for the extra start-ups, the round that
# overruns and the oracles; the worker is killed past it.
ALLOWANCE_S = 125.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(argv: list[str], deadline: float):
    """Run the worker; returns (seconds to 'ready', exit code, other lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, proc.returncode, lines


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's test")
    args = parser.parse_args()
    deadline = started + args.seconds + ALLOWANCE_S
    if not (ROOT / "src" / "mwlattice" / "__init__.py").is_file():
        print(f"no mwlattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size == "tiny":
        tag = f"tiny-{tag}"
    work = OUT / f"{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--size", args.size]
    setups = []
    try:
        if not args.trace:
            for i in range(SETUP_STARTS):
                ready, code, _ = start_worker(
                    common + ["--setup-only", "--out",
                              str(work / f"setup{i}")], deadline)
                if code != 0 or ready is None:
                    print(f"set-up start exited {code}", file=sys.stderr)
                    return 1
                setups.append(ready)
        ready, code, lines = start_worker(common + ["--out", str(work)],
                                          deadline)
        if code != 0 or ready is None or not lines:
            print(f"worker exited {code}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if (work / "trace.json").is_file():
            shutil.copy(work / "trace.json", OUT / f"trace-{tag}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(ready)
    result["setup_samples_s"] = setups
    if not args.trace:
        # at the reference speed, like wall_s: the machine's speed drifts
        # over minutes, and set-up time follows it
        result["metrics"]["setup_s"] = (statistics.median(setups)
                                        * result["speed_scale"])
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in result["units"].items()}
    print(json.dumps({"environment": result["environment"],
                      "rounds": result["rounds"]}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
