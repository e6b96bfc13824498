#!/usr/bin/env python3
"""Summarize the run records in .bench_out/ (written by bench/run.py).

    python3 bench/summarize.py

For every workload and metric: the number of runs, the median, and the
spread (distance between first and third quartile over the median) of the
untraced runs; then the medians of the traced runs' per-layer figures.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def main() -> None:
    runs = defaultdict(list)
    for path in sorted(OUT.glob("result-*.json")):
        if path.name.startswith("result-tiny-"):
            continue
        workload, _, trace = path.stem[len("result-"):].rpartition("-seed")
        runs[(workload, trace.endswith("trace1"))].append(
            json.loads(path.read_text()))
    for (workload, traced), results in sorted(runs.items()):
        print(f"{workload} ({'traced' if traced else 'untraced'}, "
              f"{len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name] for r in results]
            median = statistics.median(values)
            if traced:
                if median:
                    print(f"  {name:44s} {median:12.5g}")
                continue
            spread = float("nan")
            if len(values) > 1 and median:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / median
            print(f"  {name:44s} {median:12.5g}  spread {spread:.3f}")


if __name__ == "__main__":
    main()
