"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --runs 10 --trace 0 [--workloads NAME ...]
                                [--first-seed 1] [--record FILE]

Runs BENCHMARK.json's command once per seed and workload, one run at a
time. For every metric it prints the median of the runs, the quartiles
(statistics.quantiles(values, n=4)), and the spread: the distance
between the quartiles as a share of the median. End-to-end metrics are
marked against their bound. --record merges the figures, the artifact
digests and the machine facts into a baseline file (baseline.json).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BUNDLED, DEFAULT_SWARM_SEED

ROOT = Path(__file__).resolve().parent.parent

_ARTIFACT = re.compile(r"^artifact (\S+) sha256 ([0-9a-f]{64}) ")


def run_once(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=200, check=True).stdout.splitlines()
    digests = dict(m.groups() for m in map(_ARTIFACT.match, out) if m)
    return json.loads(out[-1]), digests


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    section = "end_to_end" if args.trace == 0 else "per_layer"
    figures, artifacts = {}, {}
    for workload in args.workloads:
        values, attempted, failed = {}, 0, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, digests = run_once(bench, workload, seed, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                values.setdefault(f"{name}:unit", metric["unit"])
            key = workload if workload in BUNDLED else \
                f"{workload}/seed{seed}/swarm{DEFAULT_SWARM_SEED}"
            artifacts[key] = digests
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        entry = {"why": why[workload], "runs": args.runs,
                 "samples_attempted": attempted, "samples_failed": failed,
                 "metrics": {}}
        for name in [k for k in values if ":" not in k]:
            q1, med, q3 = quartiles(values[name])
            spread = (q3 - q1) / med if med else 0.0
            entry["metrics"][name] = {
                "unit": values[f"{name}:unit"], "median": med, "q1": q1,
                "q3": q3, "spread": spread, "values": values[name]}
            mark = ""
            if name in bounds:
                mark = (f"bound {bounds[name]} "
                        + ("ok" if spread < bounds[name] / 3 else
                           "WITHIN BOUND" if spread <= bounds[name] else
                           "OVER BOUND"))
            print(f"  {name:26s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} {mark}")
        print(f"  samples {attempted}, failed {failed}", flush=True)
        figures[workload] = entry

    if args.record:
        record = {}
        if args.record.is_file():
            record = json.loads(args.record.read_text(encoding="utf-8"))
        record["machine"] = machine()
        record["run_seconds"] = bench["run_seconds"]
        record.setdefault(section, {}).update(figures)
        record.setdefault("artifacts", {}).update(artifacts)
        args.record.write_text(json.dumps(record, indent=1) + "\n",
                               encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
